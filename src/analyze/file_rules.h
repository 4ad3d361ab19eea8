// Static analyzer, layer 5: the per-file rules.
//
// Everything a file decides on its own, from its tokens, its index and
// the docs it must stay in lockstep with:
//
//   det-*     the file's own nondeterminism sinks (every scanned file)
//   hot-*     the hotpath marker, and the allocation sinks of a
//             hotpath-marked file
//   layer-*   direct includes against the layering DAG (graph.h), and
//             trace's one public header
//   par-*     mutable statics; scheduling that bypasses the mailbox
//   rob-exit  process exits outside the supervisor/worker seam
//   docs-*    probe names, ParallelParams knobs and run_status labels
//             that the docs under --root do not mention
//
// The det-* and hot-* alloc rules are the depth-0 reports of the sink
// catalog (index.h); ana-hot-alloc-reach in analyzer.cpp reports the
// same catalog at call depth >= 1.
#pragma once

#include <string>
#include <vector>

#include "analyze/index.h"
#include "analyze/report.h"
#include "analyze/source.h"

namespace hicc::analyze {

/// The doc texts the docs-* rules search (empty when a doc is absent).
struct Docs {
  std::string probes;      // docs/OBSERVABILITY.md + docs/FAULTS.md
  std::string parallel;    // docs/PARALLELISM.md
  std::string robustness;  // docs/ROBUSTNESS.md
};

Docs load_docs(const std::string& root);

/// Appends the per-file findings of `sf` (pre-suppression).
void check_file(const SourceFile& sf, const FileIndex& idx, const Docs& docs,
                std::vector<Diagnostic>* out);

}  // namespace hicc::analyze
