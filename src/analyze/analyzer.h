// Static analyzer, layer 6: the analysis driver.
//
// run() loads and lexes every C++ file under the requested paths,
// indexes each one, builds the include graph and the approximate call
// graph, and applies the rule set: the per-file rules (file_rules.h)
// and the whole-program ones --
//
//   ana-include-cycle      include cycles
//   ana-include-unused     direct includes providing nothing the
//                          includer mentions (warning-level advisory)
//   ana-hot-alloc-reach    allocation sinks in files without the
//                          hotpath marker, reachable from functions in
//                          hotpath-marked files (the hot-* rules report
//                          the sinks inside those files)
//   ana-par-global-reach   references to namespace-scope mutable
//                          variables from functions reachable from
//                          partition-module seams
//   ana-unused-suppression (--strict) an allow that silences nothing
//
// Call edges are layering-aware: a call in module M only resolves to
// definitions in M, common, or M's transitive DAG closure, which is
// what keeps an approximate name-keyed call graph from inventing
// cross-module edges the build would reject.
#pragma once

#include <string>
#include <vector>

#include "analyze/report.h"

namespace hicc::analyze {

struct Options {
  std::string root;                // holds src/ and docs/ (default ".")
  std::vector<std::string> paths;  // files/dirs to scan, relative to root
  std::string baseline_path;       // "" -> <root>/scripts/hicc_analyze_baseline.txt
  bool strict = false;             // fail on stale baseline/suppressions
};

struct Result {
  std::vector<Diagnostic> findings;  // fresh errors (and, under --strict,
                                     // ana-unused-suppression), sorted
  std::vector<Diagnostic> warnings;  // advisory diagnostics, sorted
  std::vector<std::string> stale_baseline;  // unmatched baseline keys
  std::vector<std::string> all_error_keys;  // pre-baseline keys (--write-baseline)
  ReportStats stats;
  bool failed = false;       // exit-1 condition (strict folds in staleness)
  bool io_error = false;     // a path argument did not exist
  std::string io_message;
};

/// Runs the full analysis. Deterministic: same tree, same output.
Result run(const Options& opts);

/// Renders the human-readable output: sorted diagnostics, then the
/// summary / staleness / OK lines.
std::string format_text(const Result& r, bool strict);

/// Sorted rule ids (--list-rules).
std::vector<std::string> rule_ids();

}  // namespace hicc::analyze
