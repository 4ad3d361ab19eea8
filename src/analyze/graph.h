// Static analyzer, layer 3: the include graph and the layering DAG.
//
// Nodes are root-relative file paths; edges are quoted #include
// directives, resolved first against the src/-rooted include path the
// build uses (target_include_directories(... src)), then relative to
// the including file. The graph backs ana-include-cycle (DFS back
// edges) and ana-include-unused (a direct include none of whose
// provided names the includer mentions).
//
// layer_dag() is the project's one copy of the module layering DAG:
// the layer-dag rule checks every direct include against it, and its
// transitive closure bounds call-graph resolution.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace hicc::analyze {

struct IncludeEdge {
  std::string from;      // includer, root-relative
  std::string target;    // as written between the quotes
  std::string resolved;  // root-relative path, "" if outside the scanned set
  int line = 0;
  int col = 0;
};

struct IncludeCycle {
  std::vector<std::string> path;  // f0, f1, ..., fk with fk including f0
  std::string at_file;            // file carrying the closing directive
  int line = 0;
  int col = 0;
};

class IncludeGraph {
 public:
  /// Builds edges for every scanned file. `files` is keyed by
  /// root-relative path; resolution only succeeds into that set.
  void build(const std::map<std::string, SourceFile>& files);

  [[nodiscard]] const std::vector<IncludeEdge>& edges() const { return edges_; }

  /// All include cycles, one per DFS back edge, in deterministic order.
  [[nodiscard]] std::vector<IncludeCycle> find_cycles() const;

 private:
  std::vector<IncludeEdge> edges_;
  std::map<std::string, std::vector<std::string>> adj_;  // resolved edges only
  std::map<std::string, std::map<std::string, std::pair<int, int>>> edge_pos_;
};

/// The module layering DAG: module -> modules it may include directly
/// (besides itself and common).
const std::map<std::string, std::set<std::string>>& layer_dag();

/// Transitive closure of layer_dag(): module -> every module it may
/// depend on through any chain of allowed direct includes.
const std::map<std::string, std::set<std::string>>& layer_dag_closure();

}  // namespace hicc::analyze
