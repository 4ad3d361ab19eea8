#include "analyze/graph.h"

#include <algorithm>

namespace hicc::analyze {
namespace {

// Collapses "a/./b" and "a/x/../b" segments.
std::string normalize(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (std::size_t i = 0; i <= path.size(); ++i) {
    if (i == path.size() || path[i] == '/') {
      if (cur == "..") {
        if (!parts.empty()) parts.pop_back();
      } else if (!cur.empty() && cur != ".") {
        parts.push_back(cur);
      }
      cur.clear();
    } else {
      cur.push_back(path[i]);
    }
  }
  std::string out;
  for (const std::string& p : parts) {
    if (!out.empty()) out.push_back('/');
    out += p;
  }
  return out;
}

std::string dirname_of(const std::string& path) {
  std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "" : path.substr(0, slash);
}

std::string resolve(const std::string& from, const std::string& target,
                    const std::map<std::string, SourceFile>& files) {
  // Build include path: -I src (the CMake convention), then quoted
  // lookup relative to the including file, then root-relative.
  std::string cand = normalize("src/" + target);
  if (files.count(cand)) return cand;
  std::string dir = dirname_of(from);
  cand = normalize(dir.empty() ? target : dir + "/" + target);
  if (files.count(cand)) return cand;
  cand = normalize(target);
  if (files.count(cand)) return cand;
  return "";
}

}  // namespace

void IncludeGraph::build(const std::map<std::string, SourceFile>& files) {
  for (const auto& [path, sf] : files) {
    for (const IncludeDirective& inc : sf.includes) {
      IncludeEdge e;
      e.from = path;
      e.target = inc.target;
      e.resolved = resolve(path, inc.target, files);
      e.line = inc.line;
      e.col = inc.col;
      edges_.push_back(e);
      if (!e.resolved.empty()) {
        adj_[path].push_back(e.resolved);
        edge_pos_[path].emplace(e.resolved, std::make_pair(inc.line, inc.col));
      }
    }
  }
  for (auto& [from, outs] : adj_) {
    std::sort(outs.begin(), outs.end());
    outs.erase(std::unique(outs.begin(), outs.end()), outs.end());
  }
}

std::vector<IncludeCycle> IncludeGraph::find_cycles() const {
  std::vector<IncludeCycle> cycles;
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::vector<std::string> stack;

  // Iterative DFS so deep include chains cannot overflow the C stack.
  struct Frame {
    std::string node;
    std::size_t next = 0;
  };
  std::vector<std::string> roots;
  roots.reserve(adj_.size());
  for (const auto& [node, outs] : adj_) roots.push_back(node);

  for (const std::string& root : roots) {
    if (color[root] != 0) continue;
    std::vector<Frame> frames;
    frames.push_back({root, 0});
    color[root] = 1;
    stack.push_back(root);
    while (!frames.empty()) {
      Frame& f = frames.back();
      auto it = adj_.find(f.node);
      const std::vector<std::string>* outs = it == adj_.end() ? nullptr : &it->second;
      if (outs == nullptr || f.next >= outs->size()) {
        color[f.node] = 2;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const std::string& to = (*outs)[f.next++];
      int c = color[to];
      if (c == 1) {
        // Back edge f.node -> to: the cycle is the stack from `to` down.
        IncludeCycle cyc;
        auto at = std::find(stack.begin(), stack.end(), to);
        cyc.path.assign(at, stack.end());
        cyc.at_file = f.node;
        auto pos = edge_pos_.at(f.node).at(to);
        cyc.line = pos.first;
        cyc.col = pos.second;
        cycles.push_back(std::move(cyc));
        continue;
      }
      if (c == 0) {
        color[to] = 1;
        stack.push_back(to);
        frames.push_back({to, 0});
      }
    }
  }
  return cycles;
}

const std::map<std::string, std::set<std::string>>& layer_dag() {
  // The only copy of the DAG; DESIGN.md §9 explains how to read it.
  // Every module may also include itself and common.
  static const std::map<std::string, std::set<std::string>> kDag = {
      {"common", {}},
      {"sim", {}},
      {"trace", {"sim"}},
      {"net", {"sim"}},
      {"mem", {"sim", "trace"}},
      {"iommu", {"sim", "trace", "mem"}},
      {"pcie", {"sim", "trace", "mem", "iommu"}},
      {"nic", {"sim", "trace", "net", "iommu", "pcie"}},
      {"transport", {"sim", "trace", "net"}},
      {"host", {"sim", "trace", "net", "nic", "pcie", "iommu", "mem"}},
      {"workload", {"sim", "trace", "net", "transport", "host"}},
      {"core",
       {"sim", "trace", "net", "nic", "pcie", "iommu", "mem", "host", "transport", "fault",
        "workload"}},
      {"fault", {"sim", "trace", "net", "nic", "pcie", "iommu", "mem", "host", "transport"}},
      {"sweep", {"sim", "trace", "core", "fault"}},
      {"analyze", {}},
  };
  return kDag;
}

const std::map<std::string, std::set<std::string>>& layer_dag_closure() {
  static const std::map<std::string, std::set<std::string>> kClosure = [] {
    const auto& dag = layer_dag();
    std::map<std::string, std::set<std::string>> closure;
    for (const auto& [mod, deps] : dag) {
      // BFS over allowed-dependency edges.
      std::set<std::string>& out = closure[mod];
      std::vector<std::string> queue(deps.begin(), deps.end());
      while (!queue.empty()) {
        std::string next = queue.back();
        queue.pop_back();
        if (!out.insert(next).second) continue;
        auto it = dag.find(next);
        if (it == dag.end()) continue;
        for (const std::string& d : it->second) queue.push_back(d);
      }
    }
    return closure;
  }();
  return kClosure;
}

}  // namespace hicc::analyze
