#include "analyze/analyzer.h"

#include <algorithm>
#include <deque>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <sstream>

#include "analyze/file_rules.h"
#include "analyze/graph.h"
#include "analyze/index.h"
#include "analyze/source.h"

namespace hicc::analyze {
namespace {

namespace fs = std::filesystem;

constexpr const char* kHotSinks[] = {"new", "malloc", "make-unique-shared", "std-function",
                                     "container-growth"};

// Modules whose code runs inside partition callbacks under the
// parallel engine (everything the datapath executes; harness layers
// core/fault/sweep and the read-only trace/analyze layers are not
// partition seams).
const std::set<std::string>& partition_modules() {
  static const std::set<std::string> kMods = {"sim",  "net",  "nic",       "pcie",    "iommu",
                                              "mem",  "host", "transport", "workload"};
  return kMods;
}

bool sink_in(const SinkSite& s, const char* const* kinds, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) {
    if (s.kind == kinds[k]) return true;
  }
  return false;
}

struct Tree {
  std::map<std::string, SourceFile> files;  // rel path -> lexed file
  std::map<std::string, FileIndex> index;   // rel path -> index
  std::vector<const FunctionDef*> fns;      // flattened, file order
  std::vector<std::vector<int>> callees;    // resolved call-graph edges
  int call_edges = 0;
};

bool has_cxx_ext(const std::string& name) {
  for (const char* ext : {".h", ".hpp", ".cpp", ".cc"}) {
    std::string e(ext);
    if (name.size() > e.size() && name.compare(name.size() - e.size(), e.size(), e) == 0) {
      return true;
    }
  }
  return false;
}

std::string rel_to_root(const fs::path& p, const fs::path& root) {
  std::string rel = p.lexically_normal().lexically_relative(root).generic_string();
  return rel.empty() ? p.generic_string() : rel;
}

// Directories walk recursively, files are taken as-is, everything
// sorted and deduplicated.
bool collect_files(const Options& opts, const fs::path& root, std::set<std::string>* out,
                   std::string* err) {
  for (const std::string& arg : opts.paths) {
    fs::path p = fs::path(arg).is_absolute() ? fs::path(arg) : root / arg;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (auto it = fs::recursive_directory_iterator(p, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file() && has_cxx_ext(it->path().filename().string())) {
          out->insert(rel_to_root(it->path(), root));
        }
      }
    } else if (fs::is_regular_file(p, ec)) {
      out->insert(rel_to_root(p, root));
    } else {
      *err = "hicc_analyze: no such path: " + arg;
      return false;
    }
  }
  return true;
}

// ---- call graph ----------------------------------------------------

void build_call_graph(Tree* tree) {
  // Flatten in file order (files map is sorted by path).
  std::map<std::string, std::vector<int>> by_name;
  for (const auto& [path, idx] : tree->index) {
    for (const FunctionDef& fn : idx.functions) {
      by_name[fn.name].push_back(static_cast<int>(tree->fns.size()));
      tree->fns.push_back(&fn);
    }
  }
  const auto& closure = layer_dag_closure();
  tree->callees.resize(tree->fns.size());
  for (std::size_t i = 0; i < tree->fns.size(); ++i) {
    const FunctionDef& f = *tree->fns[i];
    std::set<std::string> allowed;  // empty = allow every module
    if (!f.module.empty()) {
      allowed = {f.module, "common"};
      auto it = closure.find(f.module);
      if (it != closure.end()) allowed.insert(it->second.begin(), it->second.end());
    }
    std::set<int> outs;
    for (const CallSite& c : f.calls) {
      auto cand = by_name.find(c.callee);
      if (cand == by_name.end()) continue;
      for (int g : cand->second) {
        if (g == static_cast<int>(i)) continue;
        const FunctionDef& gf = *tree->fns[g];
        if (!allowed.empty() && gf.file != f.file && allowed.count(gf.module) == 0) continue;
        outs.insert(g);
      }
    }
    tree->callees[i].assign(outs.begin(), outs.end());
    tree->call_edges += static_cast<int>(outs.size());
  }
}

// Multi-source BFS; fills depth (-1 unreached) and parent (-1 none).
void reach(const Tree& tree, const std::vector<int>& roots, std::vector<int>* depth,
           std::vector<int>* parent) {
  depth->assign(tree.fns.size(), -1);
  parent->assign(tree.fns.size(), -1);
  std::deque<int> queue;
  for (int r : roots) {
    if ((*depth)[r] == -1) {
      (*depth)[r] = 0;
      queue.push_back(r);
    }
  }
  while (!queue.empty()) {
    int v = queue.front();
    queue.pop_front();
    for (int w : tree.callees[v]) {
      if ((*depth)[w] != -1) continue;
      (*depth)[w] = (*depth)[v] + 1;
      (*parent)[w] = v;
      queue.push_back(w);
    }
  }
}

std::string chain_string(const Tree& tree, const std::vector<int>& parent, int g) {
  std::vector<std::string> names;
  for (int v = g; v != -1; v = parent[v]) names.push_back(tree.fns[v]->qualified);
  std::reverse(names.begin(), names.end());
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

int chain_root(const std::vector<int>& parent, int g) {
  int v = g;
  while (parent[v] != -1) v = parent[v];
  return v;
}

// "file:Qualified" entries, root first.
std::vector<std::string> chain_links(const Tree& tree, const std::vector<int>& parent, int g) {
  std::vector<std::string> links;
  for (int v = g; v != -1; v = parent[v]) {
    links.push_back(tree.fns[v]->file + ":" + tree.fns[v]->qualified);
  }
  std::reverse(links.begin(), links.end());
  return links;
}

// ---- rules ---------------------------------------------------------

void rule_include_cycle(const IncludeGraph& graph, std::vector<Diagnostic>* out) {
  for (const IncludeCycle& cyc : graph.find_cycles()) {
    std::string path;
    for (const std::string& f : cyc.path) {
      if (!path.empty()) path += " -> ";
      path += f;
    }
    path += " -> " + cyc.path.front();
    Diagnostic d;
    d.file = cyc.at_file;
    d.line = cyc.line;
    d.col = cyc.col;
    d.rule = "ana-include-cycle";
    d.message = "include cycle: " + path + "; headers must form a DAG (DESIGN.md §9)";
    out->push_back(std::move(d));
  }
}

void rule_include_unused(const Tree& tree, const IncludeGraph& graph,
                         std::vector<Diagnostic>* out) {
  for (const IncludeEdge& e : graph.edges()) {
    if (e.resolved.empty()) continue;
    // A .cpp's own header is its interface, not a dependency choice.
    auto stem = [](const std::string& p) {
      std::size_t dot = p.rfind('.');
      return dot == std::string::npos ? p : p.substr(0, dot);
    };
    if (stem(e.from) == stem(e.resolved)) continue;
    const FileIndex& provider = tree.index.at(e.resolved);
    if (provider.provided.empty()) continue;  // marker/macro-only header
    const FileIndex& user = tree.index.at(e.from);
    bool used = false;
    for (const std::string& name : provider.provided) {
      if (user.used_idents.count(name)) {
        used = true;
        break;
      }
    }
    if (used) continue;
    Diagnostic d;
    d.file = e.from;
    d.line = e.line;
    d.col = e.col;
    d.rule = "ana-include-unused";
    d.warning = true;
    d.message = "unused direct include \"" + e.target +
                "\": nothing it provides is referenced in this file (advisory -- remove it, "
                "or keep it with an allow and a why)";
    out->push_back(std::move(d));
  }
}

void rule_hot_alloc_reach(const Tree& tree, std::vector<Diagnostic>* out) {
  std::vector<int> roots;
  for (std::size_t i = 0; i < tree.fns.size(); ++i) {
    const FunctionDef& f = *tree.fns[i];
    if (f.in_hotpath_file && !f.is_ctor_dtor) roots.push_back(static_cast<int>(i));
  }
  std::vector<int> depth;
  std::vector<int> parent;
  reach(tree, roots, &depth, &parent);
  for (std::size_t g = 0; g < tree.fns.size(); ++g) {
    if (depth[g] < 0) continue;
    const FunctionDef& fn = *tree.fns[g];
    if (fn.in_hotpath_file) continue;  // depth 0: the hot-* rules report it
    for (const SinkSite& s : fn.sinks) {
      if (!sink_in(s, kHotSinks, std::size(kHotSinks))) continue;
      int root = chain_root(parent, static_cast<int>(g));
      Diagnostic d;
      d.file = fn.file;
      d.line = s.line;
      d.col = s.col;
      d.rule = "ana-hot-alloc-reach";
      d.message = "allocation (" + s.detail + ") reachable from hot-path function '" +
                  tree.fns[root]->qualified + "' via " +
                  chain_string(tree, parent, static_cast<int>(g)) +
                  "; steady state must be allocation-free (DESIGN.md §8)";
      d.chain = chain_links(tree, parent, static_cast<int>(g));
      out->push_back(std::move(d));
    }
  }
}

void rule_par_global_reach(const Tree& tree, std::vector<Diagnostic>* out) {
  // Program-wide mutable-global registry, deduplicated by name (first
  // declaration in path order wins for the message).
  std::map<std::string, const GlobalVar*> globals;
  for (const auto& [path, idx] : tree.index) {
    for (const GlobalVar& g : idx.mutable_globals) {
      globals.emplace(g.name, &g);
    }
  }
  if (globals.empty()) return;
  const auto& closure = layer_dag_closure();
  std::vector<int> roots;
  for (std::size_t i = 0; i < tree.fns.size(); ++i) {
    if (partition_modules().count(tree.fns[i]->module)) roots.push_back(static_cast<int>(i));
  }
  std::vector<int> depth;
  std::vector<int> parent;
  reach(tree, roots, &depth, &parent);
  for (std::size_t g = 0; g < tree.fns.size(); ++g) {
    if (depth[g] < 0) continue;
    const FunctionDef& fn = *tree.fns[g];
    std::set<std::string> visible = {fn.module, "common", ""};
    auto cit = closure.find(fn.module);
    if (cit != closure.end()) visible.insert(cit->second.begin(), cit->second.end());
    for (const auto& [name, pos] : fn.body_idents) {
      auto git = globals.find(name);
      if (git == globals.end()) continue;
      const GlobalVar& var = *git->second;
      if (fn.module.empty()) {
        // Outside src/<module>: everything is visible.
      } else if (var.file != fn.file && visible.count(var.module) == 0) {
        continue;
      }
      int root = chain_root(parent, static_cast<int>(g));
      Diagnostic d;
      d.file = fn.file;
      d.line = pos.first;
      d.col = pos.second;
      d.rule = "ana-par-global-reach";
      d.message = "mutable global '" + name + "' (" + var.file + ":" +
                  std::to_string(var.line) + ") referenced by '" + fn.qualified +
                  "', reachable from partition seam '" + tree.fns[root]->qualified + "' via " +
                  chain_string(tree, parent, static_cast<int>(g)) +
                  "; partition callbacks must not share unguarded state (docs/PARALLELISM.md)";
      d.chain = chain_links(tree, parent, static_cast<int>(g));
      out->push_back(std::move(d));
    }
  }
}

}  // namespace

Result run(const Options& opts) {
  Result res;
  fs::path root = fs::absolute(opts.root.empty() ? "." : opts.root).lexically_normal();

  std::set<std::string> rel_paths;
  std::string err;
  if (!collect_files(opts, root, &rel_paths, &err)) {
    res.io_error = true;
    res.io_message = err;
    res.failed = true;
    return res;
  }

  Tree tree;
  for (const std::string& rel : rel_paths) {
    SourceFile sf;
    if (!load_source((root / rel).string(), rel, &sf)) continue;
    tree.files.emplace(rel, std::move(sf));
  }
  for (const auto& [rel, sf] : tree.files) {
    const SourceFile* sibling = nullptr;
    if (rel.size() > 4 && rel.compare(rel.size() - 4, 4, ".cpp") == 0) {
      auto it = tree.files.find(rel.substr(0, rel.size() - 4) + ".h");
      if (it != tree.files.end()) sibling = &it->second;
    }
    tree.index.emplace(rel, index_file(sf, sibling));
  }

  IncludeGraph graph;
  graph.build(tree.files);
  build_call_graph(&tree);

  std::vector<Diagnostic> raw;
  const Docs docs = load_docs(root.string());
  for (const auto& [rel, sf] : tree.files) check_file(sf, tree.index.at(rel), docs, &raw);
  rule_include_cycle(graph, &raw);
  rule_include_unused(tree, graph, &raw);
  rule_hot_alloc_reach(tree, &raw);
  rule_par_global_reach(tree, &raw);

  // Suppressions, then baseline for errors.
  int suppressions_used = 0;
  std::vector<Diagnostic> kept;
  for (Diagnostic& d : raw) {
    auto fit = tree.files.find(d.file);
    if (fit != tree.files.end()) {
      if (fit->second.allowed(d.line, d.rule)) {
        ++suppressions_used;
        continue;
      }
      d.norm = fit->second.norm(d.line);
    }
    kept.push_back(std::move(d));
  }

  std::vector<std::string> baseline =
      load_baseline(opts.baseline_path.empty()
                        ? (root / "scripts" / "hicc_analyze_baseline.txt").string()
                        : opts.baseline_path);
  std::set<std::string> baseline_set(baseline.begin(), baseline.end());
  std::set<std::string> used_baseline;
  for (Diagnostic& d : kept) {
    if (d.warning) {
      res.warnings.push_back(std::move(d));
      continue;
    }
    res.all_error_keys.push_back(d.baseline_key());
    if (baseline_set.count(d.baseline_key())) {
      used_baseline.insert(d.baseline_key());
      continue;
    }
    res.findings.push_back(std::move(d));
  }
  for (const std::string& key : baseline) {
    if (!used_baseline.count(key)) res.stale_baseline.push_back(key);
  }

  // Strict: unused suppressions become findings of their own.
  if (opts.strict) {
    for (const auto& [rel, sf] : tree.files) {
      for (const auto& [line, rule] : sf.unused_allows()) {
        Diagnostic d;
        d.file = rel;
        d.line = line;
        d.col = 1;
        d.rule = "ana-unused-suppression";
        d.message = "allow(" + rule + ") no longer matches a finding; remove it";
        res.findings.push_back(std::move(d));
      }
    }
  }

  sort_diagnostics(&res.findings);
  sort_diagnostics(&res.warnings);

  res.stats.files = static_cast<int>(tree.files.size());
  for (const auto& [rel, idx] : tree.index) {
    res.stats.functions += static_cast<int>(idx.functions.size());
  }
  res.stats.include_edges = static_cast<int>(graph.edges().size());
  res.stats.call_edges = tree.call_edges;
  res.stats.suppressions_used = suppressions_used;
  res.stats.baselined = static_cast<int>(used_baseline.size());
  res.stats.stale_baseline = res.stale_baseline;
  res.stats.scanned_paths = opts.paths;

  res.failed = !res.findings.empty() || (opts.strict && !res.stale_baseline.empty());
  return res;
}

std::string format_text(const Result& r, bool strict) {
  std::ostringstream out;
  if (r.io_error) {
    out << r.io_message << "\n";
    return out.str();
  }
  std::vector<Diagnostic> merged;
  merged.insert(merged.end(), r.warnings.begin(), r.warnings.end());
  merged.insert(merged.end(), r.findings.begin(), r.findings.end());
  sort_diagnostics(&merged);
  for (const Diagnostic& d : merged) out << d.text() << "\n";
  if (!r.findings.empty()) {
    out << "hicc_analyze: " << r.findings.size() << " finding(s)";
    if (r.stats.baselined > 0) out << " (" << r.stats.baselined << " baselined)";
    out << "\n";
  }
  if (strict) {
    for (const std::string& key : r.stale_baseline) {
      out << "hicc_analyze: stale baseline entry (fixed? delete it): " << key << "\n";
    }
  }
  if (!r.failed && r.findings.empty()) {
    out << "hicc_analyze: OK (" << r.stats.files << " files, " << r.stats.baselined
        << " baselined finding(s))\n";
  }
  return out.str();
}

std::vector<std::string> rule_ids() {
  return {"ana-hot-alloc-reach",  "ana-include-cycle",    "ana-include-unused",
          "ana-par-global-reach", "ana-unused-suppression", "det-pointer-keyed",
          "det-rand",             "det-seeded-rng",       "det-unordered-iter",
          "det-wallclock",        "docs-par-knob",        "docs-probe-dynamic",
          "docs-probe-undocumented", "docs-run-status",   "hot-heap-alloc",
          "hot-marker-missing",   "hot-std-function",     "hot-vector-growth",
          "layer-dag",            "layer-trace-header",   "par-engine-post",
          "par-static-mutable",   "rob-exit"};
}

}  // namespace hicc::analyze
