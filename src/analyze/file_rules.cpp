#include "analyze/file_rules.h"

#include <fstream>
#include <sstream>

#include "analyze/graph.h"

namespace hicc::analyze {
namespace {

// Every file under these directories must carry the hotpath marker.
constexpr const char* kHotDirs[] = {"src/sim/", "src/nic/", "src/pcie/", "src/iommu/",
                                    "src/workload/"};
// The only src/ files that may end the process: the point worker
// (injected deaths, its exit-code contract) and the supervisor's
// post-fork exec-failure path.
constexpr const char* kExitAllowed[] = {"src/sweep/worker.cpp", "src/sweep/supervisor.cpp"};
constexpr const char* kParKnobFile = "src/sim/parallel.h";
constexpr const char* kRunStatusFile = "src/core/metrics.h";
constexpr const char* kProbeDocs = "docs/OBSERVABILITY.md or docs/FAULTS.md";

constexpr const char* kDetMessages[][2] = {
    {"wallclock",
     "wall-clock time source in simulator code; runs must be a pure function of the seed -- use "
     "sim::Simulator::now()"},
    {"rand",
     "non-seedable/global RNG; use hicc::Rng forked from the experiment seed (common/rng.h)"},
    {"pointer-keyed",
     "ordered container keyed by pointer: its order follows allocation addresses, which change "
     "from run to run -- key by a stable id"},
};

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class FileChecker {
 public:
  FileChecker(const SourceFile& sf, const FileIndex& idx, const Docs& docs,
              std::vector<Diagnostic>* out)
      : sf_(sf), idx_(idx), docs_(docs), t_(sf.tokens), out_(out), module_(sf.module_name()) {}

  void run() {
    sinks();
    includes();
    if (module_.empty()) return;
    for (std::size_t i = 0; i < t_.size(); ++i) {
      if (t_[i].kind != Token::Kind::kIdent) continue;
      static_mutable(i);
      engine_post(i);
      exit_call(i);
      probe(i);
    }
    if (sf_.path == kRunStatusFile) run_status();
    if (sf_.path == kParKnobFile) par_knobs();
  }

 private:
  const SourceFile& sf_;
  const FileIndex& idx_;
  const Docs& docs_;
  const std::vector<Token>& t_;
  std::vector<Diagnostic>* out_;
  std::string module_;

  void emit(int line, int col, const char* rule, std::string message) {
    Diagnostic d;
    d.file = sf_.path;
    d.line = line;
    d.col = col;
    d.rule = rule;
    d.message = std::move(message);
    out_->push_back(std::move(d));
  }

  [[nodiscard]] const std::string& text(std::size_t i) const {
    static const std::string kEmpty;
    return i < t_.size() ? t_[i].text : kEmpty;
  }

  // Contents of the string literal token `i`, read back from the raw line.
  [[nodiscard]] std::string literal(std::size_t i) const {
    if (i >= t_.size() || t_[i].kind != Token::Kind::kString) return "";
    const std::string& raw = sf_.raw[static_cast<std::size_t>(t_[i].line - 1)];
    std::size_t open = static_cast<std::size_t>(t_[i].col);
    std::size_t close = raw.find('"', open);
    return close == std::string::npos ? "" : raw.substr(open, close - open);
  }

  // ---- det-*, hot-*: the file's own sinks ---------------------------

  void sinks() {
    bool hot_dir = false;
    for (const char* d : kHotDirs) hot_dir = hot_dir || starts_with(sf_.path, d);
    if (hot_dir && !sf_.hotpath) {
      emit(1, 1, "hot-marker-missing",
           "files under src/sim,... must carry '// hicc-lint: hotpath' so hot-path hygiene "
           "rules apply");
    }
    for (const SinkSite& s : idx_.sinks) {
      for (const auto& [kind, message] : kDetMessages) {
        if (s.kind == kind) emit(s.line, s.col, ("det-" + s.kind).c_str(), message);
      }
      if (s.kind == "unordered-iter") {
        emit(s.line, s.col, "det-unordered-iter",
             "range-for over unordered container '" + s.detail +
                 "': iteration order is implementation-defined and must not feed "
                 "metrics/trace/JSON -- sort first or use an ordered container");
      }
      if (!sf_.hotpath) continue;
      if (s.kind == "new" || s.kind == "malloc") {
        emit(s.line, s.col, "hot-heap-alloc",
             "heap allocation in a hot-path file; steady state must be allocation-free "
             "(slab/free-list patterns, DESIGN.md §8)");
      } else if (s.kind == "make-unique-shared") {
        emit(s.line, s.col, "hot-heap-alloc",
             "make_unique/make_shared in a hot-path file; steady state must be allocation-free "
             "(slab/free-list, DESIGN.md §8)");
      } else if (s.kind == "std-function") {
        emit(s.line, s.col, "hot-std-function",
             "std::function heap-allocates large captures; use sim::InlineFunction/InlineCallback "
             "(sim/inline_action.h)");
      } else if (s.kind == "container-growth" && idx_.vectors.count(s.receiver) &&
                 !idx_.reserved.count(s.receiver)) {
        emit(s.line, s.col, "hot-vector-growth",
             "'" + s.detail +
                 "' on a std::vector with no reserve() in this file: growth reallocates on the hot "
                 "path -- reserve, or suppress if growth is amortized/startup-only");
      }
    }
    for (std::size_t i = 0; i + 3 < t_.size(); ++i) {
      if (t_[i].text == "Rng" && t_[i + 1].text == "(" && t_[i + 2].kind == Token::Kind::kNumber) {
        emit(t_[i].line, t_[i].col, "det-seeded-rng",
             "Rng constructed from a literal seed; derive it from the experiment seed "
             "(Rng::fork() / derive_seed) so streams stay independent per DESIGN.md §7");
      }
    }
  }

  // ---- layer-* ------------------------------------------------------

  void includes() {
    if (module_.empty()) return;
    const auto& dag = layer_dag();
    auto own = dag.find(module_);
    for (const IncludeDirective& inc : sf_.includes) {
      std::string target = inc.target.substr(0, inc.target.find('/'));
      if (own != dag.end() && dag.count(target) && target != module_ && target != "common" &&
          !own->second.count(target)) {
        std::set<std::string> allowed = own->second;
        allowed.insert({module_, "common"});
        std::string list;
        for (const std::string& a : allowed) list += (list.empty() ? "" : ", ") + a;
        emit(inc.line, inc.col, "layer-dag",
             "src/" + module_ + " must not include src/" + target + " (allowed: " + list +
                 "; DESIGN.md §9 DAG)");
      }
      if (module_ != "trace" && starts_with(inc.target, "trace/") &&
          inc.target != "trace/trace.h") {
        emit(inc.line, inc.col, "layer-trace-header",
             "'" + inc.target +
                 "' is a trace-internal header; modules attach probes through trace/trace.h only "
                 "(sinks/exporters are for harness code)");
      }
    }
  }

  // ---- par-* --------------------------------------------------------

  // Partition callbacks run concurrently under the parallel engine, so
  // a non-const static -- file scope, function local, class member or
  // thread_local (partitions migrate across threads) -- is unguarded
  // shared state.
  void static_mutable(std::size_t i) {
    if (t_[i].text != "static" || (i > 0 && t_[i - 1].text == "::")) return;
    std::size_t j = i + 1;
    if (text(j) == "inline") ++j;
    if (is_one_of(text(j), {"const", "constexpr"})) return;
    std::string name;
    bool in_init = false;
    int braces = 0;
    for (; j < t_.size() && t_[j].text != ";"; ++j) {
      if (t_[j].text == "(") return;  // a function, or an initializer call
      if (t_[j].text == "{") ++braces;
      if (t_[j].text == "}" && --braces < 0) return;  // the enclosing scope closed
      in_init = in_init || is_one_of(t_[j].text, {"=", "{", "["});
      if (!in_init && t_[j].kind == Token::Kind::kIdent && !is_cxx_keyword(t_[j].text)) {
        name = t_[j].text;
      }
    }
    if (j == t_.size() || name.empty()) return;
    emit(t_[i].line, t_[i].col, "par-static-mutable",
         "mutable static '" + name +
             "' is unguarded shared state across partition callbacks under the parallel engine; "
             "keep state in the owning partition's objects or make it const "
             "(docs/PARALLELISM.md)");
  }

  // Scheduling straight into engine.sim(p) bypasses the mailbox merge:
  // the event escapes the canonical (time, src, seq) order and the
  // lookahead check.
  void engine_post(std::size_t i) {
    if (t_[i].text != "sim" || text(i + 1) != "(" || starts_with(sf_.path, "src/sim/parallel.")) {
      return;
    }
    std::size_t j = i + 2;
    while (j < t_.size() && !is_one_of(t_[j].text, {"(", ")", ";"})) ++j;
    if (text(j) != ")" || text(j + 1) != "." || text(j + 3) != "(") return;
    const std::string& method = text(j + 2);
    if (!is_one_of(method, {"at", "in", "run_until"})) return;
    emit(t_[i].line, t_[i].col, "par-engine-post",
         "'" + method +
             "' on a partition Simulator fetched from the engine bypasses the mailbox merge; "
             "cross-partition events must go through ParallelEngine::post() "
             "(docs/PARALLELISM.md)");
  }

  // ---- rob-exit -----------------------------------------------------

  void exit_call(std::size_t i) {
    const std::string& name = t_[i].text;
    if (!is_one_of(name, {"_exit", "quick_exit", "exit", "abort"}) || text(i + 1) != "(") return;
    for (const char* ok : kExitAllowed) {
      if (sf_.path == ok) return;
    }
    const Token* at = &t_[i];
    if (i > 0) {
      const std::string& prev = t_[i - 1].text;
      if (is_one_of(prev, {".", "->", ">"})) return;
      if (prev == "::") {
        // std::exit and ::exit are the library's; ns::exit is not.
        if (i >= 2 && t_[i - 2].text == "std") {
          if (i >= 3 && is_one_of(t_[i - 3].text, {"::", ".", "->"})) return;
          at = &t_[i - 2];
        } else if (i >= 2 && (t_[i - 2].kind == Token::Kind::kIdent || t_[i - 2].text == ">")) {
          return;
        } else {
          at = &t_[i - 1];
        }
      }
    }
    emit(at->line, at->col, "rob-exit",
         "'" + name +
             "' terminates the process, bypassing destructors and the sweep journal; report "
             "failures via RunStatus/exceptions -- only the supervisor/worker seam may exit "
             "(docs/ROBUSTNESS.md)");
  }

  // ---- docs-* -------------------------------------------------------

  void undocumented_probe(const Token& at, const std::string& probe, bool histogram,
                          const char* what, const char* hint) {
    std::vector<std::string> missing;
    if (docs_.probes.find(probe) == std::string::npos) missing.push_back(probe);
    if (histogram) {
      for (const char* suffix : {".p50", ".p99", ".count"}) {
        const std::string derived = probe + suffix;
        if (docs_.probes.find(derived) == std::string::npos) missing.push_back(derived);
      }
    }
    for (const std::string& p : missing) {
      emit(at.line, at.col + 1, "docs-probe-undocumented",
           std::string(what) + "'" + p + "' is not documented in " + kProbeDocs + "; " + hint);
    }
  }

  void dynamic_probe(const Token& kind) {
    emit(kind.line, kind.col, "docs-probe-dynamic",
         "probe registered via non-literal name (" + kind.text +
             "); docs lockstep cannot check it -- suppress with a pointer to where the names are "
             "cataloged");
  }

  // counter/gauge/histogram( "name" | host_probe(h, "name") | other ).
  void probe(std::size_t i) {
    const std::string& kind = t_[i].text;
    if (!is_one_of(kind, {"counter", "gauge", "histogram"}) || text(i + 1) != "(") return;
    const bool histogram = kind == "histogram";
    std::size_t arg = i + 2;
    if (!literal(arg).empty()) {
      undocumented_probe(t_[arg], literal(arg), histogram, "probe ",
                         "the catalog and the code change together");
      return;
    }
    std::size_t h = arg;
    if (text(h) == "trace" && text(h + 1) == "::") h += 2;
    if (text(h) == "host_probe" && text(h + 1) == "(") {
      // trace::host_probe(h, "name") registers "host<h>.name"; the
      // catalog documents the family once under that prefix.
      std::size_t j = h + 2;
      while (j < t_.size() && !is_one_of(t_[j].text, {",", "(", ")", ";"})) ++j;
      if (text(j) == "," && !literal(j + 1).empty()) {
        undocumented_probe(t_[j + 1], "host<h>." + literal(j + 1), histogram,
                           "host-indexed probe ",
                           "document the family once under the 'host<h>.' prefix");
      } else {
        dynamic_probe(t_[i]);
      }
      return;
    }
    if (i > 0 && is_one_of(t_[i - 1].text, {".", "->"}) && text(arg) != ")" &&
        t_[arg].kind != Token::Kind::kString) {
      dynamic_probe(t_[i]);
    }
  }

  // Every run_status label (`case RunStatus::kX: return "label";`) must
  // appear in docs/ROBUSTNESS.md.
  void run_status() {
    for (std::size_t i = 0; i + 6 < t_.size(); ++i) {
      if (t_[i].text != "case" || t_[i + 1].text != "RunStatus" || t_[i + 2].text != "::" ||
          t_[i + 4].text != ":" || t_[i + 5].text != "return") {
        continue;
      }
      std::string label = literal(i + 6);
      if (label.empty() || docs_.robustness.find(label) != std::string::npos) continue;
      emit(t_[i + 6].line, t_[i + 6].col + 1, "docs-run-status",
           "run_status label '" + label +
               "' is not documented in docs/ROBUSTNESS.md; the failure-taxonomy table and the "
               "enum change together");
    }
  }

  // Every ParallelParams field must appear in docs/PARALLELISM.md.
  void par_knobs() {
    std::size_t i = 0;
    while (i + 2 < t_.size() && !(t_[i].text == "struct" && t_[i + 1].text == "ParallelParams" &&
                                  t_[i + 2].text == "{")) {
      ++i;
    }
    int depth = 0;
    std::vector<std::size_t> stmt;
    for (i += 2; i < t_.size(); ++i) {
      const std::string& x = t_[i].text;
      if (x == "{") ++depth;
      if (x == "}" && --depth == 0) return;
      if (depth == 1 && x == ";") {
        knob(stmt);
        stmt.clear();
      } else if (depth >= 1 && x != "{") {
        stmt.push_back(i);
      }
    }
  }

  // `Type name [{...}] [= ...];` -> name; methods (a `(` before any
  // initializer) are not knobs.
  void knob(const std::vector<std::size_t>& stmt) {
    const Token* name = nullptr;
    std::size_t before = 0;
    for (std::size_t k : stmt) {
      if (is_one_of(t_[k].text, {"=", "{", "}"})) break;
      if (t_[k].text == "(") return;
      if (t_[k].kind == Token::Kind::kIdent) name = &t_[k];
      ++before;
    }
    if (name == nullptr || before < 2 || docs_.parallel.find(name->text) != std::string::npos) {
      return;
    }
    emit(name->line, name->col, "docs-par-knob",
         "ParallelParams knob '" + name->text +
             "' is not documented in docs/PARALLELISM.md; the concurrency-model doc and the "
             "engine knobs change together");
  }
};

}  // namespace

Docs load_docs(const std::string& root) {
  Docs docs;
  docs.probes = read_file(root + "/docs/OBSERVABILITY.md") + read_file(root + "/docs/FAULTS.md");
  docs.parallel = read_file(root + "/docs/PARALLELISM.md");
  docs.robustness = read_file(root + "/docs/ROBUSTNESS.md");
  return docs;
}

void check_file(const SourceFile& sf, const FileIndex& idx, const Docs& docs,
                std::vector<Diagnostic>* out) {
  FileChecker(sf, idx, docs, out).run();
}

}  // namespace hicc::analyze
