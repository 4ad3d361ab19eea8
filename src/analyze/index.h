// Static analyzer, layer 2: the per-file index.
//
// A single forward pass over the token stream recovers an approximate
// structural view of each translation unit without a real parse:
//
//   * function definitions (namespace- and class-scope, ctors/dtors,
//     qualified names like Engine::run) with their body token ranges;
//   * call sites inside each body (`name(...)`, `obj.name(...)`);
//   * the sink catalog: every allocation and nondeterminism site in
//     the file, at any scope, each attributed to the function whose
//     body holds it. This is the analyzer's one definition of both:
//     the hot-* and det-* rules report the sinks a file holds itself,
//     and ana-hot-alloc-reach reports the ones a hot path reaches
//     through calls;
//   * namespace-scope mutable variables (the state the partition
//     single-writer rule tracks references to);
//   * every name the file provides to includers (classes, enums and
//     enumerators, using-aliases, functions, variables, macros) and
//     every identifier the file uses -- the two sides of the
//     unused-direct-include advisory.
//
// The parser is deliberately approximate: it must never crash or hang
// on valid C++, and may miss exotic constructs (it skips preprocessor
// branches, treats lambdas as part of the enclosing function, and does
// not instantiate templates). Rules built on it are tuned so that
// approximation errs toward silence, and every diagnostic can be
// suppressed with an allow comment (source.h).
#pragma once

#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/source.h"

namespace hicc::analyze {

struct CallSite {
  std::string callee;  // simple (unqualified) name
  int line = 0;
  int col = 0;
};

/// One catalog entry. `kind` is one of: new, malloc,
/// make-unique-shared, std-function, container-growth (allocation),
/// wallclock, rand, unordered-iter, pointer-keyed (nondeterminism).
/// The position is the start of the offending expression: `std` of a
/// qualified name, the receiver of a push_back, the `for` of a loop.
struct SinkSite {
  std::string kind;
  std::string detail;    // the offending text, e.g. "malloc"
  std::string receiver;  // container-growth through `.`: the object grown
  int line = 0;
  int col = 0;
};

struct FunctionDef {
  std::string name;       // simple name ("run", "Engine" for a ctor)
  std::string qualified;  // display name ("Engine::run")
  std::string file;       // root-relative path
  std::string module;     // "" outside src/<module>/
  int line = 0;
  int col = 0;
  bool in_hotpath_file = false;
  bool is_ctor_dtor = false;
  std::vector<CallSite> calls;
  std::vector<SinkSite> sinks;
  // First value-like reference to each identifier in the body: not a
  // member access (x.name), not qualified (ns::name), not a call
  // (name(...)), not an apparent declaration (Type name). This is what
  // the partition rule matches mutable-global names against.
  std::map<std::string, std::pair<int, int>> body_idents;
};

struct GlobalVar {
  std::string name;
  std::string file;
  std::string module;
  int line = 0;
};

/// Index of one file; built once, consumed by all rules.
struct FileIndex {
  std::vector<FunctionDef> functions;
  std::vector<GlobalVar> mutable_globals;  // namespace-scope, non-const
  std::set<std::string> provided;          // names usable by includers
  std::set<std::string> used_idents;       // every identifier mentioned
  std::vector<SinkSite> sinks;             // the whole file, token order
  std::set<std::string> vectors;           // names declared std::vector<...>
  std::set<std::string> reserved;          // names with a .reserve( call
};

/// Scans a lexed file into its index. Pure function of the tokens. A
/// .cpp passes its sibling header, whose member declarations (unordered
/// and vector names, reserve calls) the file's loops and growth use.
FileIndex index_file(const SourceFile& sf, const SourceFile* sibling = nullptr);

/// True for C++ keywords and analyzer-ignored builtins (never callees).
bool is_cxx_keyword(const std::string& word);

/// True when `s` equals one of `opts`.
bool is_one_of(const std::string& s, std::initializer_list<const char*> opts);

}  // namespace hicc::analyze
