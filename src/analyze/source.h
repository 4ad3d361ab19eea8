// Static analyzer, layer 1: source loading and lexing.
//
// hicc_analyze (docs/STATIC_ANALYSIS.md) is a zero-dependency analyzer:
// no libclang, no compile step. Each file is loaded once into a
// SourceFile -- raw lines, a token stream (comments skipped, string
// contents dropped) with line/col positions, the `#include` and
// `#define` directives, and the suppression state. A
// suppression is a comment that opens with the "hicc-lint:" tag: a
// trailing allow(rule) -- justification suppresses on its own line; on
// a line of its own it binds to the next code line; allow-file(rule)
// covers the whole file; and a bare "hotpath" marker opts the file into
// the hot-path rules. One grammar covers every rule id.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace hicc::analyze {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct, kString, kChar };
  Kind kind;
  std::string text;  // punct: the operator; string/char: empty (contents blanked)
  int line = 0;      // 1-based
  int col = 0;       // 1-based
};

struct IncludeDirective {
  std::string target;  // as written between the quotes
  int line = 0;
  int col = 0;  // column of the first character of the target
};

/// One lexed file. `path` is root-relative with forward slashes; the
/// module (for layering) is the first directory under src/.
class SourceFile {
 public:
  std::string path;
  std::vector<std::string> raw;   // raw source lines
  std::vector<Token> tokens;
  std::vector<IncludeDirective> includes;  // quoted includes only
  std::set<std::string> macro_defines;     // #define NAME
  bool hotpath = false;                    // carries "// hicc-lint: hotpath"

  /// "sim" for src/sim/..., "" for anything not under src/<module>/.
  [[nodiscard]] std::string module_name() const;

  /// True (and marks the suppression used) when `rule` is allowed at
  /// `line` by an inline or file-level hicc-lint allow.
  bool allowed(int line, const std::string& rule) const;

  /// Whitespace-normalized raw text of `line` (baseline key component).
  [[nodiscard]] std::string norm(int line) const;

  /// Inline allows that never fired, as sorted (line, rule) pairs.
  [[nodiscard]] std::vector<std::pair<int, std::string>> unused_allows() const;

  std::set<std::string> file_allows;
  std::map<int, std::set<std::string>> line_allows;  // line -> rule ids
  mutable std::set<std::pair<int, std::string>> used_allows;
};

/// Lexes `text` into a SourceFile (pure; no filesystem access).
SourceFile parse_source(const std::string& rel_path, const std::string& text);

/// Reads and lexes one file; returns false on I/O failure.
bool load_source(const std::string& abs_path, const std::string& rel_path, SourceFile* out);

}  // namespace hicc::analyze
