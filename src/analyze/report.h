// Static analyzer, layer 4: reporting.
//
// Diagnostics print as
//
//   file:line:col: rule-id: message
//
// sorted by (file, line, col, rule), and the baseline file is keyed by
// text (`file|rule|normalized source text`), so an entry survives
// unrelated edits: grandfather with --write-baseline, shrink the file
// over time, and --strict fails on entries that no longer match.
//
// The machine-readable report is the `hicc.analysis.v1` JSON schema:
// a single object with schema id, deterministic scan counters, the
// rule catalog, and the findings (severity, optional call chain). No
// timestamps or absolute paths: the report is byte-identical across
// runs on the same tree.
#pragma once

#include <string>
#include <vector>

namespace hicc::analyze {

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string rule;
  std::string message;
  bool warning = false;             // advisory: printed, never fails the run
  std::string norm;                 // whitespace-normalized source line
  std::vector<std::string> chain;   // call chain root -> ... -> sink, if any

  [[nodiscard]] std::string baseline_key() const { return file + "|" + rule + "|" + norm; }
  [[nodiscard]] std::string text() const;
};

/// Orders by (file, line, col, rule); ties keep their emission order.
void sort_diagnostics(std::vector<Diagnostic>* diags);

/// Reads a baseline file: one key per line, '#' comments and blank
/// lines skipped. Missing file -> empty set (not an error).
std::vector<std::string> load_baseline(const std::string& path);

/// Writes sorted unique keys under the standard header comment.
bool write_baseline(const std::string& path, const std::vector<std::string>& keys);

/// Everything the JSON report needs beyond the diagnostics.
struct ReportStats {
  std::vector<std::string> scanned_paths;  // the CLI path arguments
  int files = 0;
  int functions = 0;
  int include_edges = 0;
  int call_edges = 0;
  int suppressions_used = 0;
  int baselined = 0;
  std::vector<std::string> stale_baseline;
};

/// Serializes the hicc.analysis.v1 report (deterministic key order).
std::string to_json(const std::vector<Diagnostic>& findings, const ReportStats& stats);

}  // namespace hicc::analyze
