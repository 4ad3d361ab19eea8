#include "analyze/report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>

namespace hicc::analyze {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void append_string_array(std::ostringstream* out, const std::vector<std::string>& items) {
  *out << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) *out << ", ";
    *out << '"' << json_escape(items[i]) << '"';
  }
  *out << "]";
}

}  // namespace

std::string Diagnostic::text() const {
  std::ostringstream out;
  out << file << ":" << line << ":" << col << ": " << rule << ": " << message;
  return out.str();
}

void sort_diagnostics(std::vector<Diagnostic>* diags) {
  std::stable_sort(diags->begin(), diags->end(), [](const Diagnostic& a, const Diagnostic& b) {
    return std::tie(a.file, a.line, a.col, a.rule) < std::tie(b.file, b.line, b.col, b.rule);
  });
}

std::vector<std::string> load_baseline(const std::string& path) {
  std::vector<std::string> entries;
  std::ifstream in(path);
  if (!in) return entries;
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) line.pop_back();
    std::size_t first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    entries.push_back(line.substr(first));
  }
  std::sort(entries.begin(), entries.end());
  entries.erase(std::unique(entries.begin(), entries.end()), entries.end());
  return entries;
}

bool write_baseline(const std::string& path, const std::vector<std::string>& keys) {
  std::ofstream out(path);
  if (!out) return false;
  out << "# hicc_analyze grandfathered findings -- one per line:\n"
         "#   file|rule|normalized source text\n"
         "# Entries forgive matching findings; --strict fails on\n"
         "# stale entries. Shrink this file, never grow it.\n";
  std::set<std::string> sorted(keys.begin(), keys.end());
  for (const std::string& k : sorted) out << k << "\n";
  return static_cast<bool>(out);
}

std::string to_json(const std::vector<Diagnostic>& findings, const ReportStats& stats) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema\": \"hicc.analysis.v1\",\n";
  out << "  \"paths\": ";
  append_string_array(&out, stats.scanned_paths);
  out << ",\n";
  out << "  \"files\": " << stats.files << ",\n";
  out << "  \"functions\": " << stats.functions << ",\n";
  out << "  \"include_edges\": " << stats.include_edges << ",\n";
  out << "  \"call_edges\": " << stats.call_edges << ",\n";
  out << "  \"suppressions_used\": " << stats.suppressions_used << ",\n";
  out << "  \"baselined\": " << stats.baselined << ",\n";
  out << "  \"stale_baseline\": ";
  append_string_array(&out, stats.stale_baseline);
  out << ",\n";
  out << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Diagnostic& d = findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"file\": \"" << json_escape(d.file) << "\", \"line\": " << d.line
        << ", \"col\": " << d.col << ", \"rule\": \"" << json_escape(d.rule)
        << "\", \"severity\": \"" << (d.warning ? "warning" : "error") << "\", \"message\": \""
        << json_escape(d.message) << "\", \"chain\": ";
    append_string_array(&out, d.chain);
    out << "}";
  }
  out << (findings.empty() ? "]\n" : "\n  ]\n");
  out << "}\n";
  return out.str();
}

}  // namespace hicc::analyze
