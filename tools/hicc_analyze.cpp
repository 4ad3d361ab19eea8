// hicc_analyze -- the project's static analyzer (docs/STATIC_ANALYSIS.md).
//
//   hicc_analyze [options] PATH...
//
//   --root=DIR        repo root containing src/ and docs/ (default: cwd)
//   --strict          also fail on stale baseline/suppressions (CI mode)
//   --baseline=FILE   override scripts/hicc_analyze_baseline.txt
//   --write-baseline  grandfather current findings and exit
//   --json=FILE       write the hicc.analysis.v1 report
//   --list-rules      print rule ids and exit
//
// Exit codes: 0 clean, 1 findings (or stale baseline/suppressions
// under --strict), 2 usage error.
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analyze/analyzer.h"
#include "analyze/report.h"

namespace {

int usage(const char* msg) {
  if (msg != nullptr) std::cerr << "hicc_analyze: " << msg << "\n";
  std::cerr << "usage: hicc_analyze [--root=DIR] [--strict] [--baseline=FILE]\n"
               "                    [--write-baseline] [--json=FILE] [--list-rules] PATH...\n";
  return 2;
}

bool take_value(const std::string& arg, const char* flag, std::string* out) {
  std::size_t n = std::strlen(flag);
  if (arg.compare(0, n, flag) != 0 || arg.size() <= n || arg[n] != '=') return false;
  *out = arg.substr(n + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  hicc::analyze::Options opts;
  bool write_baseline = false;
  bool list_rules = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    if (arg == "--strict") {
      opts.strict = true;
    } else if (arg == "--write-baseline") {
      write_baseline = true;
    } else if (arg == "--list-rules") {
      list_rules = true;
    } else if (take_value(arg, "--root", &value)) {
      opts.root = value;
    } else if (take_value(arg, "--baseline", &value)) {
      opts.baseline_path = value;
    } else if (take_value(arg, "--json", &value)) {
      json_path = value;
    } else if (arg.rfind("--", 0) == 0) {
      return usage(("unknown option: " + arg).c_str());
    } else {
      opts.paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const std::string& r : hicc::analyze::rule_ids()) std::cout << r << "\n";
    return 0;
  }
  if (opts.paths.empty()) return usage("at least one path required");

  hicc::analyze::Result res = hicc::analyze::run(opts);
  if (res.io_error) {
    std::cerr << res.io_message << "\n";
    return 2;
  }

  if (write_baseline) {
    std::string path = opts.baseline_path.empty()
                           ? opts.root + (opts.root.empty() ? "" : "/") +
                                 "scripts/hicc_analyze_baseline.txt"
                           : opts.baseline_path;
    if (!hicc::analyze::write_baseline(path, res.all_error_keys)) {
      std::cerr << "hicc_analyze: cannot write " << path << "\n";
      return 2;
    }
    std::cout << "hicc_analyze: wrote " << path << "\n";
    return 0;
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "hicc_analyze: cannot write " << json_path << "\n";
      return 2;
    }
    out << hicc::analyze::to_json(res.findings, res.stats);
  }

  std::cout << hicc::analyze::format_text(res, opts.strict);
  return res.failed ? 1 : 0;
}
