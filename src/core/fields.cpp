#include "core/fields.h"

#include <algorithm>
#include <cstdio>

namespace hicc::fields {

std::string to_text(const fault::FaultScript& v) { return v.to_spec(); }

std::string to_text(const net::TopologyConfig& v) {
  return std::to_string(v.leaves) + 'x' + std::to_string(v.spines) + 'x' +
         std::to_string(v.num_hosts());
}

std::string to_text(const std::vector<int>& v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += std::to_string(v[i]);
  }
  return out;
}

std::string from_text(const std::string& s, fault::FaultScript* out) {
  if (s.empty()) {
    *out = fault::FaultScript{};
    return "";
  }
  fault::ParseResult parsed = fault::parse_script(s);
  std::string error;
  for (const auto& e : parsed.errors) error += (error.empty() ? "" : "; ") + e;
  if (error.empty()) *out = std::move(parsed.script);
  return error;
}

std::string from_text(const std::string& s, net::TopologyConfig* out) {
  int leaves = 0, spines = 0, hosts = 0;
  char excess = '\0';
  if (std::sscanf(s.c_str(), "%dx%dx%d%c", &leaves, &spines, &hosts, &excess) != 3 ||
      leaves <= 0 || hosts <= 0 || hosts % leaves != 0) {
    return "bad topology '" + s + "' (want LxSxH with H divisible by L, e.g. 2x2x8)";
  }
  out->leaves = leaves;
  out->spines = spines;
  out->hosts_per_leaf = hosts / leaves;
  return "";
}

std::string from_text(const std::string& s, std::vector<int>* out) {
  std::vector<int> v;
  for (std::size_t pos = 0; pos < s.size();) {
    const std::size_t comma = std::min(s.find(',', pos), s.size());
    int cores = 0;
    if (!from_text(s.substr(pos, comma - pos), &cores).empty()) {
      return "bad list '" + s + "' (want comma-separated integers)";
    }
    v.push_back(cores);
    pos = comma + 1;
  }
  *out = std::move(v);
  return "";
}

}  // namespace hicc::fields
