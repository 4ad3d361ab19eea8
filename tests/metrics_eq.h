// Metrics equality for tests: compares every field, and on failure
// names the sweep-record keys (core/fields.h) whose values differ.
#pragma once

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fields.h"

namespace hicc {

/// Whether events_executed takes part. Tracing adds sampler events,
/// and the serial and partitioned engines split events differently;
/// neither may change any other field.
enum class Events { kCompare, kIgnore };

/// Use as EXPECT_TRUE(metrics_eq(a, b)).
inline ::testing::AssertionResult metrics_eq(const Metrics& a, Metrics b,
                                             Events events = Events::kCompare) {
  if (events == Events::kIgnore) b.events_executed = a.events_executed;
  if (a == b) return ::testing::AssertionSuccess();
  const auto record = [](const Metrics& m) {
    std::vector<std::pair<std::string, std::string>> out;
    fields::visit_metrics(m, [&out](const char* key, const auto& value) {
      std::ostringstream os;
      if constexpr (std::is_enum_v<std::remove_cvref_t<decltype(value)>>) {
        os << to_string(value);
      } else {
        os << std::setprecision(17) << value;
      }
      out.emplace_back(key, os.str());
    });
    return out;
  };
  const auto ra = record(a);
  const auto rb = record(b);
  std::ostringstream diff;
  for (std::size_t i = 0; i < ra.size(); ++i) {
    if (ra[i].second != rb[i].second) {
      diff << "\n  " << ra[i].first << ": " << ra[i].second << " vs " << rb[i].second;
    }
  }
  if (diff.str().empty()) diff << "\n  a memory report field outside the record differs";
  return ::testing::AssertionFailure() << "Metrics differ:" << diff.str();
}

}  // namespace hicc
