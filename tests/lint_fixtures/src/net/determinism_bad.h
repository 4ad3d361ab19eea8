// Fixture: determinism rule family. Positives and suppressed variants;
// expected diagnostics live in tests/lint_fixtures/expected.txt.
#pragma once

#include <chrono>
#include <cstdlib>
#include <unordered_map>

#include "common/rng.h"

namespace fixture {

inline double wallclock_leak() {
  auto t = std::chrono::steady_clock::now();  // line 14: det-wallclock
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

inline double wallclock_allowed() {
  // hicc-lint: allow(det-wallclock) -- harness timing only, never sim state
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

inline int libc_rand() {
  return rand();  // line 25: det-rand
}

inline int libc_rand_allowed() {
  return rand();  // hicc-lint: allow(det-rand) -- fixture demo
}

inline hicc::Rng literal_seed() {
  return hicc::Rng(12345);  // line 33: det-seeded-rng
}

inline hicc::Rng literal_seed_allowed() {
  return hicc::Rng(0xbeef);  // hicc-lint: allow(det-seeded-rng) -- fixture demo
}

struct DropTable {
  std::unordered_map<int, long> drops_by_flow;

  long metrics_leak() const {
    long total = 0;
    for (const auto& [flow, n] : drops_by_flow) total += n;  // line 45: det-unordered-iter
    return total;
  }

  long metrics_allowed() const {
    long total = 0;
    // hicc-lint: allow(det-unordered-iter) -- integer sum is order-insensitive
    for (const auto& [flow, n] : drops_by_flow) total += n;
    return total;
  }
};

struct ByOwner {
  std::map<const DropTable*, long> by_table;  // line 58: det-pointer-keyed
  // hicc-lint: allow(det-pointer-keyed) -- fixture demo: lookups only, never iterated
  std::set<const DropTable*> seen_tables;
};

}  // namespace fixture
