// Per-iteration heap allocations for the google-benchmark micro-benches.
// Needs the hicc_alloc_hook object library linked (common/alloc_hook.h).
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/alloc_hook.h"

namespace hicc {

/// Snapshots the allocation count around the timed loop and reports the
/// average as an `allocs_per_op` user counter (also picked up by the
/// --json reporters).
class AllocTally {
 public:
  explicit AllocTally(benchmark::State& state) : state_(state), start_(allocation_count()) {}
  AllocTally(const AllocTally&) = delete;
  AllocTally& operator=(const AllocTally&) = delete;
  ~AllocTally() {
    state_.counters["allocs_per_op"] = benchmark::Counter(
        static_cast<double>(allocation_count() - start_), benchmark::Counter::kAvgIterations);
  }

 private:
  benchmark::State& state_;
  std::uint64_t start_;
};

}  // namespace hicc
