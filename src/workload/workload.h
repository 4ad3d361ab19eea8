// hicc-lint: hotpath
//
// Open-loop workload configuration: arrival process, flow-size
// distribution, and traffic pattern for the production workload
// engine (docs/WORKLOADS.md).
//
// The engine (workload/engine.h) creates and retires flows
// dynamically through a slab flow pool (workload/flow_pool.h); these
// params are carried by ClusterConfig and surfaced as hicc_cli's
// --workload/--wl-* knobs.
#pragma once

#include <cstdint>
#include <cstring>
#include <initializer_list>

#include "common/units.h"

namespace hicc::workload {

/// Traffic pattern driven by each receiver's engine.
enum class Pattern : std::uint8_t {
  kOff,            // workload engine disabled (closed-loop legacy reads)
  kIncast,         // RPC fan-out: each arrival reads from `fanout` distinct senders
  kUniform,        // each arrival reads from one uniformly random sender
  kAllreduceRing,  // ring allreduce: 2(M-1) dependent chunks from the ring neighbor
  kAllreduceTree,  // tree allreduce: 2*ceil(log2 M) dependent rounds from tree peers
};

/// Flow inter-arrival process (open-loop: arrivals never wait for
/// completions).
enum class Arrival : std::uint8_t {
  kPoisson,  // exponential inter-arrival gaps at `rate_per_s`
  kBursty,   // two-state Markov-modulated Poisson (on/off), mean `rate_per_s`
};

/// Flow-size distribution.
enum class SizeDist : std::uint8_t {
  kFixed,      // every flow carries `fixed_size` bytes
  kWebSearch,  // web-search RPC sizes (DCTCP-style CDF, ~1.6MB mean)
  kHadoop,     // storage/analytics sizes (VL2-style CDF, mostly-small heavy tail)
};

/// All knobs of one receiver-side open-loop workload.
struct WorkloadParams {
  Pattern pattern = Pattern::kOff;
  Arrival arrival = Arrival::kPoisson;
  /// Mean flow arrival rate per receiver, flows per simulated second.
  double rate_per_s = 1e5;
  /// Bursty arrivals: on-state rate multiplier, fraction of time in
  /// the on state, and the mean on+off cycle length.
  double burst_factor = 8.0;
  double burst_on_fraction = 0.2;
  TimePs burst_period = TimePs::from_us(500);
  SizeDist size_dist = SizeDist::kFixed;
  Bytes fixed_size = Bytes(16 * 1024);
  /// Incast fan-out width (distinct senders per RPC arrival).
  int fanout = 8;
  /// Flow-pool capacity per receiver: the hard bound on concurrently
  /// active flows (and hence on workload memory). Arrivals that find
  /// their sender's slots exhausted are dropped and counted.
  int max_active = 4096;
  /// Stop injecting after this many flows cluster-wide (split evenly
  /// across receivers); 0 injects for the whole run.
  std::int64_t target_flows = 0;
  /// Relative-error bound of the FCT/slowdown/host-delay quantile
  /// sketches (common/sketch.h).
  double sketch_relative_error = 0.01;

  [[nodiscard]] bool enabled() const { return pattern != Pattern::kOff; }
};

inline const char* to_string(Pattern p) {
  switch (p) {
    case Pattern::kOff: return "off";
    case Pattern::kIncast: return "incast";
    case Pattern::kUniform: return "uniform";
    case Pattern::kAllreduceRing: return "allreduce_ring";
    case Pattern::kAllreduceTree: return "allreduce_tree";
  }
  return "unknown";
}

inline const char* to_string(Arrival a) {
  switch (a) {
    case Arrival::kPoisson: return "poisson";
    case Arrival::kBursty: return "bursty";
  }
  return "unknown";
}

inline const char* to_string(SizeDist d) {
  switch (d) {
    case SizeDist::kFixed: return "fixed";
    case SizeDist::kWebSearch: return "websearch";
    case SizeDist::kHadoop: return "hadoop";
  }
  return "unknown";
}

/// Inverse of to_string over `values`.
template <typename E>
bool from_string(const char* s, E* out, std::initializer_list<E> values) {
  for (const E v : values) {
    if (std::strcmp(s, to_string(v)) == 0) {
      *out = v;
      return true;
    }
  }
  return false;
}
inline bool from_string(const char* s, Pattern* out) {
  using enum Pattern;
  return from_string(s, out, {kOff, kIncast, kUniform, kAllreduceRing, kAllreduceTree});
}
inline bool from_string(const char* s, Arrival* out) {
  return from_string(s, out, {Arrival::kPoisson, Arrival::kBursty});
}
inline bool from_string(const char* s, SizeDist* out) {
  return from_string(s, out, {SizeDist::kFixed, SizeDist::kWebSearch, SizeDist::kHadoop});
}

}  // namespace hicc::workload
