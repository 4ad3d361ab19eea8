// The benchmark's workloads and the outside driver that runs them.
//
// A workload is a config built from a seed. The Harness constructs it
// as an Experiment or a ClusterExperiment and drives it only through
// their public calls, in fixed simulated-time slices, so the benchmark
// can time each slice without adding anything inside the simulator.
// Sliced driving simulates exactly what run() does
// (tests/perfbench_test.cpp checks it bitwise for every workload).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/experiment.h"

namespace perfbench {

/// Simulated time between two outside calls into the engine.
inline constexpr hicc::TimePs kSlice = hicc::TimePs::from_us(250);
/// Host seconds each layer driver is timed for.
inline constexpr double kDriverSeconds = 0.15;

/// One benchmark workload: a single-host or a cluster config.
struct Workload {
  std::string name;
  bool is_cluster = false;
  /// Constructions timed per repetition: one takes ~0.2 ms for a host
  /// and ~1 ms for a cluster, so a single timing would be noise.
  int setups = 200;
  hicc::ExperimentConfig host;    // single-host workloads
  hicc::ClusterConfig cluster;    // cluster workloads (cluster.host is the host template)

  /// The per-host template either way (warmup, measure, seed, knobs).
  [[nodiscard]] const hicc::ExperimentConfig& host_template() const {
    return is_cluster ? cluster.host : host;
  }
};

/// Names of every workload, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Builds a workload from its name and seed; throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// Canonical text of every config knob the workloads set, and its
/// FNV-1a hash: the provenance `config_hash`.
[[nodiscard]] std::string describe_config(const Workload& w);
[[nodiscard]] std::uint64_t config_hash(const Workload& w);

/// Cumulative datapath counters summed over every receiver host.
struct LayerCounters {
  std::int64_t nic_arrivals = 0;
  std::int64_t nic_drops = 0;
  std::int64_t nic_delivered = 0;
  std::int64_t nic_descriptor_fetches = 0;
  std::int64_t nic_tx_packets = 0;
  std::int64_t nic_hol_stalls = 0;
  std::int64_t pcie_write_tlps = 0;
  std::int64_t pcie_read_tlps = 0;
  std::int64_t pcie_translation_stalls = 0;
  std::int64_t pcie_write_buffer_stalls = 0;
  std::int64_t pcie_ddio_write_hits = 0;
  std::int64_t iommu_lookups = 0;
  std::int64_t iommu_hits = 0;
  std::int64_t iommu_misses = 0;
  std::int64_t iommu_walk_reads = 0;
  std::int64_t mem_requests = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t messages = 0;

  [[nodiscard]] LayerCounters operator-(const LayerCounters& o) const;
};

/// Discrete memory requests the datapath issued: every TLP not
/// absorbed by DDIO, and every page-walk read.
[[nodiscard]] std::int64_t memory_requests(const hicc::pcie::PcieStats& p,
                                           const hicc::iommu::IommuStats& i);

/// The simulated results of one window.
struct Outcome {
  std::vector<hicc::Metrics> per_receiver;
  hicc::WorkloadMetrics workload;  // enabled only on open-loop workloads
  std::int64_t total_fabric_drops = 0;
  hicc::RunStatus run_status = hicc::RunStatus::kOk;
  std::uint64_t events_executed = 0;

  [[nodiscard]] std::int64_t delivered() const;
  [[nodiscard]] double app_gbps() const;
  [[nodiscard]] double drop_rate() const;
};

/// Hash of every simulated statistic of `o` except events_executed
/// (the one field tracing, and event fusion, may change) and the
/// human-readable abort detail. Doubles are hashed bit for bit.
[[nodiscard]] std::uint64_t fingerprint(const Outcome& o);

/// One constructed workload, driven from outside.
class Harness {
 public:
  /// `threads` overrides the cluster engine's thread count when > 0;
  /// `traced` turns the tracer on (sinks attach through tracer()).
  explicit Harness(const Workload& w, int threads = 0, bool traced = false);
  ~Harness();
  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  void start();
  /// Runs the engine until simulated time `t`.
  void run_until(hicc::TimePs t);
  /// The benchmark's drive: start(), warmup in kSlice steps,
  /// begin_window(), then the measurement window in kSlice steps.
  /// Calls `on_window()` right after begin_window() and `on_slice()`
  /// after each measurement slice; returns the window's snapshot().
  template <typename OnWindow, typename OnSlice>
  Outcome drive(OnWindow&& on_window, OnSlice&& on_slice);
  void begin_window();
  [[nodiscard]] Outcome snapshot() const;
  /// The library's own warmup + measure driver, for parity checks.
  [[nodiscard]] Outcome run();

  [[nodiscard]] hicc::TimePs warmup() const { return cfg_.warmup; }
  [[nodiscard]] hicc::TimePs measure() const { return cfg_.measure; }
  [[nodiscard]] int receivers() const;
  /// Hosts with a full stack (memory nodes, IOMMU, PCIe, NIC): the
  /// receivers, and on a cluster the quiescent sender machines too.
  [[nodiscard]] int full_hosts() const;
  [[nodiscard]] hicc::host::ReceiverHost& receiver(int r);
  [[nodiscard]] hicc::trace::Tracer* tracer();
  /// Null on single-host workloads.
  [[nodiscard]] hicc::ClusterExperiment* cluster() { return cluster_.get(); }
  [[nodiscard]] hicc::Experiment* experiment() { return exp_.get(); }

  /// Live events awaiting execution, summed over partitions.
  [[nodiscard]] std::size_t pending() const;
  /// Events executed so far by each partition (one entry when serial),
  /// written into `out` (which keeps its storage across calls).
  void partition_executed(std::vector<std::uint64_t>* out) const;
  [[nodiscard]] LayerCounters counters();
  /// Open-loop flows active now, summed over receivers.
  [[nodiscard]] std::int64_t active_flows();

  /// Conservation checks on the window `o` and the components' state;
  /// each broken ledger is one message. `active_at_window_start` is
  /// active_flows() at begin_window().
  [[nodiscard]] std::vector<std::string> check_ledgers(const Outcome& o,
                                                       std::int64_t active_at_window_start);

 private:
  hicc::ExperimentConfig cfg_;
  std::unique_ptr<hicc::Experiment> exp_;
  std::unique_ptr<hicc::ClusterExperiment> cluster_;
};

template <typename OnWindow, typename OnSlice>
Outcome Harness::drive(OnWindow&& on_window, OnSlice&& on_slice) {
  const hicc::TimePs end = warmup() + measure();
  auto next = [](hicc::TimePs t, hicc::TimePs limit) {
    const hicc::TimePs n = t + kSlice;
    return n < limit ? n : limit;
  };
  start();
  for (hicc::TimePs t{}; t < warmup();) {
    t = next(t, warmup());
    run_until(t);
  }
  begin_window();
  on_window();
  for (hicc::TimePs t = warmup(); t < end;) {
    t = next(t, end);
    run_until(t);
    on_slice();
  }
  return snapshot();
}

/// Trace sink that keeps the samples of selected gauges, taken at or
/// after `from`, pooled per probe name with any `host<r>.` prefix of a
/// receiver removed (the other hosts' samples are ignored).
class GaugeSink final : public hicc::trace::TraceSink {
 public:
  GaugeSink(std::vector<std::string> probes, int receivers, hicc::TimePs from);
  void sample(const hicc::trace::ProbeInfo& probe, hicc::TimePs t, double value) override;
  /// Samples of `probe` (unprefixed name); empty if none were taken.
  [[nodiscard]] const std::vector<double>& samples(const std::string& probe) const;

 private:
  std::map<std::string, std::string> alias_;  // full probe name -> pooled name
  std::map<std::string, std::vector<double>> samples_;
  hicc::TimePs from_;
};

/// Nearest-rank quantile of `v` (copied and sorted); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

}  // namespace perfbench
