// ClusterExperiment: M senders x K receivers on a config-driven Clos
// fabric (net/topology.h), every receiver carrying the full
// NIC/PCIe/IOMMU/mem/rx-threads model via HostFactory.
//
// Host numbering: hosts 0..receivers-1 run full receiver stacks and
// drive the closed-loop read workload; hosts receivers..num_hosts-1
// are sender machines serving reads to *every* receiver. receivers=1
// gives the incast tree the paper studies; receivers>1 gives
// many-to-many traffic with several simultaneous host bottlenecks.
// When `full_sender_hosts` is set (the default), sender machines also
// get a full host stack -- constructed but quiescent, since per the
// paper (§2, footnote 1) the transmit path sees no host congestion;
// the serving transports remain transport-level SenderHosts.
//
// Addressing: transports write the destination host into Packet::dst;
// the ClosFabric routes purely on it. On the reverse path the
// receiver-local `sender` index is rewritten to the receiver's own
// index before transmission so the destination sender machine can
// dispatch the packet to its per-receiver transport instance
// (SenderHost itself never reads Packet::sender).
//
// Determinism: one RNG stream forked in a fixed order -- per-receiver
// host stacks, optional sender-host stacks, then per-(sender,
// receiver) transports, fault engine last.
//
// The single-host experiment is the one-leaf case: Experiment
// (core/experiment.h) runs ClusterExperiment(degenerate_cluster(cfg)),
// one receiver and transport-only senders under one ToR, on the serial
// simulator. tests/cluster_test.cpp pins its Metrics to exact values.
//
// Parallel execution (ClusterConfig::parallelism >= 1): the run is
// partitioned onto a sim::ParallelEngine -- fabric interior in
// partition 0, each host (its FullHost, serving transports, and
// uplink) in partition 1+h -- with construction order, RNG forks, and
// per-partition event order all independent of the thread count, so
// every parallelism >= 1 value yields bitwise-identical results. The
// full model and its invariants are documented in docs/PARALLELISM.md.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/sketch.h"
#include "core/config.h"
#include "core/host_factory.h"
#include "core/metrics.h"
#include "fault/engine.h"
#include "fault/script.h"
#include "net/topology.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "transport/sender_host.h"
#include "workload/workload.h"

namespace hicc {

namespace workload {
class WorkloadEngine;
}  // namespace workload

/// Full description of one cluster run.
struct ClusterConfig {
  /// Per-host template: receiver knobs, transport, run control, seed.
  /// `num_senders` is overridden with the topology's sender-machine
  /// count and `faults` is ignored (use ClusterConfig::faults, which
  /// understands topology targeting).
  ExperimentConfig host;
  net::TopologyConfig topology;
  /// Hosts 0..receivers-1 run receiver workloads; the rest serve them.
  int receivers = 1;
  /// Build a full (quiescent) host stack on sender machines too. The
  /// single-host mapping (degenerate_cluster()) turns this off: the
  /// paper's testbed models senders at transport level only.
  bool full_sender_hosts = true;
  /// Cluster-level fault script; net.* events accept `leaf=`+`spine=`
  /// (a leaf-spine link) or `host=` (a host uplink) targeting.
  fault::FaultScript faults;
  /// Open-loop workload generation (src/workload, docs/WORKLOADS.md).
  /// When `workload.pattern != off` every receiver runs a
  /// WorkloadEngine injecting dynamic flows over a recyclable slot
  /// pool instead of the closed-loop per-flow read pipeline;
  /// `host.read_size`/`read_pipeline`/`victim_flows` are then unused
  /// (validate() enforces victim_flows == 0).
  workload::WorkloadParams workload;
  /// Per-receiver memory-antagonist heterogeneity: receiver r runs
  /// antagonist_profile[r % size()] antagonist cores instead of
  /// host.antagonist_cores. Empty (default) keeps the uniform
  /// template. Models a production fleet where only some hosts
  /// co-locate memory-heavy batch jobs (the paper's Fig. 1 population
  /// with drops at low utilization).
  std::vector<int> antagonist_profile;
  /// Engine worker threads. 0 (default) runs the serial path: one
  /// Simulator for the whole run. >= 1 partitions the run onto a
  /// sim::ParallelEngine -- partition 0 the fabric interior, partition
  /// 1+h host h -- with the edge-link propagation delay as the
  /// conservative lookahead and this many threads executing windows.
  /// Any parallelism >= 1 produces bitwise-identical
  /// metrics/trace/sweep output (docs/PARALLELISM.md; pinned by
  /// tests/parallel_test.cpp), but the serial path is a different
  /// event order, not a 0-thread engine: the same congested run can
  /// drop twice as many packets at 0 as at 1 (docs/PARALLELISM.md
  /// gives the measured case), so the serial path stays. Requires
  /// edge_propagation > 0 and an empty fault script (validate();
  /// fault injectors mutate cross-partition state mid-window).
  int parallelism = 0;
  /// Per-(window, destination) cross-partition mailbox row bound for
  /// parallelism >= 1; 0 keeps the engine default (1M messages,
  /// sim/parallel.h). A run that posts more than this into one row in
  /// one window aborts deterministically with
  /// RunStatus::kMailboxOverflow -- the bound exists to turn a runaway
  /// partition into a classified failure instead of unbounded memory
  /// growth (docs/PARALLELISM.md, docs/ROBUSTNESS.md).
  std::size_t mailbox_capacity = 0;
};

/// The one-leaf mapping of a single-host config -- the run Experiment
/// is: N+1 hosts under one leaf (receiver 0 plus N transport-only
/// senders), edge links taking cfg.fabric's rate, propagation and
/// buffers. The single-host fault key `link=` becomes cluster
/// targeting: `link=i` (sender i's uplink) is `host=i+1`, and
/// `link=access` (-1) drops the key, which targets receiver 0's
/// downlink.
[[nodiscard]] ClusterConfig degenerate_cluster(const ExperimentConfig& cfg);

/// Open-loop workload results for one window: counters summed and
/// sketches exactly merged across every receiver engine in fixed
/// receiver order, so the merged sketches (and their encode() bytes)
/// are identical for any --parallel=N (docs/WORKLOADS.md).
struct WorkloadMetrics {
  bool enabled = false;
  std::int64_t flows_started = 0;
  std::int64_t flows_completed = 0;
  std::int64_t pool_exhausted = 0;
  std::int64_t collectives_completed = 0;
  std::int64_t active_flows = 0;  // at snapshot instant
  double fct_p50_us = 0.0;
  double fct_p99_us = 0.0;
  double fct_p999_us = 0.0;
  double slowdown_p50 = 0.0;
  double slowdown_p99 = 0.0;
  double slowdown_p999 = 0.0;
  double host_delay_p50_us = 0.0;
  double host_delay_p99_us = 0.0;
  double host_delay_p999_us = 0.0;
  /// The merged sketches themselves, for exporters and the
  /// bitwise-determinism tests (quantiles above are derived views).
  QuantileSketch fct_us;
  QuantileSketch slowdown;
  QuantileSketch host_delay_us;
};

/// Cluster-level aggregation of the per-receiver Metrics.
struct ClusterMetrics {
  /// One Metrics per receiver host, index == host id. Each receiver's
  /// `fabric_drops` counts its own ports (Experiment reports
  /// total_fabric_drops instead); `events_executed`, run status, and
  /// fault accounting are run-global.
  std::vector<Metrics> per_receiver;
  double total_app_throughput_gbps = 0.0;
  std::int64_t total_nic_buffer_drops = 0;
  std::int64_t total_data_packets_sent = 0;
  /// Whole-fabric drops over the window (every port, O(1) snapshot).
  std::int64_t total_fabric_drops = 0;
  double max_host_delay_p99_us = 0.0;
  RunStatus run_status = RunStatus::kOk;
  std::uint64_t events_executed = 0;
  double simulated_seconds = 0.0;
  /// Parallel-engine accounting; all zero in serial (parallelism=0)
  /// runs. Thread-count invariant: equal for any parallelism >= 1.
  int partitions = 0;
  std::uint64_t parallel_windows = 0;
  std::uint64_t parallel_messages = 0;
  /// Open-loop workload results; enabled iff config().workload is.
  WorkloadMetrics workload;
};

/// One fully-wired multi-host simulation instance; run() may be
/// called once.
class ClusterExperiment {
 public:
  explicit ClusterExperiment(ClusterConfig cfg);

  ClusterExperiment(const ClusterExperiment&) = delete;
  ClusterExperiment& operator=(const ClusterExperiment&) = delete;
  ~ClusterExperiment();

  /// Runs warmup + measurement and returns the aggregated metrics.
  ClusterMetrics run();

  /// Starts every receiver's workload without running.
  void start();

  /// Resets all measurement windows at the current instant.
  void begin_window();

  /// Snapshot of current metrics relative to the last begin_window().
  [[nodiscard]] ClusterMetrics snapshot() const;

  /// The fabric-partition simulator (the only one on the serial path).
  [[nodiscard]] sim::Simulator& simulator() { return fabric_sim(); }
  /// Null unless config().parallelism >= 1.
  [[nodiscard]] sim::ParallelEngine* engine() { return engine_.get(); }
  /// Null unless config().host.trace.enabled. Per-host component
  /// probes appear under probe_prefix(h); see docs/OBSERVABILITY.md.
  [[nodiscard]] trace::Tracer* tracer() { return tracer_.get(); }
  /// Trace-name prefix of host h's probes: trace::host_prefix(h), or
  /// empty for the single-host model (one receiver, transport-only
  /// senders, serial path), which keeps the unprefixed catalog and
  /// registers no cluster.port_* gauges.
  [[nodiscard]] std::string probe_prefix(int h) const;
  [[nodiscard]] net::ClosFabric& fabric() { return *fabric_; }
  /// Receiver r's stack: memory pair, antagonist, datapath.
  [[nodiscard]] FullHost& receiver_host(int r) { return groups_[static_cast<std::size_t>(r)].host; }
  [[nodiscard]] host::ReceiverHost& receiver(int r) { return *receiver_host(r).receiver; }
  [[nodiscard]] int num_receivers() const { return receivers_; }
  [[nodiscard]] int num_sender_hosts() const { return senders_per_receiver_; }
  /// Null unless config().faults is non-empty.
  [[nodiscard]] fault::FaultEngine* fault_engine() { return fault_engine_.get(); }
  /// Receiver r's open-loop engine; null unless config().workload is
  /// enabled.
  [[nodiscard]] workload::WorkloadEngine* workload_engine(int r) {
    return workload_engines_.empty() ? nullptr
                                     : workload_engines_[static_cast<std::size_t>(r)].get();
  }
  [[nodiscard]] const ClusterConfig& config() const { return cfg_; }

 private:
  struct ReceiverGroup {
    FullHost host;
    /// This receiver's serving transports, one per sender machine
    /// (borrowed from sender_ports_).
    std::vector<transport::SenderHost*> senders;
    HostCounterSnapshot window_start;
  };

  void dispatch(int host, net::Packet p);
  [[nodiscard]] HostHarvestSources harvest_sources(int r) const;
  /// Coordinator-side work at each engine window barrier (trace
  /// sampling at deterministic barrier instants).
  void on_barrier();

  /// Partition-0 simulator in parallel mode, the lone sim_ otherwise.
  [[nodiscard]] sim::Simulator& fabric_sim() {
    return engine_ != nullptr ? engine_->sim(net::ClosFabric::kFabricPartition) : sim_;
  }
  [[nodiscard]] const sim::Simulator& fabric_sim() const {
    return engine_ != nullptr ? engine_->sim(net::ClosFabric::kFabricPartition) : sim_;
  }
  /// Host h's partition simulator in parallel mode, sim_ otherwise.
  [[nodiscard]] sim::Simulator& host_sim(int h) {
    return engine_ != nullptr ? engine_->sim(net::ClosFabric::host_partition(h)) : sim_;
  }
  [[nodiscard]] const sim::Simulator& host_sim(int h) const {
    return engine_ != nullptr ? engine_->sim(net::ClosFabric::host_partition(h)) : sim_;
  }

  ClusterConfig cfg_;
  Rng rng_;
  sim::Simulator sim_;
  /// Present iff cfg_.parallelism >= 1.
  std::unique_ptr<sim::ParallelEngine> engine_;
  /// Next trace-sample instant for barrier-driven sampling.
  TimePs next_sample_{};
  int receivers_ = 0;
  int senders_per_receiver_ = 0;
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<net::ClosFabric> fabric_;
  std::vector<ReceiverGroup> groups_;
  /// Quiescent full stacks on sender machines (full_sender_hosts).
  std::vector<FullHost> sender_stacks_;
  /// sender_ports_[s * receivers_ + r]: sender machine receivers_+s's
  /// transport serving receiver r.
  std::vector<std::unique_ptr<transport::SenderHost>> sender_ports_;
  /// One open-loop engine per receiver (index == receiver); empty
  /// unless cfg_.workload is enabled.
  std::vector<std::unique_ptr<workload::WorkloadEngine>> workload_engines_;
  std::unique_ptr<fault::FaultEngine> fault_engine_;
  std::int64_t fabric_window_start_ = 0;
  TimePs window_start_time_{};
  bool started_ = false;
};

}  // namespace hicc
