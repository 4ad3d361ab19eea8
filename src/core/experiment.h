// Experiment: the paper's single-host testbed -- N senders reading from
// one receiver (memory, IOMMU, PCIe, NIC, receiver threads) through one
// ToR switch, with congestion control on every flow. It runs warmup + a
// measurement window and harvests Metrics.
//
// This is the primary public entry point of the library:
//
//   hicc::ExperimentConfig cfg;
//   cfg.rx_threads = 12;
//   cfg.iommu_enabled = true;
//   hicc::Experiment exp(cfg);
//   const hicc::Metrics m = exp.run();
//
// The testbed is the one-leaf cluster: Experiment owns
// ClusterExperiment(degenerate_cluster(cfg)) on the serial path and
// forwards to it, so the single-host and cluster runs share one wiring.
#pragma once

#include "core/cluster.h"
#include "core/config.h"
#include "core/metrics.h"
#include "fault/engine.h"
#include "host/receiver_host.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc {

/// One fully-wired simulation instance. Build one Experiment per
/// configuration point; run() may be called once.
class Experiment {
 public:
  explicit Experiment(ExperimentConfig cfg);

  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  /// Runs warmup + measurement and returns the window's metrics.
  Metrics run();

  /// Advances the simulation by `dt` (for incremental/example use).
  void advance(TimePs dt);

  /// Starts the workload without running (for incremental use).
  void start();

  /// Snapshot of current metrics relative to the last begin_window().
  [[nodiscard]] Metrics snapshot() const;

  /// Resets all measurement windows at the current instant.
  void begin_window();

  [[nodiscard]] sim::Simulator& simulator() { return cluster_.simulator(); }
  /// The experiment's tracer; null unless config().trace.enabled. Used
  /// to attach a TraceSink (CSV / Chrome JSON) before start() and to
  /// finish() the capture while the experiment is still alive.
  [[nodiscard]] trace::Tracer* tracer() { return cluster_.tracer(); }
  [[nodiscard]] mem::MemorySystem& memory() { return *cluster_.receiver_host(0).mem; }
  /// The other NUMA node's memory system.
  [[nodiscard]] mem::MemorySystem& remote_memory() {
    return *cluster_.receiver_host(0).remote_mem;
  }
  [[nodiscard]] host::ReceiverHost& receiver() { return cluster_.receiver(0); }
  [[nodiscard]] mem::StreamAntagonist& antagonist() {
    return *cluster_.receiver_host(0).antagonist;
  }
  /// The fault engine; null unless config().faults is non-empty.
  [[nodiscard]] fault::FaultEngine* fault_engine() { return cluster_.fault_engine(); }
  /// The configuration as passed to the constructor.
  [[nodiscard]] const ExperimentConfig& config() const { return cfg_; }

 private:
  ExperimentConfig cfg_;
  ClusterExperiment cluster_;
};

}  // namespace hicc
