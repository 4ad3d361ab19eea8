// Layer drivers: host-time costs of each layer's public entry points,
// measured on components built with the parameters of the workload
// they model.
//
// Every driver reports its inclusive cost per operation together with
// the work of other layers that one operation triggered (events,
// IOTLB hits and misses, page-walk reads, memory requests, TLPs,
// memory epochs), counted from the components' public counters during
// the timed batches. run.py subtracts that nested work at the other
// drivers' own costs, so layer shares do not double count.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "core/host_factory.h"
#include "harness.h"
#include "net/topology.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace perfbench {

/// The parameters a driver takes from its workload: the receiver-host
/// template of receiver 0, its peer count and open-loop mode, the
/// fabric (the degenerate one-leaf Clos of a single-host run), the
/// open-loop workload, and where receivers and senders sit in it.
struct DriverSetup {
  hicc::ExperimentConfig host;
  int num_senders = 0;
  bool open_loop = false;
  int open_loop_slots = 0;
  hicc::net::TopologyConfig topology;
  int receivers = 1;
  hicc::workload::WorkloadParams workload;
};

[[nodiscard]] DriverSetup driver_setup(const Workload& w);

/// One receiver host (HostFactory::make_full_host) on its own
/// simulator, not started.
struct DriverHost {
  explicit DriverHost(const DriverSetup& s);
  hicc::sim::Simulator sim;
  hicc::Rng rng;
  hicc::FullHost host;
};

/// Events per simulated ms of one idle full host (built from `s`, not
/// started): its memory nodes' periodic epoch solves and the
/// copy-demand refresh, the only events it has. These are the
/// "epochs" the mem.epoch driver times.
[[nodiscard]] double idle_host_events_per_sim_ms(const DriverSetup& s);

/// Figures observed in the workload run that size the drivers' inputs.
struct DriverInputs {
  /// Live events per simulator (median at slice boundaries), and the
  /// mean time an event waits in the queue: by Little's law, the live
  /// events over the rate events execute at.
  std::size_t sim_depth = 1;
  double event_wait_ns = 1000.0;
  /// Delivered packets per simulated second at one receiver.
  double pkt_rate_per_s = 1e6;
  /// Ranges the transport and sketch drivers draw their values from.
  double host_delay_lo_us = 5.0;
  double host_delay_hi_us = 200.0;
};

/// Cost of one driver: inclusive host ns per operation, and the work
/// one operation triggered in other layers.
struct DriverCost {
  double ns = 0.0;
  std::map<std::string, double> per_op;
};

/// Runs every driver; each gets about kDriverSeconds of host time.
[[nodiscard]] std::map<std::string, DriverCost> run_drivers(const Workload& w,
                                                            const DriverInputs& in);

}  // namespace perfbench
