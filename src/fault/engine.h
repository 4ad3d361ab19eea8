// Fault-injection engine: executes a FaultScript against the live
// device models of one experiment.
//
// The engine is constructed after the rest of the system is wired (it
// is the last component ClusterExperiment builds, and forks the run's
// RNG last) so that a run whose script never fires is
// event-for-event identical to a run without any engine at all --
// tests/fault_test.cpp pins this down bitwise. All injection happens
// through small mutator hooks on the device models (QueuedLink,
// PcieBus, Nic, Iommu, DdioModel, RxThread, ReceiverHost,
// StreamAntagonist); the engine owns no model state beyond what it
// needs to restore on window end.
//
// Accounting: the engine tracks the union of active fault windows
// (`fault_active_us`), NIC drops that land inside them
// (`fault_drops`), and "blind time" -- active time during which drops
// were actually occurring, i.e. the spans where congestion control is
// flying blind on a host-side disturbance (`fault_blind_us`).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "fault/script.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc::net {
class ClosFabric;
class QueuedLink;
}  // namespace hicc::net
namespace hicc::host {
class ReceiverHost;
}
namespace hicc::mem {
class StreamAntagonist;
}

namespace hicc::fault {

/// The device models a script may perturb. The receiver gives access
/// to NIC / PCIe / IOMMU / DDIO / rx threads / flows; null targets
/// disable the injectors that need them (validation catches scripts
/// that would hit a null target before a run starts).
struct FaultTargets {
  /// net.* events target a leaf-spine link (`leaf=`+`spine=`) or a host
  /// uplink (`host=`), defaulting to receiver 0's downlink port.
  /// Single-host scripts say `link=`; degenerate_cluster() rewrites it.
  net::ClosFabric* clos = nullptr;
  host::ReceiverHost* receiver = nullptr;
  mem::StreamAntagonist* antagonist = nullptr;
};

/// Aggregate disturbance accounting for Metrics.
struct FaultReport {
  /// Fault-window activations (repeating windows count each firing).
  std::int64_t windows = 0;
  /// NIC buffer drops that occurred while any fault was active.
  std::int64_t drops = 0;
  /// Union of active fault windows, microseconds.
  double active_us = 0.0;
  /// Active time during which drops were occurring, microseconds.
  double blind_us = 0.0;
};

/// Schedules and executes a FaultScript on the simulation event loop.
class FaultEngine {
 public:
  /// Schedules every script entry immediately (times are relative to
  /// simulator time zero). `tracer`, when non-null, registers the
  /// `fault.*` probes -- `fault.active`, `fault.activations`, and one
  /// per-kind activity gauge for each kind the script uses.
  FaultEngine(sim::Simulator& sim, FaultScript script, FaultTargets targets, Rng rng,
              trace::Tracer* tracer = nullptr);

  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  /// Faults currently holding their window open.
  [[nodiscard]] int active_count() const { return active_count_; }
  /// Total window activations so far.
  [[nodiscard]] std::int64_t activations() const { return activations_; }
  [[nodiscard]] const FaultScript& script() const { return script_; }

  /// Accounting snapshot; includes still-open windows up to now().
  [[nodiscard]] FaultReport report() const;

 private:
  /// Per-script-entry runtime state.
  struct Active {
    bool active = false;
    BitRate saved_rate{};        // net.rate restore value
    int saved_int = 0;           // antagonist cores / ddio ways restore
    sim::PeriodicTask ticker;    // iommu.storm invalidation driver
  };

  void activate(std::size_t idx);
  void deactivate(std::size_t idx);
  void apply(std::size_t idx);
  void revert(std::size_t idx);
  void monitor_tick();
  [[nodiscard]] net::QueuedLink* link_of(const FaultEvent& e) const;
  [[nodiscard]] std::int64_t nic_drops() const;
  [[nodiscard]] int active_of_kind(FaultKind kind) const;

  sim::Simulator& sim_;
  FaultScript script_;
  FaultTargets targets_;
  Rng rng_;
  std::vector<Active> states_;

  int active_count_ = 0;
  std::int64_t activations_ = 0;
  /// Runs only while a window is open (so idle scripts stay invisible
  /// to the event stream); samples drop deltas for blind-time.
  sim::PeriodicTask monitor_;
  TimePs active_since_{};
  std::int64_t drops_at_union_start_ = 0;
  std::int64_t drops_at_last_tick_ = 0;
  FaultReport report_;
};

}  // namespace hicc::fault
