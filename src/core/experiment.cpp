#include "core/experiment.h"

#include <utility>

namespace hicc {
namespace {

/// Receiver 0's Metrics with fabric drops counted over every port: in
/// the single-host testbed all traffic is the receiver's, so a packet
/// lost on a sender's uplink counts too, not just the receiver's ports.
Metrics single_host(ClusterMetrics cm) {
  Metrics m = std::move(cm.per_receiver.front());
  m.fabric_drops = cm.total_fabric_drops;
  return m;
}

}  // namespace

Experiment::Experiment(ExperimentConfig cfg)
    : cfg_(std::move(cfg)), cluster_(degenerate_cluster(cfg_)) {}

void Experiment::start() { cluster_.start(); }

void Experiment::advance(TimePs dt) {
  sim::Simulator& sim = cluster_.simulator();
  sim.run_until(sim.now() + dt);
}

void Experiment::begin_window() { cluster_.begin_window(); }

Metrics Experiment::snapshot() const { return single_host(cluster_.snapshot()); }

Metrics Experiment::run() { return single_host(cluster_.run()); }

}  // namespace hicc
