// ClusterExperiment: exact pinned Metrics of the single-host
// experiment (the one-leaf cluster), the one-leaf mapping itself,
// cluster determinism under equal seeds, many-to-many traffic, cluster
// config validation, and the per-host probe prefixing of traced
// cluster runs.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/cluster.h"
#include "core/experiment.h"
#include "core/validate.h"
#include "fault/script.h"
#include "metrics_eq.h"
#include "trace/trace.h"

namespace hicc {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.rx_threads = 2;
  cfg.num_senders = 4;
  cfg.warmup = TimePs::from_us(200);
  cfg.measure = TimePs::from_us(500);
  return cfg;
}

ClusterConfig small_cluster() {
  ClusterConfig cfg;
  cfg.host = small_config();
  cfg.topology.leaves = 2;
  cfg.topology.spines = 2;
  cfg.topology.hosts_per_leaf = 4;
  return cfg;
}

// ------------------------------------------------------ pinned values

// Exact Metrics of three single-host runs, captured when Experiment
// still wired its own single-ToR fabric; the one-leaf cluster it runs
// now must reproduce them bit for bit. Zero fields are left at their
// defaults. The faulted runs pin the `link=` fault key: a sender
// uplink (whose drops only the whole-fabric count sees) and the access
// link.

Metrics pinned_fault_free() {
  Metrics m;
  m.app_throughput_gbps = 24.969216000000003;
  m.link_utilization = 0.28207872000000001;
  m.memory.total_gbytes_per_sec = 3.5369958399999994;
  m.memory.by_class_gbytes_per_sec[0] = 2.63008;
  m.memory.by_class_gbytes_per_sec[2] = 0.9069158399999997;
  m.memory.read_gbytes_per_sec = 1.0185318399999999;
  m.memory.write_gbytes_per_sec = 2.5184640000000003;
  m.host_delay_p50_us = 11.875;
  m.host_delay_p99_us = 31.25;
  m.host_delay_max_us = 31.965715999999997;
  m.data_packets_sent = 398;
  m.delivered_packets = 381;
  m.iotlb_lookups = 7602;
  m.avg_cwnd = 4.4256648146802569;
  m.simulated_seconds = 0.0005;
  m.events_executed = 32854u;
  return m;
}

Metrics pinned_sender_uplink_loss() {
  Metrics m;
  m.app_throughput_gbps = 23.855104000000001;
  m.link_utilization = 0.26498304;
  m.memory.total_gbytes_per_sec = 3.3306572800000009;
  m.memory.by_class_gbytes_per_sec[0] = 2.4641280000000001;
  m.memory.by_class_gbytes_per_sec[2] = 0.86652928000000085;
  m.memory.read_gbytes_per_sec = 0.97238528000000113;
  m.memory.write_gbytes_per_sec = 2.3582720000000004;
  m.host_delay_p50_us = 11.625;
  m.host_delay_p99_us = 21.75;
  m.host_delay_max_us = 23.914635999999998;
  m.data_packets_sent = 377;
  m.delivered_packets = 364;
  m.fabric_drops = 4;
  m.iotlb_lookups = 7151;
  m.avg_cwnd = 4.2760449954563509;
  m.fault_windows = 1;
  m.fault_active_us = 200;
  m.simulated_seconds = 0.0005;
  m.events_executed = 31439u;
  return m;
}

Metrics pinned_access_rate_downgrade() {
  Metrics m;
  m.app_throughput_gbps = 24.117248;
  m.link_utilization = 0.27424320000000002;
  m.memory.total_gbytes_per_sec = 3.4279680000000003;
  m.memory.by_class_gbytes_per_sec[0] = 2.551936;
  m.memory.by_class_gbytes_per_sec[2] = 0.87603200000000037;
  m.memory.read_gbytes_per_sec = 0.98432000000000042;
  m.memory.write_gbytes_per_sec = 2.443648;
  m.host_delay_p50_us = 10.625;
  m.host_delay_p99_us = 29.25;
  m.host_delay_max_us = 31.966056999999999;
  m.data_packets_sent = 382;
  m.delivered_packets = 368;
  m.iotlb_lookups = 7391;
  m.avg_cwnd = 4.3704474696464999;
  m.fault_windows = 1;
  m.fault_active_us = 200;
  m.simulated_seconds = 0.0005;
  m.events_executed = 32199u;
  return m;
}
ExperimentConfig with_faults(const char* spec) {
  ExperimentConfig cfg = small_config();
  cfg.faults = fault::parse_script(spec).script;
  return cfg;
}

TEST(SingleHostPinned, FaultFreeRunReproducesPinnedMetrics) {
  Experiment exp(small_config());
  EXPECT_TRUE(metrics_eq(exp.run(), pinned_fault_free()));
}

TEST(SingleHostPinned, SenderUplinkLossReproducesPinnedMetrics) {
  Experiment exp(with_faults("net.loss@300us+200us,link=1,prob=0.2"));
  EXPECT_TRUE(metrics_eq(exp.run(), pinned_sender_uplink_loss()));
}

TEST(SingleHostPinned, AccessRateDowngradeReproducesPinnedMetrics) {
  Experiment exp(with_faults("net.rate@300us+200us,link=access,gbps=25"));
  EXPECT_TRUE(metrics_eq(exp.run(), pinned_access_rate_downgrade()));
}

// ------------------------------------------------------------ mapping

TEST(ClusterParity, DegenerateMappingPreservesShape) {
  const ClusterConfig cc = degenerate_cluster(small_config());
  EXPECT_EQ(cc.topology.leaves, 1);
  EXPECT_EQ(cc.topology.spines, 1);
  EXPECT_EQ(cc.topology.num_hosts(), small_config().num_senders + 1);
  EXPECT_EQ(cc.receivers, 1);
  EXPECT_FALSE(cc.full_sender_hosts);
}

TEST(ClusterParity, DegenerateMappingRewritesLinkFaultKeys) {
  const ClusterConfig cc = degenerate_cluster(
      with_faults("net.loss@1ms,link=1,prob=0.2;net.rate@1ms,link=access,gbps=25;"
                  "mem.antagonist@1ms,cores=4"));
  EXPECT_TRUE(cc.host.faults.empty());
  ASSERT_EQ(cc.faults.events.size(), 3u);
  // Sender 1's uplink is host 2's; the access link is the default
  // target, receiver 0's downlink.
  using Params = std::map<std::string, double>;
  EXPECT_EQ(cc.faults.events[0].params, (Params{{"host", 2.0}, {"prob", 0.2}}));
  EXPECT_EQ(cc.faults.events[1].params, (Params{{"gbps", 25.0}}));
  EXPECT_EQ(cc.faults.events[2].params, (Params{{"cores", 4.0}}));
  EXPECT_TRUE(validate(cc).empty()) << describe(validate(cc));
}

// ----------------------------------------------------- determinism

TEST(ClusterDeterminism, SameSeedReproducesEveryReceiverBitwise) {
  ClusterConfig cfg = small_cluster();
  cfg.receivers = 2;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment a(cfg);
  ClusterExperiment b(cfg);
  const ClusterMetrics ma = a.run();
  const ClusterMetrics mb = b.run();

  ASSERT_EQ(ma.per_receiver.size(), 2u);
  ASSERT_EQ(mb.per_receiver.size(), 2u);
  for (std::size_t r = 0; r < ma.per_receiver.size(); ++r) {
    EXPECT_TRUE(metrics_eq(ma.per_receiver[r], mb.per_receiver[r]));
  }
  EXPECT_EQ(ma.total_fabric_drops, mb.total_fabric_drops);
  EXPECT_EQ(ma.events_executed, mb.events_executed);
}

TEST(ClusterDeterminism, SeedChangesTheRun) {
  ClusterConfig cfg = small_cluster();
  ClusterExperiment a(cfg);
  cfg.host.seed += 1;
  ClusterExperiment b(cfg);
  const ClusterMetrics ma = a.run();
  const ClusterMetrics mb = b.run();
  EXPECT_NE(ma.events_executed, mb.events_executed);
}

// ---------------------------------------------------- many-to-many

TEST(ClusterRun, ManyToManyDeliversToEveryReceiver) {
  ClusterConfig cfg = small_cluster();
  cfg.receivers = 2;  // 2 receivers x 6 sender machines across 2 leaves
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment exp(cfg);
  EXPECT_EQ(exp.num_receivers(), 2);
  EXPECT_EQ(exp.num_sender_hosts(), 6);
  const ClusterMetrics m = exp.run();

  ASSERT_EQ(m.per_receiver.size(), 2u);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
  double total = 0.0;
  for (const Metrics& r : m.per_receiver) {
    EXPECT_GT(r.delivered_packets, 0);
    EXPECT_GT(r.app_throughput_gbps, 0.0);
    total += r.app_throughput_gbps;
  }
  EXPECT_EQ(m.total_app_throughput_gbps, total);
  // The paper's claim, per receiver: the fabric is uncongested; any
  // loss happens at the hosts.
  EXPECT_EQ(m.total_fabric_drops, 0);
}

TEST(ClusterRun, IncastKeepsAllDropsAtTheHost) {
  ClusterConfig cfg = small_cluster();
  ASSERT_TRUE(validate(cfg).empty());
  ClusterExperiment exp(cfg);
  const ClusterMetrics m = exp.run();
  ASSERT_EQ(m.per_receiver.size(), 1u);
  EXPECT_GT(m.per_receiver[0].delivered_packets, 0);
  EXPECT_EQ(m.per_receiver[0].fabric_drops, 0);
  EXPECT_EQ(m.total_fabric_drops, 0);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
}

// ------------------------------------------------------- validation

TEST(ClusterValidation, AcceptsDefaultAndDegenerateConfigs) {
  EXPECT_TRUE(validate(ClusterConfig{}).empty());
  EXPECT_TRUE(validate(small_cluster()).empty());
  EXPECT_TRUE(validate(degenerate_cluster(ExperimentConfig{})).empty());
}

TEST(ClusterValidation, AggregatesTopologyHostAndFaultViolations) {
  ClusterConfig bad = small_cluster();
  bad.topology.spines = 0;                       // topology shape
  bad.topology.host_link_rate = BitRate::gbps(0);  // dead edge links
  bad.receivers = 99;                            // more receivers than hosts
  bad.host.rx_threads = 0;                       // per-host template
  bad.faults = fault::parse_script("net.link_down@1ms,link=2").script;  // single-host key

  const auto violations = validate(bad);
  std::set<std::string> fields;
  for (const auto& v : violations) fields.insert(v.field);
  EXPECT_TRUE(fields.count("topology.spines"));
  EXPECT_TRUE(fields.count("topology.host_link_rate"));
  EXPECT_TRUE(fields.count("receivers"));
  EXPECT_TRUE(fields.count("host.rx_threads"));
  // Cluster scripts address links by topology coordinates; the
  // single-host `link=` index is rejected as unknown.
  EXPECT_TRUE(fields.count("faults[0].link"));
}

TEST(ClusterValidation, ChecksTopologyFaultTargets) {
  ClusterConfig cfg = small_cluster();
  cfg.faults = fault::parse_script(
                   "net.link_down@1ms,leaf=5,spine=0;"  // leaf out of range
                   "net.rate@1ms,spine=1,gbps=25;"      // spine without leaf
                   "net.loss@1ms,host=64,prob=0.1;"     // host out of range
                   "net.link_down@1ms,host=2,leaf=0,spine=1")  // exclusive
                   .script;
  const auto violations = validate(cfg);
  std::set<std::string> fields;
  for (const auto& v : violations) fields.insert(v.field);
  EXPECT_TRUE(fields.count("faults[0].leaf"));
  EXPECT_TRUE(fields.count("faults[1].leaf"));
  EXPECT_TRUE(fields.count("faults[2].host"));
  EXPECT_TRUE(fields.count("faults[3].host"));

  cfg.faults = fault::parse_script(
                   "net.link_down@1ms,leaf=1,spine=0;"
                   "net.rate@1ms,host=3,gbps=25;"
                   "net.loss@1ms,prob=0.05")
                   .script;
  EXPECT_TRUE(validate(cfg).empty()) << describe(validate(cfg));
}

// ----------------------------------------------------- trace probes

TEST(ClusterTrace, ComponentProbesCarryTheHostPrefix) {
  ClusterConfig cfg = small_cluster();
  cfg.receivers = 2;
  cfg.host.trace.enabled = true;
  ClusterExperiment exp(cfg);
  ASSERT_NE(exp.tracer(), nullptr);

  // Every receiver's component probes appear under its own prefix...
  for (int r = 0; r < 2; ++r) {
    for (const char* name : {"nic.buffer_drops", "iommu.iotlb_misses", "mem.bandwidth_gbps",
                             "host.rx_queue_pkts"}) {
      EXPECT_TRUE(exp.tracer()->find(trace::host_probe(r, name)).has_value())
          << trace::host_probe(r, name);
    }
    // ...plus the cluster-level port accounting for that host.
    EXPECT_TRUE(exp.tracer()->find(trace::host_probe(r, "cluster.port_drops")).has_value());
    EXPECT_TRUE(
        exp.tracer()->find(trace::host_probe(r, "cluster.port_queue_bytes")).has_value());
  }
  // Quiescent sender machines carry full stacks too (host 2 is the
  // first sender machine).
  EXPECT_TRUE(exp.tracer()->find(trace::host_probe(2, "nic.buffer_drops")).has_value());
  // The run-global transport gauge stays unprefixed, and no unprefixed
  // component probe leaks into a cluster run.
  EXPECT_TRUE(exp.tracer()->find("transport.cwnd_avg").has_value());
  EXPECT_FALSE(exp.tracer()->find("nic.buffer_drops").has_value());
}

TEST(ClusterTrace, HostProbeSpellsThePrefix) {
  EXPECT_EQ(trace::host_prefix(3), "host3.");
  EXPECT_EQ(trace::host_probe(0, "nic.buffer_drops"), "host0.nic.buffer_drops");
}

}  // namespace
}  // namespace hicc
