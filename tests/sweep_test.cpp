// SweepRunner: parallel-vs-serial determinism, index-ordered
// collection, per-point seed independence, exception propagation, and
// the structured JSON record.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "core/experiment.h"
#include "metrics_eq.h"
#include "sweep/columnar.h"
#include "sweep/sweep.h"

namespace hicc::sweep {
namespace {

/// Small-but-heterogeneous sweep: every point differs in workload and
/// seed, so any cross-point state leakage or misordered collection
/// shows up as a metrics mismatch.
std::vector<ExperimentConfig> test_points(int n) {
  std::vector<ExperimentConfig> points;
  for (int i = 0; i < n; ++i) {
    ExperimentConfig cfg;
    cfg.warmup = TimePs::from_us(200);
    cfg.measure = TimePs::from_us(500);
    cfg.rx_threads = 2 + i % 3;
    cfg.num_senders = 4 + i % 5;
    cfg.iommu_enabled = i % 2 == 0;
    cfg.hugepages = i % 4 != 0;
    cfg.antagonist_cores = (i % 3 == 0) ? 4 : 0;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    points.push_back(cfg);
  }
  return points;
}

TEST(SweepRunner, ParallelMatchesSerialOn16Points) {
  const auto points = test_points(16);

  SweepOptions serial_opts;
  serial_opts.jobs = 1;
  const auto serial = SweepRunner(serial_opts).run(points);

  for (int jobs : {4, 7}) {
    SweepOptions opts;
    opts.jobs = jobs;
    const SweepRunner runner(opts);
    EXPECT_EQ(runner.jobs(), jobs);
    const auto parallel = runner.run(points);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("point " + std::to_string(i) + " @ jobs=" + std::to_string(jobs));
      EXPECT_TRUE(metrics_eq(parallel[i].metrics, serial[i].metrics));
    }
  }
}

TEST(SweepRunner, ResultsAreIndexOrdered) {
  const auto points = test_points(9);
  SweepOptions opts;
  opts.jobs = 4;
  const auto results = SweepRunner(opts).run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].config.seed, points[i].seed);
    EXPECT_EQ(results[i].config.rx_threads, points[i].rx_threads);
    EXPECT_GT(results[i].wall_seconds, 0.0);
  }
}

TEST(SweepRunner, PointMetricsIndependentOfListOrder) {
  const auto points = test_points(8);
  std::vector<ExperimentConfig> permuted(points.rbegin(), points.rend());

  SweepOptions opts;
  opts.jobs = 4;
  const auto forward = SweepRunner(opts).run(points);
  const auto backward = SweepRunner(opts).run(permuted);
  ASSERT_EQ(forward.size(), backward.size());
  const std::size_t n = forward.size();
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE("point " + std::to_string(i));
    EXPECT_TRUE(metrics_eq(forward[i].metrics, backward[n - 1 - i].metrics));
  }
}

TEST(SweepRunner, ReseedDerivesPerPointSeeds) {
  const auto points = test_points(6);
  SweepOptions opts;
  opts.jobs = 3;
  opts.reseed = true;
  opts.sweep_seed = 42;
  const auto results = SweepRunner(opts).run(points);
  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].config.seed, derive_seed(42, i));
    seeds.insert(results[i].config.seed);
  }
  EXPECT_EQ(seeds.size(), results.size());  // all distinct
}

TEST(SweepRunner, ExceptionFromFailingPointPropagates) {
  const auto points = test_points(8);
  SweepOptions opts;
  opts.jobs = 1;
  opts.probe = [](Experiment&, SweepResult& r) {
    if (r.index == 3) throw std::runtime_error("point 3 failed");
  };
  try {
    (void)SweepRunner(opts).run(points);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "point 3 failed");
  }

  // Parallel workers abandon the queue on failure and rethrow too.
  opts.jobs = 4;
  EXPECT_THROW((void)SweepRunner(opts).run(points), std::runtime_error);
}

TEST(SweepRunner, ProgressReportsEveryPointExactlyOnce) {
  const auto points = test_points(10);
  SweepOptions opts;
  opts.jobs = 4;
  std::vector<std::size_t> completed;
  std::set<std::size_t> indices;
  opts.progress = [&](const SweepProgress& p) {
    EXPECT_EQ(p.total, points.size());
    completed.push_back(p.completed);
    indices.insert(p.index);
  };
  (void)SweepRunner(opts).run(points);
  ASSERT_EQ(completed.size(), points.size());
  // The callback is serialized, so `completed` counts straight up.
  for (std::size_t i = 0; i < completed.size(); ++i) EXPECT_EQ(completed[i], i + 1);
  EXPECT_EQ(indices.size(), points.size());
}

// Regression guard for the hook synchronization contract (TSan-verified;
// see the concurrency note in sweep.cpp): the progress callback is
// serialized under the runner's mutex, and the probe callback touches
// only its own point's SweepResult. Both hooks here mutate *non-atomic*
// shared state in ways that are only safe if those guarantees hold, and
// 16 workers racing over 48 points give TSan (HICC_SANITIZE=thread) a
// real interleaving to chew on. Without TSan it still catches lost
// updates and ordering violations.
TEST(SweepRunner, HooksAreRaceFreeUnder16Threads) {
  auto points = test_points(48);
  for (auto& p : points) {
    p.warmup = TimePs::from_us(50);
    p.measure = TimePs::from_us(150);
  }
  SweepOptions opts;
  opts.jobs = 16;
  std::size_t progress_calls = 0;  // unsynchronized on purpose
  std::size_t last_completed = 0;
  opts.progress = [&](const SweepProgress& p) {
    ++progress_calls;
    EXPECT_EQ(p.completed, last_completed + 1);  // serialized => no gaps
    last_completed = p.completed;
  };
  opts.probe = [](Experiment&, SweepResult& r) {
    r.extra["probe_index"] = static_cast<double>(r.index);
  };
  const auto results = SweepRunner(opts).run(points);
  EXPECT_EQ(progress_calls, points.size());
  EXPECT_EQ(last_completed, points.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].extra.at("probe_index"), static_cast<double>(i));
  }
}

TEST(SweepRunner, ProbeHarvestsExtraScalars) {
  const auto points = test_points(4);
  SweepOptions opts;
  opts.jobs = 2;
  opts.probe = [](Experiment& exp, SweepResult& r) {
    r.extra["rx_threads_probe"] = static_cast<double>(exp.config().rx_threads);
  };
  const auto results = SweepRunner(opts).run(points);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].extra.at("rx_threads_probe"), points[i].rx_threads);
  }
}

TEST(SweepRunner, ResolveJobsPrecedence) {
  EXPECT_EQ(SweepRunner::resolve_jobs(5), 5);
  ASSERT_EQ(setenv("HICC_JOBS", "3", 1), 0);
  EXPECT_EQ(SweepRunner::resolve_jobs(0), 3);
  EXPECT_EQ(SweepRunner::resolve_jobs(7), 7);  // explicit beats env
  ASSERT_EQ(setenv("HICC_JOBS", "not-a-number", 1), 0);
  EXPECT_GE(SweepRunner::resolve_jobs(0), 1);  // falls back to hardware
  ASSERT_EQ(unsetenv("HICC_JOBS"), 0);
  EXPECT_GE(SweepRunner::resolve_jobs(0), 1);
}

TEST(SweepRunner, EmptySweepReturnsEmpty) {
  const auto results = SweepRunner().run({});
  EXPECT_TRUE(results.empty());
}

TEST(DeriveSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s : {0ULL, 1ULL, 42ULL}) {
    for (std::uint64_t i = 0; i < 64; ++i) seeds.insert(derive_seed(s, i));
  }
  EXPECT_EQ(seeds.size(), 3u * 64u);  // no collisions across sweeps or indices
}

TEST(SweepJson, RecordsSchemaConfigMetricsAndExtra) {
  auto points = test_points(2);
  SweepOptions opts;
  opts.jobs = 2;
  opts.probe = [](Experiment&, SweepResult& r) { r.extra["answer"] = 42.0; };
  const auto results = SweepRunner(opts).run(points);

  std::ostringstream os;
  write_json(results, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"hicc.sweep.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"app_throughput_gbps\""), std::string::npos);
  EXPECT_NE(json.find("\"rx_threads\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"answer\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"wall_seconds\""), std::string::npos);
  // Two points -> two index fields, one per entry.
  EXPECT_NE(json.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"index\": 1"), std::string::npos);
  // Balanced braces => structurally sound (cheap JSON sanity check).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

/// Every Metrics field set to a distinct non-default value, with a
/// non-ok run status and its detail.
Metrics every_field_set() {
  Metrics m;
  m.app_throughput_gbps = 1.5;
  m.link_utilization = 0.25;
  m.drop_rate = 0.125;
  m.iotlb_misses_per_packet = 3.75;
  m.memory.total_gbytes_per_sec = 10.5;
  m.memory.read_gbytes_per_sec = 4.5;
  m.memory.write_gbytes_per_sec = 6.0;
  m.memory.by_class_gbytes_per_sec = {1.25, 2.5, 3.5, 4.25, 5.75};
  m.host_delay_p50_us = 11.5;
  m.host_delay_p99_us = 12.5;
  m.host_delay_max_us = 13.5;
  m.victim_reads = 14;
  m.victim_read_p50_us = 15.5;
  m.victim_read_p99_us = 16.5;
  m.remote_memory.total_gbytes_per_sec = 17.5;
  m.remote_memory.read_gbytes_per_sec = 7.25;
  m.remote_memory.write_gbytes_per_sec = 10.25;
  m.remote_memory.by_class_gbytes_per_sec = {0.5, 0.75, 1.75, 2.75, 3.25};
  m.data_packets_sent = 18;
  m.retransmits = 19;
  m.rto_fires = 20;
  m.delivered_packets = 21;
  m.nic_buffer_drops = 22;
  m.fabric_drops = 23;
  m.iotlb_misses = 24;
  m.iotlb_lookups = 25;
  m.pcie_translation_stalls = 26;
  m.pcie_write_buffer_stalls = 27;
  m.hol_descriptor_stalls = 28;
  m.avg_cwnd = 29.5;
  m.fault_windows = 30;
  m.fault_drops = 31;
  m.fault_active_us = 32.5;
  m.fault_blind_us = 33.5;
  m.run_status = RunStatus::kStalled;
  m.run_status_detail = "no progress at 1.5 ms";
  m.simulated_seconds = 0.002;
  m.events_executed = 123456789012u;
  return m;
}

// The hicc.sweep.v1 `metrics` object and the original columnar
// metrics.* columns, pinned so a change to how they are written shows.
TEST(SweepJson, MetricsObjectAndColumnsArePinned) {
  SweepResult r;
  r.metrics = every_field_set();
  std::ostringstream os;
  write_json({r}, os);
  const std::string json = os.str();
  const std::size_t begin = json.find("\"metrics\": ");
  ASSERT_NE(begin, std::string::npos);
  const std::size_t end = json.find("\n      }", begin);
  ASSERT_NE(end, std::string::npos);
  EXPECT_EQ(json.substr(begin, end + 8 - begin), R"("metrics": {
        "app_throughput_gbps": 1.5,
        "link_utilization": 0.25,
        "drop_rate": 0.125,
        "iotlb_misses_per_packet": 3.75,
        "memory_total_gbytes_per_sec": 10.5,
        "memory_nic_dma_gbytes_per_sec": 1.25,
        "memory_iommu_walk_gbytes_per_sec": 2.5,
        "memory_cpu_copy_gbytes_per_sec": 3.5,
        "memory_antagonist_gbytes_per_sec": 4.25,
        "remote_memory_total_gbytes_per_sec": 17.5,
        "host_delay_p50_us": 11.5,
        "host_delay_p99_us": 12.5,
        "host_delay_max_us": 13.5,
        "victim_reads": 14,
        "victim_read_p50_us": 15.5,
        "victim_read_p99_us": 16.5,
        "data_packets_sent": 18,
        "retransmits": 19,
        "rto_fires": 20,
        "delivered_packets": 21,
        "nic_buffer_drops": 22,
        "fabric_drops": 23,
        "iotlb_misses": 24,
        "iotlb_lookups": 25,
        "pcie_translation_stalls": 26,
        "pcie_write_buffer_stalls": 27,
        "hol_descriptor_stalls": 28,
        "avg_cwnd": 29.5,
        "fault_windows": 30,
        "fault_drops": 31,
        "fault_active_us": 32.5,
        "fault_blind_us": 33.5,
        "run_status": "stalled",
        "run_status_detail": "no progress at 1.5 ms",
        "simulated_seconds": 0.002,
        "events_executed": 123456789012
      })");

  const std::map<std::string, double> row = flatten(r);
  EXPECT_EQ(row.at("metrics.app_throughput_gbps"), 1.5);
  EXPECT_EQ(row.at("metrics.link_utilization"), 0.25);
  EXPECT_EQ(row.at("metrics.drop_rate"), 0.125);
  EXPECT_EQ(row.at("metrics.iotlb_misses_per_packet"), 3.75);
  EXPECT_EQ(row.at("metrics.memory_total_gbytes_per_sec"), 10.5);
  EXPECT_EQ(row.at("metrics.host_delay_p50_us"), 11.5);
  EXPECT_EQ(row.at("metrics.host_delay_p99_us"), 12.5);
  EXPECT_EQ(row.at("metrics.victim_read_p99_us"), 16.5);
  EXPECT_EQ(row.at("metrics.nic_buffer_drops"), 22);
  EXPECT_EQ(row.at("metrics.retransmits"), 19);
  EXPECT_EQ(row.at("metrics.avg_cwnd"), 29.5);
  EXPECT_EQ(row.at("metrics.run_status"), static_cast<double>(RunStatus::kStalled));
}

// Every number in a record's `metrics` object has its metrics.<key>
// column in the columnar row, with the same value.
TEST(SweepJson, EveryNumericMetricHasAColumn) {
  SweepResult r;
  r.metrics = every_field_set();
  std::ostringstream os;
  write_json({r}, os);
  std::istringstream json(os.str());
  const std::map<std::string, double> row = flatten(r);
  std::string line;
  do {
    ASSERT_TRUE(std::getline(json, line));
  } while (line.find("\"metrics\": {") == std::string::npos);
  int numeric = 0;
  while (std::getline(json, line) && line.find('}') == std::string::npos) {
    const std::size_t colon = line.find("\": ");
    ASSERT_NE(colon, std::string::npos) << line;
    const std::string key = line.substr(line.find('"') + 1, colon - line.find('"') - 1);
    const std::string value = line.substr(colon + 3);
    if (value.front() == '"') continue;  // run_status, run_status_detail
    ++numeric;
    const auto it = row.find("metrics." + key);
    EXPECT_TRUE(it != row.end() && it->second == std::strtod(value.c_str(), nullptr))
        << "metrics." << key << " is missing or differs from " << value;
  }
  EXPECT_EQ(numeric, 34);
}

}  // namespace
}  // namespace hicc::sweep
