// Crash-isolated sweep supervision (sweep/supervisor.h, sweep/worker.h,
// sweep/journal.h): spec round-trips, worker-vs-in-process record
// equality, the failure taxonomy (crash / timeout / OOM-kill / retries
// exhausted), deterministic retry + backoff, journal durability under
// kill -9, and the bitwise resume guarantee (docs/ROBUSTNESS.md).
//
// This binary is its own point worker: main() dispatches
// `--point-worker` to run_point_worker before gtest ever runs, and the
// supervisor tests exec /proc/self/exe. Failure-injection assertions
// check the taxonomy *status*, not signal names, because sanitizer
// builds turn raise(SIGSEGV)/abort() into plain nonzero exits -- the
// classification (retryable failure) is the contract, the signal is not.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <set>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/fields.h"
#include "core/validate.h"
#include "sweep/journal.h"
#include "sweep/supervisor.h"
#include "sweep/sweep.h"
#include "sweep/worker.h"

namespace hicc::sweep {
namespace {

volatile std::sig_atomic_t g_stop = 0;

/// Same heterogeneous mini-sweep shape as sweep_test.cpp: every point
/// differs, so a worker running the wrong point shows up as a
/// metrics/bitwise mismatch.
std::vector<ExperimentConfig> test_points(int n) {
  std::vector<ExperimentConfig> points;
  for (int i = 0; i < n; ++i) {
    ExperimentConfig cfg;
    cfg.warmup = TimePs::from_us(200);
    cfg.measure = TimePs::from_us(500);
    cfg.rx_threads = 2 + i % 3;
    cfg.num_senders = 4 + i % 5;
    cfg.iommu_enabled = i % 2 == 0;
    cfg.antagonist_cores = (i % 3 == 0) ? 4 : 0;
    cfg.seed = 100 + static_cast<std::uint64_t>(i);
    points.push_back(cfg);
  }
  return points;
}

SupervisorOptions base_opts() {
  SupervisorOptions opts;
  opts.worker_argv = {"/proc/self/exe", "--point-worker"};
  opts.params.jobs = 2;
  opts.params.max_attempts = 2;
  opts.params.backoff_base_s = 0.01;  // fast retries: tests, not production
  opts.params.backoff_cap_s = 0.05;
  return opts;
}

std::string merged(const SupervisorOutcome& outcome) {
  std::ostringstream os;
  write_merged_json(outcome, os);
  return os.str();
}

/// write_json over in-process results with wall_seconds zeroed -- the
/// byte-exact document an isolated sweep of the same points must
/// produce (worker records pin wall_seconds to 0).
std::string in_process_json(const std::vector<ExperimentConfig>& points) {
  SweepOptions opts;
  opts.jobs = 1;
  auto results = SweepRunner(opts).run(points);
  for (auto& r : results) r.wall_seconds = 0.0;
  std::ostringstream os;
  write_json(results, os);
  return os.str();
}

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "hicc_supervisor_" + name + "_" +
         std::to_string(::getpid());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --------------------------------------------------------------- spec

/// Sets every table field of `c` to a non-default value.
struct Perturb {
  template <typename T>
  void operator()(const fields::Field&, T& v) const {
    if constexpr (std::is_same_v<T, bool>) {
      v = !v;
    } else if constexpr (std::is_arithmetic_v<T>) {
      v = static_cast<T>(v * 3 + 7);
      if constexpr (std::is_floating_point_v<T>) v += 0.1;  // not a short decimal
    } else if constexpr (std::is_same_v<T, Bytes>) {
      v = Bytes(v.count() * 3 + 4097);
    } else if constexpr (std::is_same_v<T, TimePs>) {
      v = TimePs(v.ps() * 3 + 12'300'001);
    } else if constexpr (std::is_same_v<T, BitRate>) {
      v = BitRate(v.bps() * 3 + 7);
    } else if constexpr (std::is_same_v<T, transport::CcAlgorithm>) {
      v = transport::CcAlgorithm::kHostSignal;
    } else if constexpr (std::is_same_v<T, workload::Pattern>) {
      v = workload::Pattern::kIncast;
    } else if constexpr (std::is_same_v<T, workload::Arrival>) {
      v = workload::Arrival::kBursty;
    } else if constexpr (std::is_same_v<T, workload::SizeDist>) {
      v = workload::SizeDist::kHadoop;
    } else if constexpr (std::is_same_v<T, fault::FaultScript>) {
      v = fault::parse_script("mem.antagonist@1ms+2ms,cores=3;net.loss@2ms,prob=0.25").script;
    } else if constexpr (std::is_same_v<T, net::TopologyConfig>) {
      v.leaves = 3;
      v.spines = 5;
      v.hosts_per_leaf = 7;
    } else {
      v = {1, 3};
    }
  }
};

/// Every table field as (key, exact value), spelled independently of
/// the table's own codecs: doubles as hex floats, times in ps.
struct Exact {
  std::vector<std::pair<std::string, std::string>>* out;
  template <typename T>
  void operator()(const fields::Field& f, const T& v) const {
    std::ostringstream os;
    if constexpr (std::is_floating_point_v<T>) {
      os << std::hexfloat << v;
    } else if constexpr (std::is_arithmetic_v<T>) {
      os << v;
    } else if constexpr (std::is_same_v<T, Bytes>) {
      os << v.count() << "B";
    } else if constexpr (std::is_same_v<T, TimePs>) {
      os << v.ps() << "ps";
    } else if constexpr (std::is_same_v<T, BitRate>) {
      os << std::hexfloat << v.bps() << "bps";
    } else if constexpr (std::is_enum_v<T>) {
      os << static_cast<int>(v);
    } else if constexpr (std::is_same_v<T, fault::FaultScript>) {
      os << v.to_spec();
    } else if constexpr (std::is_same_v<T, net::TopologyConfig>) {
      os << v.leaves << '/' << v.spines << '/' << v.hosts_per_leaf;
    } else {
      for (int x : v) os << x << ';';
    }
    out->emplace_back(f.key, os.str());
  }
};

std::vector<std::pair<std::string, std::string>> exact_fields(const ClusterConfig& c) {
  std::vector<std::pair<std::string, std::string>> out;
  fields::visit_host(c.host, Exact{&out});
  fields::visit_cluster(c, Exact{&out});
  return out;
}

/// A cluster config with every table field perturbed, under the two
/// cluster-point rules: the script is at cluster scope, tracing off.
ClusterConfig perturbed_cluster() {
  ClusterConfig cfg;
  fields::visit_host(cfg.host, Perturb{});
  fields::visit_cluster(cfg, Perturb{});
  cfg.faults = cfg.host.faults;
  cfg.host.faults = fault::FaultScript{};
  cfg.host.trace.enabled = false;
  return cfg;
}

TEST(PointSpec, RoundTripsThroughParse) {
  ClusterConfig cfg;
  fields::visit_host(cfg.host, Perturb{});

  const SpecParse parsed = parse_point_spec(point_spec(cfg.host, 7));
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  const PointSpec& spec = parsed.spec;
  EXPECT_EQ(spec.index, 7u);
  EXPECT_EQ(spec.attempt, 1);
  EXPECT_FALSE(spec.is_cluster);
  EXPECT_EQ(exact_fields(spec.config), exact_fields(cfg));

  // Serializing the parsed config reproduces the spec byte-for-byte:
  // the fingerprint a resumed sweep recomputes depends on this.
  EXPECT_EQ(point_spec(spec.config.host, 7), point_spec(cfg.host, 7));
}

TEST(PointSpec, ClusterFormRoundTrips) {
  const ClusterConfig cfg = perturbed_cluster();

  const SpecParse parsed = parse_point_spec(cluster_point_spec(cfg, 3));
  ASSERT_TRUE(parsed.ok()) << parsed.errors.front();
  const PointSpec& spec = parsed.spec;
  EXPECT_TRUE(spec.is_cluster);
  EXPECT_EQ(spec.index, 3u);
  EXPECT_EQ(exact_fields(spec.config), exact_fields(cfg));
  EXPECT_EQ(spec.config.faults.to_spec(), cfg.faults.to_spec());
  EXPECT_TRUE(spec.config.host.faults.empty());
  EXPECT_EQ(cluster_point_spec(spec.config, 3), cluster_point_spec(cfg, 3));
}

TEST(PointSpec, TableKeysAreUniqueAndPerturbationChangesEveryField) {
  const auto defaults = exact_fields(ClusterConfig{});
  ClusterConfig changed;
  fields::visit_host(changed.host, Perturb{});
  fields::visit_cluster(changed, Perturb{});
  const auto perturbed = exact_fields(changed);
  ASSERT_EQ(defaults.size(), perturbed.size());
  std::set<std::string> keys;
  for (std::size_t i = 0; i < defaults.size(); ++i) {
    EXPECT_TRUE(keys.insert(defaults[i].first).second) << "duplicate key " << defaults[i].first;
    EXPECT_NE(defaults[i].second, perturbed[i].second) << defaults[i].first;
  }
}

TEST(PointSpec, ValuesTheHandWrittenSpecLostRoundTrip) {
  // The six losses of the hand-written spec writer/parser this table
  // replaced: two nested host params came back at their defaults, a
  // time lost a picosecond to truncating TimePs::from_us, and three
  // cluster fields were never written.
  ClusterConfig cfg;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(400);
  cfg.host.pcie.credit_bytes = Bytes(4096);
  cfg.host.dram.channels = 2;
  cfg.host.swift.host_target = TimePs(12'300'000);
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.antagonist_profile = {4, 0};
  cfg.topology.edge_propagation = TimePs::from_us(1);

  const SpecParse host = parse_point_spec(point_spec(cfg.host, 0));
  ASSERT_TRUE(host.ok()) << host.errors.front();
  EXPECT_EQ(host.spec.config.host.pcie.credit_bytes.count(), 4096);
  EXPECT_EQ(host.spec.config.host.dram.channels, 2);
  EXPECT_EQ(host.spec.config.host.swift.host_target.ps(), 12'300'000);

  const SpecParse cluster = parse_point_spec(cluster_point_spec(cfg, 0));
  ASSERT_TRUE(cluster.ok()) << cluster.errors.front();
  const ClusterConfig& round = cluster.spec.config;
  EXPECT_EQ(round.host.pcie.credit_bytes.count(), 4096);
  EXPECT_EQ(round.host.dram.channels, 2);
  EXPECT_EQ(round.host.swift.host_target.ps(), 12'300'000);
  EXPECT_EQ(round.workload.pattern, workload::Pattern::kIncast);
  EXPECT_EQ(round.antagonist_profile, (std::vector<int>{4, 0}));
  EXPECT_EQ(round.topology.edge_propagation.ps(), TimePs::from_us(1).ps());
}

TEST(PointSpec, ParseReportsEveryProblemWithLineNumbers) {
  const SpecParse parsed = parse_point_spec(
      "hicc.point.v1\n"
      "rx_threads=not-a-number\n"
      "nonsense_key=1\n"
      "inject=frobnicate\n");
  ASSERT_EQ(parsed.errors.size(), 3u);
  EXPECT_NE(parsed.errors[0].find("line 2"), std::string::npos);
  EXPECT_NE(parsed.errors[1].find("unknown key"), std::string::npos);
  EXPECT_NE(parsed.errors[2].find("inject"), std::string::npos);

  EXPECT_FALSE(parse_point_spec("not a spec\n").ok());
  EXPECT_FALSE(parse_point_spec("").ok());
}

// ------------------------------------------------------------- worker

TEST(PointWorker, RecordMatchesInProcessSweepBitwise) {
  const auto points = test_points(1);
  std::istringstream in(point_spec(points[0], 0));
  std::ostringstream out, err;
  EXPECT_EQ(run_point_worker(in, out, err), kExitOk);
  EXPECT_EQ(out.str(), in_process_json(points)) << err.str();
}

TEST(PointWorker, ClusterRecordCarriesOneElementPerReceiver) {
  ClusterConfig cfg;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(400);
  cfg.host.rx_threads = 2;
  cfg.topology.leaves = 1;
  cfg.topology.spines = 1;
  cfg.topology.hosts_per_leaf = 3;
  cfg.receivers = 2;

  std::istringstream in(cluster_point_spec(cfg, 4));
  std::ostringstream out, err;
  EXPECT_EQ(run_point_worker(in, out, err), kExitOk);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\": \"hicc.sweep.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"index\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"index\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"cluster.port_drops\""), std::string::npos);
}

TEST(Supervisor, IsolatedClusterPointMatchesInProcessBitwise) {
  // An open-loop incast cluster with a nested host param and a
  // per-receiver antagonist profile: the isolated record must be the
  // in-process one, byte for byte except wall_seconds (0 in both).
  ClusterConfig cfg;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(500);
  cfg.host.rx_threads = 2;
  cfg.host.pcie.credit_bytes = Bytes(4096);
  cfg.topology.leaves = 1;
  cfg.topology.spines = 1;
  cfg.topology.hosts_per_leaf = 5;
  cfg.receivers = 2;
  cfg.antagonist_profile = {4, 0};
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.workload.fanout = 2;
  cfg.workload.rate_per_s = 2e5;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment exp(cfg);
  const ClusterMetrics cm = exp.run();
  std::ostringstream in_process;
  write_json(cluster_points(exp, cm, 0), in_process);

  const SupervisorOutcome outcome = Supervisor(base_opts()).run_specs({cluster_point_spec(cfg, 0)});
  ASSERT_TRUE(outcome.all_ok());
  EXPECT_EQ(merged(outcome), in_process.str());
}

TEST(Supervisor, IsolatedOpenLoopPointCarriesWorkloadExtras) {
  ClusterConfig cfg;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(500);
  cfg.host.rx_threads = 2;
  cfg.topology.leaves = 1;
  cfg.topology.spines = 1;
  cfg.topology.hosts_per_leaf = 4;
  cfg.workload.pattern = workload::Pattern::kIncast;
  cfg.workload.fanout = 2;
  cfg.workload.rate_per_s = 2e5;
  ASSERT_TRUE(validate(cfg).empty()) << describe(validate(cfg));

  ClusterExperiment exp(cfg);
  const ClusterMetrics cm = exp.run();
  ASSERT_TRUE(cm.workload.enabled);
  ASSERT_GT(cm.workload.flows_completed, 0);

  const SupervisorOutcome outcome = Supervisor(base_opts()).run_specs({cluster_point_spec(cfg, 0)});
  ASSERT_TRUE(outcome.all_ok());
  const std::string record = merged(outcome);
  int extras = 0;
  fields::visit_workload(cm.workload, [&](const char* key, auto value) {
    std::ostringstream entry;
    entry << '"' << key << "\": ";
    put_double(entry, static_cast<double>(value));
    EXPECT_NE(record.find(entry.str()), std::string::npos) << entry.str();
    ++extras;
  });
  EXPECT_EQ(extras, 12);
}

TEST(PointWorker, RejectsInvalidConfigAndBadSpec) {
  ExperimentConfig bad = test_points(1)[0];
  bad.rx_threads = 0;
  {
    std::istringstream in(point_spec(bad, 0));
    std::ostringstream out, err;
    EXPECT_EQ(run_point_worker(in, out, err), kExitConfigInvalid);
    EXPECT_NE(err.str().find("invalid point configuration"), std::string::npos);
  }
  {
    std::istringstream in("garbage\n");
    std::ostringstream out, err;
    EXPECT_EQ(run_point_worker(in, out, err), kExitFaultParse);
  }
}

// --------------------------------------------------------- supervisor

TEST(Supervisor, MatchesInProcessSweepBitwise) {
  const auto points = test_points(4);
  const SupervisorOutcome outcome = Supervisor(base_opts()).run(points);
  ASSERT_EQ(outcome.points.size(), points.size());
  EXPECT_TRUE(outcome.all_ok());
  for (const auto& p : outcome.points) {
    EXPECT_TRUE(p.completed);
    EXPECT_EQ(p.status, RunStatus::kOk);
    EXPECT_EQ(p.attempts, 1);
  }
  EXPECT_EQ(merged(outcome), in_process_json(points));
}

TEST(Supervisor, CrashedPointIsRetriedThenRecordedDeterministically) {
  const auto points = test_points(3);
  SupervisorOptions opts = base_opts();
  opts.decorate = [](std::size_t i) {
    return i == 1 ? std::string("inject=segv\n") : std::string();
  };

  const SupervisorOutcome outcome = Supervisor(opts).run(points);
  EXPECT_EQ(outcome.failures, 1u);
  EXPECT_EQ(outcome.degraded, 0u);
  EXPECT_EQ(outcome.completed, 3u);
  const PointOutcome& failed = outcome.points[1];
  EXPECT_EQ(failed.status, RunStatus::kRetriesExhausted);
  EXPECT_EQ(failed.attempts, opts.params.max_attempts);
  EXPECT_NE(failed.detail.find("gave up after 2 attempts"), std::string::npos);
  EXPECT_NE(failed.payload.find("\"run_status\": \"retries_exhausted\""),
            std::string::npos);
  EXPECT_NE(failed.payload.find("\"supervisor.attempts\": 2"), std::string::npos);
  // The healthy neighbors completed untouched.
  EXPECT_EQ(outcome.points[0].status, RunStatus::kOk);
  EXPECT_EQ(outcome.points[2].status, RunStatus::kOk);

  // Failure records are synthesized deterministically: a second run of
  // the same doomed sweep merges to the same bytes.
  EXPECT_EQ(merged(Supervisor(opts).run(points)), merged(outcome));
}

TEST(Supervisor, FlakyWorkerRecoversOnRetry) {
  const auto points = test_points(2);
  SupervisorOptions opts = base_opts();
  opts.params.max_attempts = 3;
  opts.decorate = [](std::size_t i) {
    return i == 0 ? std::string("inject=flaky-segv:2\n") : std::string();
  };
  const SupervisorOutcome outcome = Supervisor(opts).run(points);
  EXPECT_TRUE(outcome.all_ok());
  EXPECT_EQ(outcome.points[0].status, RunStatus::kOk);
  EXPECT_EQ(outcome.points[0].attempts, 2);  // failed once, recovered
  EXPECT_EQ(outcome.points[1].attempts, 1);
  // The recovered record is the real one -- bitwise what an
  // uninjected sweep produces.
  EXPECT_EQ(merged(outcome), in_process_json(points));
}

TEST(Supervisor, HangingWorkerTimesOut) {
  const auto points = test_points(1);
  SupervisorOptions opts = base_opts();
  opts.params.max_attempts = 1;
  opts.params.point_timeout_s = 0.3;
  opts.decorate = [](std::size_t) { return std::string("inject=hang\n"); };
  const SupervisorOutcome outcome = Supervisor(opts).run(points);
  ASSERT_TRUE(outcome.points[0].completed);
  EXPECT_EQ(outcome.points[0].status, RunStatus::kTimedOut);
  EXPECT_EQ(outcome.points[0].attempts, 1);
  EXPECT_NE(outcome.points[0].detail.find("timeout"), std::string::npos);
  EXPECT_NE(outcome.points[0].payload.find("\"run_status\": \"timed_out\""),
            std::string::npos);
  EXPECT_EQ(outcome.failures, 1u);
}

TEST(Supervisor, SigkilledWorkerClassifiedAsOomKilled) {
  const auto points = test_points(1);
  SupervisorOptions opts = base_opts();
  opts.params.max_attempts = 1;
  opts.decorate = [](std::size_t) { return std::string("inject=kill\n"); };
  const SupervisorOutcome outcome = Supervisor(opts).run(points);
  ASSERT_TRUE(outcome.points[0].completed);
  // SIGKILL the supervisor did not send reads as an external/OOM kill.
  EXPECT_EQ(outcome.points[0].status, RunStatus::kOomKilled);
  EXPECT_NE(outcome.points[0].payload.find("\"run_status\": \"oom_killed\""),
            std::string::npos);
}

TEST(Supervisor, InvalidPointConfigFailsPermanentlyWithoutRetry) {
  ExperimentConfig bad = test_points(1)[0];
  bad.rx_threads = 0;
  SupervisorOptions opts = base_opts();
  opts.params.max_attempts = 3;
  const SupervisorOutcome outcome =
      Supervisor(opts).run_specs({point_spec(bad, 0)});
  ASSERT_TRUE(outcome.points[0].completed);
  EXPECT_EQ(outcome.points[0].status, RunStatus::kCrashed);
  EXPECT_EQ(outcome.points[0].attempts, 1);  // deterministic failure: no retry
  EXPECT_NE(outcome.points[0].detail.find("exit 2"), std::string::npos);
}

TEST(Supervisor, MailboxOverflowIsDegradedNotRetried) {
  // A cluster point whose parallel engine is guaranteed to trip its
  // cross-partition mailbox bound: the worker still exits 0 with the
  // record, so the supervisor must surface the in-band status as a
  // degraded result -- not retry a deterministic property of the point.
  ClusterConfig cfg;
  cfg.host.warmup = TimePs::from_us(200);
  cfg.host.measure = TimePs::from_us(500);
  cfg.host.rx_threads = 2;
  cfg.topology.leaves = 1;
  cfg.topology.spines = 1;
  cfg.topology.hosts_per_leaf = 2;
  cfg.receivers = 1;
  cfg.parallelism = 1;
  cfg.mailbox_capacity = 1;

  SupervisorOptions opts = base_opts();
  opts.params.max_attempts = 3;
  const SupervisorOutcome outcome =
      Supervisor(opts).run_specs({cluster_point_spec(cfg, 0)});
  ASSERT_TRUE(outcome.points[0].completed);
  EXPECT_EQ(outcome.points[0].status, RunStatus::kMailboxOverflow);
  EXPECT_EQ(outcome.points[0].attempts, 1);
  EXPECT_EQ(outcome.degraded, 1u);
  EXPECT_EQ(outcome.failures, 0u);
  EXPECT_FALSE(outcome.all_ok());
  EXPECT_NE(outcome.points[0].payload.find("\"run_status\": \"mailbox_overflow\""),
            std::string::npos);
}

TEST(Supervisor, RejectsBadParamsAndMissingWorker) {
  SupervisorParams params;
  params.max_attempts = 0;
  params.backoff_base_s = -1.0;
  EXPECT_FALSE(validate(params).empty());
  params = SupervisorParams{};
  params.backoff_cap_s = params.backoff_base_s / 2;  // cap below base
  EXPECT_FALSE(validate(params).empty());
  EXPECT_TRUE(validate(SupervisorParams{}).empty());

  SupervisorOptions opts = base_opts();
  opts.params.max_attempts = 0;
  EXPECT_THROW((void)Supervisor(opts).run(test_points(1)), std::invalid_argument);
  opts = base_opts();
  opts.worker_argv.clear();
  EXPECT_THROW((void)Supervisor(opts).run(test_points(1)), std::invalid_argument);
}

// ------------------------------------------------------------ journal

TEST(Journal, RoundTripsEntriesAndToleratesTornTail) {
  const std::string path = tmp_path("journal_roundtrip");
  {
    JournalWriter w;
    ASSERT_TRUE(w.open(path, 0xabcdef0123456789ull, false));
    EXPECT_TRUE(w.note(0, 1, "crashed", "first attempt died"));
    EXPECT_TRUE(w.append(JournalEntry{0, "ok", 2, "", "{\n      \"index\": 0\n    }"}));
    EXPECT_TRUE(w.append(JournalEntry{3, "retries_exhausted", 2,
                                      "gave up: detail with = and spaces",
                                      "{ \"index\": 3 }"}));
  }
  JournalContents contents = read_journal(path);
  EXPECT_TRUE(contents.error.empty()) << contents.error;
  EXPECT_FALSE(contents.truncated);
  EXPECT_EQ(contents.fingerprint, 0xabcdef0123456789ull);
  ASSERT_EQ(contents.entries.size(), 2u);  // notes are not state
  EXPECT_EQ(contents.entries[0].index, 0u);
  EXPECT_EQ(contents.entries[0].status, "ok");
  EXPECT_EQ(contents.entries[0].attempts, 2);
  EXPECT_EQ(contents.entries[0].payload, "{\n      \"index\": 0\n    }");
  EXPECT_EQ(contents.entries[1].index, 3u);
  EXPECT_EQ(contents.entries[1].detail, "gave up: detail with = and spaces");

  // A frame torn mid-payload (kill -9 mid-append) is discarded; the
  // frames before it survive.
  {
    std::ofstream torn(path, std::ios::binary | std::ios::app);
    torn << "point index=9 status=ok attempts=1 bytes=400 crc=0000000000000000 detail=\n"
         << "{ \"index\": 9 ...";
  }
  contents = read_journal(path);
  EXPECT_TRUE(contents.error.empty());
  EXPECT_TRUE(contents.truncated);
  ASSERT_EQ(contents.entries.size(), 2u);

  // Missing or foreign files are unusable, not truncated.
  EXPECT_FALSE(read_journal(path + ".does-not-exist").error.empty());
  const std::string foreign = tmp_path("journal_foreign");
  { std::ofstream(foreign) << "some other format v2\n"; }
  EXPECT_FALSE(read_journal(foreign).error.empty());
  std::remove(foreign.c_str());
  std::remove(path.c_str());
}

TEST(Supervisor, ResumeSkipsJournaledPointsAndStaysBitwise) {
  const auto points = test_points(4);
  const std::string golden = in_process_json(points);
  const std::string path = tmp_path("resume_skip");
  std::remove(path.c_str());

  SupervisorOptions opts = base_opts();
  opts.params.jobs = 1;
  opts.journal_path = path;
  const SupervisorOutcome full = Supervisor(opts).run(points);
  EXPECT_TRUE(full.all_ok());
  EXPECT_EQ(merged(full), golden);

  // Keep only the first two durable frames -- as if the sweep died
  // after point 2 -- then resume. Frame headers start lines, and
  // payload lines are indented JSON, so the cut point is unambiguous.
  std::string journal_bytes = read_file(path);
  std::size_t cut = std::string::npos;
  int frames = 0;
  for (std::size_t pos = 0;
       (pos = journal_bytes.find("\npoint index=", pos)) != std::string::npos; ++pos) {
    if (++frames == 3) {
      cut = pos + 1;
      break;
    }
  }
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << journal_bytes.substr(0, cut);
  }

  SupervisorOptions resume_opts = opts;
  resume_opts.resume = true;
  std::vector<std::size_t> progressed;
  resume_opts.progress = [&progressed](const SweepProgress& p) {
    progressed.push_back(p.index);
  };
  const SupervisorOutcome resumed = Supervisor(resume_opts).run(points);
  EXPECT_EQ(resumed.resumed, 2u);
  EXPECT_EQ(resumed.completed, 4u);
  EXPECT_EQ(progressed.size(), 4u);  // resumed points report progress too
  for (const auto& p : resumed.points) EXPECT_TRUE(p.completed);
  EXPECT_TRUE(resumed.points[0].from_journal);
  EXPECT_FALSE(resumed.points[3].from_journal);
  EXPECT_EQ(merged(resumed), golden);
  std::remove(path.c_str());
}

TEST(Supervisor, ResumeRefusesForeignJournal) {
  const auto points = test_points(2);
  const std::string path = tmp_path("resume_mismatch");
  std::remove(path.c_str());
  SupervisorOptions opts = base_opts();
  opts.journal_path = path;
  (void)Supervisor(opts).run(points);

  SupervisorOptions resume_opts = opts;
  resume_opts.resume = true;
  // A different sweep (other seeds) must not merge into this journal.
  auto other = test_points(2);
  other[0].seed = 4242;
  EXPECT_THROW((void)Supervisor(resume_opts).run(other), std::invalid_argument);
  // The original sweep still resumes fine.
  const SupervisorOutcome ok = Supervisor(resume_opts).run(points);
  EXPECT_EQ(ok.resumed, 2u);
  std::remove(path.c_str());
}

TEST(Supervisor, StopFlagInterruptsThenResumeCompletesBitwise) {
  const auto points = test_points(3);
  const std::string path = tmp_path("stop_flag");
  std::remove(path.c_str());

  SupervisorOptions opts = base_opts();
  opts.journal_path = path;
  opts.stop_flag = &g_stop;
  g_stop = 1;  // already stopped: the supervisor must not launch anything
  const SupervisorOutcome interrupted = Supervisor(opts).run(points);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.completed, 0u);
  // The partial merge is schema-valid with zero points.
  EXPECT_NE(merged(interrupted).find("\"points\": [\n  ]"), std::string::npos);

  g_stop = 0;
  SupervisorOptions resume_opts = opts;
  resume_opts.resume = true;
  const SupervisorOutcome resumed = Supervisor(resume_opts).run(points);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed, 3u);
  EXPECT_EQ(merged(resumed), in_process_json(points));
  std::remove(path.c_str());
}

TEST(Supervisor, KillNineMidSweepThenResumeIsBitwise) {
  const auto points = test_points(6);
  const std::string golden = in_process_json(points);
  const std::string path = tmp_path("kill9");
  std::remove(path.c_str());

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: run the journaled sweep serially until killed. _Exit, not
    // exit -- no gtest teardown in the forked copy.
    SupervisorOptions opts = base_opts();
    opts.params.jobs = 1;
    opts.journal_path = path;
    (void)Supervisor(opts).run(points);
    std::_Exit(0);
  }

  // Parent: wait for at least one durable frame, then kill -9 the
  // supervisor itself (workers die with it or get reaped by init).
  for (int i = 0; i < 30000; ++i) {
    if (read_file(path).find("\npoint index=") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(pid, SIGKILL);
  int wait_status = 0;
  ASSERT_EQ(::waitpid(pid, &wait_status, 0), pid);

  const JournalContents contents = read_journal(path);
  EXPECT_TRUE(contents.error.empty()) << contents.error;
  ASSERT_FALSE(contents.entries.empty());

  SupervisorOptions resume_opts = base_opts();
  resume_opts.params.jobs = 1;
  resume_opts.journal_path = path;
  resume_opts.resume = true;
  const SupervisorOutcome resumed = Supervisor(resume_opts).run(points);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.completed, points.size());
  EXPECT_GE(resumed.resumed, 1u);
  EXPECT_EQ(merged(resumed), golden);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hicc::sweep

/// The binary doubles as its own crash-isolated point worker: the
/// supervisor tests exec /proc/self/exe --point-worker, which must
/// behave exactly like `hicc_cli --point-worker`.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--point-worker") {
      return hicc::sweep::run_point_worker(std::cin, std::cout, std::cerr);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
