// hicc_cli -- command-line experiment explorer.
//
// Runs one experiment with every knob exposed as a --key=value flag
// and prints the metrics (or a time series with --timeline-us=N).
// With --runs=N it becomes a Monte-Carlo sweep: N replicas with seeds
// derived from --seed run on the sweep thread pool (--jobs=N or
// $HICC_JOBS workers), printing per-replica rows plus mean/stddev and
// optionally writing the structured record with --json=path.
//
//   $ ./hicc_cli --threads=16 --iommu=1
//   $ ./hicc_cli --threads=12 --antagonists=15 --iommu=0 --timeline-us=2000
//   $ ./hicc_cli --threads=14 --cc=host-signal --victims=8
//   $ ./hicc_cli --threads=14 --runs=16 --jobs=4 --json=sweep_results.json
//   $ ./hicc_cli --topology=2x2x8 --receivers=2 --json=cluster.json
//   $ ./hicc_cli --help
//
// With --topology=LxSxH the run is a ClusterExperiment on a Clos
// leaf/spine fabric (docs/TOPOLOGY.md) instead of the single-host
// Experiment: the other flags describe each receiver host, and the
// JSON record carries one hicc.sweep.v1 point per receiver.
//
// With --runs and --isolate the sweep runs under the crash-isolating
// supervisor (docs/ROBUSTNESS.md): every point in its own
// `hicc_cli --point-worker` subprocess with per-point timeout, bounded
// retry, a resumable journal (--journal/--resume), and graceful
// SIGINT/SIGTERM handling. Exit codes are documented in usage() and
// shared with the worker (sweep/worker.h).
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "core/cluster.h"
#include "core/experiment.h"
#include "core/fields.h"
#include "core/validate.h"
#include "fault/script.h"
#include "sweep/columnar.h"
#include "sweep/supervisor.h"
#include "sweep/sweep.h"
#include "sweep/worker.h"
#include "trace/exporters.h"

namespace {

using hicc::TimePs;
using hicc::sweep::kExitAborted;
using hicc::sweep::kExitConfigInvalid;
using hicc::sweep::kExitFaultParse;
using hicc::sweep::kExitGiveUp;
using hicc::sweep::kExitInterrupted;
using hicc::sweep::kExitOk;
using hicc::sweep::kExitUsage;

/// Set by the SIGINT/SIGTERM handler; the supervisor polls it, kills
/// in-flight workers, and returns with what the journal already holds.
volatile std::sig_atomic_t g_stop = 0;

void handle_stop(int) { g_stop = 1; }

/// A bad command line; main() prints it and exits with `code`.
struct CliError : std::runtime_error {
  CliError(int exit_code, const std::string& what)
      : std::runtime_error(what), code(exit_code) {}
  int code;
};

struct Flags {
  std::map<std::string, std::string> kv;

  [[nodiscard]] double number(const std::string& key, double def) const {
    const std::string* value = find(key);
    return value == nullptr ? def : parse_number(key, *value);
  }
  /// The whole value must be a number: "1x" is a usage error, not 1.
  [[nodiscard]] static double parse_number(const std::string& key, const std::string& value) {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || *end != '\0') {
      throw CliError(kExitUsage, "bad --" + key + "=" + value + " (want a number)");
    }
    return v;
  }
  [[nodiscard]] std::string str(const std::string& key, const std::string& def) const {
    const std::string* value = find(key);
    return value == nullptr ? def : *value;
  }

  /// Called once a run's code path has read every flag it uses: a flag
  /// nothing read is a typo or belongs to another mode, and running the
  /// defaults instead would hide that.
  void reject_unread() const {
    for (const auto& [key, value] : kv) {
      if (read_.count(key) == 0) throw CliError(kExitUsage, "unknown or unused flag --" + key);
    }
  }

  /// The value of --key, or nullptr when it is absent. Either way the
  /// key counts as read.
  [[nodiscard]] const std::string* find(const std::string& key) const {
    read_.insert(key);
    const auto it = kv.find(key);
    return it == kv.end() ? nullptr : &it->second;
  }

 private:
  /// Keys the chosen code path asked for.
  mutable std::set<std::string> read_;
};

/// Table visitor (core/fields.h) that sets each field whose flag is on
/// the command line, in the flag's unit. A malformed number is a usage
/// error (exit 1), an unknown enum value, topology or profile an
/// invalid config (2), and a bad fault script exit 3.
struct SetFromFlags {
  const Flags& flags;
  /// A field the current mode does not read, so its flag stays unread.
  const void* skip = nullptr;

  template <typename T>
  void operator()(const hicc::fields::Field& f, T& value) const {
    if (f.flag.name == nullptr || &value == skip) return;
    const std::string* text = flags.find(f.flag.name);
    if (text == nullptr) return;
    if constexpr (hicc::fields::kNumeric<T>) {
      hicc::fields::from_number(Flags::parse_number(f.flag.name, *text), f.flag.unit, &value);
    } else if (const std::string error = hicc::fields::from_text(*text, &value);
               !error.empty()) {
      throw CliError(std::is_same_v<T, hicc::fault::FaultScript> ? kExitFaultParse
                                                                  : kExitConfigInvalid,
                     "bad --" + std::string(f.flag.name) + "=" + *text + ": " + error);
    }
  }
};

void usage() {
  std::puts("hicc_cli -- host interconnect congestion simulator\n");
  // The config flags (core/fields.h), grouped by section.
  using hicc::fields::kSectionHeadings;
  constexpr std::size_t kHelpColumn = 21;
  std::vector<std::string> lines[std::size(kSectionHeadings)];
  const auto add = [&lines](const hicc::fields::Field& f, const auto&) {
    if (f.flag.name == nullptr) return;
    std::string text = "  --" + std::string(f.flag.name) + "=" + f.flag.arg;
    text.append(text.size() < kHelpColumn ? kHelpColumn - text.size() : 2, ' ');
    for (const char* c = f.flag.help; *c != '\0'; ++c) {
      text += *c;
      if (*c == '\n') text.append(kHelpColumn, ' ');
    }
    lines[f.flag.section].push_back(std::move(text));
  };
  const hicc::ClusterConfig defaults;
  hicc::fields::visit_host(defaults.host, add);
  hicc::fields::visit_cluster(defaults, add);
  for (std::size_t s = 0; s < std::size(kSectionHeadings); ++s) {
    std::printf("%s:\n", kSectionHeadings[s]);
    for (const std::string& line : lines[s]) std::printf("%s\n", line.c_str());
  }
  std::puts(
      "output:\n"
      "  --timeline-us=N    print a metrics row every N us instead of a\n"
      "                     single summary\n"
      "  --columnar-out=PATH  also write the per-receiver record in the\n"
      "                     compact columnar hicc.sweepc.v1 form (needs\n"
      "                     --topology)\n"
      "telemetry (docs/OBSERVABILITY.md):\n"
      "  --trace=PATH       capture a probe time series: .csv -> long-format\n"
      "                     CSV, anything else -> Chrome trace_event JSON\n"
      "                     (open in chrome://tracing or ui.perfetto.dev).\n"
      "                     $HICC_TRACE is the env equivalent. With --runs,\n"
      "                     end-of-run probe values land in the sweep JSON\n"
      "                     as extra.trace.* instead of per-replica files\n"
      "sweep (Monte-Carlo replicas):\n"
      "  --runs=N           run N replicas with per-replica seeds derived\n"
      "                     from --seed; prints each replica + mean/stddev\n"
      "  --jobs=N           sweep worker threads (default: $HICC_JOBS, else\n"
      "                     hardware concurrency)\n"
      "  --json=PATH        write the sweep's structured record as JSON\n"
      "crash isolation (docs/ROBUSTNESS.md; needs --runs):\n"
      "  --isolate          run each point in its own worker subprocess so\n"
      "                     a crashing/hanging/OOM-killed point is retried\n"
      "                     and, on give-up, recorded with its failure\n"
      "                     taxonomy instead of sinking the sweep. Records\n"
      "                     pin wall_seconds to 0, so isolated sweep JSON\n"
      "                     is bitwise deterministic\n"
      "  --point-timeout=S  SIGKILL a worker running longer than S seconds\n"
      "                     (wall clock; 0 = no timeout, the default)\n"
      "  --retries=N        extra attempts per failed point (default 2),\n"
      "                     with exponential backoff between attempts\n"
      "  --backoff-ms=N     backoff base, milliseconds (default 200)\n"
      "  --journal=PATH     append each finalized point durably to a\n"
      "                     hicc.sweep.journal.v1 file as it completes\n"
      "  --resume=PATH      skip the points already in PATH's journal and\n"
      "                     append the rest (implies --isolate; the merged\n"
      "                     JSON is bitwise identical to an uninterrupted\n"
      "                     run). Give the same flags as the original run\n"
      "  --inject-fail=I:M  testing aid: inject failure mode M into point\n"
      "                     I's worker (segv|abort|kill|hang|exit:N|\n"
      "                     flaky-segv:K|flaky-kill:K)\n"
      "  --point-worker     internal: run one point read from stdin and\n"
      "                     write its hicc.sweep.v1 record to stdout\n"
      "exit codes:\n"
      "  0 ok; 1 usage/IO error (also a malformed number, or a flag the\n"
      "  chosen mode never reads); 2 invalid configuration (also an unknown\n"
      "  enum value or a bad --topology/--antagonist-profile); 3 fault-script\n"
      "  or spec parse error; 4 run finished degraded (run_status != ok);\n"
      "  5 supervisor gave up on >= 1 point; 6 interrupted (SIGINT/\n"
      "  SIGTERM; partial results + journal flushed); 127 worker exec\n"
      "  failure");
}

void print_metrics(const hicc::Metrics& m) {
  std::printf("app throughput     %8.2f Gbps\n", m.app_throughput_gbps);
  std::printf("link utilization   %8.2f %%\n", m.link_utilization * 100);
  std::printf("host drop rate     %8.4f %%\n", m.drop_rate * 100);
  std::printf("IOTLB misses/pkt   %8.3f\n", m.iotlb_misses_per_packet);
  std::printf("host delay p50/p99 %8.1f / %.1f us\n", m.host_delay_p50_us,
              m.host_delay_p99_us);
  std::printf("memory bandwidth   %8.2f GB/s (nic %.2f, walks %.3f, copy %.2f, "
              "antagonist %.2f)\n",
              m.memory.total_gbytes_per_sec,
              m.memory.by_class_gbytes_per_sec[0], m.memory.by_class_gbytes_per_sec[1],
              m.memory.by_class_gbytes_per_sec[2], m.memory.by_class_gbytes_per_sec[3]);
  if (m.remote_memory.total_gbytes_per_sec > 0.01) {
    std::printf("remote-node memory %8.2f GB/s\n", m.remote_memory.total_gbytes_per_sec);
  }
  if (m.victim_reads > 0) {
    std::printf("victim reads       %8lld (p50 %.1f us, p99 %.1f us)\n",
                static_cast<long long>(m.victim_reads), m.victim_read_p50_us,
                m.victim_read_p99_us);
  }
  std::printf("packets            %lld delivered, %lld dropped, %lld retransmitted\n",
              static_cast<long long>(m.delivered_packets),
              static_cast<long long>(m.nic_buffer_drops),
              static_cast<long long>(m.retransmits));
  std::printf("pipeline stalls    %lld translation, %lld write-buffer\n",
              static_cast<long long>(m.pcie_translation_stalls),
              static_cast<long long>(m.pcie_write_buffer_stalls));
  if (m.fault_windows > 0) {
    std::printf("fault windows      %8lld (active %.1f us, blind %.1f us, %lld drops)\n",
                static_cast<long long>(m.fault_windows), m.fault_active_us, m.fault_blind_us,
                static_cast<long long>(m.fault_drops));
  }
  std::printf("simulated          %.1f ms (%llu events)\n", m.simulated_seconds * 1e3,
              static_cast<unsigned long long>(m.events_executed));
  if (m.run_status != hicc::RunStatus::kOk) {
    std::printf("run status         %s (%s)\n", hicc::to_string(m.run_status),
                m.run_status_detail.c_str());
  }
}

int run_topology(const Flags& flags, hicc::ClusterConfig cfg, const std::string& trace_path) {
  // Cluster scripts live at cluster scope, where topology targeting
  // applies.
  cfg.faults = std::move(cfg.host.faults);
  cfg.host.faults = hicc::fault::FaultScript{};
  // --parallel=auto sizes the pool like sweep --jobs ($HICC_JOBS, then
  // hardware concurrency); the engine clamps to the partition count.
  const bool auto_parallel = flags.str("parallel", "") == "auto";
  hicc::fields::visit_cluster(cfg, SetFromFlags{flags, auto_parallel ? &cfg.parallelism : nullptr});
  if (auto_parallel) cfg.parallelism = hicc::sweep::SweepRunner::resolve_jobs(0);
  if (cfg.workload.enabled()) cfg.host.victim_flows = 0;
  if (flags.number("runs", 0) > 0 || flags.number("timeline-us", 0) > 0) {
    std::fprintf(stderr, "--topology is a single cluster run; drop --runs/--timeline-us\n");
    return kExitUsage;
  }

  if (const auto violations = hicc::validate(cfg); !violations.empty()) {
    std::fprintf(stderr, "invalid cluster configuration:\n%s\n",
                 hicc::describe(violations).c_str());
    return kExitConfigInvalid;
  }
  const std::string json_path = flags.str("json", "");
  const std::string columnar_path = flags.str("columnar-out", "");
  flags.reject_unread();

  hicc::ClusterExperiment exp(std::move(cfg));
  hicc::trace::FileTraceSink trace_file;
  if (!trace_path.empty() && !trace_file.open(*exp.tracer(), trace_path)) {
    std::fprintf(stderr, "failed to open trace file %s\n", trace_path.c_str());
    return 1;
  }

  const hicc::ClusterMetrics cm = exp.run();

  // End-of-run probe values, harvested while the tracer is live; each
  // receiver's JSON point gets the global probes plus its own host<r>.*
  // slice.
  hicc::sweep::SweepResult probes;
  hicc::sweep::harvest_trace_probes(exp.tracer(), probes);

  hicc::Table t({"host", "app_gbps", "drop_pct", "miss_per_pkt", "p99_us", "mem_gbs",
                 "port_drops"});
  for (int r = 0; r < exp.num_receivers(); ++r) {
    const hicc::Metrics& m = cm.per_receiver[static_cast<std::size_t>(r)];
    t.add_row({static_cast<std::int64_t>(r), m.app_throughput_gbps, m.drop_rate * 100.0,
               m.iotlb_misses_per_packet, m.host_delay_p99_us,
               m.memory.total_gbytes_per_sec, exp.fabric().host_port_drops(r)});
  }
  t.print(std::cout, 3);
  std::printf("cluster             %dL x %dS x %dH, %d receiver(s), %d sender machine(s)\n",
              exp.config().topology.leaves, exp.config().topology.spines,
              exp.config().topology.num_hosts(), exp.num_receivers(),
              exp.num_sender_hosts());
  std::printf("total throughput   %8.2f Gbps (max p99 %.1f us)\n",
              cm.total_app_throughput_gbps, cm.max_host_delay_p99_us);
  std::printf("packets            %lld sent, %lld host drops, %lld fabric drops\n",
              static_cast<long long>(cm.total_data_packets_sent),
              static_cast<long long>(cm.total_nic_buffer_drops),
              static_cast<long long>(cm.total_fabric_drops));
  std::printf("simulated          %.1f ms (%llu events)\n", cm.simulated_seconds * 1e3,
              static_cast<unsigned long long>(cm.events_executed));
  if (cm.partitions > 0) {
    std::printf("parallel engine    %d partitions, %llu windows, %llu cross-partition "
                "messages\n",
                cm.partitions, static_cast<unsigned long long>(cm.parallel_windows),
                static_cast<unsigned long long>(cm.parallel_messages));
  }
  if (cm.workload.enabled) {
    std::printf("workload           %s/%s/%s: %lld started, %lld completed, %lld "
                "pool-limited, %lld active\n",
                hicc::workload::to_string(exp.config().workload.pattern),
                hicc::workload::to_string(exp.config().workload.arrival),
                hicc::workload::to_string(exp.config().workload.size_dist),
                static_cast<long long>(cm.workload.flows_started),
                static_cast<long long>(cm.workload.flows_completed),
                static_cast<long long>(cm.workload.pool_exhausted),
                static_cast<long long>(cm.workload.active_flows));
    std::printf("flow completion    p50 %.1f / p99 %.1f / p99.9 %.1f us "
                "(slowdown p99 %.2fx)\n",
                cm.workload.fct_p50_us, cm.workload.fct_p99_us, cm.workload.fct_p999_us,
                cm.workload.slowdown_p99);
  }
  if (cm.run_status != hicc::RunStatus::kOk) {
    std::printf("run status         %s\n", hicc::to_string(cm.run_status));
  }

  int rc = 0;
  if (!trace_path.empty()) {
    if (trace_file.close(*exp.tracer())) {
      std::printf("(trace written to %s)\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write trace file %s\n", trace_path.c_str());
      rc = 1;
    }
  }

  if (!json_path.empty() || !columnar_path.empty()) {
    // One hicc.sweep.v1 point per receiver host (sweep::cluster_points),
    // each with its slice of the trace probes.
    const std::vector<hicc::sweep::SweepResult> points =
        hicc::sweep::cluster_points(exp, cm, 0, &probes);
    if (!json_path.empty()) {
      if (hicc::sweep::save_json(points, json_path)) {
        std::printf("(cluster record written to %s)\n", json_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        rc = 1;
      }
    }
    if (!columnar_path.empty()) {
      if (hicc::sweep::save_columnar(points, columnar_path)) {
        std::printf("(columnar record written to %s)\n", columnar_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", columnar_path.c_str());
        rc = 1;
      }
    }
  }
  // A degraded end (watchdog abort, mailbox overflow) outranks ok but
  // not an output-file failure.
  if (rc == 0 && cm.run_status != hicc::RunStatus::kOk) rc = kExitAborted;
  return rc;
}

/// The --runs --isolate path: the sweep under the crash-isolating
/// supervisor, each point a `hicc_cli --point-worker` subprocess.
int run_isolated_sweep(const Flags& flags, const hicc::ExperimentConfig& cfg, int runs) {
  std::vector<hicc::ExperimentConfig> points(static_cast<std::size_t>(runs), cfg);
  // Same per-replica seed derivation as the in-process SweepRunner's
  // reseed path, so isolated and in-process sweeps simulate the same
  // points.
  for (std::size_t i = 0; i < points.size(); ++i) {
    points[i].seed = hicc::derive_seed(cfg.seed, i);
  }

  hicc::sweep::SupervisorOptions opts;
  opts.params.point_timeout_s = flags.number("point-timeout", 0.0);
  opts.params.max_attempts = 1 + static_cast<int>(flags.number("retries", 2));
  opts.params.backoff_base_s = flags.number("backoff-ms", 200.0) / 1e3;
  opts.params.backoff_cap_s = std::max(opts.params.backoff_base_s, 5.0);
  opts.params.jobs = static_cast<int>(flags.number("jobs", 0));
  // The worker is this very binary; /proc/self/exe survives argv[0]
  // being a bare name found via $PATH.
  opts.worker_argv = {"/proc/self/exe", "--point-worker"};
  opts.stop_flag = &g_stop;
  opts.log = &std::cerr;

  const std::string resume = flags.str("resume", "");
  opts.journal_path = flags.str("journal", "");
  if (!resume.empty()) {
    if (!opts.journal_path.empty() && opts.journal_path != resume) {
      std::fprintf(stderr, "--journal and --resume must name the same file\n");
      return kExitUsage;
    }
    opts.journal_path = resume;
    opts.resume = true;
  }

  const std::string inject = flags.str("inject-fail", "");
  if (!inject.empty()) {
    const auto colon = inject.find(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "bad --inject-fail=%s (want INDEX:MODE)\n", inject.c_str());
      return kExitUsage;
    }
    std::size_t target = 0;
    if (!hicc::fields::from_text(inject.substr(0, colon), &target).empty()) {
      std::fprintf(stderr, "bad --inject-fail=%s (INDEX must be a point index)\n",
                   inject.c_str());
      return kExitUsage;
    }
    const std::string mode = inject.substr(colon + 1);
    opts.decorate = [target, mode](std::size_t i) {
      return i == target ? "inject=" + mode + "\n" : std::string();
    };
  }
  const std::string json_path = flags.str("json", "");
  flags.reject_unread();

  std::signal(SIGINT, handle_stop);
  std::signal(SIGTERM, handle_stop);

  hicc::sweep::SupervisorOutcome outcome;
  const hicc::sweep::Supervisor supervisor(opts);
  try {
    outcome = supervisor.run(points);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return kExitUsage;
  }

  hicc::Table t({"point", "status", "attempts", "detail"});
  for (const auto& p : outcome.points) {
    t.add_row({static_cast<std::int64_t>(p.index),
               std::string(p.completed ? hicc::to_string(p.status) : "incomplete"),
               static_cast<std::int64_t>(p.attempts), p.detail});
  }
  t.print(std::cout, 3);
  std::printf("%zu/%d points completed (%zu resumed, %zu failed, %zu degraded) on %d "
              "worker(s)\n",
              outcome.completed, runs, outcome.resumed, outcome.failures, outcome.degraded,
              supervisor.jobs());

  int rc = kExitOk;
  if (outcome.interrupted) {
    rc = kExitInterrupted;
    if (!opts.journal_path.empty()) {
      std::printf("interrupted; finalized points are journaled -- rerun with "
                  "--resume=%s to finish\n",
                  opts.journal_path.c_str());
    } else {
      std::printf("interrupted (no --journal, completed points are lost)\n");
    }
  } else if (outcome.failures > 0) {
    rc = kExitGiveUp;
  } else if (outcome.degraded > 0) {
    rc = kExitAborted;
  }

  if (!json_path.empty()) {
    if (hicc::sweep::save_merged_json(outcome, json_path)) {
      std::printf("(%ssweep record written to %s)\n",
                  outcome.interrupted ? "partial " : "", json_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      if (rc == kExitOk) rc = kExitUsage;
    }
  }
  return rc;
}

/// Everything after argument parsing: builds the config from `flags`
/// and dispatches to the chosen mode.
int run(const Flags& flags) {
  const char* trace_env = std::getenv("HICC_TRACE");
  const std::string trace_path =
      flags.str("trace", trace_env != nullptr ? trace_env : "");

  hicc::ClusterConfig cluster;
  hicc::ExperimentConfig& cfg = cluster.host;
  cfg.measure = TimePs::from_ms(20);  // the CLI's default window
  cfg.trace.enabled = !trace_path.empty();
  hicc::fields::visit_host(
      cfg, SetFromFlags{flags, cfg.trace.enabled ? nullptr : &cfg.trace.sample_period});

  // A --topology run validates and executes as a ClusterConfig whose
  // per-host template is the flag-built cfg.
  if (!flags.str("topology", "").empty()) {
    return run_topology(flags, std::move(cluster), trace_path);
  }

  // Reject a nonsensical configuration with every problem at once,
  // before any experiment is built.
  if (const auto violations = hicc::validate(cfg); !violations.empty()) {
    std::fprintf(stderr, "invalid configuration:\n%s\n", hicc::describe(violations).c_str());
    return kExitConfigInvalid;
  }

  const int runs = static_cast<int>(flags.number("runs", 0));
  if (runs > 0) {
    // --resume implies isolation: only the supervisor journals points.
    if (flags.number("isolate", 0) != 0 || !flags.str("resume", "").empty()) {
      return run_isolated_sweep(flags, cfg, runs);
    }
    std::vector<hicc::ExperimentConfig> points(static_cast<std::size_t>(runs), cfg);
    hicc::sweep::SweepOptions opts;
    opts.jobs = static_cast<int>(flags.number("jobs", 0));
    opts.reseed = true;
    opts.sweep_seed = cfg.seed;
    // Replicas do not write per-run trace files; instead each point's
    // final probe values are harvested into SweepResult::extra.
    if (cfg.trace.enabled) opts.probe = hicc::sweep::harvest_trace;
    const std::string json_path = flags.str("json", "");
    flags.reject_unread();
    const hicc::sweep::SweepRunner runner(opts);
    const auto results = runner.run(std::move(points));

    hicc::Table t({"run", "seed", "app_gbps", "drop_pct", "miss_per_pkt",
                   "p99_us", "mem_gbs", "wall_s"});
    double sum = 0.0, sumsq = 0.0;
    for (const auto& r : results) {
      const hicc::Metrics& m = r.metrics;
      sum += m.app_throughput_gbps;
      sumsq += m.app_throughput_gbps * m.app_throughput_gbps;
      t.add_row({static_cast<std::int64_t>(r.index),
                 std::to_string(r.config.seed), m.app_throughput_gbps,
                 m.drop_rate * 100.0, m.iotlb_misses_per_packet, m.host_delay_p99_us,
                 m.memory.total_gbytes_per_sec, r.wall_seconds});
    }
    t.print(std::cout, 3);
    const double n = static_cast<double>(runs);
    const double mean = sum / n;
    const double var = runs > 1 ? std::max(0.0, (sumsq - n * mean * mean) / (n - 1)) : 0.0;
    std::printf("app throughput: mean %.2f Gbps, stddev %.3f over %d runs "
                "(%d workers)\n",
                mean, std::sqrt(var), runs, runner.jobs());

    if (!json_path.empty()) {
      if (hicc::sweep::save_json(results, json_path)) {
        std::printf("(sweep record written to %s)\n", json_path.c_str());
      } else {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
      }
    }
    return 0;
  }

  const double timeline_us = flags.number("timeline-us", 0.0);
  flags.reject_unread();

  hicc::Experiment exp(cfg);
  hicc::trace::FileTraceSink trace_file;
  if (!trace_path.empty() && !trace_file.open(*exp.tracer(), trace_path)) {
    std::fprintf(stderr, "failed to open trace file %s\n", trace_path.c_str());
    return 1;
  }
  // Closes the capture (final sample + footer) while `exp` is alive.
  const auto close_trace = [&]() -> bool {
    if (trace_path.empty()) return true;
    if (!trace_file.close(*exp.tracer())) {
      std::fprintf(stderr, "failed to write trace file %s\n", trace_path.c_str());
      return false;
    }
    std::printf("(trace written to %s)\n", trace_path.c_str());
    return true;
  };

  if (timeline_us > 0.0) {
    exp.start();
    exp.advance(cfg.warmup);
    std::printf("%10s %10s %9s %9s %10s %10s\n", "t_ms", "app_gbps", "drop%", "miss/pkt",
                "p99_us", "mem_gbs");
    TimePs t = cfg.warmup;
    while (t < cfg.warmup + cfg.measure) {
      exp.begin_window();
      exp.advance(TimePs::from_us(timeline_us));
      t += TimePs::from_us(timeline_us);
      const hicc::Metrics m = exp.snapshot();
      std::printf("%10.2f %10.2f %9.3f %9.2f %10.1f %10.1f\n", t.us() / 1000.0,
                  m.app_throughput_gbps, m.drop_rate * 100, m.iotlb_misses_per_packet,
                  m.host_delay_p99_us, m.memory.total_gbytes_per_sec);
    }
    return close_trace() ? 0 : 1;
  }

  const hicc::Metrics metrics = exp.run();
  print_metrics(metrics);
  if (!close_trace()) return 1;
  return metrics.run_status == hicc::RunStatus::kOk ? kExitOk : kExitAborted;
}

}  // namespace

int main(int argc, char** argv) {
  // Worker mode first: the supervisor fork/execs this same binary with
  // --point-worker; everything it needs arrives on stdin.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--point-worker") == 0) {
      return hicc::sweep::run_point_worker(std::cin, std::cout, std::cerr);
    }
  }

  Flags flags;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unknown argument: %s (try --help)\n", argv[i]);
      return kExitUsage;
    }
    const auto eq = arg.find('=');
    const std::string key = arg.substr(2, eq == std::string::npos ? arg.npos : eq - 2);
    const std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    flags.kv[key] = value;
  }

  try {
    return run(flags);
  } catch (const CliError& e) {
    std::fprintf(stderr, "%s (try --help)\n", e.what());
    return e.code;
  }
}
