// hicc_perfbench: one repetition of one benchmark workload.
//
//   hicc_perfbench --workload NAME --seed N [--setups K] [--threads T]
//                  [--traced] [--drivers]
//
// Constructs the workload K times (default: the workload's own count;
// timing each construction), drives
// the last one through warmup and measurement in kSlice simulated-time
// slices, checks its ledgers, and prints one JSON record on stdout:
// host times, allocation counts, the simulated-output fingerprint,
// window counters, and (with --traced) trace-gauge percentiles and
// (with --drivers) the layer drivers' costs. perfbench/run.py runs
// repetitions and aggregates them; perfbench/README.md defines every
// field it reports.
#include <chrono>
#include <cstdio>
#include <optional>
#include <ctime>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "drivers.h"
#include "harness.h"

namespace {

using perfbench::quantile;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Resident-set high-water mark of this process image, KiB. VmHWM
/// restarts at exec, unlike getrusage's ru_maxrss, which keeps the
/// peak of the parent process this one was forked from.
std::int64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return 0;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Flat JSON object writer; values are numbers, strings, or nested
/// objects written by another JsonObject.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, buf);
  }
  JsonObject& num(const std::string& key, std::int64_t v) { return raw(key, std::to_string(v)); }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return raw(key, q + "\"");
  }
  JsonObject& obj(const std::string& key, const JsonObject& o) { return raw(key, o.text()); }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(const std::string& key, const std::string& v) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + v;
    return *this;
  }
  std::string body_;
};

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

struct Args {
  std::string workload;
  std::optional<std::uint64_t> seed;
  std::optional<int> setups;  // unset: the workload's own count
  int threads = 0;
  bool traced = false;
  bool drivers = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--setups") {
      a.setups = std::stoi(value());
    } else if (k == "--threads") {
      a.threads = std::stoi(value());
    } else if (k == "--traced") {
      a.traced = true;
    } else if (k == "--drivers") {
      a.drivers = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!a.seed) throw std::invalid_argument("--seed is required");
  if (a.setups && *a.setups < 1) throw std::invalid_argument("--setups must be >= 1");
  return a;
}

// Gauges the traced run summarizes (catalogue: docs/OBSERVABILITY.md).
const std::vector<std::string> kGauges = {
    "nic.buffer_bytes",  "pcie.rc_queue_depth", "iommu.pending_walks", "mem.utilization",
    "mem.latency_ns",    "host.rx_queue_pkts",  "workload.active_flows"};

int run(const Args& a) {
  const perfbench::Workload w = perfbench::make_workload(a.workload, *a.seed);
  const int setups = a.setups.value_or(w.setups);

  // Set-up: the first construction is the one driven; the other K - 1
  // are timed after the run, so they cannot raise its peak RSS.
  std::vector<double> setup_s;
  const std::uint64_t allocs_before_setup = perfbench::allocation_count();
  auto t_setup = Clock::now();
  auto h = std::make_unique<perfbench::Harness>(w, a.threads, a.traced);
  setup_s.push_back(seconds_since(t_setup));
  const std::uint64_t allocs_setup = perfbench::allocation_count() - allocs_before_setup;

  std::unique_ptr<perfbench::GaugeSink> sink;
  if (a.traced) {
    sink = std::make_unique<perfbench::GaugeSink>(kGauges, h->receivers(), h->warmup());
    h->tracer()->set_sink(sink.get());
  }

  // Drive from outside in slices; the measurement window's slices are
  // the spans the per-slice and imbalance figures come from. The spans'
  // own storage is reserved before the window so its allocation count
  // is the program's alone.
  const auto slices = static_cast<std::size_t>(h->measure().ps() / perfbench::kSlice.ps()) + 1;
  std::vector<double> slice_ms;
  std::vector<double> pending;
  slice_ms.reserve(slices);
  pending.reserve(slices);
  std::vector<std::uint64_t> prev;
  std::vector<std::uint64_t> cur;
  double imbalance_max_sum = 0.0;
  double imbalance_mean_sum = 0.0;
  perfbench::LayerCounters c0;
  std::int64_t active0 = 0;
  std::uint64_t allocs0 = 0;
  double cpu0 = 0.0;
  double warmup_wall_s = 0.0;
  Clock::time_point t_measure;
  Clock::time_point t_slice;
  const double cpu_start = process_cpu_s();
  const auto t_start = Clock::now();
  const perfbench::Outcome o = h->drive(
      [&] {
        warmup_wall_s = seconds_since(t_start);
        c0 = h->counters();
        active0 = h->active_flows();
        h->partition_executed(&prev);
        h->partition_executed(&cur);
        allocs0 = perfbench::allocation_count();
        cpu0 = process_cpu_s();
        t_measure = t_slice = Clock::now();
      },
      [&] {
        const auto now = Clock::now();
        slice_ms.push_back(std::chrono::duration<double, std::milli>(now - t_slice).count());
        pending.push_back(static_cast<double>(h->pending()));
        h->partition_executed(&cur);
        double mx = 0.0;
        double sum = 0.0;
        for (std::size_t p = 0; p < cur.size(); ++p) {
          const auto d = static_cast<double>(cur[p] - prev[p]);
          mx = std::max(mx, d);
          sum += d;
        }
        imbalance_max_sum += mx;
        imbalance_mean_sum += sum / static_cast<double>(cur.size());
        prev.swap(cur);
        t_slice = Clock::now();
      });
  const double measure_wall_s = seconds_since(t_measure);
  const double measure_cpu_s = process_cpu_s() - cpu0;
  const std::uint64_t allocs_window = perfbench::allocation_count() - allocs0;
  const double wall_s = seconds_since(t_start);
  const double cpu_s = process_cpu_s() - cpu_start;

  const perfbench::LayerCounters win = h->counters() - c0;
  const std::vector<std::string> ledger = h->check_ledgers(o, active0);
  if (h->tracer() != nullptr) h->tracer()->finish();
  const std::size_t mailbox_max = h->cluster() != nullptr && h->cluster()->engine() != nullptr
                                      ? h->cluster()->engine()->max_mailbox_depth()
                                      : 0;

  const std::int64_t peak_rss_kb = peak_rss_kib();
  const double mem_epochs = h->full_hosts() *
                            perfbench::idle_host_events_per_sim_ms(perfbench::driver_setup(w)) *
                            h->measure().sec() * 1e3;

  for (int k = 1; k < setups; ++k) {
    h.reset();
    t_setup = Clock::now();
    h = std::make_unique<perfbench::Harness>(w, a.threads, a.traced);
    setup_s.push_back(seconds_since(t_setup));
  }

  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(perfbench::fingerprint(o)));
  char config_hash[32];
  std::snprintf(config_hash, sizeof config_hash, "%016llx",
                static_cast<unsigned long long>(perfbench::config_hash(w)));

  JsonObject rec;
  rec.str("workload", w.name)
      .num("seed", static_cast<std::int64_t>(*a.seed))
      .str("config_hash", config_hash)
      .str("compiler", __VERSION__)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .str("sanitizer", sanitizer())
      .num("threads", static_cast<std::int64_t>(
                          w.is_cluster ? (a.threads > 0 ? a.threads : w.cluster.parallelism) : 1))
      .num("traced", static_cast<std::int64_t>(a.traced))
      .num("setup_s", quantile(setup_s, 0.5))
      .num("setups", static_cast<std::int64_t>(setup_s.size()))
      .num("wall_s", wall_s)
      .num("cpu_s", cpu_s)
      .num("warmup_wall_s", warmup_wall_s)
      .num("measure_wall_s", measure_wall_s)
      .num("measure_cpu_s", measure_cpu_s)
      .num("sim_ms", (h->warmup() + h->measure()).sec() * 1e3)
      .num("measure_sim_ms", h->measure().sec() * 1e3)
      .num("peak_rss_kb", peak_rss_kb)
      .num("allocs_setup", static_cast<std::int64_t>(allocs_setup))
      .num("allocs_window", static_cast<std::int64_t>(allocs_window))
      .str("fingerprint", fp)
      .str("run_status", hicc::to_string(o.run_status))
      .num("events_executed", static_cast<std::int64_t>(o.events_executed));
  std::string ledger_text;
  for (const std::string& l : ledger) ledger_text += (ledger_text.empty() ? "" : "; ") + l;
  rec.str("ledger_failures", ledger_text);

  JsonObject out;
  const hicc::Metrics& m0 = o.per_receiver.front();
  double cwnd = 0.0, p50 = 0.0, p99 = 0.0, gbs = 0.0;
  std::int64_t retx = 0, rto = 0;
  for (const hicc::Metrics& m : o.per_receiver) {
    cwnd += m.avg_cwnd;
    p50 = std::max(p50, m.host_delay_p50_us);
    p99 = std::max(p99, m.host_delay_p99_us);
    gbs += m.memory.total_gbytes_per_sec;
    retx += m.retransmits;
    rto += m.rto_fires;
  }
  const auto receivers = static_cast<double>(o.per_receiver.size());
  out.num("delivered", o.delivered())
      .num("app_gbps", o.app_gbps())
      .num("drop_rate", o.drop_rate())
      .num("host_delay_p50_us", p50)
      .num("host_delay_p99_us", p99)
      .num("mem_gbs", gbs / receivers)
      .num("cwnd_avg", cwnd / receivers)
      .num("retransmits", retx)
      .num("rto_fires", rto)
      .num("fabric_drops", o.total_fabric_drops)
      .num("simulated_s", m0.simulated_seconds)
      .num("receivers", static_cast<std::int64_t>(o.per_receiver.size()));
  if (o.workload.enabled) {
    out.num("flows_started", o.workload.flows_started)
        .num("flows_completed", o.workload.flows_completed)
        .num("pool_exhausted", o.workload.pool_exhausted)
        .num("fct_p50_us", o.workload.fct_p50_us)
        .num("fct_p99_us", o.workload.fct_p99_us);
  }
  rec.obj("outputs", out);

  JsonObject cnt;
  cnt.num("nic_arrivals", win.nic_arrivals)
      .num("nic_drops", win.nic_drops)
      .num("nic_delivered", win.nic_delivered)
      .num("nic_descriptor_fetches", win.nic_descriptor_fetches)
      .num("nic_tx_packets", win.nic_tx_packets)
      .num("nic_hol_stalls", win.nic_hol_stalls)
      .num("pcie_write_tlps", win.pcie_write_tlps)
      .num("pcie_read_tlps", win.pcie_read_tlps)
      .num("pcie_translation_stalls", win.pcie_translation_stalls)
      .num("pcie_write_buffer_stalls", win.pcie_write_buffer_stalls)
      .num("pcie_ddio_write_hits", win.pcie_ddio_write_hits)
      .num("iommu_lookups", win.iommu_lookups)
      .num("iommu_hits", win.iommu_hits)
      .num("iommu_misses", win.iommu_misses)
      .num("iommu_walk_reads", win.iommu_walk_reads)
      .num("mem_requests", win.mem_requests)
      .num("mem_epochs", mem_epochs)
      .num("events", static_cast<std::int64_t>(win.events))
      .num("windows", static_cast<std::int64_t>(win.windows))
      .num("messages", static_cast<std::int64_t>(win.messages))
      .num("partitions", static_cast<std::int64_t>(prev.size()))
      .num("mailbox_max", static_cast<std::int64_t>(mailbox_max))
      .num("pending_max", quantile(pending, 1.0))
      .num("pending_p50", quantile(pending, 0.5))
      .num("imbalance", imbalance_mean_sum > 0 ? imbalance_max_sum / imbalance_mean_sum : 1.0)
      .num("slice_ms_p50", quantile(slice_ms, 0.5))
      .num("slice_ms_p90", quantile(slice_ms, 0.9));
  rec.obj("counts", cnt);

  if (sink != nullptr) {
    JsonObject g;
    for (const std::string& name : kGauges) {
      const std::vector<double>& v = sink->samples(name);
      g.num(name + ".p50", quantile(v, 0.5))
          .num(name + ".p99", quantile(v, 0.99))
          .num(name + ".max", quantile(v, 1.0));
    }
    rec.obj("gauges", g);
  }

  if (a.drivers) {
    perfbench::DriverInputs in;
    const auto partitions = static_cast<double>(std::max<std::size_t>(1, prev.size()));
    in.sim_depth = static_cast<std::size_t>(std::max(1.0, quantile(pending, 0.5) / partitions));
    const double events_per_ns =
        static_cast<double>(win.events) / std::max(1.0, static_cast<double>(h->measure().ps()) * 1e-3);
    in.event_wait_ns = std::max(1.0, quantile(pending, 0.5) / std::max(1e-12, events_per_ns));
    in.pkt_rate_per_s =
        static_cast<double>(o.delivered()) / receivers / std::max(1e-9, m0.simulated_seconds);
    in.host_delay_lo_us = std::max(0.5, p50 / 4.0);
    in.host_delay_hi_us = std::max(in.host_delay_lo_us * 2.0, p99 * 2.0);
    JsonObject d;
    for (const auto& [name, cost] : perfbench::run_drivers(w, in)) {
      JsonObject one;
      one.num("ns", cost.ns);
      for (const auto& [k, v] : cost.per_op) one.num(k, v);
      d.obj(name, one);
    }
    rec.obj("drivers", d);
  }

  std::printf("%s\n", rec.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hicc_perfbench: %s\n", e.what());
    return 2;
  }
}
