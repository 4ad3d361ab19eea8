// Topology micro-benchmarks (google-benchmark): the Clos-fabric hot
// paths and the whole-cluster event rate that bound how much multi-host
// simulated traffic per wall-second the harness can sustain.
//
// Doubles as the perf-regression harness for the cluster path:
// `--json=PATH` writes a `hicc.bench.topology.v1` JSON that CI compares
// against the committed BENCH_TOPOLOGY.json baseline with
// scripts/check_bench_regression.py — see docs/PERFORMANCE.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_tally.h"
#include "common/fmt.h"
#include "core/cluster.h"
#include "net/topology.h"
#include "sim/simulator.h"

namespace {

using namespace hicc;

/// Pure-arithmetic calibration loop (no memory traffic), identical to
/// micro_engine's: the regression gate normalizes every bench against
/// this so thresholds are comparable across machines.
void BM_ReferenceSpin(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {  // splitmix64 finalizer, fixed work
      x ^= x >> 30;
      x *= 0xbf58476d1ce4e5b9ull;
      x ^= x >> 27;
      x *= 0x94d049bb133111ebull;
      x ^= x >> 31;
    }
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReferenceSpin);

/// Stateless ECMP spine choice: the pure per-packet routing hash,
/// executed once per inter-leaf packet at the leaf and again at the
/// spine. Must stay allocation-free.
void BM_ClosEcmpSpine(benchmark::State& state) {
  sim::Simulator sim;
  net::TopologyConfig cfg;
  cfg.leaves = 4;
  cfg.spines = 4;
  cfg.hosts_per_leaf = 8;
  net::ClosFabric fabric(sim, cfg, [](int, net::Packet) {});
  net::Packet p;
  p.sender = 3;
  p.dst = 17;
  std::int32_t flow = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    p.flow = flow++ & 1023;
    benchmark::DoNotOptimize(fabric.ecmp_spine(p));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ClosEcmpSpine);

/// Steady-state fabric forwarding: one inter-leaf data packet through
/// all four hops (uplink -> leaf-spine -> spine-leaf -> downlink),
/// paced so queues stay empty. Items/s is packets per wall-second;
/// after warmup the path must be allocation-free.
void BM_ClosFabricForward(benchmark::State& state) {
  sim::Simulator sim;
  net::TopologyConfig cfg;  // 2x2x8, defaults
  int delivered = 0;
  net::ClosFabric fabric(sim, cfg, [&delivered](int, net::Packet) { ++delivered; });
  std::int64_t now_ps = 0;
  const net::WireFormat wire;
  const auto step = [&] {
    net::Packet p;
    p.flow = 0;
    p.sender = 0;
    p.dst = 7;  // other leaf: the four-hop path
    p.payload = wire.mtu_payload;
    p.wire = wire.data_wire();
    p.sent_at = TimePs(now_ps);
    fabric.send_from_host(0, std::move(p));
    now_ps += 50'000'000;  // 50 us: far beyond the path's latency
    sim.run_until(TimePs(now_ps));
  };
  step();  // warm the queues' internal storage
  AllocTally tally(state);
  for (auto _ : state) step();
  state.SetItemsProcessed(delivered);
}
BENCHMARK(BM_ClosFabricForward);

/// Whole-cluster macro bench: a small 2-leaf/2-spine incast with a full
/// receiver host, end to end; items/s is simulator events per
/// wall-second across every layer including the Clos fabric.
void BM_ClusterIncastEventRate(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.topology.leaves = 2;
    cfg.topology.spines = 2;
    cfg.topology.hosts_per_leaf = 4;
    cfg.receivers = 1;
    cfg.host.rx_threads = 4;
    cfg.host.warmup = TimePs::from_us(200);
    cfg.host.measure = TimePs::from_ms(2);
    ClusterExperiment exp(std::move(cfg));
    const ClusterMetrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ClusterIncastEventRate)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// `hicc.bench.topology.v1` JSON output: micro_engine's tee reporter with
// the topology schema tag, so the regression gate can tell the records
// apart.

class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double ns_per_op = 0;
    double items_per_sec = 0;
    double allocs_per_op = 0;
    std::int64_t iterations = 0;
  };

  void ReportRuns(const std::vector<Run>& report) override {
    for (const Run& r : report) {
      if (r.run_type != Run::RT_Iteration || r.error_occurred) continue;
      Row row;
      row.name = r.benchmark_name();
      const double iters =
          r.iterations > 0 ? static_cast<double>(r.iterations) : 1.0;
      row.ns_per_op = r.real_accumulated_time / iters * 1e9;
      row.iterations = r.iterations;
      if (auto it = r.counters.find("items_per_second"); it != r.counters.end())
        row.items_per_sec = it->second;
      if (auto it = r.counters.find("allocs_per_op"); it != r.counters.end())
        row.allocs_per_op = it->second;
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(report);
  }

  bool write_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"schema\": \"hicc.bench.topology.v1\",\n\"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      os << " {\"name\": \"" << r.name << "\", \"ns_per_op\": ";
      put_double(os, r.ns_per_op);
      os << ", \"items_per_sec\": ";
      put_double(os, r.items_per_sec);
      os << ", \"allocs_per_op\": ";
      put_double(os, r.allocs_per_op);
      os << ", \"iterations\": " << r.iterations << "}";
      os << (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return os.good();
  }

 private:
  std::vector<Row> rows_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a.rfind("--json=", 0) == 0) {
      json_path = std::string(a.substr(7));
    } else {
      args.push_back(argv[i]);
    }
  }
  int filtered_argc = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data()))
    return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !reporter.write_json(json_path)) {
    std::fprintf(stderr, "micro_topology: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
