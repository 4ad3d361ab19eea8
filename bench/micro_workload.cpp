// Workload-subsystem micro-benchmarks (google-benchmark): flow-pool
// churn, quantile-sketch insert+merge, and the whole-cluster open-loop
// incast event rate -- the three costs that bound million-flow runs.
//
// Doubles as the perf-regression harness for the workload path:
// `--json=PATH` writes a `hicc.bench.workload.v1` JSON that CI compares
// against the committed BENCH_WORKLOAD.json baseline with
// scripts/check_bench_regression.py (docs/PERFORMANCE.md). The
// zero-allocation steady state of BM_FlowChurn and
// BM_SketchInsertMerge is a correctness property (the pool and sketch
// promise it), gated through their allocs_per_op counters.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_tally.h"
#include "common/fmt.h"
#include "common/rng.h"
#include "common/sketch.h"
#include "core/cluster.h"
#include "workload/flow_pool.h"
#include "workload/workload.h"

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

/// Steady-state flow churn: acquire + release across every class of a
/// 4096-slot pool, the per-flow fixed cost of an open-loop run. One
/// iteration is one full acquire/release pair. Must be allocation-free:
/// the per-class free lists are reserved at construction, so a million
/// flows recycle the same slots (the memory-bound acceptance of
/// docs/WORKLOADS.md). This is the bench the CI regression gate pins.
void BM_FlowChurn(benchmark::State& state) {
  constexpr int kClasses = 16;
  workload::FlowPool pool(4096, kClasses);
  int cls = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    const workload::FlowHandle h = pool.acquire(cls);
    benchmark::DoNotOptimize(h.generation);
    pool.release(h);
    cls = (cls + 1) % kClasses;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FlowChurn);

/// Sketch ingestion + aggregation: each iteration adds one FCT-like
/// sample to one of 8 "per-host" sketches and, every 1024 samples,
/// merges all 8 into a cluster aggregate (the snapshot path). add()
/// and merge() promise zero allocation after construction.
void BM_SketchInsertMerge(benchmark::State& state) {
  constexpr int kHosts = 8;
  constexpr int kMergeEvery = 1024;
  std::vector<QuantileSketch> hosts(kHosts, QuantileSketch(0.01));
  QuantileSketch merged(0.01);
  Rng rng(2022);
  int n = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    // Spread samples over ~4 decades like a real FCT stream.
    hosts[static_cast<std::size_t>(n % kHosts)].add(rng.uniform(10.0, 1e5));
    if (++n == kMergeEvery) {
      n = 0;
      merged.reset();
      for (const QuantileSketch& h : hosts) merged.merge(h);
      benchmark::DoNotOptimize(merged.count());
    }
  }
  benchmark::DoNotOptimize(merged.fingerprint());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchInsertMerge);

/// Whole-cluster macro bench: the 2x2x8 cluster under open-loop bursty
/// incast, end to end -- arrivals, slot churn, transport, full receiver
/// stacks, sketch recording. Arg is the engine thread count (0 =
/// legacy single simulator). Items/s is simulator events per
/// wall-second, the figure that bounds 1M-flow sweep wall-clock.
void BM_OpenLoopIncastEventRate(benchmark::State& state) {
  std::int64_t events = 0;
  std::int64_t flows = 0;
  for (auto _ : state) {
    ClusterConfig cfg;
    cfg.topology.leaves = 2;
    cfg.topology.spines = 2;
    cfg.topology.hosts_per_leaf = 4;
    cfg.receivers = 2;
    cfg.host.rx_threads = 4;
    cfg.host.warmup = TimePs::from_us(200);
    cfg.host.measure = TimePs::from_ms(1);
    cfg.parallelism = static_cast<int>(state.range(0));
    cfg.workload.pattern = workload::Pattern::kIncast;
    cfg.workload.arrival = workload::Arrival::kBursty;
    cfg.workload.rate_per_s = 50e3;
    cfg.workload.fanout = 4;
    cfg.workload.max_active = 256;
    ClusterExperiment exp(std::move(cfg));
    const ClusterMetrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    flows += m.workload.flows_completed;
    benchmark::DoNotOptimize(events);
  }
  state.counters["engine_threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["flows_completed"] = benchmark::Counter(
      static_cast<double>(flows), benchmark::Counter::kAvgIterations);
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_OpenLoopIncastEventRate)->Arg(0)->Arg(2)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// `hicc.bench.workload.v1` JSON output: micro_engine's tee reporter
// with the workload schema tag, so the regression gate can tell the
// records apart.

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
    os << "{\"schema\": \"hicc.bench.workload.v1\",\n\"benchmarks\": [\n";
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
    std::fprintf(stderr, "micro_workload: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
