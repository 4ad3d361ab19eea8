// Parallel-engine micro-benchmarks (google-benchmark): the window
// barrier and mailbox merge that bound ParallelEngine's per-window
// overhead, plus the whole-cluster incast run at several engine thread
// counts so serial-vs-parallel wall-clock is measured, not assumed.
//
// Doubles as the perf-regression harness for the parallel path:
// `--json=PATH` writes a `hicc.bench.parallel.v1` JSON that CI compares
// against the committed BENCH_PARALLEL.json baseline with
// scripts/check_bench_regression.py — see docs/PERFORMANCE.md and
// docs/PARALLELISM.md. Speedup is machine-dependent (a 1-core runner
// can only show the overhead side); the committed baseline records the
// thread counts it ran with via the engine_threads counter.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_tally.h"
#include "common/fmt.h"
#include "core/cluster.h"
#include "sim/parallel.h"
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

/// Per-window fixed cost of the conservative engine: 9 empty partitions
/// (the 2x2x8-cluster shape) advance one lookahead window per iteration.
/// Arg is the engine thread count -- threads=1 is the pure window loop,
/// threads>1 adds the publish/claim/barrier handshake. Must stay
/// allocation-free after construction; this is the bench the CI
/// regression gate pins (see docs/PERFORMANCE.md).
void BM_ParallelWindowBarrier(benchmark::State& state) {
  sim::ParallelParams params;
  params.partitions = 9;
  params.lookahead = TimePs::from_us(2);
  params.threads = static_cast<int>(state.range(0));
  sim::ParallelEngine engine(params);
  TimePs end = engine.now();
  end += params.lookahead;
  engine.run_until(end);  // warm the window loop
  AllocTally tally(state);
  for (auto _ : state) {
    end += params.lookahead;  // exactly one window per iteration
    engine.run_until(end);
  }
  state.counters["engine_threads"] =
      benchmark::Counter(static_cast<double>(engine.threads()));
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.windows()));
}
BENCHMARK(BM_ParallelWindowBarrier)->Arg(1)->Arg(2);

/// Cross-partition mailbox throughput: every host partition posts 8
/// messages into the fabric partition each window (64 total), the
/// barrier drains, merge-sorts by (time, src, seq), and schedules them.
/// Items/s is messages per wall-second; the merge path must stay
/// allocation-free once the reserved rows are warm.
void BM_ParallelMailboxMerge(benchmark::State& state) {
  constexpr int kPerSource = 8;
  sim::ParallelParams params;
  params.partitions = 9;
  params.lookahead = TimePs::from_us(2);
  params.threads = 1;
  sim::ParallelEngine engine(params);
  std::uint64_t sink = 0;
  TimePs end = engine.now();
  const auto window = [&] {
    const TimePs due = end + params.lookahead;
    for (int src = 1; src < params.partitions; ++src) {
      for (int i = 0; i < kPerSource; ++i) {
        engine.post(src, 0, due, [&sink] { ++sink; });
      }
    }
    end = due;
    engine.run_until(end);
  };
  window();  // warm the mailbox rows and the destination queue
  AllocTally tally(state);
  for (auto _ : state) window();
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(static_cast<std::int64_t>(engine.messages_delivered()));
}
BENCHMARK(BM_ParallelMailboxMerge);

/// Whole-cluster macro bench: the 2-leaf/2-spine 8-host incast with two
/// full receiver hosts, end to end. Arg selects the execution mode --
/// 0 is the legacy single-Simulator path, N >= 1 the partitioned engine
/// with N threads -- so one record holds serial and parallel wall-clock
/// side by side. Items/s is simulator events per wall-second; results
/// are bitwise-identical across args >= 1 (tests/parallel_test.cpp), so
/// any delta between rows is pure engine overhead or speedup.
void BM_ClusterIncast(benchmark::State& state) {
  std::int64_t events = 0;
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
    ClusterExperiment exp(std::move(cfg));
    const ClusterMetrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    benchmark::DoNotOptimize(events);
  }
  state.counters["engine_threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ClusterIncast)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// `hicc.bench.parallel.v1` JSON output: micro_engine's tee reporter with
// the parallel schema tag, so the regression gate can tell the records
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
    os << "{\"schema\": \"hicc.bench.parallel.v1\",\n\"benchmarks\": [\n";
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
    std::fprintf(stderr, "micro_parallel: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
