// Engine micro-benchmarks (google-benchmark): the hot paths that bound
// how much simulated traffic per wall-second the harness can sustain.
//
// Doubles as the perf-regression harness: `--json=PATH` writes a
// `hicc.bench.v1` JSON (ns/op, items/s, allocs/op, iterations) that CI
// compares against the committed BENCH_ENGINE.json baseline — see
// docs/PERFORMANCE.md for how to refresh it.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_tally.h"
#include "common/fmt.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "iommu/lru_cache.h"
#include "mem/memory_system.h"
#include "sim/simulator.h"

namespace {

using namespace hicc;
using namespace hicc::literals;

/// Pure-arithmetic calibration loop (no memory traffic). CI normalizes the
/// engine benches against this so the regression threshold is comparable
/// across machines of different speeds.
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

/// Event queue: schedule + run one event (the per-TLP cost floor).
void BM_SimulatorScheduleRun(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  sim.at(TimePs(t += 100), [] {});  // warm the queue's internal storage
  sim.run_one();
  AllocTally tally(state);
  for (auto _ : state) {
    sim.at(TimePs(t += 100), [] {});
    sim.run_one();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorScheduleRun);

/// Event queue under depth: 1k pending events.
void BM_SimulatorDeepQueue(benchmark::State& state) {
  sim::Simulator sim;
  std::int64_t t = 0;
  for (int i = 0; i < 1000; ++i) sim.at(TimePs(t += 1000), [] {});
  AllocTally tally(state);
  for (auto _ : state) {
    sim.at(TimePs(t += 1000), [] {});
    sim.run_one();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorDeepQueue);

/// Timer churn: the Swift RTO/pacing pattern — a pool of armed far-future
/// timers where each step cancels one and rearms it further out, with a
/// periodic drain that pops the accumulated tombstones (no timer ever fires).
void BM_SimulatorTimerChurn(benchmark::State& state) {
  constexpr int kTimers = 512;
  sim::Simulator sim;
  std::vector<sim::EventId> ids(kTimers);
  std::int64_t now = 0;
  for (int i = 0; i < kTimers; ++i)
    ids[static_cast<std::size_t>(i)] = sim.at(TimePs(1'000'000 + 997 * i), [] {});
  std::size_t next = 0;
  AllocTally tally(state);
  for (auto _ : state) {
    sim.cancel(ids[next]);
    now += 211;
    ids[next] = sim.at(TimePs(now + 1'000'000), [] {});  // rearm ~1us out
    if (++next == kTimers) {
      next = 0;
      sim.run_until(TimePs(now));  // all live timers are still >1us away
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorTimerChurn);

/// Cancellation against a deep queue: 10k pending, every step cancels the
/// front event, schedules two replacements, and executes one.
void BM_SimulatorDeepCancellation(benchmark::State& state) {
  sim::Simulator sim;
  std::deque<sim::EventId> ids;
  std::int64_t t = 0;
  for (int i = 0; i < 10'000; ++i) ids.push_back(sim.at(TimePs(t += 499), [] {}));
  AllocTally tally(state);
  for (auto _ : state) {
    ids.push_back(sim.at(TimePs(t += 499), [] {}));
    ids.push_back(sim.at(TimePs(t += 499), [] {}));
    sim.cancel(ids.front());
    ids.pop_front();
    sim.run_one();  // executes the (new) front event
    ids.pop_front();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorDeepCancellation);

/// Whole-experiment macro bench: a small congested run end to end;
/// items/s is simulator events per wall-second across all layers.
void BM_ExperimentEventRate(benchmark::State& state) {
  std::int64_t events = 0;
  for (auto _ : state) {
    ExperimentConfig cfg;
    cfg.num_senders = 8;
    cfg.rx_threads = 4;
    cfg.warmup = TimePs::from_us(200);
    cfg.measure = TimePs::from_ms(2);
    Experiment exp(cfg);
    const Metrics m = exp.run();
    events += static_cast<std::int64_t>(m.events_executed);
    benchmark::DoNotOptimize(events);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ExperimentEventRate)->Unit(benchmark::kMillisecond);

/// IOTLB lookup hit (the per-TLP translation fast path).
void BM_IotlbLookupHit(benchmark::State& state) {
  iommu::LruCache<std::uint64_t> cache(1, 128);
  for (std::uint64_t i = 0; i < 128; ++i) cache.insert(i);
  std::uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.lookup(key));
    key = (key + 1) % 128;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IotlbLookupHit);

/// IOTLB thrash (insert + evict on every access).
void BM_IotlbThrash(benchmark::State& state) {
  iommu::LruCache<std::uint64_t> cache(1, 128);
  std::uint64_t key = 0;
  for (auto _ : state) {
    if (!cache.lookup(key)) cache.insert(key);
    key = (key + 1) % 512;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_IotlbThrash);

/// Discrete memory request sampling.
void BM_MemoryRequest(benchmark::State& state) {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.request(mem::MemClass::kNicDma, 256_B, false));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryRequest);

/// Fluid solver epoch (bisection fixed point with 3 clients).
void BM_MemoryEpochSolve(benchmark::State& state) {
  sim::Simulator sim;
  mem::MemorySystem mem(sim, mem::DramParams{}, Rng(1), 5_us);
  mem.add_closed_loop(mem::MemClass::kAntagonist, 12,
                      BitRate::gigabytes_per_sec(8.5), Bytes(2048), 0.67);
  const auto open = mem.add_open(mem::MemClass::kCpuCopy, 1.0);
  mem.set_demand(open, BitRate::gigabytes_per_sec(3.0));
  TimePs t{};
  for (auto _ : state) {
    t += 5_us;
    sim.run_until(t);  // executes exactly one epoch
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryEpochSolve);

// ---------------------------------------------------------------------------
// `hicc.bench.v1` JSON output. A tee reporter keeps the normal console
// output and collects one row per benchmark for --json=PATH.

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
    os << "{\"schema\": \"hicc.bench.v1\",\n\"benchmarks\": [\n";
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
    std::fprintf(stderr, "micro_engine: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
