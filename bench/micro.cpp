// Micro-benchmarks (google-benchmark) for the hot paths that bound how
// much simulated traffic per wall-second the harness can sustain: the
// event queue, IOTLB, memory model, Clos fabric, parallel-engine window
// and mailbox, flow pool and quantile sketch. Whole runs are timed by
// perfbench (perfbench/README.md), not here.
//
// Doubles as the perf-regression harness: `--json=PATH` writes a
// `hicc.bench.v1` record (ns/op, items/s, allocs/op, iterations) that CI
// compares against the committed BENCH_MICRO.json baseline with
// scripts/check_bench_regression.py — see docs/PERFORMANCE.md.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_tally.h"
#include "common/fmt.h"
#include "common/rng.h"
#include "common/sketch.h"
#include "iommu/lru_cache.h"
#include "mem/memory_system.h"
#include "net/topology.h"
#include "sim/parallel.h"
#include "sim/simulator.h"
#include "workload/flow_pool.h"

namespace {

using namespace hicc;
using namespace hicc::literals;

/// Pure-arithmetic calibration loop (no memory traffic). The regression
/// gate normalizes every bench against this so the threshold is
/// comparable across machines of different speeds.
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

// ---------------------------------------------------------------------------
// Event engine (sim/simulator.h)

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

// ---------------------------------------------------------------------------
// Translation and memory (iommu/, mem/)

/// IOTLB lookup hit (the per-TLP translation fast path).
void BM_IotlbLookupHit(benchmark::State& state) {
  iommu::LruCache<std::uint64_t> cache(1, 128);
  for (std::uint64_t i = 0; i < 128; ++i) cache.insert(i);
  std::uint64_t key = 0;
  AllocTally tally(state);
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
  AllocTally tally(state);
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
  AllocTally tally(state);
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
  AllocTally tally(state);
  for (auto _ : state) {
    t += 5_us;
    sim.run_until(t);  // executes exactly one epoch
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_MemoryEpochSolve);

// ---------------------------------------------------------------------------
// Clos fabric (net/topology.h)

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

// ---------------------------------------------------------------------------
// Parallel engine (sim/parallel.h)

/// Per-window fixed cost of the conservative engine: 9 empty partitions
/// (the 2x2x8-cluster shape) advance one lookahead window per iteration.
/// Arg is the engine thread count -- threads=1 is the pure window loop,
/// threads>1 adds the publish/claim/barrier handshake with a worker
/// thread, so the bench is timed in wall-clock (UseRealTime), not the
/// main thread's CPU. Must stay allocation-free after construction.
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
BENCHMARK(BM_ParallelWindowBarrier)->Arg(1)->Arg(2)->UseRealTime();

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

// ---------------------------------------------------------------------------
// Open-loop workload (workload/flow_pool.h, common/sketch.h)

/// Steady-state flow churn: acquire + release across every class of a
/// 4096-slot pool, the per-flow fixed cost of an open-loop run. One
/// iteration is one full acquire/release pair. Must be allocation-free:
/// the per-class free lists are reserved at construction, so a million
/// flows recycle the same slots (the memory-bound acceptance of
/// docs/WORKLOADS.md).
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
      // Function name and args only: UseRealTime would otherwise
      // append "/real_time" to the row name the gate looks up.
      row.name = r.run_name.function_name;
      if (!r.run_name.args.empty()) row.name += "/" + r.run_name.args;
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
    std::fprintf(stderr, "micro: cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}
