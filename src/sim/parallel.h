// Conservative time-parallel execution on top of sim::Simulator.
//
// A ParallelEngine owns P partition Simulators and runs them in
// lockstep lookahead windows: within a window [t, t+L) every partition
// executes its own events independently (no partition can affect
// another inside the window), and at the window barrier the engine
// drains bounded per-(src,dst) mailboxes of cross-partition events
// into the destination simulators. L -- the lookahead -- is the
// minimum latency of any cross-partition interaction; for a cluster
// run it is the edge-link propagation delay, so a message posted
// during a window always lands at or after the next window's start
// and conservative causality holds without rollback.
//
// Determinism contract (docs/PARALLELISM.md): the worker-thread count
// never influences the logical event order. Partitions are disjoint
// (one thread runs one partition's window at a time), mailbox rows are
// single-writer (only the posting partition's thread appends during a
// window; only the coordinator drains at the barrier), and drained
// messages are merged in canonical `(time, src partition, seq)` order
// before being scheduled -- a pure function of message content. Runs
// with 1 and N threads are therefore bitwise identical, including
// per-partition executed-event counts. A single-partition engine
// degenerates to plain `Simulator::run_until` (one window, no message
// splitting) and reproduces a serial run bitwise
// (tests/parallel_test.cpp pins both properties).
//
// Thread-safety model (TSan-gated in CI): all cross-thread handoffs --
// window start, window completion, mailbox drain -- go through one
// mutex/condvar pair, so partition state and mailbox rows are always
// transferred with a happens-before edge. Partition code itself runs
// single-threaded and needs no synchronization.
// hicc-lint: hotpath -- post() sits on the cross-partition packet path.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/units.h"
#include "sim/inline_action.h"
#include "sim/simulator.h"

namespace hicc::sim {

/// The engine's public knobs. Documented knob-for-knob in
/// docs/PARALLELISM.md (hicc_analyze's `docs-par-knob` rule keeps the
/// two in lockstep).
struct ParallelParams {
  /// Partition count; each partition is one Simulator. 1 gives the
  /// degenerate serial engine (one window, no event splitting).
  int partitions = 1;
  /// Window length = minimum cross-partition latency. Must be > 0
  /// when partitions > 1; ClusterExperiment passes the topology's
  /// edge-link propagation delay.
  TimePs lookahead{};
  /// Worker threads executing partition windows; capped at
  /// `partitions`. 1 runs every window on the calling thread. The
  /// thread count never changes results, only wall-clock time.
  int threads = 1;
  /// Per-(src,dst) mailbox bound: the most cross-partition events one
  /// partition may post toward another in a single window. Exceeding
  /// it aborts the run gracefully (AbortCause::kMailboxOverflow), like
  /// a watchdog trip -- a deterministic property of the workload, not
  /// of thread timing.
  std::size_t mailbox_capacity = 1u << 20;
};

/// P partition Simulators + a persistent worker pool + the barrier
/// protocol. Construction and every public method are
/// coordinator-thread only; post() alone may be called from partition
/// code while a window runs.
class ParallelEngine {
 public:
  explicit ParallelEngine(ParallelParams params);
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  [[nodiscard]] int partitions() const { return partitions_; }
  [[nodiscard]] int threads() const { return threads_; }
  [[nodiscard]] TimePs lookahead() const { return params_.lookahead; }
  /// Barrier time: every partition's now() equals this between windows
  /// (aborted partitions may sit earlier, at their abort instant).
  [[nodiscard]] TimePs now() const { return now_; }

  /// Partition p's simulator. Components of partition p are built on
  /// (and schedule only through) this; cross-partition effects go
  /// through post().
  [[nodiscard]] Simulator& sim(int p) {
    return *sims_[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] const Simulator& sim(int p) const {
    return *sims_[static_cast<std::size_t>(p)];
  }

  /// Posts `fn` to run at absolute time `t` in partition `dst`. The
  /// ONLY legal cross-partition channel (`par-engine-post` lint rule):
  /// callers must be executing inside partition `src` (or be the
  /// coordinator between windows), and `t` must honor the conservative
  /// contract t >= current window end -- guaranteed whenever the
  /// posting path includes >= `lookahead` of propagation delay.
  /// Messages are fire-and-forget: once posted they cannot be
  /// cancelled from `src`; destination-local state must gate any
  /// revocable effect (docs/PARALLELISM.md, "mailbox protocol").
  template <typename F>
  void post(int src, int dst, TimePs t, F&& fn) {
    assert(t >= window_end_ &&
           "conservative lookahead violated: cross-partition event lands "
           "inside the running window");
    Mailbox& box =
        outbox_[static_cast<std::size_t>(src) * static_cast<std::size_t>(partitions_) +
                static_cast<std::size_t>(dst)];
    if (box.msgs.size() >= params_.mailbox_capacity) {
      box.overflowed = true;
      return;  // the overflow aborts the run at the next barrier
    }
    // hicc-lint: allow(hot-vector-growth) -- amortized: rows keep their
    // capacity across windows (drain clears, never shrinks) and are
    // hard-bounded by mailbox_capacity.
    box.msgs.push_back(Message{t, box.next_seq++, InlineAction(std::forward<F>(fn))});
  }

  /// Runs every partition until `end` in lookahead windows, draining
  /// mailboxes and invoking the barrier hook at each boundary. Returns
  /// early (with now() at the last completed barrier) once any
  /// partition aborts -- watchdog trip or mailbox overflow.
  void run_until(TimePs end);

  /// Invoked on the coordinator at every window boundary while all
  /// partitions are quiescent -- the only safe instant for
  /// cross-partition reads (trace sampling, metrics snapshots).
  void set_barrier_hook(InlineAction hook) { barrier_hook_ = std::move(hook); }

  /// True once any partition aborted (watchdog or mailbox overflow);
  /// run_until() refuses to start further windows.
  [[nodiscard]] bool aborted() const { return first_aborted_ >= 0; }
  /// Lowest-index aborted partition, -1 when none: the deterministic
  /// choice for surfacing one run_status out of many partitions.
  [[nodiscard]] int first_aborted_partition() const { return first_aborted_; }

  /// Sum of executed() over all partitions -- the run-global event
  /// count ClusterMetrics reports.
  [[nodiscard]] std::uint64_t executed_total() const;
  /// Window barriers completed so far.
  [[nodiscard]] std::uint64_t windows() const { return windows_; }
  /// Cross-partition messages delivered through the mailboxes so far.
  [[nodiscard]] std::uint64_t messages_delivered() const { return messages_delivered_; }
  /// High-water mark of any single (src,dst) mailbox row, for sizing
  /// mailbox_capacity.
  [[nodiscard]] std::size_t max_mailbox_depth() const { return max_mailbox_depth_; }

 private:
  /// One cross-partition event: `seq` is a per-row counter, so
  /// `(time, src, seq)` totally orders every drained message.
  struct Message {
    TimePs time{};
    std::uint64_t seq = 0;
    InlineAction fn;
  };

  /// One (src,dst) row. Single-writer: the src partition's thread
  /// appends during a window, the coordinator drains at the barrier.
  struct Mailbox {
    std::vector<Message> msgs;
    std::uint64_t next_seq = 0;
    bool overflowed = false;
  };

  /// A drained message tagged with its source partition for the
  /// canonical merge sort.
  struct MergeEntry {
    TimePs time{};
    int src = 0;
    std::uint64_t seq = 0;
    InlineAction fn;
  };

  void run_window(TimePs wend);
  /// The shared partition-claim loop run by the coordinator and every
  /// worker during a window.
  void claim_partitions(TimePs wend);
  void worker_main();
  /// Merges and schedules every pending mailbox message; coordinator
  /// only, all workers idle.
  void drain_mailboxes();
  /// Records watchdog trips and mailbox overflows; returns true when
  /// the run must stop.
  bool check_aborts();

  ParallelParams params_;
  int partitions_;
  int threads_;
  TimePs now_{};
  /// End of the window being executed; post()'s conservative floor.
  TimePs window_end_{};
  std::uint64_t windows_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::size_t max_mailbox_depth_ = 0;
  int first_aborted_ = -1;

  std::vector<std::unique_ptr<Simulator>> sims_;
  /// Row-major [src * partitions_ + dst].
  std::vector<Mailbox> outbox_;
  std::vector<MergeEntry> merge_scratch_;
  InlineAction barrier_hook_;

  // Worker pool (empty when threads_ == 1). Handoff protocol: the
  // coordinator publishes (window_end_shared_, generation_) under mu_,
  // workers claim partitions via the atomic ticket, and completion is
  // signaled back under mu_ -- every sim/mailbox access is separated
  // by a mutex acquisition, giving TSan-verifiable happens-before.
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::atomic<int> next_partition_{0};
  TimePs window_end_shared_{};
  std::uint64_t generation_ = 0;
  int idle_workers_ = 0;
  bool shutdown_ = false;
};

}  // namespace hicc::sim
