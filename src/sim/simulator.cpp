// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace hicc::sim {

Simulator::Simulator() { bucket_head_.fill(kNil); }

std::int32_t Simulator::alloc_node_slow() {
  // Chunked growth keeps every existing Node at a stable address, so a
  // closure can run in place while new events are being scheduled.
  if (node_count_ == chunks_.size() * kChunkSize) {
    // hicc-lint: allow(hot-heap-alloc, hot-vector-growth) -- slab growth:
    // one allocation per 256 nodes until the high-water mark, then the
    // free list recycles forever (SteadyStateIsAllocationFree).
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return static_cast<std::int32_t>(node_count_++);
}

bool Simulator::cancel(EventId id) {
  if (!id.valid()) return false;
  if (id.slot >= node_count_) return false;
  Node& n = node(id.slot);
  // Generation check: a handle for an event that already ran (or whose
  // slot was recycled) no longer matches the node's stamp.
  if (n.seq != id.seq || !n.live) return false;
  n.live = false;  // tombstone; the node is reclaimed at the next scan
  n.fn = nullptr;  // release captured resources immediately
  --live_;
  return true;
}

bool Simulator::guard_event_slow(TimePs t) {
  if (watchdog_.max_events != 0 && executed_ >= watchdog_.max_events) {
    abort_cause_ = AbortCause::kEventBudget;
    abort_reason_ = "event budget exhausted (" + std::to_string(watchdog_.max_events) +
                    " events executed) at t=" + std::to_string(t.us()) + "us";
    return false;
  }
  if (watchdog_.max_events_per_timestamp != 0) {
    if (executed_ > 0 && t == last_exec_time_) {
      if (++same_time_streak_ >= watchdog_.max_events_per_timestamp) {
        abort_cause_ = AbortCause::kTimestampStall;
        abort_reason_ = "no time progress: " + std::to_string(same_time_streak_) +
                        " consecutive events at t=" + std::to_string(t.us()) +
                        "us (self-rescheduling loop?)";
        return false;
      }
    } else {
      same_time_streak_ = 1;
    }
  }
  last_exec_time_ = t;
  return true;
}

void Simulator::run_until(TimePs end) {
  if (aborted()) return;
  for (;;) {
    const Candidate c = peek_min();
    if (!c.found) {
      assert(live_ == 0 && "an idle queue cannot hold live events");
      break;
    }
    if (end < c.time) break;
    if (!guard_event(c.time)) return;  // abort: now_ stays put
    execute(c);
  }
  now_ = end;
  passed_seq_ = next_seq_ - 1;
}

}  // namespace hicc::sim
