// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "pcie/pcie_bus.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hicc::pcie {

PcieBus::PcieBus(sim::Simulator& sim, mem::MemorySystem& mem, iommu::Iommu& iommu,
                 PcieParams params, mem::DdioModel* ddio, trace::Tracer* tracer)
    : sim_(sim),
      mem_(mem),
      iommu_(iommu),
      params_(params),
      ddio_(ddio),
      credits_free_(params.credit_bytes) {
  if (tracer != nullptr) {
    // All polled: the sampler reads flow-control state the bus already
    // maintains, so the per-TLP path carries no tracing work.
    tracer->gauge("pcie.credits_in_use", "bytes",
                  [this] { return static_cast<double>(credits_in_use().count()); });
    tracer->gauge("pcie.rc_queue_depth", "tlps",
                  [this] { return static_cast<double>(rc_queue_depth()); });
    tracer->gauge("pcie.write_buffer_bytes", "bytes",
                  [this] { return static_cast<double>(write_buffer_used().count()); });
    tracer->counter("pcie.translation_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.translation_stalls); });
    tracer->counter("pcie.write_buffer_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.write_buffer_stalls); });
  }
}

namespace {
/// Orders retirement stamps latest-first, so std::*_heap keeps the
/// earliest at the front.
struct Later {
  template <typename R>
  bool operator()(const R& a, const R& b) const {
    return a.time != b.time ? b.time < a.time : b.seq < a.seq;
  }
};
}  // namespace

Bytes PcieBus::write_buffer_used() const {
  Bytes used = wb_used_;
  for (const Retire& r : retires_) {
    if (sim_.has_passed(r.time, r.seq)) used -= r.payload;
  }
  return used;
}

std::size_t PcieBus::rc_queue_depth() const {
  std::size_t n = 0;
  while (n < rc_queue_.size() &&
         sim_.has_passed(rc_queue_[n].arrival, rc_queue_[n].arrival_seq)) {
    ++n;
  }
  return n;
}

PcieBus::TrainId PcieBus::open_train(int tlps, CompletionFn retired) {
  std::int32_t index = free_train_;
  if (index >= 0) {
    free_train_ = trains_[static_cast<std::size_t>(index)].next_free;
  } else {
    index = static_cast<std::int32_t>(trains_.size());
    // hicc-lint: allow(hot-vector-growth) -- free-listed slab: grows to
    // the trains-in-flight high-water mark once, then recycles.
    trains_.emplace_back();
  }
  Train& t = trains_[static_cast<std::size_t>(index)];
  t.done = std::move(retired);
  t.uncommitted = tlps;
  return TrainId{index};
}

void PcieBus::free_train(std::int32_t index) {
  Train& t = trains_[static_cast<std::size_t>(index)];
  t = Train{};
  t.next_free = free_train_;
  free_train_ = index;
}

void PcieBus::send_train_tlp(TrainId train, iommu::Iova iova, Bytes payload,
                             bool pre_translated) {
  assert(can_send_write(payload));
  credits_free_ -= params_.tlp_wire_bytes(payload);
  ++stats_.write_tlps;
  Tlp tlp;
  tlp.iova = iova;
  tlp.payload = payload;
  tlp.train = train.index;
  tlp.pre_translated = pre_translated;
  transmit(std::move(tlp));
}

void PcieBus::send_read(iommu::Iova iova, Bytes payload, CompletionFn done) {
  ++stats_.read_tlps;
  // Read requests carry no data downstream; only the header goes on
  // the wire. (Non-posted credits are not modeled: descriptor/ACK
  // traffic is far below the non-posted credit limits.)
  Tlp tlp;
  tlp.iova = iova;
  tlp.payload = payload;
  tlp.is_read = true;
  tlp.done = std::move(done);
  transmit(std::move(tlp));
}

void PcieBus::transmit(Tlp tlp) {
  const Bytes wire =
      tlp.is_read ? params_.tlp_overhead : params_.tlp_wire_bytes(tlp.payload);
  const TimePs start = std::max(link_free_at_, sim_.now());
  link_free_at_ = start + params_.link_rate().time_to_send(wire);
  tlp.arrival = link_free_at_ + params_.link_latency;
  tlp.arrival_seq = sim_.reserve_seq();
  rc_queue_.push_back(std::move(tlp));
  // An idle RC with nothing else queued sleeps until this TLP arrives.
  // (A longer queue's head is already being served or awaited; an RC
  // that just went idle pumps itself once its commit finishes.)
  if (rc_queue_.size() == 1) pump_rc();
}

void PcieBus::pump_rc() {
  if (rc_busy_ || rc_wake_armed_ || rc_queue_.empty()) return;
  const Tlp& head = rc_queue_.front();
  if (!sim_.has_passed(head.arrival, head.arrival_seq)) {
    rc_wake_armed_ = true;
    sim_.at_reserved(head.arrival, head.arrival_seq, [this] {
      rc_wake_armed_ = false;
      pump_rc();
    });
    return;
  }
  rc_busy_ = true;
  if (head.pre_translated) {
    // ATS: the address was translated on the device; no IOMMU work and
    // no possible head-of-line walk stall.
    sim_.after(params_.tlp_proc_time, [this] { finish_translation(); });
    return;
  }
  if (const auto fast = iommu_.try_translate(head.iova)) {
    sim_.after(params_.tlp_proc_time + *fast, [this] { finish_translation(); });
  } else {
    // Head-of-line page walk: everything behind waits (posted writes
    // cannot pass each other), and the credits of every queued TLP
    // stay captive until the walk resolves.
    ++stats_.translation_stalls;
    iommu_.translate_slow(head.iova, [this] {
      sim_.after(params_.tlp_proc_time + params_.walk_overhead,
                 [this] { finish_translation(); });
    });
  }
}

void PcieBus::finish_translation() {
  assert(rc_busy_ && !rc_queue_.empty());
  Tlp& head = rc_queue_.front();
  if (head.is_read) {
    stats_.bytes_read += head.payload.count();
    const TimePs lat = mem_.request(mem::MemClass::kNicDma, head.payload, /*is_read=*/true);
    auto done = std::move(head.done);
    rc_queue_.pop_front();
    rc_busy_ = false;
    // Completion returns over the upstream link.
    sim_.after(lat + params_.link_latency, std::move(done));
    pump_rc();
    return;
  }
  try_commit_write();
}

void PcieBus::try_commit_write() {
  assert(rc_busy_ && !rc_queue_.empty());
  retire_passed();
  Tlp& head = rc_queue_.front();
  if (wb_used_ + head.payload > params_.write_buffer_bytes) {
    // Memory is not draining fast enough: park until a write retires.
    if (!head_waiting_wb_) {
      head_waiting_wb_ = true;
      ++stats_.write_buffer_stalls;
    }
    arm_write_buffer_wake();
    return;
  }
  head_waiting_wb_ = false;
  const Bytes payload = head.payload;
  const std::int32_t index = head.train;
  rc_queue_.pop_front();
  rc_busy_ = false;

  // The TLP has left the receive queue: its flow-control credits are
  // released back to the NIC.
  credits_free_ += params_.tlp_wire_bytes(payload);
  assert(credits_free_ <= params_.credit_bytes);

  wb_used_ += payload;
  stats_.bytes_written += payload.count();
  // DDIO: writes that land in the LLC's IO ways retire at cache
  // latency and place no load on the memory bus.
  TimePs lat;
  if (ddio_ != nullptr && ddio_->enabled() && ddio_->write_hits()) {
    ++stats_.ddio_write_hits;
    lat = ddio_->params().llc_write_latency;
  } else {
    lat = mem_.request(mem::MemClass::kNicDma, payload, /*is_read=*/false);
  }
  const Retire r{sim_.now() + std::max(lat, TimePs{}), sim_.reserve_seq(), payload, index};
  // hicc-lint: allow(hot-vector-growth) -- bounded by the write buffer:
  // reaches its high-water mark once, then pops balance pushes.
  retires_.push_back(r);
  std::push_heap(retires_.begin(), retires_.end(), Later{});

  // Seqs only grow, so this retirement is the train's latest unless an
  // earlier one lands later in time.
  Train& train = trains_[static_cast<std::size_t>(index)];
  if (!(r.time < train.last)) {
    train.last = r.time;
    train.last_seq = r.seq;
  }
  if (--train.uncommitted == 0) {
    if (train.done) {
      train.armed = true;
      sim_.at_reserved(train.last, train.last_seq, [this, index] { complete_train(index); });
    } else {
      free_train(index);
    }
  }

  if (credits_cb_) credits_cb_();
  pump_rc();
}

void PcieBus::retire_passed() {
  while (!retires_.empty() && sim_.has_passed(retires_.front().time, retires_.front().seq)) {
    wb_used_ -= retires_.front().payload;
    std::pop_heap(retires_.begin(), retires_.end(), Later{});
    retires_.pop_back();
  }
}

void PcieBus::arm_write_buffer_wake() {
  if (wb_wake_armed_ || retires_.empty()) return;
  const Retire& next = retires_.front();
  const Train& train = trains_[static_cast<std::size_t>(next.train)];
  if (train.armed && train.last_seq == next.seq) return;  // complete_train() retries
  wb_wake_armed_ = true;
  sim_.at_reserved(next.time, next.seq, [this] {
    wb_wake_armed_ = false;
    if (head_waiting_wb_) try_commit_write();
  });
}

void PcieBus::complete_train(std::int32_t index) {
  CompletionFn done = std::move(trains_[static_cast<std::size_t>(index)].done);
  free_train(index);
  done();
  if (head_waiting_wb_) try_commit_write();
}

}  // namespace hicc::pcie
