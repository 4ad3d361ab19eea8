// The PCIe datapath between NIC and host memory (§2 steps 3-6).
//
// Model, downstream (NIC -> memory) direction:
//
//   [NIC DMA engine] --credits--> [link serializer] --> [RC ordered queue]
//        ^                                                   |
//        |                                    translate (IOTLB / page walk)
//        |                                                   v
//        +---- credit release <--- [write buffer] ---> memory write
//
//  * Credit-based flow control: the NIC may only place a TLP on the
//    link when it holds enough posted credits; credits for a TLP are
//    returned when the root complex moves it out of its receive queue
//    into the write buffer (i.e. after address translation).
//  * The RC receive queue is processed in order -- PCIe posted writes
//    cannot pass one another -- so a single IOTLB miss stalls every
//    TLP behind it, delaying credit return. This is how per-DMA latency
//    becomes a throughput ceiling (the paper's C*pkt/(Tbase + M*Tmiss)).
//  * The write buffer bounds posted data outstanding to DRAM. When the
//    memory bus is contended (§3.2) writes retire slowly, the buffer
//    fills, the pipeline stalls, and credit return slows -- identical
//    symptom, different root cause.
//
// Non-posted reads (Rx descriptor fetches, Tx/ACK payload fetches)
// traverse the same link and ordered pipeline, then complete with a
// memory read plus the upstream link latency.
//
// The model is per TLP; its bookkeeping is applied lazily. A TLP's
// link arrival and each posted write's retirement get a reserved
// simulator stamp (sim::Simulator::reserve_seq) instead of an event:
// the TLP joins the RC queue and the retired bytes leave the write
// buffer once has_passed() says the stamp is behind the clock. A real
// event is materialised at the reserved stamp only where the eager
// event would have changed the outcome -- to wake an idle RC at its
// head's arrival, to fire a train's completion at the latest retire of
// its TLPs, and to retry a head stalled on the write buffer at the
// earliest pending retire -- so every decision, callback and RNG draw
// happens at exactly the same `(time, seq)` position as with one event
// per hop. A packet's payload writes form one train: its callback
// fires once, when the last of its TLPs is in memory.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <vector>

#include "common/ring.h"
#include "common/units.h"
#include "iommu/iommu.h"
#include "mem/ddio.h"
#include "mem/memory_system.h"
#include "pcie/params.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hicc::pcie {

/// Counters for experiments and tests.
struct PcieStats {
  std::int64_t write_tlps = 0;
  std::int64_t read_tlps = 0;
  std::int64_t bytes_written = 0;   // payload bytes DMA'd to memory
  std::int64_t bytes_read = 0;      // payload bytes fetched from memory
  std::int64_t translation_stalls = 0;  // head-of-line page-walk stalls
  std::int64_t write_buffer_stalls = 0;
  std::int64_t ddio_write_hits = 0;     // DMA writes absorbed by the LLC
};

/// One PCIe link + root complex serving one NIC. When a DdioModel is
/// supplied, the root complex implements direct cache access: DMA
/// writes that hit the LLC's IO ways retire at cache latency and never
/// touch the memory bus (footnote 2 of the paper).
class PcieBus {
 public:
  /// Completion callbacks ride the per-TLP hot path; inline storage
  /// keeps them allocation-free (the NIC captures at most
  /// `[this, job_id]`-sized state).
  using CompletionFn = sim::InlineCallback<void()>;

  /// `tracer`, when non-null, registers the `pcie.*` probes (all
  /// polled from the credit/queue/buffer state the bus already keeps).
  PcieBus(sim::Simulator& sim, mem::MemorySystem& mem, iommu::Iommu& iommu,
          PcieParams params, mem::DdioModel* ddio = nullptr,
          trace::Tracer* tracer = nullptr);

  PcieBus(const PcieBus&) = delete;
  PcieBus& operator=(const PcieBus&) = delete;

  [[nodiscard]] const PcieParams& params() const { return params_; }

  /// True when the NIC holds enough credits to emit a posted write TLP
  /// of `payload` bytes.
  [[nodiscard]] bool can_send_write(Bytes payload) const {
    return !credits_frozen_ && credits_free_ >= params_.tlp_wire_bytes(payload);
  }

  /// Fault hook (nic.credit_stall): while frozen the NIC sees no
  /// posted credits, emulating a root complex that stops returning
  /// them. Unfreezing notifies the credit subscriber so DMA resumes.
  void set_credit_freeze(bool frozen) {
    const bool was = credits_frozen_;
    credits_frozen_ = frozen;
    if (was && !frozen && credits_cb_) credits_cb_();
  }

  /// Handle of a train: the posted writes of one DMA (a packet's
  /// payload), whose completion fires once.
  struct TrainId {
    std::int32_t index = -1;
  };

  /// Opens a train of `tlps` posted writes, to be emitted with
  /// send_train_tlp(). `retired` fires once, when the last of them has
  /// been written to host memory (used for delivery timestamps and
  /// completion-queue ordering).
  TrainId open_train(int tlps, CompletionFn retired);

  /// Emits the next posted write TLP of `train`. Preconditions:
  /// can_send_write(). `pre_translated` marks a TLP whose address the
  /// device already translated via ATS; the root complex skips the
  /// IOMMU for it.
  void send_train_tlp(TrainId train, iommu::Iova iova, Bytes payload,
                      bool pre_translated = false);

  /// Emits one posted write TLP as a train of one: `retired` fires when
  /// its payload has been written to host memory.
  void send_write_tlp(iommu::Iova iova, Bytes payload, CompletionFn retired,
                      bool pre_translated = false) {
    send_train_tlp(open_train(1, std::move(retired)), iova, payload, pre_translated);
  }

  /// Emits one non-posted read (descriptor or Tx payload fetch) of
  /// `payload` bytes; `done` fires when the completion reaches the NIC.
  void send_read(iommu::Iova iova, Bytes payload, CompletionFn done);

  /// Registers the single credit-availability subscriber (the NIC DMA
  /// engine); invoked after credits are released.
  void on_credits_available(CompletionFn cb) { credits_cb_ = std::move(cb); }

  [[nodiscard]] Bytes credits_free() const { return credits_free_; }
  [[nodiscard]] Bytes credits_in_use() const { return params_.credit_bytes - credits_free_; }
  /// Posted bytes in the write buffer that have not retired yet.
  [[nodiscard]] Bytes write_buffer_used() const;
  /// TLPs that have arrived at the root complex and not left its queue
  /// (TLPs still on the link are not counted).
  [[nodiscard]] std::size_t rc_queue_depth() const;
  [[nodiscard]] const PcieStats& stats() const { return stats_; }

 private:
  struct Tlp {
    iommu::Iova iova = 0;
    Bytes payload{};
    TimePs arrival{};                // reserved link-arrival stamp
    std::uint64_t arrival_seq = 0;
    std::int32_t train = -1;         // posted write: its train
    bool is_read = false;
    bool pre_translated = false;
    CompletionFn done;               // read: the completion callback
  };

  /// A committed write's reserved retirement stamp.
  struct Retire {
    TimePs time{};
    std::uint64_t seq = 0;
    Bytes payload{};
    std::int32_t train = -1;
  };

  /// Posted writes of one DMA. `last` is the latest retire stamp of
  /// the TLPs committed so far; once all are committed, the completion
  /// is materialised there (`armed`).
  struct Train {
    CompletionFn done;
    TimePs last{};
    std::uint64_t last_seq = 0;
    std::int32_t uncommitted = 0;
    std::int32_t next_free = -1;
    bool armed = false;
  };

  /// Places a TLP on the downstream link, stamped with its arrival at
  /// the RC queue after serialization + propagation.
  void transmit(Tlp tlp);
  /// Starts processing the RC queue head if idle and arrived; an idle
  /// RC whose head is still on the link wakes at its arrival stamp.
  void pump_rc();
  /// Head TLP's translation finished; dispatch by type.
  void finish_translation();
  /// Tries to move the head posted write into the write buffer.
  void try_commit_write();
  /// Applies every retirement whose stamp has passed to wb_used_.
  void retire_passed();
  /// Head stalled on the write buffer: wakes it at the earliest
  /// pending retirement, unless a train completion already fires there.
  void arm_write_buffer_wake();
  /// A train's latest retirement: fires its completion, then retries
  /// a stalled head as that retirement's eager event would have.
  void complete_train(std::int32_t index);
  void free_train(std::int32_t index);

  sim::Simulator& sim_;
  mem::MemorySystem& mem_;
  iommu::Iommu& iommu_;
  PcieParams params_;
  mem::DdioModel* ddio_;

  Bytes credits_free_;
  bool credits_frozen_ = false;
  TimePs link_free_at_{};
  /// TLPs in link order (arrival stamps ascend): the arrived prefix is
  /// the RC queue, the rest is still on the link.
  Ring<Tlp> rc_queue_;
  bool rc_busy_ = false;
  bool rc_wake_armed_ = false;
  bool head_waiting_wb_ = false;
  bool wb_wake_armed_ = false;
  /// Committed bytes, including retirements not yet applied.
  Bytes wb_used_{};
  /// Min-heap by (time, seq) of retirements not yet applied.
  std::vector<Retire> retires_;
  std::vector<Train> trains_;  // free-listed slab
  std::int32_t free_train_ = -1;
  CompletionFn credits_cb_;
  PcieStats stats_;
};

}  // namespace hicc::pcie
