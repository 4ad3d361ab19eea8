// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#include "nic/nic.h"

#include <utility>

namespace hicc::nic {

Nic::Nic(sim::Simulator& sim, pcie::PcieBus& pcie, iommu::Iommu& iommu, NicParams params,
         int num_threads, Bytes data_region_size, iommu::PageSize data_page,
         sim::InlineCallback<int(std::int32_t)> thread_of_flow, Rng rng, trace::Tracer* tracer)
    : sim_(sim),
      pcie_(pcie),
      iommu_(iommu),
      params_(params),
      data_page_(data_page),
      thread_of_flow_(std::move(thread_of_flow)),
      rng_(rng),
      dev_tlb_(1, params.dev_tlb_entries > 0 ? params.dev_tlb_entries : 1) {
  queues_.resize(static_cast<std::size_t>(num_threads));
  const int control_pages = params_.ring_pages + params_.cq_pages + params_.ack_pages;
  for (auto& q : queues_) {
    // Loose-mode registration at startup: data buffers with the chosen
    // leaf size, control structures always on 4K pages (§3.1 setup).
    q.data_region = iommu_.map_region(data_region_size, data_page_);
    q.control_region =
        iommu_.map_region(Bytes(static_cast<std::int64_t>(control_pages) * 4096),
                          iommu::PageSize::k4K);
    q.posted = params_.descriptors_per_queue;
  }
  pcie_.on_credits_available([this] { pump(); });
  for (std::size_t t = 0; t < queues_.size(); ++t) {
    ensure_descriptor_fetch(static_cast<int>(t));
  }
  if (tracer != nullptr) {
    // All polled from state the NIC already keeps: tracing adds no work
    // to the arrival / DMA paths.
    tracer->gauge("nic.buffer_bytes", "bytes",
                  [this] { return static_cast<double>(buffer_used_.count()); });
    tracer->counter("nic.buffer_drops", "packets",
                    [this] { return static_cast<double>(stats_.buffer_drops); });
    tracer->counter("nic.delivered", "packets",
                    [this] { return static_cast<double>(stats_.delivered); });
    tracer->counter("nic.hol_descriptor_stalls", "stalls",
                    [this] { return static_cast<double>(stats_.hol_descriptor_stalls); });
  }
}

iommu::Iova Nic::control_page(const Queue& q, int first, int count,
                              std::int64_t cursor) const {
  const auto& region = iommu_.region(q.control_region);
  return region.page_iova(first + cursor % count);
}

iommu::Iova Nic::pick_data_page(Queue& q) {
  const auto& region = iommu_.region(q.data_region);
  // Concurrent flows fill buffers all over the registered region, so
  // consecutive packets land on unrelated pages (§3.1: "subsequent
  // packets do not necessarily lie in contiguous memory regions").
  const std::int64_t pages = region.num_pages();
  std::int64_t page = static_cast<std::int64_t>(rng_.below(static_cast<std::uint64_t>(pages)));
  if (data_page_ == iommu::PageSize::k4K && page + 1 >= pages) {
    page = pages >= 2 ? pages - 2 : 0;  // keep room for the spill page
  }
  return region.page_iova(page);
}

void Nic::on_arrival(net::Packet p) {
  ++stats_.arrivals;
  if (buffer_used_ + p.wire > buffer_limit()) {
    ++stats_.buffer_drops;
    return;
  }
  if (cbs_.buffer_pressure &&
      buffer_used_.count() >
          static_cast<std::int64_t>(params_.signal_threshold *
                                    static_cast<double>(params_.input_buffer.count()))) {
    cbs_.buffer_pressure();
  }
  buffer_used_ += p.wire;
  p.nic_arrival = sim_.now();

  // The payload destination is chosen on arrival (the descriptor the
  // packet will consume determines it); with ATS the device TLB is
  // prefetched here so the translation usually lands before the packet
  // reaches the head of the DMA pipeline.
  Buffered b;
  Queue& q = queues_[static_cast<std::size_t>(thread_of_flow_(p.flow))];
  b.first_page = pick_data_page(q);
  if (data_page_ == iommu::PageSize::k4K) {
    b.second_page = b.first_page + 4096;
  }
  b.pkt = std::move(p);
  if (params_.ats_enabled && iommu_.enabled()) {
    ats_prefetch(b.first_page);
    if (b.second_page != 0) ats_prefetch(b.second_page);
  }
  input_.push_back(std::move(b));
  pump();
}

void Nic::ats_prefetch(iommu::Iova page) {
  if (dev_tlb_.contains(page) || ats_pending_.contains(page)) return;
  ats_pending_.emplace(page, true);
  ++stats_.ats_prefetches;
  // The translation request costs a link round trip plus whatever the
  // IOMMU needs (IOTLB hit or a full walk) -- but it runs beside the
  // posted-write pipeline instead of stalling it.
  auto install = [this, page] {
    sim_.after(params_.ats_request_latency, [this, page] {
      ats_pending_.erase(page);
      dev_tlb_.insert(page);
      pump();
    });
  };
  if (iommu_.try_translate(page).has_value()) {
    install();
  } else {
    iommu_.translate_slow(page, install);
  }
}

bool Nic::ats_ready(const Buffered& b) {
  if (!dev_tlb_.lookup(b.first_page)) return false;
  return b.second_page == 0 || dev_tlb_.lookup(b.second_page);
}

void Nic::post_descriptors(int thread, int n) {
  queues_[static_cast<std::size_t>(thread)].posted += n;
  ensure_descriptor_fetch(thread);
}

void Nic::ensure_descriptor_fetch(int thread) {
  Queue& q = queues_[static_cast<std::size_t>(thread)];
  while (q.posted > 0 && q.fetched + q.fetch_in_flight < params_.descriptor_prefetch) {
    --q.posted;
    ++q.fetch_in_flight;
    ++stats_.descriptor_fetches;
    const iommu::Iova ring = control_page(q, 0, params_.ring_pages, q.ring_cursor++);
    pcie_.send_read(ring, params_.descriptor_bytes, [this, thread] {
      Queue& queue = queues_[static_cast<std::size_t>(thread)];
      --queue.fetch_in_flight;
      ++queue.fetched;
      ensure_descriptor_fetch(thread);
      pump();
    });
  }
}

void Nic::pump() {
  // Completion-queue writes have priority for credits: they unblock
  // host processing and are tiny.
  while (!cq_pending_.empty() && pcie_.can_send_write(params_.cq_entry_bytes)) {
    const std::int32_t slot = cq_pending_.front();
    cq_pending_.pop_front();
    start_cq_write(slot);
  }

  for (;;) {
    if (sending_job_ < 0) {
      if (input_.empty()) return;
      Buffered& head = input_.front();
      const int thread = thread_of_flow_(head.pkt.flow);
      Queue& q = queues_[static_cast<std::size_t>(thread)];
      if (q.fetched == 0) {
        // Head-of-line: no descriptor on the NIC for this queue. The
        // shared buffer keeps filling behind us.
        ++stats_.hol_descriptor_stalls;
        ensure_descriptor_fetch(thread);
        return;
      }
      const bool use_ats = params_.ats_enabled && iommu_.enabled();
      if (use_ats && !ats_ready(head)) {
        // Device translation not cached: either still in flight from
        // the arrival-time prefetch, or evicted from the device TLB
        // while the packet queued -- re-request and resume when it
        // installs.
        ++stats_.ats_hol_waits;
        ats_prefetch(head.first_page);
        if (head.second_page != 0) ats_prefetch(head.second_page);
        return;
      }
      --q.fetched;
      ensure_descriptor_fetch(thread);

      std::int32_t slot = free_job_;
      if (slot >= 0) {
        free_job_ = dma(slot).next_free;
      } else {
        slot = static_cast<std::int32_t>(jobs_.size());
        // hicc-lint: allow(hot-vector-growth) -- free-listed slab: grows
        // to the jobs-in-flight high-water mark once, then recycles.
        jobs_.emplace_back();
      }
      DmaJob& job = dma(slot);
      job.first_page = head.first_page;
      job.second_page = head.second_page;
      job.pre_translated = use_ats;
      job.pkt = std::move(head.pkt);
      input_.pop_front();
      job.arrival = job.pkt.nic_arrival;
      job.thread = thread;
      const auto max_payload = pcie_.params().max_payload.count();
      job.tlps_total = static_cast<int>(
          (job.pkt.payload.count() + max_payload - 1) / max_payload);
      // One bus train per packet: its completion fires when the last
      // payload TLP is in memory, which with a credit pool smaller than
      // the packet's TLP stream can be long after admission.
      job.train = pcie_.open_train(job.tlps_total, [this, slot] { on_payload_retired(slot); });
      sending_job_ = slot;
    }

    DmaJob& job = dma(sending_job_);
    const auto max_payload = pcie_.params().max_payload;
    while (job.tlps_sent < job.tlps_total) {
      const Bytes remaining =
          job.pkt.payload - Bytes(static_cast<std::int64_t>(job.tlps_sent) * max_payload.count());
      const Bytes chunk = std::min(max_payload, remaining);
      if (!pcie_.can_send_write(chunk)) return;  // resume on credit release
      // First half of the TLPs go to the first page; for 4K leaves the
      // second half spills onto the next page.
      const bool second = job.second_page != 0 && job.tlps_sent >= job.tlps_total / 2;
      const iommu::Iova base = second ? job.second_page : job.first_page;
      const iommu::Iova iova =
          base + static_cast<iommu::Iova>(job.tlps_sent) * 256 % 4096;
      ++job.tlps_sent;
      pcie_.send_train_tlp(job.train, iova, chunk, job.pre_translated);
    }

    // All TLPs are on the PCIe pipe: the packet has left the input
    // SRAM; admit the next packet.
    buffer_used_ -= job.pkt.wire;
    sending_job_ = -1;
  }
}

void Nic::on_payload_retired(std::int32_t slot) {
  // Payload fully in memory: write the completion entry (credits
  // permitting; otherwise queue it with priority).
  if (pcie_.can_send_write(params_.cq_entry_bytes)) {
    start_cq_write(slot);
  } else {
    cq_pending_.push_back(slot);
  }
}

void Nic::start_cq_write(std::int32_t slot) {
  Queue& q = queues_[static_cast<std::size_t>(dma(slot).thread)];
  const iommu::Iova cq =
      control_page(q, params_.ring_pages, params_.cq_pages, q.cq_cursor++);
  ++stats_.cq_writes;
  pcie_.send_write_tlp(cq, params_.cq_entry_bytes, [this, slot] {
    DmaJob job = std::move(dma(slot));
    dma(slot) = DmaJob{};
    dma(slot).next_free = free_job_;
    free_job_ = slot;
    ++stats_.delivered;
    stats_.bytes_delivered += job.pkt.payload.count();
    if (params_.strict_invalidation) {
      // Strict mode: revoke the buffer's mapping now that the packet
      // is delivered. The invalidation command occupies the IOMMU's
      // walker/command pipeline, delaying translations behind it --
      // the §3.1 "even worse" cost of dynamic unmapping.
      iommu_.invalidate_page_async(job.first_page);
      dev_tlb_.invalidate(job.first_page);
      if (job.second_page != 0) {
        iommu_.invalidate_page_async(job.second_page);
        dev_tlb_.invalidate(job.second_page);
      }
    }
    if (cbs_.deliver) cbs_.deliver(job.thread, std::move(job.pkt), job.arrival);
  });
}

void Nic::send_packet(net::Packet p, int thread) {
  Queue& q = queues_[static_cast<std::size_t>(thread)];
  const iommu::Iova ack = control_page(
      q, params_.ring_pages + params_.cq_pages, params_.ack_pages, q.ack_cursor++);
  ++stats_.tx_packets;
  const Bytes fetch = p.wire;
  // Park the packet in the stash; slots recycle, so steady-state Tx
  // never allocates and completions may finish in any order.
  std::int32_t slot;
  if (!tx_free_.empty()) {
    slot = tx_free_.back();
    tx_free_.pop_back();
    tx_stash_[static_cast<std::size_t>(slot)] = std::move(p);
  } else {
    slot = static_cast<std::int32_t>(tx_stash_.size());
    // hicc-lint: allow(hot-vector-growth) -- free-listed stash: grows to
    // the Tx high-water mark once, then recycles slots forever.
    tx_stash_.push_back(std::move(p));
  }
  pcie_.send_read(ack, fetch, [this, slot] {
    net::Packet pkt = std::move(tx_stash_[static_cast<std::size_t>(slot)]);
    tx_free_.push_back(slot);  // hicc-lint: allow(hot-vector-growth) -- capacity == stash high-water mark
    if (cbs_.transmit) cbs_.transmit(std::move(pkt));
  });
}

}  // namespace hicc::nic
