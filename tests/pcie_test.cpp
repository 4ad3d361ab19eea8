// Tests for the PCIe link + root complex: rate math, credit flow
// control and conservation, ordered-pipeline translation stalls, write
// buffer backpressure under memory contention, the read path, and the
// lazily applied link-arrival and retirement bookkeeping.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "iommu/iommu.h"
#include "mem/memory_system.h"
#include "mem/stream_antagonist.h"
#include "pcie/pcie_bus.h"
#include "sim/simulator.h"

namespace hicc::pcie {
namespace {

using namespace hicc::literals;

TEST(PcieParams, RawAndEffectiveRates) {
  const PcieParams p;
  EXPECT_NEAR(p.raw_rate().gbps(), 128.0, 1e-9);
  // Paper: ~110 Gbps achievable goodput for PCIe 3.0 x16 with 256B TLPs.
  EXPECT_NEAR(p.effective_goodput().gbps(), 110.0, 2.0);
}

TEST(PcieParams, WireBytes) {
  const PcieParams p;
  EXPECT_EQ(p.tlp_wire_bytes(256_B).count(), 286);
}

struct Harness {
  explicit Harness(bool iommu_on = false, int antagonist_cores = 0) {
    iommu::IommuParams ip;
    ip.enabled = iommu_on;
    iommu.emplace(sim, mem, ip);
    bus.emplace(sim, mem, *iommu, PcieParams{});
    if (antagonist_cores > 0) {
      ant.emplace(mem, mem::AntagonistParams{}, antagonist_cores);
    }
  }
  sim::Simulator sim;
  mem::MemorySystem mem{sim, mem::DramParams{}, Rng(7)};
  std::optional<iommu::Iommu> iommu;
  std::optional<PcieBus> bus;
  std::optional<mem::StreamAntagonist> ant;
};

TEST(PcieBus, SingleWriteRetiresWithPlausibleLatency) {
  Harness h;
  TimePs retired{};
  h.bus->send_write_tlp(0, 256_B, [&] { retired = h.sim.now(); });
  h.sim.run_until(10_us);
  // Serialization (~21ns) + link latency (50ns) + proc (3ns) + memory
  // write (~93ns): roughly 150-250ns.
  EXPECT_GT(retired.ns(), 100.0);
  EXPECT_LT(retired.ns(), 400.0);
  EXPECT_EQ(h.bus->stats().write_tlps, 1);
  EXPECT_EQ(h.bus->stats().bytes_written, 256);
}

TEST(PcieBus, CreditsConservedAfterDrain) {
  Harness h;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(h.bus->can_send_write(256_B));
    h.bus->send_write_tlp(0, 256_B, nullptr);
  }
  EXPECT_LT(h.bus->credits_free(), PcieParams{}.credit_bytes);
  h.sim.run_until(100_us);
  EXPECT_EQ(h.bus->credits_free(), PcieParams{}.credit_bytes);
  EXPECT_EQ(h.bus->write_buffer_used().count(), 0);
  EXPECT_EQ(h.bus->rc_queue_depth(), 0u);
}

TEST(PcieBus, CanSendGoesFalseWhenCreditsExhausted) {
  Harness h;
  int sent = 0;
  while (h.bus->can_send_write(256_B) && sent < 1000) {
    h.bus->send_write_tlp(0, 256_B, nullptr);
    ++sent;
  }
  // 16KB credits / 286B wire per TLP = 57 TLPs.
  EXPECT_EQ(sent, 57);
  EXPECT_FALSE(h.bus->can_send_write(256_B));
  h.sim.run_until(1_ms);
  EXPECT_TRUE(h.bus->can_send_write(256_B));
}

/// Drives the bus as fast as credits allow for `duration`; returns
/// achieved payload goodput in Gbps. Uses `page_stride` distinct 2M
/// pages round-robin when the harness IOMMU is enabled.
double run_saturated(Harness& h, TimePs duration, int pages = 1) {
  iommu::RegionId rid{};
  if (h.iommu->enabled()) {
    rid = h.iommu->map_region(Bytes::mib(2.0 * pages), iommu::PageSize::k2M);
  } else {
    rid = h.iommu->map_region(Bytes::mib(2.0 * pages), iommu::PageSize::k2M);
  }
  const auto& region = h.iommu->region(rid);
  std::int64_t page = 0;
  std::int64_t retired_bytes = 0;
  auto pump = [&] {
    while (h.bus->can_send_write(256_B)) {
      const iommu::Iova iova = region.page_iova(page % pages);
      ++page;
      h.bus->send_write_tlp(iova, 256_B, [&] { retired_bytes += 256; });
    }
  };
  h.bus->on_credits_available(pump);
  pump();
  h.sim.run_until(h.sim.now() + duration);
  // Exclude warmup: measure second half.
  const std::int64_t first_half = retired_bytes;
  retired_bytes = 0;
  h.sim.run_until(h.sim.now() + duration);
  (void)first_half;
  return static_cast<double>(retired_bytes) * 8.0 / duration.sec() * 1e-9;
}

TEST(PcieBus, SaturatedGoodputNearEffectiveRate) {
  Harness h(/*iommu_on=*/false);
  const double gbps = run_saturated(h, 200_us);
  EXPECT_GT(gbps, 100.0);
  EXPECT_LE(gbps, 112.0);
}

TEST(PcieBus, IommuOnWithSmallWorkingSetStillFast) {
  Harness h(/*iommu_on=*/true);
  const double gbps = run_saturated(h, 200_us, /*pages=*/4);
  EXPECT_GT(gbps, 98.0);  // IOTLB hits: only a few ns per TLP
}

TEST(PcieBus, IotlbThrashingReducesGoodput) {
  Harness hit(/*iommu_on=*/true);
  Harness miss(/*iommu_on=*/true);
  const double fast = run_saturated(hit, 200_us, /*pages=*/4);
  // 512 pages round-robin through a 128-entry IOTLB: every page access
  // misses, each miss stalls the ordered pipeline for a walk.
  const double slow = run_saturated(miss, 200_us, /*pages=*/512);
  EXPECT_LT(slow, fast * 0.85);
  EXPECT_GT(miss.bus->stats().translation_stalls, 0);
}

TEST(PcieBus, MemoryAntagonismReducesGoodput) {
  Harness calm(/*iommu_on=*/false, /*antagonist_cores=*/0);
  Harness noisy(/*iommu_on=*/false, /*antagonist_cores=*/15);
  noisy.sim.run_until(100_us);  // let the antagonist ramp
  const double calm_gbps = run_saturated(calm, 200_us);
  const double noisy_gbps = run_saturated(noisy, 200_us);
  EXPECT_LT(noisy_gbps, calm_gbps * 0.92);
  EXPECT_GT(noisy.bus->stats().write_buffer_stalls, 0);
}

TEST(PcieBus, ReadCompletes) {
  Harness h;
  TimePs done{};
  h.bus->send_read(0, 64_B, [&] { done = h.sim.now(); });
  h.sim.run_until(10_us);
  // Request serialization + 2x link latency + memory read.
  EXPECT_GT(done.ns(), 150.0);
  EXPECT_LT(done.ns(), 500.0);
  EXPECT_EQ(h.bus->stats().read_tlps, 1);
  EXPECT_EQ(h.bus->stats().bytes_read, 64);
}

TEST(PcieBus, ReadsDoNotConsumePostedCredits) {
  Harness h;
  for (int i = 0; i < 100; ++i) h.bus->send_read(0, 64_B, nullptr);
  EXPECT_EQ(h.bus->credits_free(), PcieParams{}.credit_bytes);
}

TEST(PcieBus, ReadBehindWriteIsOrdered) {
  // A read queued behind a posted write must not complete before the
  // write has at least been translated & committed (PCIe ordering).
  Harness h;
  std::vector<int> order;
  h.bus->send_write_tlp(0, 256_B, [&] { order.push_back(0); });
  h.bus->send_read(0, 64_B, [&] { order.push_back(1); });
  h.sim.run_until(10_us);
  ASSERT_EQ(order.size(), 2u);
  // Both completed; the write was processed first by the RC pipeline.
  // (Retirement order can vary with memory jitter, but the read's
  // completion includes the upstream hop, so the write retires first
  // in practice with equal payload sizes.)
  EXPECT_EQ(h.bus->stats().write_tlps, 1);
}

TEST(PcieBus, DdioHitsSkipMemoryBus) {
  // With a tiny IO working set every DMA write is absorbed by the LLC:
  // retirement is fast and the memory bus sees no NIC traffic.
  sim::Simulator sim;
  mem::MemorySystem memsys(sim, mem::DramParams{}, Rng(7));
  iommu::IommuParams ip;
  ip.enabled = false;
  iommu::Iommu mmu(sim, memsys, ip);
  mem::DdioModel ddio(mem::DdioParams{}, Rng(9));
  ddio.set_io_working_set(Bytes::mib(1));  // fits the IO ways
  PcieBus bus(sim, memsys, mmu, PcieParams{}, &ddio);

  memsys.begin_window();
  for (int i = 0; i < 50; ++i) bus.send_write_tlp(0, 256_B, nullptr);
  sim.run_until(1_ms);
  EXPECT_EQ(bus.stats().ddio_write_hits, 50);
  const auto rep = memsys.window_report();
  EXPECT_NEAR(rep.by_class_gbytes_per_sec[static_cast<int>(mem::MemClass::kNicDma)],
              0.0, 1e-9);
}

TEST(PcieBus, DdioLeaksWithLargeWorkingSet) {
  sim::Simulator sim;
  mem::MemorySystem memsys(sim, mem::DramParams{}, Rng(7));
  iommu::IommuParams ip;
  ip.enabled = false;
  iommu::Iommu mmu(sim, memsys, ip);
  mem::DdioModel ddio(mem::DdioParams{}, Rng(9));
  ddio.set_io_working_set(Bytes::mib(144));  // the paper's scale
  PcieBus bus(sim, memsys, mmu, PcieParams{}, &ddio);

  for (int i = 0; i < 200; ++i) {
    while (!bus.can_send_write(256_B)) sim.run_one();
    bus.send_write_tlp(0, 256_B, nullptr);
  }
  sim.run_until(1_ms);
  // Nearly everything goes to DRAM (hit fraction ~4%).
  EXPECT_LT(bus.stats().ddio_write_hits, 30);
}

TEST(PcieBus, PreTranslatedTlpSkipsIommu) {
  Harness h(/*iommu_on=*/true);
  const auto rid = h.iommu->map_region(Bytes::mib(4), iommu::PageSize::k2M);
  const iommu::Iova addr = h.iommu->region(rid).base;
  TimePs done{};
  h.bus->send_write_tlp(addr, 256_B, [&] { done = h.sim.now(); },
                        /*pre_translated=*/true);
  h.sim.run_until(100_us);
  // No IOMMU lookup happened at all, and no walk stalled the pipe.
  EXPECT_EQ(h.iommu->stats().lookups, 0);
  EXPECT_EQ(h.bus->stats().translation_stalls, 0);
  EXPECT_GT(done.ns(), 0.0);
  EXPECT_LT(done.ns(), 400.0);
}

TEST(PcieBus, WalkStallBlocksSubsequentTlps) {
  Harness h(/*iommu_on=*/true);
  const auto rid = h.iommu->map_region(Bytes::mib(4), iommu::PageSize::k2M);
  const auto& r = h.iommu->region(rid);
  TimePs first{}, second{};
  h.bus->send_write_tlp(r.page_iova(0), 256_B, [&] { first = h.sim.now(); });
  h.bus->send_write_tlp(r.page_iova(0), 256_B, [&] { second = h.sim.now(); });
  h.sim.run_until(100_us);
  // First TLP walks (3 memory reads ~300ns); the second hits the IOTLB
  // entry installed by the walk.
  EXPECT_GT(first.ns(), 350.0);
  EXPECT_GE(second, first - TimePs::from_ns(50));
  EXPECT_EQ(h.iommu->stats().misses, 1);
  EXPECT_GE(h.iommu->stats().hits, 1);
}

TEST(PcieBus, RcQueueDepthExcludesTlpsOnTheLink) {
  // The first TLP misses the IOTLB and walks, so the ones behind it
  // queue at the root complex -- each counted only once it arrived.
  Harness h(/*iommu_on=*/true);
  const auto rid = h.iommu->map_region(Bytes::mib(4), iommu::PageSize::k2M);
  const iommu::Iova addr = h.iommu->region(rid).base;
  const PcieParams p;
  const TimePs ser = p.link_rate().time_to_send(p.tlp_wire_bytes(256_B));
  for (int i = 0; i < 3; ++i) h.bus->send_write_tlp(addr, 256_B, nullptr);
  EXPECT_EQ(h.bus->rc_queue_depth(), 0u);
  for (int i = 0; i < 3; ++i) {
    const TimePs arrival = ser * (i + 1) + p.link_latency;
    h.sim.run_until(arrival - TimePs(1));
    EXPECT_EQ(h.bus->rc_queue_depth(), static_cast<std::size_t>(i)) << "before TLP " << i;
    h.sim.run_until(arrival);
    EXPECT_EQ(h.bus->rc_queue_depth(), static_cast<std::size_t>(i + 1)) << "at TLP " << i;
  }
  ASSERT_EQ(h.bus->stats().translation_stalls, 1);
  h.sim.run_until(100_us);
  EXPECT_EQ(h.bus->rc_queue_depth(), 0u);
}

/// A bus with the IOMMU off and DDIO absorbing every write at a fixed
/// LLC latency, so retirement times follow from commit times.
struct DdioHarness {
  explicit DdioHarness(PcieParams params, TimePs llc_latency, Bytes working_set) {
    iommu::IommuParams ip;
    ip.enabled = false;
    iommu.emplace(sim, mem, ip);
    mem::DdioParams dp;
    dp.llc_write_latency = llc_latency;
    ddio.emplace(dp, Rng(9));
    ddio->set_io_working_set(working_set);
    bus.emplace(sim, mem, *iommu, params, &*ddio);
  }
  sim::Simulator sim;
  mem::MemorySystem mem{sim, mem::DramParams{}, Rng(7)};
  std::optional<iommu::Iommu> iommu;
  std::optional<mem::DdioModel> ddio;
  std::optional<PcieBus> bus;
};

TEST(PcieBus, StalledHeadResumesAtFirstRetireThatFreesRoom) {
  // Room for 300 bytes: a 32-byte write and a 256-byte write commit,
  // the next 256-byte head stalls. The small write retires first but
  // frees too little; the head commits exactly when the big one retires.
  PcieParams p;
  p.write_buffer_bytes = Bytes(300);
  const TimePs llc = TimePs::from_ns(500);
  DdioHarness h(p, llc, Bytes::mib(1));
  std::vector<TimePs> commits;  // credit returns happen at commit
  h.bus->on_credits_available([&] { commits.push_back(h.sim.now()); });
  h.bus->send_write_tlp(0, 32_B, nullptr);
  h.bus->send_write_tlp(0, 256_B, nullptr);
  TimePs head_retired{};
  h.bus->send_write_tlp(0, 256_B, [&] { head_retired = h.sim.now(); });
  h.sim.run_until(100_us);
  ASSERT_EQ(commits.size(), 3u);
  EXPECT_EQ(h.bus->stats().write_buffer_stalls, 1);
  EXPECT_LT(commits[0] + llc, commits[2]);  // the small retire did not resume it
  EXPECT_EQ(commits[2], commits[1] + llc);  // the big one did
  EXPECT_EQ(head_retired, commits[2] + llc);
  EXPECT_EQ(h.bus->write_buffer_used().count(), 0);
}

TEST(PcieBus, StalledHeadResumesAtTheEarliestRetire) {
  // Room for two writes: the third stalls, and the first retirement to
  // come -- not the last committed one -- lets it in.
  PcieParams p;
  p.write_buffer_bytes = Bytes(512);
  const TimePs llc = TimePs::from_ns(500);
  DdioHarness h(p, llc, Bytes::mib(1));
  std::vector<TimePs> commits;
  h.bus->on_credits_available([&] { commits.push_back(h.sim.now()); });
  for (int i = 0; i < 3; ++i) h.bus->send_write_tlp(0, 256_B, nullptr);
  h.sim.run_until(100_us);
  ASSERT_EQ(commits.size(), 3u);
  EXPECT_EQ(h.bus->stats().write_buffer_stalls, 1);
  EXPECT_EQ(commits[2], commits[0] + llc);
}

TEST(PcieBus, CompletionRunsBeforeTheStalledHeadItFrees) {
  // The retirement that frees room is also a train's completion: as
  // with one event per retirement, the callback runs first and the
  // stalled head commits after it, in the same event.
  PcieParams p;
  p.write_buffer_bytes = Bytes(512);
  const TimePs llc = TimePs::from_ns(500);
  DdioHarness h(p, llc, Bytes::mib(1));
  std::vector<char> order;
  std::vector<TimePs> commits;
  h.bus->on_credits_available([&] {
    order.push_back('c');
    commits.push_back(h.sim.now());
  });
  h.bus->send_write_tlp(0, 256_B, [&] { order.push_back('r'); });
  h.bus->send_write_tlp(0, 256_B, nullptr);
  h.bus->send_write_tlp(0, 256_B, nullptr);
  h.sim.run_until(100_us);
  EXPECT_EQ(order, (std::vector<char>{'c', 'c', 'r', 'c'}));
  ASSERT_EQ(commits.size(), 3u);
  EXPECT_EQ(commits[2], commits[0] + llc);
}

TEST(PcieBus, TrainCompletesAtItsLatestRetire) {
  // DDIO hits retire at a slow LLC latency, DRAM writes much sooner, so
  // a train's TLPs retire out of order. Its completion fires once, at
  // the latest retirement -- when the last of its per-TLP twins on an
  // identical bus reports.
  const TimePs llc = TimePs::from_ns(1000);
  const Bytes half_hits = Bytes::mib(11.2);
  constexpr int kTlps = 16;
  DdioHarness train(PcieParams{}, llc, half_hits);
  DdioHarness single(PcieParams{}, llc, half_hits);
  int completions = 0;
  TimePs completed{};
  const auto id = train.bus->open_train(kTlps, [&] {
    ++completions;
    completed = train.sim.now();
  });
  std::vector<TimePs> retired(kTlps);
  for (int i = 0; i < kTlps; ++i) {
    train.bus->send_train_tlp(id, 0, 256_B);
    single.bus->send_write_tlp(0, 256_B, [&retired, &single, i] { retired[i] = single.sim.now(); });
  }
  train.sim.run_until(100_us);
  single.sim.run_until(100_us);
  ASSERT_FALSE(std::is_sorted(retired.begin(), retired.end()));  // out of order
  ASSERT_GT(train.bus->stats().ddio_write_hits, 0);
  ASSERT_LT(train.bus->stats().ddio_write_hits, kTlps);
  EXPECT_EQ(completions, 1);
  EXPECT_EQ(completed, *std::max_element(retired.begin(), retired.end()));
  EXPECT_EQ(train.bus->stats().ddio_write_hits, single.bus->stats().ddio_write_hits);
}

}  // namespace
}  // namespace hicc::pcie
