// Tests of the benchmark itself: that driving a workload from outside
// measures the same program run() runs, that the traced run observes
// without changing the simulation, that the layer drivers model the
// workloads' own layers, and that the allocation hook counts every
// allocation form.
#include <gtest/gtest.h>

#include <new>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "drivers.h"
#include "harness.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kSeed = 1;

Outcome drive(Harness& h) {
  return h.drive([] {}, [] {});
}

/// The workload with a shorter warmup and window, for checks whose
/// property does not depend on run length.
Workload shortened(const std::string& name, std::uint64_t seed = kSeed) {
  Workload w = make_workload(name, seed);
  hicc::ExperimentConfig& h = w.is_cluster ? w.cluster.host : w.host;
  h.warmup = hicc::TimePs::from_ms(2);
  h.measure = hicc::TimePs::from_ms(3);
  return w;
}

class PerWorkload : public ::testing::TestWithParam<std::string> {};

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload, ::testing::ValuesIn(workload_names()),
                         [](const auto& param) { return param.param; });

TEST_P(PerWorkload, SlicedDrivingEqualsRunBitwise) {
  const Workload w = make_workload(GetParam(), kSeed);
  Harness sliced(w);
  const Outcome a = drive(sliced);
  Harness whole(w);
  const Outcome b = whole.run();
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.delivered(), b.delivered());
  EXPECT_GT(a.delivered(), 0);
}

TEST_P(PerWorkload, TracedRunChangesOnlyEventsExecuted) {
  const Workload w = shortened(GetParam());
  Harness plain(w);
  Harness traced(w, /*threads=*/0, /*traced=*/true);
  ASSERT_NE(traced.tracer(), nullptr);
  const Outcome a = drive(plain);
  const Outcome b = drive(traced);
  EXPECT_EQ(fingerprint(a), fingerprint(b));
  // Serial runs add the sampler's own events; partitioned runs sample
  // at window barriers and add none.
  EXPECT_GE(b.events_executed, a.events_executed);
  const LayerCounters ca = plain.counters();
  const LayerCounters cb = traced.counters();
  EXPECT_EQ(ca.nic_delivered, cb.nic_delivered);
  EXPECT_EQ(ca.pcie_write_tlps, cb.pcie_write_tlps);
  EXPECT_EQ(ca.iommu_misses, cb.iommu_misses);
  EXPECT_EQ(ca.iommu_walk_reads, cb.iommu_walk_reads);
  EXPECT_EQ(ca.mem_requests, cb.mem_requests);
  EXPECT_EQ(ca.windows, cb.windows);
  EXPECT_EQ(ca.messages, cb.messages);
}

TEST_P(PerWorkload, LedgersHoldAndSeedsDiffer) {
  Harness h(shortened(GetParam(), 1));
  std::int64_t active = 0;
  const Outcome a = h.drive([&] { active = h.active_flows(); }, [] {});
  EXPECT_TRUE(h.check_ledgers(a, active).empty());
  Harness other(shortened(GetParam(), 2));
  EXPECT_NE(fingerprint(a), fingerprint(drive(other)));
}

TEST(ClusterOpenloop, ThreadCountDoesNotChangeTheSimulation) {
  const Workload w = shortened("cluster_openloop");
  Harness one(w, 1);
  Harness two(w, 2);
  EXPECT_EQ(fingerprint(drive(one)), fingerprint(drive(two)));
}

TEST_P(PerWorkload, DriverBuildsTheWorkloadsLayerParams) {
  const Workload w = make_workload(GetParam(), kSeed);
  Harness h(w);
  const DriverSetup s = driver_setup(w);
  DriverHost d(s);
  const hicc::host::ReceiverParams& want = h.receiver(0).params();
  const hicc::host::ReceiverParams& got = d.host.receiver->params();
  EXPECT_EQ(got.threads, want.threads);
  EXPECT_EQ(got.data_region, want.data_region);
  EXPECT_EQ(got.hugepages, want.hugepages);
  EXPECT_EQ(got.iommu.enabled, want.iommu.enabled);
  EXPECT_EQ(got.iommu.iotlb_entries, want.iommu.iotlb_entries);
  EXPECT_EQ(got.iommu.walkers, want.iommu.walkers);
  EXPECT_EQ(got.pcie.credit_bytes, want.pcie.credit_bytes);
  EXPECT_EQ(got.pcie.max_payload, want.pcie.max_payload);
  EXPECT_EQ(got.nic.input_buffer, want.nic.input_buffer);
  EXPECT_EQ(got.ddio.enabled, want.ddio.enabled);
  EXPECT_EQ(got.read_size, want.read_size);
  EXPECT_EQ(got.open_loop, want.open_loop);
  EXPECT_EQ(got.open_loop_slots, want.open_loop_slots);
  EXPECT_EQ(got.copy_read_fraction, want.copy_read_fraction);
  EXPECT_EQ(d.host.receiver->num_flows(), h.receiver(0).num_flows());
  // The same mappings: the IOTLB working set the drivers translate.
  EXPECT_EQ(d.host.receiver->iommu().mapped_pages(), h.receiver(0).iommu().mapped_pages());
  EXPECT_EQ(d.host.receiver->iommu().page_table().region_count(),
            h.receiver(0).iommu().page_table().region_count());
  if (w.is_cluster) {
    const hicc::net::TopologyConfig& t = h.cluster()->fabric().config();
    EXPECT_EQ(s.topology.num_hosts(), t.num_hosts());
    EXPECT_EQ(s.topology.leaves, t.leaves);
    EXPECT_EQ(s.topology.spines, t.spines);
    EXPECT_EQ(s.receivers, h.cluster()->num_receivers());
    EXPECT_EQ(s.host.antagonist_cores, w.cluster.antagonist_profile.front());
    EXPECT_EQ(s.workload.max_active, w.cluster.workload.max_active);
  } else {
    EXPECT_EQ(d.host.antagonist->cores(), h.experiment()->antagonist().cores());
    EXPECT_EQ(d.host.mem->params().channels, h.experiment()->memory().params().channels);
    // A single host's fabric is the degenerate one-leaf Clos, which
    // reproduces it bitwise (tests/cluster_test.cpp ClusterParity).
    EXPECT_EQ(s.topology.num_hosts(), w.host.num_senders + 1);
    EXPECT_EQ(s.topology.host_link_rate.bps(), w.host.fabric.link_rate.bps());
  }
}

void* volatile g_kept = nullptr;

/// Publishes `p` so the compiler cannot elide the allocation.
template <typename T>
T* keep(T* p) {
  g_kept = p;
  return p;
}

TEST(AllocHook, CountsEveryAllocationForm) {
  struct alignas(64) Wide {
    char bytes[64];
  };
  const std::uint64_t before = allocation_count();
  delete keep(new int(1));
  delete[] keep(new int[4]);
  ::operator delete(keep(::operator new(16, std::nothrow)), std::nothrow);
  ::operator delete[](keep(::operator new[](16, std::nothrow)), std::nothrow);
  delete keep(new Wide);
  delete[] keep(new Wide[2]);
  ::operator delete(keep(::operator new(64, std::align_val_t{64}, std::nothrow)),
                    std::align_val_t{64}, std::nothrow);
  ::operator delete[](keep(::operator new[](64, std::align_val_t{64}, std::nothrow)),
                      std::align_val_t{64}, std::nothrow);
  ::operator delete(keep(::operator new(32)), std::size_t{32});
  EXPECT_EQ(allocation_count() - before, 9u);
}

}  // namespace
}  // namespace perfbench
