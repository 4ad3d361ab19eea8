// Tests for the IOMMU: LRU cache behaviour, page-table geometry,
// translation fast/slow paths, page-walk cost accounting, walker-pool
// limits, invalidation, and the working-set -> miss-rate property that
// drives Figures 3-5.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "iommu/iommu.h"
#include "iommu/lru_cache.h"
#include "iommu/page_table.h"
#include "mem/memory_system.h"
#include "sim/simulator.h"

namespace hicc::iommu {
namespace {

using namespace hicc::literals;

// ------------------------------------------------------------ LruCache

TEST(LruCache, HitAfterInsert) {
  LruCache<int> c(1, 4);
  c.insert(7);
  EXPECT_TRUE(c.lookup(7));
  EXPECT_FALSE(c.lookup(8));
}

TEST(LruCache, EvictsLeastRecentlyUsed) {
  LruCache<int> c(1, 2);
  c.insert(1);
  c.insert(2);
  EXPECT_TRUE(c.lookup(1));  // 2 becomes LRU
  EXPECT_TRUE(c.insert(3));  // evicts 2
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
  EXPECT_TRUE(c.contains(3));
}

TEST(LruCache, InsertExistingRefreshes) {
  LruCache<int> c(1, 2);
  c.insert(1);
  c.insert(2);
  EXPECT_FALSE(c.insert(1));  // refresh, no eviction
  c.insert(3);                // evicts 2 (LRU), not 1
  EXPECT_TRUE(c.contains(1));
  EXPECT_FALSE(c.contains(2));
}

TEST(LruCache, InvalidateRemoves) {
  LruCache<int> c(1, 4);
  c.insert(5);
  EXPECT_TRUE(c.invalidate(5));
  EXPECT_FALSE(c.invalidate(5));
  EXPECT_FALSE(c.contains(5));
}

TEST(LruCache, ClearEmptiesAll) {
  LruCache<int> c(2, 2);
  for (int i = 0; i < 4; ++i) c.insert(i);
  EXPECT_GT(c.size(), 0);
  c.clear();
  EXPECT_EQ(c.size(), 0);
}

TEST(LruCache, CapacityRespected) {
  LruCache<std::uint64_t> c(1, 128);
  for (std::uint64_t i = 0; i < 1000; ++i) c.insert(i);
  EXPECT_EQ(c.size(), 128);
  EXPECT_EQ(c.capacity(), 128);
}

TEST(LruCache, FullyAssociativeLruExactness) {
  // With capacity K and a cyclic access pattern over K+1 keys, LRU
  // misses every access (the classic LRU pathological case).
  LruCache<int> c(1, 4);
  int misses = 0;
  for (int i = 0; i < 50; ++i) {
    const int key = i % 5;
    if (!c.lookup(key)) {
      ++misses;
      c.insert(key);
    }
  }
  EXPECT_EQ(misses, 50);
}

/// Brute-force reference: per set, the resident keys with their last
/// use stamp; a full set evicts its smallest stamp.
class ReferenceLru {
 public:
  ReferenceLru(int sets, int ways) : ways_(static_cast<std::size_t>(ways)), sets_(sets) {}

  bool lookup(Iova key) {
    for (auto& e : set_of(key)) {
      if (e.first == key) {
        e.second = ++clock_;
        return true;
      }
    }
    return false;
  }
  bool contains(Iova key) {
    for (const auto& e : set_of(key)) {
      if (e.first == key) return true;
    }
    return false;
  }
  bool insert(Iova key) {
    if (lookup(key)) return false;
    auto& set = set_of(key);
    bool evicted = false;
    if (set.size() == ways_) {
      set.erase(std::min_element(set.begin(), set.end(),
                                 [](const auto& a, const auto& b) { return a.second < b.second; }));
      evicted = true;
    }
    set.emplace_back(key, ++clock_);
    return evicted;
  }
  bool invalidate(Iova key) {
    auto& set = set_of(key);
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->first == key) {
        set.erase(it);
        return true;
      }
    }
    return false;
  }
  void clear() {
    for (auto& set : sets_) set.clear();
  }
  /// The key inserting `key` would evict, if any.
  std::optional<Iova> victim_of(Iova key) {
    if (contains(key)) return std::nullopt;
    const auto& set = set_of(key);
    if (set.size() < ways_) return std::nullopt;
    return std::min_element(set.begin(), set.end(), [](const auto& a, const auto& b) {
             return a.second < b.second;
           })->first;
  }
  /// Every resident key.
  [[nodiscard]] std::vector<Iova> resident() const {
    std::vector<Iova> keys;
    for (const auto& set : sets_) {
      for (const auto& e : set) keys.push_back(e.first);
    }
    return keys;
  }
  [[nodiscard]] int size() const {
    std::size_t n = 0;
    for (const auto& set : sets_) n += set.size();
    return static_cast<int>(n);
  }

 private:
  std::vector<std::pair<Iova, std::uint64_t>>& set_of(Iova key) {
    return sets_[std::hash<Iova>{}(key) % sets_.size()];
  }
  std::size_t ways_;
  std::vector<std::vector<std::pair<Iova, std::uint64_t>>> sets_;
  std::uint64_t clock_ = 0;
};

/// The cache geometries the simulator builds: the IOTLB (1x128), the
/// page-walk caches (1x8 for L4/L3, 1x32 for L2), the ATS device TLB
/// (1x64), and a set-associative IOTLB variant (4x8).
struct Geometry {
  int sets;
  int ways;
};
constexpr Geometry kShippedGeometries[] = {{1, 128}, {1, 8}, {1, 32}, {1, 64}, {4, 8}};

/// A page-aligned key drawn from 4x the cache's capacity per page size
/// (8x overall), so most inserts into a full cache evict.
Iova random_key(Rng& rng, int capacity) {
  const auto index = 1 + rng.below(4 * static_cast<std::uint64_t>(capacity));
  return index * (rng.chance(0.5) ? 4096 : (2u << 20));
}

TEST(LruCache, MatchesBruteForceLruUnderRandomOps) {
  // Same hit, miss and eviction sequence as the reference for random
  // inserts, lookups, invalidations and clears over page-aligned keys
  // (the IOTLB's tags), for every shipped geometry.
  for (const auto [sets, ways] : kShippedGeometries) {
    LruCache<Iova> cache(sets, ways);
    ReferenceLru ref(sets, ways);
    Rng rng(static_cast<std::uint64_t>(sets * 1000 + ways) * 977);
    for (int step = 0; step < 20000; ++step) {
      SCOPED_TRACE(testing::Message() << sets << "x" << ways << " step " << step);
      const Iova key = random_key(rng, sets * ways);
      const std::uint64_t op = rng.below(100);
      if (op < 45) {
        ASSERT_EQ(cache.lookup(key), ref.lookup(key));
      } else if (op < 85) {
        ASSERT_EQ(cache.insert(key), ref.insert(key));
      } else if (op < 99) {
        ASSERT_EQ(cache.invalidate(key), ref.invalidate(key));
      } else {
        cache.clear();
        ref.clear();
      }
      ASSERT_EQ(cache.contains(key), ref.contains(key));
      ASSERT_EQ(cache.size(), ref.size());
    }
  }
}

TEST(LruCache, EvictionDropsExactlyTheReferenceVictim) {
  // After every evicting insert, the key the reference names as its
  // set's least recently used is gone, and every other key the
  // reference holds is still present.
  for (const auto [sets, ways] : kShippedGeometries) {
    LruCache<Iova> cache(sets, ways);
    ReferenceLru ref(sets, ways);
    Rng rng(static_cast<std::uint64_t>(sets * 1000 + ways) * 31);
    int evictions = 0;
    for (int step = 0; step < 5000; ++step) {
      SCOPED_TRACE(testing::Message() << sets << "x" << ways << " step " << step);
      const Iova key = random_key(rng, sets * ways);
      if (rng.chance(0.3)) {
        ASSERT_EQ(cache.lookup(key), ref.lookup(key));
        continue;
      }
      const std::optional<Iova> victim = ref.victim_of(key);
      const bool evicted = cache.insert(key);
      ASSERT_EQ(evicted, ref.insert(key));
      ASSERT_EQ(evicted, victim.has_value());
      if (!evicted) continue;
      ++evictions;
      ASSERT_FALSE(cache.contains(*victim));
      for (const Iova resident : ref.resident()) ASSERT_TRUE(cache.contains(resident));
    }
    EXPECT_GT(evictions, 2500);  // most inserts evict
  }
}

// --------------------------------------------------------- page table

TEST(PageTable, GeometryConstants) {
  EXPECT_EQ(page_bytes(PageSize::k4K).count(), 4096);
  EXPECT_EQ(page_bytes(PageSize::k2M).count(), 2 * 1024 * 1024);
  EXPECT_EQ(walk_levels(PageSize::k4K), 4);
  EXPECT_EQ(walk_levels(PageSize::k2M), 3);
  EXPECT_EQ(level_shift(1), 12);
  EXPECT_EQ(level_shift(2), 21);
  EXPECT_EQ(level_shift(4), 39);
}

TEST(PageTable, RegionPageCountRoundsUp) {
  IoPageTable t;
  const auto id = t.map_region(Bytes::mib(12), PageSize::k2M);
  EXPECT_EQ(t.region(id).num_pages(), 6);
  const auto id2 = t.map_region(Bytes(4097), PageSize::k4K);
  EXPECT_EQ(t.region(id2).num_pages(), 2);
}

TEST(PageTable, RegionsDoNotOverlapAndAreAligned) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(12), PageSize::k2M);
  const auto b = t.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& ra = t.region(a);
  const auto& rb = t.region(b);
  EXPECT_GE(rb.base, ra.base + static_cast<Iova>(ra.size.count()));
  EXPECT_EQ(ra.base % (2ull << 20), 0u);
  EXPECT_EQ(rb.base % (2ull << 20), 0u);
}

TEST(PageTable, FindLocatesContainingRegion) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(4), PageSize::k2M);
  const auto& ra = t.region(a);
  EXPECT_TRUE(t.find(ra.base).has_value());
  EXPECT_TRUE(t.find(ra.base + 12345).has_value());
  EXPECT_FALSE(t.find(ra.base + static_cast<Iova>(ra.size.count())).has_value());
  EXPECT_FALSE(t.find(0).has_value());
}

TEST(PageTable, TotalMappedPagesTracksMapUnmap) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(12), PageSize::k2M);  // 6 pages
  t.map_region(Bytes::mib(12), PageSize::k4K);                 // 3072 pages
  EXPECT_EQ(t.total_mapped_pages(), 6 + 3072);
  t.unmap_region(a);
  EXPECT_EQ(t.total_mapped_pages(), 3072);
}

TEST(PageTable, UnmapTouchesOnlyItsOwnMappedRegion) {
  IoPageTable t;
  // An empty region and its successor share one base.
  const auto empty = t.map_region(Bytes::mib(0), PageSize::k2M);
  const auto full = t.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova base = t.region(full).base;
  ASSERT_EQ(t.region(empty).base, base);
  t.unmap_region(empty);
  ASSERT_TRUE(t.find(base).has_value());
  EXPECT_EQ(t.find(base)->size, Bytes::mib(4));
  EXPECT_EQ(t.total_mapped_pages(), 2);
  EXPECT_EQ(t.unmap_count(), 0u);
  // A second unmap of one region changes nothing.
  t.unmap_region(full);
  t.unmap_region(full);
  EXPECT_EQ(t.total_mapped_pages(), 0);
  EXPECT_EQ(t.unmap_count(), 1u);
  EXPECT_FALSE(t.find(base).has_value());
}

TEST(PageTable, PageIovaAndPageBase) {
  IoPageTable t;
  const auto id = t.map_region(Bytes::mib(4), PageSize::k2M);
  const auto& r = t.region(id);
  EXPECT_EQ(r.page_iova(1), r.base + (2ull << 20));
  EXPECT_EQ(IoPageTable::page_base(r, r.base + (2ull << 20) + 77), r.base + (2ull << 20));
}

TEST(PageTable, FindFollowsAlternatingLookupsUnmapAndRemap) {
  IoPageTable t;
  const auto a = t.map_region(Bytes::mib(4), PageSize::k2M);
  const auto b = t.map_region(Bytes::kib(64), PageSize::k4K);
  const Region ra = t.region(a);
  const Region rb = t.region(b);
  for (int i = 0; i < 4; ++i) {
    const auto in_a = t.find(ra.base + 4096 * static_cast<Iova>(i));
    ASSERT_TRUE(in_a.has_value());
    EXPECT_EQ(in_a->base, ra.base);
    const auto in_b = t.find(rb.base + 4096 * static_cast<Iova>(i));
    ASSERT_TRUE(in_b.has_value());
    EXPECT_EQ(in_b->base, rb.base);
  }
  // b was the last region found; unmapping it must not leave it findable.
  t.unmap_region(b);
  EXPECT_FALSE(t.find(rb.base).has_value());
  EXPECT_FALSE(t.find(rb.base + 100).has_value());
  ASSERT_TRUE(t.find(ra.base).has_value());
  // A later mapping is found, and its predecessors stay as they were.
  const auto c = t.map_region(Bytes::mib(2), PageSize::k2M);
  const Region rc = t.region(c);
  const auto in_c = t.find(rc.base + 12345);
  ASSERT_TRUE(in_c.has_value());
  EXPECT_EQ(in_c->base, rc.base);
  EXPECT_FALSE(t.find(rb.base).has_value());
  EXPECT_EQ(t.find(ra.base + 1)->base, ra.base);
}

TEST(PageTable, PageBaseEqualsDivisionForm) {
  IoPageTable t;
  for (const PageSize ps : {PageSize::k4K, PageSize::k2M}) {
    const Region r = t.region(t.map_region(Bytes::mib(6), ps));
    const auto psz = static_cast<Iova>(page_bytes(ps).count());
    const Iova last = r.base + static_cast<Iova>(r.size.count()) - 1;
    for (const Iova a : {r.base, r.base + static_cast<Iova>(r.size.count()) / 2 + 77, last}) {
      EXPECT_EQ(IoPageTable::page_base(r, a), a / psz * psz) << a;
    }
  }
}

// --------------------------------------------------------------- IOMMU

struct Harness {
  sim::Simulator sim;
  mem::MemorySystem mem{sim, mem::DramParams{}, Rng(1)};
  IommuParams params{};
  Iommu iommu{sim, mem, params};
  explicit Harness(IommuParams p = IommuParams{}) : params(p), iommu(sim, mem, p) {}
};

TEST(Iommu, DisabledTranslatesInstantly) {
  IommuParams p;
  p.enabled = false;
  Harness h(p);
  const auto lat = h.iommu.try_translate(0xdeadbeef);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(*lat, TimePs(0));
  EXPECT_EQ(h.iommu.stats().lookups, 0);
}

TEST(Iommu, FirstAccessMissesThenHits) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;

  EXPECT_FALSE(h.iommu.try_translate(addr).has_value());  // cold miss
  bool done = false;
  h.iommu.translate_slow(addr, [&] { done = true; });
  h.sim.run_until(100_us);
  EXPECT_TRUE(done);
  EXPECT_EQ(h.iommu.stats().walks_completed, 1);

  const auto lat = h.iommu.try_translate(addr);  // now cached
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(*lat, h.params.hit_latency);
  EXPECT_EQ(h.iommu.stats().hits, 1);
  EXPECT_EQ(h.iommu.stats().misses, 1);
}

TEST(Iommu, WalkTakesHundredsOfNanoseconds) {
  IommuParams p;
  p.pt_cache_hit_fraction = 0.0;  // force every PTE read to DRAM
  Harness h(p);
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;
  ASSERT_FALSE(h.iommu.try_translate(addr).has_value());
  TimePs completed{};
  h.iommu.translate_slow(addr, [&] { completed = h.sim.now(); });
  h.sim.run_until(100_us);
  // Cold walk for a 2M leaf: 3 dependent reads at ~90ns idle latency.
  EXPECT_GT(completed.ns(), 200.0);
  EXPECT_LT(completed.ns(), 1000.0);
  EXPECT_EQ(h.iommu.stats().walk_memory_reads, 3);
}

TEST(Iommu, PwcReducesWalkCostForNeighboringPages) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& r = h.iommu.region(rid);
  // Walk page 0: reads L4+L3+L2 (3 reads). Walk page 1: L4/L3 now in
  // the PWC, so only the leaf L2 read remains.
  h.iommu.translate_slow(r.page_iova(0), nullptr);
  h.sim.run_until(10_us);
  const auto reads_before = h.iommu.stats().walk_memory_reads;
  EXPECT_EQ(reads_before, 3);
  ASSERT_FALSE(h.iommu.try_translate(r.page_iova(1)).has_value());
  h.iommu.translate_slow(r.page_iova(1), nullptr);
  h.sim.run_until(20_us);
  EXPECT_EQ(h.iommu.stats().walk_memory_reads - reads_before, 1);
}

TEST(Iommu, FourKWalkReadsMoreLevels) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k4K);
  const Iova addr = h.iommu.region(rid).base;
  ASSERT_FALSE(h.iommu.try_translate(addr).has_value());
  h.iommu.translate_slow(addr, nullptr);
  h.sim.run_until(10_us);
  EXPECT_EQ(h.iommu.stats().walk_memory_reads, 4);  // L4,L3,L2,L1
}

TEST(Iommu, WalkerPoolLimitsConcurrency) {
  IommuParams p;
  p.walkers = 1;
  p.pt_cache_hit_fraction = 0.0;
  Harness h(p);
  const auto rid = h.iommu.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& r = h.iommu.region(rid);
  std::vector<TimePs> done_times;
  for (int i = 0; i < 3; ++i) {
    ASSERT_FALSE(h.iommu.try_translate(r.page_iova(i)).has_value());
    h.iommu.translate_slow(r.page_iova(i), [&] { done_times.push_back(h.sim.now()); });
  }
  h.sim.run_until(100_us);
  ASSERT_EQ(done_times.size(), 3u);
  // Serialized: each completion strictly after the previous one by at
  // least one memory access (~80ns).
  EXPECT_GT((done_times[1] - done_times[0]).ns(), 60.0);
  EXPECT_GT((done_times[2] - done_times[1]).ns(), 60.0);
}

TEST(Iommu, UnmapInvalidatesEntries) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;
  h.iommu.translate_slow(addr, nullptr);
  h.sim.run_until(10_us);
  ASSERT_TRUE(h.iommu.try_translate(addr).has_value());
  h.iommu.unmap_region(rid);
  EXPECT_EQ(h.iommu.stats().invalidations, 1);
  // The address is no longer mapped: counted as a fault.
  (void)h.iommu.try_translate(addr);
  EXPECT_EQ(h.iommu.stats().faults, 1);
}

TEST(Iommu, WalkOverlappingUnmapInstallsNothing) {
  // A one-entry IOTLB holds page b. A walk for page a is in flight when
  // a's region is unmapped: it must complete without installing a, so
  // b stays resident.
  IommuParams p;
  p.iotlb_entries = 1;
  Harness h(p);
  const auto ra = h.iommu.map_region(Bytes::mib(4), PageSize::k4K);
  const auto rb = h.iommu.map_region(Bytes::mib(4), PageSize::k4K);
  const Iova a = h.iommu.region(ra).base;
  const Iova b = h.iommu.region(rb).base;
  h.iommu.translate_slow(b, nullptr);
  h.sim.run_until(10_us);
  ASSERT_TRUE(h.iommu.try_translate(b).has_value());

  ASSERT_FALSE(h.iommu.try_translate(a).has_value());
  bool done = false;
  h.iommu.translate_slow(a, [&] { done = true; });
  h.iommu.unmap_region(ra);
  h.sim.run_until(20_us);
  ASSERT_TRUE(done);
  EXPECT_TRUE(h.iommu.try_translate(b).has_value());
}

TEST(Iommu, FaultOnUnmappedAddress) {
  Harness h;
  const auto lat = h.iommu.try_translate(0x12345);
  ASSERT_TRUE(lat.has_value());
  EXPECT_EQ(h.iommu.stats().faults, 1);
}

TEST(Iommu, InvalidatePageRemovesCachedTranslation) {
  Harness h;
  const auto rid = h.iommu.map_region(Bytes::mib(4), PageSize::k2M);
  const Iova addr = h.iommu.region(rid).base;
  h.iommu.translate_slow(addr, nullptr);
  h.sim.run_until(10_us);
  ASSERT_TRUE(h.iommu.try_translate(addr).has_value());
  EXPECT_TRUE(h.iommu.invalidate_page(addr));
  EXPECT_FALSE(h.iommu.invalidate_page(addr));  // already gone
  EXPECT_FALSE(h.iommu.try_translate(addr).has_value());  // misses again
}

TEST(Iommu, AsyncInvalidationDelaysQueuedWalks) {
  IommuParams p;
  p.walkers = 1;
  p.pt_cache_hit_fraction = 0.0;
  Harness h(p);
  const auto rid = h.iommu.map_region(Bytes::mib(12), PageSize::k2M);
  const auto& r = h.iommu.region(rid);

  // Queue several invalidation commands, then a walk behind them.
  for (int i = 0; i < 4; ++i) h.iommu.invalidate_page_async(r.page_iova(0));
  TimePs walk_done{};
  ASSERT_FALSE(h.iommu.try_translate(r.page_iova(1)).has_value());
  h.iommu.translate_slow(r.page_iova(1), [&] { walk_done = h.sim.now(); });
  h.sim.run_until(100_us);
  // 4 x 250ns invalidation service before the walk even starts.
  EXPECT_GT(walk_done.ns(), 4 * 250.0);
}

// Property: with a working set of W pages accessed uniformly at random,
// the miss rate is ~0 for W <= IOTLB capacity and grows once W exceeds
// it -- the mechanism behind the knee at 8 threads in Figure 3.
TEST(Iommu, MissRateKneeAtIotlbCapacity) {
  auto miss_rate_for = [](int working_set_pages) {
    Harness h;
    const auto rid = h.iommu.map_region(
        Bytes(static_cast<std::int64_t>(working_set_pages) * 2 * 1024 * 1024), PageSize::k2M);
    const auto& r = h.iommu.region(rid);
    Rng rng(42);
    // Warm up.
    auto access = [&](int n) {
      std::int64_t misses0 = h.iommu.stats().misses;
      for (int i = 0; i < n; ++i) {
        const Iova a = r.page_iova(static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(working_set_pages))));
        if (!h.iommu.try_translate(a).has_value()) {
          bool ok = false;
          h.iommu.translate_slow(a, [&] { ok = true; });
          h.sim.run_until(h.sim.now() + 10_us);
          EXPECT_TRUE(ok);
        }
      }
      return static_cast<double>(h.iommu.stats().misses - misses0) / n;
    };
    (void)access(3000);        // warmup
    return access(3000);       // measure
  };

  EXPECT_LT(miss_rate_for(64), 0.01);    // fits in 128 entries
  EXPECT_LT(miss_rate_for(120), 0.01);   // still fits
  const double over = miss_rate_for(256);
  EXPECT_GT(over, 0.3);                  // 128/256 resident -> ~50% misses
  const double far_over = miss_rate_for(512);
  EXPECT_GT(far_over, over);             // grows with working set
}

}  // namespace
}  // namespace hicc::iommu
