// IO virtual address space layout and 4-level page-table geometry.
//
// The IOMMU's second-level page table is a 4-level radix tree with
// 9 bits per level (x86/VT-d geometry): a 4K translation reads entries
// at levels L4->L3->L2->L1; a 2M ("hugepage") translation terminates at
// L2. Regions registered by the network stack ("loose mode": mapped
// once at startup, never invalidated at runtime -- §3.1's setup) are
// carved out of the IOVA space by a bump allocator.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.h"

namespace hicc::iommu {

/// An IO virtual address as seen by the NIC in Rx descriptors.
using Iova = std::uint64_t;

/// Leaf page size of a mapping.
enum class PageSize : std::uint8_t {
  k4K,  // standard 4KiB pages
  k2M,  // hugepages
};

inline constexpr Bytes page_bytes(PageSize ps) {
  return ps == PageSize::k4K ? Bytes(4096) : Bytes(2 * 1024 * 1024);
}

/// Number of page-table levels that must be read to translate a leaf
/// of the given size, assuming nothing is cached (L4,L3,L2[,L1]).
inline constexpr int walk_levels(PageSize ps) { return ps == PageSize::k4K ? 4 : 3; }

/// Bit position of the low edge of each level's index field.
/// Level 1 = PT (4K leaves), 2 = PD (2M leaves), 3 = PDPT, 4 = PML4.
inline constexpr int level_shift(int level) { return 12 + 9 * (level - 1); }

/// The IOVA prefix that selects a single entry at `level` (i.e. the
/// address truncated to that level's coverage). Two addresses with the
/// same prefix share the page-table entry at that level.
inline constexpr Iova level_prefix(Iova iova, int level) {
  return iova >> level_shift(level);
}

/// A registered DMA-able memory region.
struct Region {
  Iova base = 0;
  Bytes size{};
  PageSize page_size = PageSize::k2M;

  [[nodiscard]] constexpr std::int64_t num_pages() const {
    const auto psz = page_bytes(page_size).count();
    return (size.count() + psz - 1) / psz;
  }
  /// IOVA of the n-th page of the region.
  [[nodiscard]] constexpr Iova page_iova(std::int64_t n) const {
    return base + static_cast<Iova>(n * page_bytes(page_size).count());
  }
  [[nodiscard]] constexpr bool contains(Iova a) const {
    return a >= base && a < base + static_cast<Iova>(size.count());
  }
};

/// Handle to a registered region.
struct RegionId {
  std::int32_t index = -1;
  [[nodiscard]] constexpr bool valid() const { return index >= 0; }
};

/// The IO page table: tracks registered regions and answers geometry
/// queries (which region an IOVA belongs to, page base, walk depth).
/// It does not store actual PTE contents -- the simulator needs only
/// the structure that determines translation cost.
class IoPageTable {
 public:
  /// Registers a region of `size`, mapped with `page_size` leaves.
  /// Returns its id; base addresses are assigned by a bump allocator
  /// aligned to the leaf size.
  RegionId map_region(Bytes size, PageSize page_size) {
    const auto align = static_cast<Iova>(page_bytes(page_size).count());
    next_base_ = (next_base_ + align - 1) / align * align;
    Region r{next_base_, size, page_size};
    next_base_ += static_cast<Iova>(r.num_pages() * page_bytes(page_size).count());
    // hicc-lint: allow(hot-vector-growth) -- region registration is
    // setup-time (loose mode pins once); never on the datapath.
    regions_.push_back(r);
    const Mapped m{r.base, static_cast<std::int32_t>(regions_.size()) - 1};
    const auto at = std::lower_bound(by_base_.begin(), by_base_.end(), m);
    if (at != by_base_.end() && at->base == m.base) {
      *at = m;  // an empty region shares its successor's base: the later one wins
    } else {
      by_base_.insert(at, m);
    }
    total_mapped_pages_ += r.num_pages();
    last_found_ = kNoRegion;
    return RegionId{static_cast<std::int32_t>(regions_.size()) - 1};
  }

  /// Removes a region's mapping (strict-mode experiments). The region
  /// slot stays allocated; subsequent find() no longer returns it.
  /// Unmapping a region that is not mapped (already unmapped, or an
  /// empty region whose base a later region took over) does nothing.
  void unmap_region(RegionId id) {
    const auto& r = regions_.at(static_cast<std::size_t>(id.index));
    const auto at = std::lower_bound(by_base_.begin(), by_base_.end(), Mapped{r.base, 0});
    if (at == by_base_.end() || at->base != r.base || at->region != id.index) return;
    by_base_.erase(at);
    total_mapped_pages_ -= r.num_pages();
    last_found_ = kNoRegion;
    ++unmap_count_;
  }

  [[nodiscard]] const Region& region(RegionId id) const {
    return regions_.at(static_cast<std::size_t>(id.index));
  }

  /// Finds the mapped region containing `iova`, if any. The last region
  /// found is remembered, so a run of lookups in one region (a packet's
  /// TLPs, a walk's start and end) skips the binary search.
  [[nodiscard]] std::optional<Region> find(Iova iova) const {
    if (last_found_ != kNoRegion) {
      const Region& r = regions_[static_cast<std::size_t>(last_found_)];
      if (r.contains(iova)) return r;
    }
    auto it = std::upper_bound(by_base_.begin(), by_base_.end(), iova,
                               [](Iova a, const Mapped& m) { return a < m.base; });
    if (it == by_base_.begin()) return std::nullopt;
    --it;
    const Region& r = regions_[static_cast<std::size_t>(it->region)];
    if (!r.contains(iova)) return std::nullopt;
    last_found_ = it->region;
    return r;
  }

  /// IOVA rounded down to its page base (the IOTLB tag), given the
  /// owning region's page size (a power of two).
  [[nodiscard]] static Iova page_base(const Region& r, Iova iova) {
    return iova & ~(static_cast<Iova>(page_bytes(r.page_size).count()) - 1);
  }

  /// Number of unmap_region() calls so far: a translation resolved
  /// before the count last moved may name a region that is gone.
  [[nodiscard]] std::uint32_t unmap_count() const { return unmap_count_; }

  /// Total leaf pages currently mapped (the IOTLB working-set bound).
  [[nodiscard]] std::int64_t total_mapped_pages() const { return total_mapped_pages_; }

  [[nodiscard]] std::size_t region_count() const { return regions_.size(); }

 private:
  // IOVA 0 is left unmapped so a zero address is always a fault.
  Iova next_base_ = 1ull << 21;
  std::vector<Region> regions_;
  /// A mapped region's base and index, kept sorted by base so find()
  /// is a binary search.
  struct Mapped {
    Iova base = 0;
    std::int32_t region = 0;
    bool operator<(const Mapped& o) const { return base < o.base; }
  };
  std::vector<Mapped> by_base_;
  std::int64_t total_mapped_pages_ = 0;
  static constexpr std::int32_t kNoRegion = -1;
  /// Index of the region find() last returned (a memo: map and unmap
  /// reset it, so it always names a mapped region).
  mutable std::int32_t last_found_ = kNoRegion;
  std::uint32_t unmap_count_ = 0;
};

}  // namespace hicc::iommu
