// Small set-associative LRU cache used for the IOTLB and the page-walk
// caches. Capacities are tiny (tens to hundreds of entries), so each
// set is an array and LRU is tracked with a global stamp. A fixed
// open-addressing index maps each cached key to its slot, so lookups,
// presence tests and invalidations cost O(1) instead of a set scan;
// only an insert that misses scans its set for the LRU victim.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace hicc::iommu {

/// Set-associative LRU cache of keys (no payload: the simulator only
/// needs presence, since the "translation" itself is synthesized).
/// `sets == 1` gives a fully-associative cache.
template <typename Key>
class LruCache {
 public:
  /// Creates a cache of `sets` x `ways` entries.
  LruCache(int sets, int ways)
      : sets_(sets),
        ways_(ways),
        slots_(static_cast<std::size_t>(sets) * static_cast<std::size_t>(ways)),
        // At most half full, so probe runs stay short.
        index_(std::bit_ceil(2 * slots_.size() + 1), kEmpty),
        index_shift_(64 - std::countr_zero(index_.size())) {}

  /// Total capacity in entries.
  [[nodiscard]] int capacity() const { return sets_ * ways_; }

  /// Looks up `key`, refreshing its LRU stamp on a hit.
  bool lookup(const Key& key) {
    const std::size_t pos = find(key);
    if (index_[pos] == kEmpty) return false;
    slots_[index_[pos]].stamp = ++clock_;
    return true;
  }

  /// Presence test without touching LRU state.
  [[nodiscard]] bool contains(const Key& key) const { return index_[find(key)] != kEmpty; }

  /// Inserts `key`, evicting the set's LRU entry if needed. Inserting
  /// a present key refreshes it. Returns true if an entry was evicted.
  bool insert(const Key& key) {
    const std::size_t pos = find(key);
    if (index_[pos] != kEmpty) {
      slots_[index_[pos]].stamp = ++clock_;
      return false;
    }
    // Victim: the set's last free slot, else its least recently used.
    auto [begin, end] = set_range(key);
    std::size_t victim = begin;
    for (std::size_t i = begin; i < end; ++i) {
      if (!slots_[i].valid) {
        victim = i;
      } else if (slots_[victim].valid && slots_[i].stamp < slots_[victim].stamp) {
        victim = i;
      }
    }
    const bool evicted = slots_[victim].valid;
    if (evicted) unindex(find(slots_[victim].key));
    slots_[victim] = Slot{key, ++clock_, true};
    // The eviction may have shifted `key`'s probe run: probe again.
    index_[find(key)] = static_cast<std::uint32_t>(victim);
    return evicted;
  }

  /// Removes `key` if present (IOTLB invalidation). Returns true if removed.
  bool invalidate(const Key& key) {
    const std::size_t pos = find(key);
    if (index_[pos] == kEmpty) return false;
    slots_[index_[pos]].valid = false;
    unindex(pos);
    return true;
  }

  /// Drops everything (global invalidation).
  void clear() {
    for (auto& s : slots_) s.valid = false;
    std::fill(index_.begin(), index_.end(), kEmpty);
  }

  /// Number of valid entries (for tests).
  [[nodiscard]] int size() const {
    int n = 0;
    for (const auto& s : slots_) n += s.valid ? 1 : 0;
    return n;
  }

 private:
  struct Slot {
    Key key{};
    std::uint64_t stamp = 0;
    bool valid = false;
  };

  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  [[nodiscard]] std::pair<std::size_t, std::size_t> set_range(const Key& key) const {
    const std::size_t set =
        sets_ == 1 ? 0 : std::hash<Key>{}(key) % static_cast<std::size_t>(sets_);
    const std::size_t begin = set * static_cast<std::size_t>(ways_);
    return {begin, begin + static_cast<std::size_t>(ways_)};
  }

  /// Home bucket of `key` in the index. Fibonacci hashing takes the
  /// product's top bits, because page-aligned keys have zero low bits.
  [[nodiscard]] std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(std::hash<Key>{}(key));
    return static_cast<std::size_t>((h * 0x9E3779B97F4A7C15ull) >> index_shift_);
  }

  /// Index position holding `key`, or the empty position ending its
  /// probe run (linear probing; the table is never full).
  [[nodiscard]] std::size_t find(const Key& key) const {
    const std::size_t mask = index_.size() - 1;
    std::size_t pos = home(key);
    while (index_[pos] != kEmpty && slots_[index_[pos]].key != key) pos = (pos + 1) & mask;
    return pos;
  }

  /// Empties index position `pos` and shifts later entries of the probe
  /// run back into the hole, so no tombstones are needed.
  void unindex(std::size_t pos) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask; index_[j] != kEmpty; j = (j + 1) & mask) {
      const std::size_t h = home(slots_[index_[j]].key);
      // The entry may move to the hole unless its home lies cyclically
      // in (hole, j].
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kEmpty;
  }

  int sets_;
  int ways_;
  std::uint64_t clock_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> index_;  // key's slot, or kEmpty
  int index_shift_;
};

}  // namespace hicc::iommu
