// Small set-associative LRU cache used for the IOTLB, the page-walk
// caches and the ATS device TLB. Each set keeps its resident slots on
// an intrusive, circular doubly-linked recency list (most recent at
// the front, behind a per-set sentinel node) and its empty slots on a
// free list, so every operation is O(1): a hit moves its slot to the
// front (nothing to do when it is already there, the common case of a
// packet's TLPs hitting one page), and an insert that misses takes a
// free slot or else evicts the list's tail. A fixed open-addressing
// index maps each cached key to its slot.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
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
        slot_count_(static_cast<std::uint32_t>(sets) * static_cast<std::uint32_t>(ways)),
        // One sentinel node per set after the slots.
        slots_(slot_count_ + static_cast<std::uint32_t>(sets)),
        free_(static_cast<std::size_t>(sets)),
        // At most half full, so probe runs stay short.
        index_(std::bit_ceil(2 * std::size_t{slot_count_} + 1), kNone),
        index_shift_(64 - std::countr_zero(index_.size())) {
    clear();
  }

  /// Total capacity in entries.
  [[nodiscard]] int capacity() const { return sets_ * ways_; }

  /// Looks up `key`, making it its set's most recently used on a hit.
  bool lookup(const Key& key) {
    const std::uint32_t slot = index_[find(key)];
    if (slot == kNone) return false;
    touch(slot, key);
    return true;
  }

  /// Presence test without touching LRU state.
  [[nodiscard]] bool contains(const Key& key) const { return index_[find(key)] != kNone; }

  /// Inserts `key`, evicting the set's LRU entry if needed. Inserting
  /// a present key refreshes it. Returns true if an entry was evicted.
  bool insert(const Key& key) {
    const std::size_t pos = find(key);
    if (index_[pos] != kNone) {
      touch(index_[pos], key);
      return false;
    }
    const std::uint32_t set = set_of(key);
    const std::uint32_t sentinel = slot_count_ + set;
    std::uint32_t victim = free_[set];
    const bool evicted = victim == kNone;
    if (evicted) {
      victim = slots_[sentinel].prev;  // the least recently used
      unlink(victim);
      unindex(find(slots_[victim].key));
    } else {
      free_[set] = slots_[victim].next;
    }
    slots_[victim].key = key;
    link_front(sentinel, victim);
    // The eviction may have shifted `key`'s probe run: probe again.
    index_[find(key)] = victim;
    return evicted;
  }

  /// Removes `key` if present (IOTLB invalidation). Returns true if removed.
  bool invalidate(const Key& key) {
    const std::size_t pos = find(key);
    const std::uint32_t slot = index_[pos];
    if (slot == kNone) return false;
    unlink(slot);
    const std::uint32_t set = set_of(key);
    slots_[slot].next = free_[set];
    free_[set] = slot;
    unindex(pos);
    return true;
  }

  /// Drops everything (global invalidation).
  void clear() {
    const auto ways = static_cast<std::uint32_t>(ways_);
    for (std::uint32_t set = 0; set < static_cast<std::uint32_t>(sets_); ++set) {
      const std::uint32_t sentinel = slot_count_ + set;
      slots_[sentinel].prev = slots_[sentinel].next = sentinel;
      free_[set] = kNone;
      for (std::uint32_t w = ways; w-- > 0;) {
        slots_[set * ways + w].next = free_[set];
        free_[set] = set * ways + w;
      }
    }
    std::fill(index_.begin(), index_.end(), kNone);
  }

  /// Number of valid entries (for tests).
  [[nodiscard]] int size() const {
    int n = 0;
    for (std::uint32_t s = slot_count_; s < slots_.size(); ++s) {
      for (std::uint32_t i = slots_[s].next; i != s; i = slots_[i].next) ++n;
    }
    return n;
  }

 private:
  /// A cache slot, or (past slot_count_) a set's list sentinel, whose
  /// `next` is the set's most and `prev` its least recently used slot.
  /// A free slot's `next` chains its set's free list.
  struct Slot {
    Key key{};
    std::uint32_t prev = 0;
    std::uint32_t next = 0;
  };

  /// No slot: an empty index position, or the end of a free list.
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  [[nodiscard]] std::uint32_t set_of(const Key& key) const {
    return sets_ == 1 ? 0
                      : static_cast<std::uint32_t>(std::hash<Key>{}(key) %
                                                   static_cast<std::size_t>(sets_));
  }

  /// Makes resident `slot` (holding `key`) its set's most recently used.
  void touch(std::uint32_t slot, const Key& key) {
    // Only the front slot's predecessor is a sentinel.
    if (slots_[slot].prev >= slot_count_) return;
    unlink(slot);
    link_front(slot_count_ + set_of(key), slot);
  }

  void unlink(std::uint32_t slot) {
    const Slot& s = slots_[slot];
    slots_[s.prev].next = s.next;
    slots_[s.next].prev = s.prev;
  }

  void link_front(std::uint32_t sentinel, std::uint32_t slot) {
    const std::uint32_t first = slots_[sentinel].next;
    slots_[slot].prev = sentinel;
    slots_[slot].next = first;
    slots_[first].prev = slot;
    slots_[sentinel].next = slot;
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
    while (index_[pos] != kNone && slots_[index_[pos]].key != key) pos = (pos + 1) & mask;
    return pos;
  }

  /// Empties index position `pos` and shifts later entries of the probe
  /// run back into the hole, so no tombstones are needed.
  void unindex(std::size_t pos) {
    const std::size_t mask = index_.size() - 1;
    std::size_t hole = pos;
    for (std::size_t j = (pos + 1) & mask; index_[j] != kNone; j = (j + 1) & mask) {
      const std::size_t h = home(slots_[index_[j]].key);
      // The entry may move to the hole unless its home lies cyclically
      // in (hole, j].
      if (((j - h) & mask) >= ((j - hole) & mask)) {
        index_[hole] = index_[j];
        hole = j;
      }
    }
    index_[hole] = kNone;
  }

  int sets_;
  int ways_;
  std::uint32_t slot_count_;
  std::vector<Slot> slots_;           // sets_ x ways_ slots, then sets_ sentinels
  std::vector<std::uint32_t> free_;   // per set: first free slot, or kNone
  std::vector<std::uint32_t> index_;  // key's slot, or kNone
  int index_shift_;
};

}  // namespace hicc::iommu
