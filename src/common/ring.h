// Growth-only FIFO ring buffer for the per-packet and per-TLP queues.
//
// `std::deque` allocates and frees a block every few hundred elements
// as a FIFO slides through it, so a queue that never holds more than
// a few dozen entries still costs allocations in steady state. `Ring`
// keeps its elements in one power-of-two array that only ever grows
// (doubling, to the queue's high-water mark); push and pop are index
// arithmetic afterwards.
// hicc-lint: hotpath -- steady state must stay allocation-free (DESIGN.md §8).
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace hicc {

/// FIFO of default-constructible, move-assignable `T`. Elements are
/// addressed front-first: `(*this)[0]` is front(). A push may move
/// every element (growth); references are stable otherwise. The first
/// push allocates `MinCapacity` (a power of two) slots.
template <typename T, std::size_t MinCapacity = 16>
class Ring {
  static_assert(std::has_single_bit(MinCapacity), "Ring capacity must be a power of two");

 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return slots_[(head_ + i) & (slots_.size() - 1)];
  }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(v);
    ++size_;
  }

  /// Drops the front element; its slot is reset so captured resources
  /// are released now rather than when the slot is reused.
  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    // Unwrap so the elements start at index 0, then double in place.
    std::rotate(slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(head_),
                slots_.end());
    head_ = 0;
    slots_.resize(slots_.empty() ? MinCapacity : 2 * slots_.size());
  }

  std::vector<T> slots_;  // capacity == size(), a power of two (or 0)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace hicc
