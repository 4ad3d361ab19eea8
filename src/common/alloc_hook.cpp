#include "common/alloc_hook.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

// Constant-initialized, so it is valid before any static-init allocation.
std::atomic<std::uint64_t> g_allocs{0};

constexpr std::size_t kDefaultAlign = alignof(std::max_align_t);

// Every form allocates here; std::free releases both kinds of block, so
// any delete form may free any new form's block.
void* counted(std::size_t n, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= kDefaultAlign) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

// The throwing forms retry through the new-handler, then throw
// ([new.delete.single]).
void* counted_or_throw(std::size_t n, std::size_t align) {
  for (;;) {
    if (void* p = counted(n, align)) return p;
    const std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

std::size_t align_of(std::align_val_t a) { return static_cast<std::size_t>(a); }

}  // namespace

namespace hicc {
std::uint64_t allocation_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace hicc

void* operator new(std::size_t n) { return counted_or_throw(n, kDefaultAlign); }
void* operator new[](std::size_t n) { return counted_or_throw(n, kDefaultAlign); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, kDefaultAlign);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted(n, kDefaultAlign);
}
void* operator new(std::size_t n, std::align_val_t a) { return counted_or_throw(n, align_of(a)); }
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted(n, align_of(a));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
