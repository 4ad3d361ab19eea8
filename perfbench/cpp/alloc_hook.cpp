#include "alloc_hook.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocs{0};

// One allocation routine for every form: malloc for the default
// alignment, aligned_alloc above it. Both are released by std::free, so
// any delete form may free any new form's block.
void* allocate(std::size_t n, std::size_t align) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

// Throwing forms follow [new.delete.single]: retry through the
// new-handler until it gives up, then throw.
void* allocate_or_throw(std::size_t n, std::size_t align) {
  for (;;) {
    if (void* p = allocate(n, align)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

constexpr std::size_t kDefault = alignof(std::max_align_t);

}  // namespace

namespace perfbench {
std::uint64_t allocation_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace perfbench

void* operator new(std::size_t n) { return allocate_or_throw(n, kDefault); }
void* operator new[](std::size_t n) { return allocate_or_throw(n, kDefault); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return allocate(n, kDefault); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a));
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
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
