// Heap-allocation counting for test and benchmark binaries.
//
// Linking the `hicc_alloc_hook` object library replaces every
// replaceable global operator new and operator delete -- plain, array,
// nothrow, aligned, sized, and their combinations -- with counting
// versions over malloc / aligned_alloc / free. Replacing the whole
// family matters: a form left to the runtime (e.g. the nothrow new that
// std::stable_sort's temporary buffer uses) would hand out blocks that
// the replaced delete then frees, which sanitizers report as an
// alloc-dealloc mismatch. The simulator libraries never link it.
#pragma once

#include <cstdint>

namespace hicc {

/// Allocations made through any global operator new since start.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace hicc
