// Allocation counting for the benchmark binary.
//
// alloc_hook.cpp replaces every replaceable global operator new and
// operator delete (plain, array, nothrow, aligned, sized, and their
// combinations), so no allocation escapes the count and every block is
// freed by the family that allocated it.
#pragma once

#include <cstdint>

namespace perfbench {

/// Heap allocations made through any global operator new since start.
[[nodiscard]] std::uint64_t allocation_count();

}  // namespace perfbench
