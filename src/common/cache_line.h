#ifndef REDY_COMMON_CACHE_LINE_H_
#define REDY_COMMON_CACHE_LINE_H_

#include <cstddef>

namespace redy {

/// Cache-line size the layouts assume when they keep data written by
/// different threads apart (x86-64 and most ARM64 cores). A constant,
/// not std::hardware_destructive_interference_size: GCC warns on that
/// one (-Winterference-size) because its value can change between
/// compiler versions and flags.
inline constexpr size_t kCacheLineBytes = 64;

}  // namespace redy

#endif  // REDY_COMMON_CACHE_LINE_H_
