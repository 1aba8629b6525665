// 64-bit FNV-1a over the little-endian bytes of 64-bit words: the state
// digests of the incremental engines (mst::state_digest, pta::state_digest)
// that the session replies carry and the crash campaigns compare.
#pragma once

#include <cstdint>

namespace morph {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;

/// Folds the eight bytes of `v` into `h`, least significant first.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

}  // namespace morph
