// Modeled-cost charges for host-side bookkeeping a real device would run as
// small element-wise kernels (the incremental MST and PTA engines' seed,
// gather, merge and commit steps).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "gpu/device.hpp"

namespace morph::gpu {

/// Charges one work unit, `reads` global accesses and `atomics` atomic ops
/// per element over `n` elements, on 256-thread blocks (one per 256
/// elements, at most 64). Per-thread charges are a pure function of tid and
/// n, so stats are bit-identical for any host worker count.
inline void charge(Device& dev, std::size_t n, const char* label,
                   std::uint64_t reads, std::uint64_t atomics) {
  if (n == 0) return;
  const auto blocks =
      static_cast<std::uint32_t>(std::min<std::size_t>(64, n / 256 + 1));
  dev.launch({std::max(1u, blocks), 256, label}, [&](ThreadCtx& ctx) {
    for (std::size_t i = ctx.tid(); i < n; i += ctx.grid_threads()) {
      ctx.work(1);
      ctx.global_access(reads);
      if (atomics != 0) ctx.atomic_op(atomics);
    }
  });
}

}  // namespace morph::gpu
