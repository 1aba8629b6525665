// Points-to sets as sparse bitmaps, shared by every PTA solver.
//
// A set is a sorted array of blocks, each a block index plus kWords 64-bit
// words covering kBlockBits consecutive variable ids — the sparse bit vector
// of the LonestarGPU PTA lineage (Méndez-Lojo, Burtscher & Pingali, PPoPP
// 2012). Only blocks holding at least one element are stored, so memory is
// proportional to the set (about 1-2 bytes per element on the SPEC-2000
// sets, against 4 for a sorted id vector), never to the variable count.
//
// Union is in place: shared blocks are OR-ed word by word and the element
// count is updated by popcounting src & ~dst; blocks only src has are merged
// in from the back. Nothing allocates unless a block is added.
//
// The modeled cost of a union is union_charge(), a function of the two set
// sizes only (DESIGN.md §6.1): swapping the representation can never move
// a modeled metric.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pta/constraints.hpp"

namespace morph::pta {

class PtsSet {
 public:
  static constexpr std::size_t kWords = 4;
  static constexpr std::size_t kBlockBits = 64 * kWords;

  PtsSet() = default;
  /// Builds the set from ids in strictly ascending order.
  explicit PtsSet(std::span<const Var> sorted);

  std::size_t size() const { return size_; }

  /// Adds v; returns true if it was absent.
  bool insert(Var v);

  /// *this |= src. Returns true if the set grew. Allocates only when src
  /// holds a block *this lacks and the block storage is full.
  bool union_with(const PtsSet& src);

  /// Calls f(v) for every element, in ascending order.
  template <typename F>
  void for_each(F&& f) const {
    for (const Block& b : blocks_) {
      for (std::size_t k = 0; k < kWords; ++k) {
        for (std::uint64_t w = b.words[k]; w != 0; w &= w - 1) {
          f(static_cast<Var>(b.index * kBlockBits + k * 64 +
                             static_cast<unsigned>(std::countr_zero(w))));
        }
      }
    }
  }

  /// The elements as a sorted id vector (the PtsSets API form).
  std::vector<Var> to_vector() const;

  /// Capacity of the block storage, in blocks (lets tests observe that a
  /// union which adds nothing does not allocate).
  std::size_t block_capacity() const { return blocks_.capacity(); }

 private:
  struct Block {
    std::uint32_t index;  ///< covers ids [index*kBlockBits, +kBlockBits)
    std::array<std::uint64_t, kWords> words;
  };

  std::vector<Block> blocks_;  ///< ascending index, no empty blocks
  std::size_t size_ = 0;
};

/// The API form of a solution (pta::PtsSets): one sorted id vector per set.
std::vector<std::vector<Var>> to_vectors(const std::vector<PtsSet>& sets);

/// Modeled cost of dst.union_with(src), taken before the union: one pass
/// over both sorted operands plus the call — the charge of the GPU kernel's
/// merge, whatever the host representation.
inline std::uint64_t union_charge(const PtsSet& dst, const PtsSet& src) {
  return dst.size() + src.size() + 1;
}

/// dst |= src, adding union_charge(dst, src) to *ops. Returns true if dst
/// grew.
inline bool charged_union(PtsSet& dst, const PtsSet& src,
                          std::uint64_t* ops) {
  *ops += union_charge(dst, src);
  return dst.union_with(src);
}

}  // namespace morph::pta
