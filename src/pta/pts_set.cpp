#include "pta/pts_set.hpp"

#include <algorithm>

namespace morph::pta {

namespace {

std::uint32_t block_of(Var v) {
  return static_cast<std::uint32_t>(v / PtsSet::kBlockBits);
}

std::uint64_t bit_of(Var v) { return std::uint64_t{1} << (v % 64); }

std::size_t word_of(Var v) { return (v % PtsSet::kBlockBits) / 64; }

}  // namespace

PtsSet::PtsSet(std::span<const Var> sorted) {
  for (const Var v : sorted) {
    if (blocks_.empty() || blocks_.back().index != block_of(v)) {
      blocks_.push_back({block_of(v), {}});
    }
    blocks_.back().words[word_of(v)] |= bit_of(v);
  }
  size_ = sorted.size();
}

bool PtsSet::insert(Var v) {
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), block_of(v),
      [](const Block& b, std::uint32_t idx) { return b.index < idx; });
  if (it == blocks_.end() || it->index != block_of(v)) {
    it = blocks_.insert(it, {block_of(v), {}});
  }
  std::uint64_t& w = it->words[word_of(v)];
  if (w & bit_of(v)) return false;
  w |= bit_of(v);
  ++size_;
  return true;
}

bool PtsSet::union_with(const PtsSet& src) {
  if (&src == this) return false;
  // Pass 1: OR src into the blocks both sets hold; count the ones only src
  // holds. A word that adds nothing (the common case) is never popcounted.
  std::uint64_t added = 0;
  std::size_t missing = 0;
  Block* d = blocks_.data();
  Block* const d_end = d + blocks_.size();
  for (const Block& s : src.blocks_) {
    while (d != d_end && d->index < s.index) ++d;
    if (d == d_end || d->index != s.index) {
      ++missing;
      continue;
    }
    for (std::size_t k = 0; k < kWords; ++k) {
      const std::uint64_t fresh = s.words[k] & ~d->words[k];
      if (fresh == 0) continue;
      added += static_cast<std::uint64_t>(std::popcount(fresh));
      d->words[k] |= fresh;
    }
  }
  // Pass 2: merge the missing blocks in from the back, so every block moves
  // at most once and no temporary is needed. Shared blocks are already
  // up to date; they just shift.
  if (missing > 0) {
    std::size_t i = blocks_.size();
    std::size_t j = src.blocks_.size();
    blocks_.resize(blocks_.size() + missing);
    std::size_t w = blocks_.size();
    while (j > 0) {
      const Block& s = src.blocks_[j - 1];
      if (i > 0 && blocks_[i - 1].index >= s.index) {
        if (blocks_[i - 1].index == s.index) --j;
        blocks_[--w] = blocks_[--i];
      } else {
        for (const std::uint64_t word : s.words) {
          added += static_cast<std::uint64_t>(std::popcount(word));
        }
        blocks_[--w] = s;
        --j;
      }
    }
  }
  if (added == 0) return false;
  size_ += added;
  return true;
}

std::vector<Var> PtsSet::to_vector() const {
  std::vector<Var> out;
  out.reserve(size_);
  for_each([&](Var v) { out.push_back(v); });
  return out;
}

std::vector<std::vector<Var>> to_vectors(const std::vector<PtsSet>& sets) {
  std::vector<std::vector<Var>> out(sets.size());
  for (std::size_t v = 0; v < sets.size(); ++v) out[v] = sets[v].to_vector();
  return out;
}

}  // namespace morph::pta
