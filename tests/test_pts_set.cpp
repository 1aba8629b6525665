// Tests for the sparse-bitmap points-to set (pta/pts_set.hpp): randomized
// agreement with a std::set_union reference, allocation-free no-op unions,
// block-boundary elements, and the size-only union charge.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <vector>

#include "pta/pts_set.hpp"

namespace morph::pta {
namespace {

std::vector<Var> random_sorted(std::mt19937_64& rng, std::uint32_t num_vars,
                               std::uint32_t max_len) {
  std::uniform_int_distribution<std::uint32_t> len(0, max_len);
  std::uniform_int_distribution<Var> id(0, num_vars - 1);
  std::vector<Var> out(len(rng));
  for (Var& v : out) v = id(rng);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<Var> elements(const PtsSet& s) {
  std::vector<Var> out;
  s.for_each([&](Var v) { out.push_back(v); });
  return out;
}

TEST(PtsSet, RandomUnionsMatchSetUnion) {
  std::mt19937_64 rng(20130223);
  for (const std::uint32_t num_vars : {1u, 7u, 300u, 6126u, 100000u}) {
    for (int trial = 0; trial < 400; ++trial) {
      // Mix dense and sparse operands, so that unions share some blocks
      // and add others.
      const std::uint32_t cap =
          (trial % 3 == 0) ? std::min(num_vars, 4000u) : 40;
      const std::vector<Var> a = random_sorted(rng, num_vars, cap);
      const std::vector<Var> b = random_sorted(rng, num_vars, cap);
      std::vector<Var> ref;
      std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                     std::back_inserter(ref));

      PtsSet dst(a);
      const PtsSet src(b);
      EXPECT_EQ(union_charge(dst, src), a.size() + b.size() + 1);
      std::uint64_t ops = 5;
      const bool grew = charged_union(dst, src, &ops);
      EXPECT_EQ(ops, 5 + a.size() + b.size() + 1);
      EXPECT_EQ(grew, ref.size() > a.size());
      EXPECT_EQ(dst.size(), ref.size());
      EXPECT_EQ(elements(dst), ref);  // ascending iteration
      EXPECT_EQ(dst.to_vector(), ref);
      EXPECT_EQ(src.to_vector(), b) << "src must be left untouched";
    }
  }
}

TEST(PtsSet, InsertMatchesSortedInsert) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<Var> id(0, 2999);
  PtsSet s;
  std::vector<Var> ref;
  for (int i = 0; i < 2000; ++i) {
    const Var v = id(rng);
    const auto it = std::lower_bound(ref.begin(), ref.end(), v);
    const bool fresh = it == ref.end() || *it != v;
    if (fresh) ref.insert(it, v);
    EXPECT_EQ(s.insert(v), fresh);
    EXPECT_EQ(s.size(), ref.size());
  }
  EXPECT_EQ(s.to_vector(), ref);
}

TEST(PtsSet, SubsetAndEmptyUnionsDoNotAllocate) {
  std::mt19937_64 rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Var> a = random_sorted(rng, 5000, 600);
    std::vector<Var> sub;
    std::copy_if(a.begin(), a.end(), std::back_inserter(sub),
                 [&](Var) { return rng() % 2 == 0; });
    PtsSet dst(a);
    const std::size_t cap = dst.block_capacity();
    const std::uint64_t charge = union_charge(dst, PtsSet(sub));
    EXPECT_FALSE(dst.union_with(PtsSet(sub)));
    EXPECT_FALSE(dst.union_with(PtsSet()));
    EXPECT_FALSE(dst.union_with(dst));
    EXPECT_EQ(dst.block_capacity(), cap);
    EXPECT_EQ(dst.to_vector(), a);
    EXPECT_EQ(charge, a.size() + sub.size() + 1)
        << "a no-op union is still charged by size";
  }
}

TEST(PtsSet, BlockBoundaryElements) {
  const std::uint32_t num_vars = 10 * PtsSet::kBlockBits + 3;
  std::vector<Var> edges = {0, num_vars - 1};
  for (std::uint32_t b = 1; b * PtsSet::kBlockBits < num_vars; ++b) {
    edges.push_back(b * PtsSet::kBlockBits - 1);
    edges.push_back(b * PtsSet::kBlockBits);
  }
  for (Var w = 63; w < PtsSet::kBlockBits; w += 64) {
    edges.push_back(w);
    edges.push_back(w + 1);
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Built in one go, by single inserts, and by unions of singletons in
  // descending order (every union prepends a block or a bit).
  PtsSet by_insert, by_union;
  for (auto it = edges.rbegin(); it != edges.rend(); ++it) {
    EXPECT_TRUE(by_insert.insert(*it));
    EXPECT_TRUE(by_union.union_with(PtsSet(std::vector<Var>{*it})));
  }
  const PtsSet built(edges);
  const PtsSet* const all[] = {&built, &by_insert, &by_union};
  for (const PtsSet* s : all) {
    EXPECT_EQ(s->size(), edges.size());
    EXPECT_EQ(elements(*s), edges);
  }
  // Re-adding any boundary element is a no-op.
  for (const Var v : edges) EXPECT_FALSE(by_insert.insert(v)) << v;
  EXPECT_FALSE(by_union.union_with(built));
  EXPECT_EQ(by_union.size(), edges.size());
}

TEST(PtsSet, CopyReusesCapacity) {
  // Phase B of the pull solver reuses one scratch set per block: assigning
  // a smaller set into it must keep its storage.
  std::vector<Var> big(900);
  for (Var i = 0; i < big.size(); ++i) big[i] = 7 * i;
  PtsSet scratch(big);
  const std::size_t cap = scratch.block_capacity();
  const PtsSet small(std::vector<Var>{3, 4000});
  scratch = small;
  EXPECT_EQ(scratch.to_vector(), small.to_vector());
  EXPECT_EQ(scratch.size(), 2u);
  EXPECT_EQ(scratch.block_capacity(), cap);
}

}  // namespace
}  // namespace morph::pta
