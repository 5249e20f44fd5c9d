#include "common/value_map.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "common/ids.h"
#include "common/rng.h"

namespace nf {
namespace {

using Map = ValueMap<ItemId, std::uint64_t>;

TEST(ValueMapTest, StartsEmpty) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.total(), 0u);
  EXPECT_EQ(m.value_of(ItemId(1)), 0u);
  EXPECT_FALSE(m.contains(ItemId(1)));
}

TEST(ValueMapTest, AddInsertsAndAccumulates) {
  Map m;
  m.add(ItemId(5), 3);
  m.add(ItemId(2), 1);
  m.add(ItemId(5), 4);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.value_of(ItemId(5)), 7u);
  EXPECT_EQ(m.value_of(ItemId(2)), 1u);
  EXPECT_EQ(m.total(), 8u);
}

TEST(ValueMapTest, IterationIsSortedById) {
  Map m;
  m.add(ItemId(30), 1);
  m.add(ItemId(10), 1);
  m.add(ItemId(20), 1);
  std::vector<std::uint64_t> ids;
  for (const auto& [id, v] : m) ids.push_back(id.value());
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{10, 20, 30}));
}

TEST(ValueMapTest, FromUnsortedDeduplicates) {
  const Map m = Map::from_unsorted({{ItemId(3), 1},
                                    {ItemId(1), 2},
                                    {ItemId(3), 5},
                                    {ItemId(2), 1},
                                    {ItemId(1), 1}});
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.value_of(ItemId(1)), 3u);
  EXPECT_EQ(m.value_of(ItemId(2)), 1u);
  EXPECT_EQ(m.value_of(ItemId(3)), 6u);
}

TEST(ValueMapTest, MergeAddCombines) {
  Map a = Map::from_unsorted({{ItemId(1), 1}, {ItemId(3), 3}});
  const Map b = Map::from_unsorted({{ItemId(2), 2}, {ItemId(3), 7}});
  a.merge_add(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.value_of(ItemId(1)), 1u);
  EXPECT_EQ(a.value_of(ItemId(2)), 2u);
  EXPECT_EQ(a.value_of(ItemId(3)), 10u);
}

TEST(ValueMapTest, MergeWithEmptyIsIdentity) {
  Map a = Map::from_unsorted({{ItemId(1), 1}});
  const Map copy = a;
  a.merge_add(Map{});
  EXPECT_EQ(a, copy);
  Map empty;
  empty.merge_add(copy);
  EXPECT_EQ(empty, copy);
}

TEST(ValueMapTest, RetainFiltersEntries) {
  Map m = Map::from_unsorted(
      {{ItemId(1), 10}, {ItemId(2), 5}, {ItemId(3), 20}});
  m.retain([](ItemId, std::uint64_t v) { return v >= 10; });
  EXPECT_EQ(m.size(), 2u);
  EXPECT_TRUE(m.contains(ItemId(1)));
  EXPECT_FALSE(m.contains(ItemId(2)));
  EXPECT_TRUE(m.contains(ItemId(3)));
}

TEST(ValueMapTest, ClearEmpties) {
  Map m = Map::from_unsorted({{ItemId(1), 1}});
  m.clear();
  EXPECT_TRUE(m.empty());
}

TEST(ValueMapTest, EqualityIsStructural) {
  const Map a = Map::from_unsorted({{ItemId(1), 1}, {ItemId(2), 2}});
  Map b;
  b.add(ItemId(2), 2);
  b.add(ItemId(1), 1);
  EXPECT_EQ(a, b);
  b.add(ItemId(1), 1);
  EXPECT_NE(a, b);
}

// Property test: a random sequence of add/merge operations matches a
// std::map reference model.
class ValueMapPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ValueMapPropertyTest, AgreesWithReferenceModel) {
  Rng rng(GetParam());
  Map subject;
  std::map<std::uint64_t, std::uint64_t> model;
  for (int op = 0; op < 2000; ++op) {
    const std::uint64_t id = rng.below(64);  // small space forces collisions
    const std::uint64_t v = rng.between(1, 10);
    if (rng.chance(0.8)) {
      subject.add(ItemId(id), v);
      model[id] += v;
    } else {
      // Merge a small random batch.
      std::vector<std::pair<ItemId, std::uint64_t>> batch;
      for (int i = 0; i < 5; ++i) {
        const std::uint64_t bid = rng.below(64);
        batch.emplace_back(ItemId(bid), v);
        model[bid] += v;
      }
      subject.merge_add(Map::from_unsorted(std::move(batch)));
    }
  }
  ASSERT_EQ(subject.size(), model.size());
  for (const auto& [id, v] : model) {
    EXPECT_EQ(subject.value_of(ItemId(id)), v);
  }
  std::uint64_t model_total = 0;
  for (const auto& [id, v] : model) model_total += v;
  EXPECT_EQ(subject.total(), model_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueMapPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(ValueMapTest, MergeAddIsCommutativeOnRandomInputs) {
  Rng rng(77);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<std::pair<ItemId, std::uint64_t>> pa;
    std::vector<std::pair<ItemId, std::uint64_t>> pb;
    for (int i = 0; i < 50; ++i) {
      pa.emplace_back(ItemId(rng.below(40)), rng.between(1, 9));
      pb.emplace_back(ItemId(rng.below(40)), rng.between(1, 9));
    }
    Map a1 = Map::from_unsorted(pa);
    const Map b1 = Map::from_unsorted(pb);
    Map b2 = Map::from_unsorted(pb);
    const Map a2 = Map::from_unsorted(pa);
    a1.merge_add(b1);
    b2.merge_add(a2);
    EXPECT_EQ(a1, b2);
  }
}

// merge_add runs a front and a back merge chain that meet somewhere in the
// output. The checks below compare it with a std::map reference: every id of
// either input once, in ascending order, with `a + b` for ids in both and the
// lone value otherwise.
std::vector<std::pair<std::uint64_t, std::uint64_t>> reference_merge(
    const Map& a, const Map& b) {
  std::map<std::uint64_t, std::uint64_t> ref;
  for (const auto& [id, v] : a) ref.emplace(id.value(), v);
  for (const auto& [id, v] : b) {
    const auto [it, inserted] = ref.emplace(id.value(), v);
    if (!inserted) it->second = it->second + v;
  }
  return {ref.begin(), ref.end()};
}

/// Merges `b` into a copy of `a` and returns whether the result matches the
/// reference exactly (ids, order and values).
::testing::AssertionResult MergeMatchesReference(const Map& a, const Map& b) {
  Map merged = a;
  merged.merge_add(b);
  const auto ref = reference_merge(a, b);
  if (merged.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << "size " << merged.size() << ", expected " << ref.size()
           << " (|a| = " << a.size() << ", |b| = " << b.size() << ")";
  }
  std::size_t i = 0;
  for (const auto& [id, v] : merged) {
    if (id.value() != ref[i].first || v != ref[i].second) {
      return ::testing::AssertionFailure()
             << "entry " << i << " is (" << id.value() << ", " << v
             << "), expected (" << ref[i].first << ", " << ref[i].second
             << ") (|a| = " << a.size() << ", |b| = " << b.size() << ")";
    }
    ++i;
  }
  return ::testing::AssertionSuccess();
}

/// The map holding the ids of `mask`'s set bits, with values from `value`.
template <typename F>
Map map_of_mask(unsigned mask, F value) {
  Map m;
  for (std::uint64_t id = 0; id < 8; ++id) {
    if ((mask >> id) & 1u) m.add(ItemId(id), value(id));
  }
  return m;
}

// Every pair of id sets of at most 6 ids from a universe of 8: all
// interleavings, duplicates and meeting points of the two chains.
TEST(ValueMapMergeTest, ExhaustiveSmallInputsMatchReference) {
  std::vector<unsigned> masks;
  for (unsigned mask = 0; mask < 256; ++mask) {
    if (std::popcount(mask) <= 6) masks.push_back(mask);
  }
  for (const unsigned ma : masks) {
    const auto a = map_of_mask(ma, [](std::uint64_t id) { return id + 1; });
    for (const unsigned mb : masks) {
      const auto b =
          map_of_mask(mb, [](std::uint64_t id) { return 100 * (id + 1); });
      ASSERT_TRUE(MergeMatchesReference(a, b))
          << "a mask " << ma << ", b mask " << mb;
    }
  }
}

// Large random inputs at size ratios from 1:1 to 1:1000, ids over the whole
// 64-bit space (0 and UINT64_MAX included) with a share of shared ids.
TEST(ValueMapMergeTest, RandomLargeInputsAtSkewedRatiosMatchReference) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(2024);
  for (const std::size_t ratio : {1u, 2u, 3u, 8u, 50u, 1000u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t big = 20000;
      const std::size_t small = big / ratio;
      std::vector<std::pair<ItemId, std::uint64_t>> pa;
      std::vector<std::pair<ItemId, std::uint64_t>> pb;
      std::vector<std::uint64_t> shared;
      for (std::size_t i = 0; i < big; ++i) {
        const std::uint64_t id = rng();
        pa.emplace_back(ItemId(id), rng.between(1, 1000));
        if (rng.chance(0.3)) shared.push_back(id);
      }
      for (std::size_t i = 0; i < small; ++i) {
        const std::uint64_t id = !shared.empty() && rng.chance(0.5)
                                     ? shared[rng.below(shared.size())]
                                     : rng();
        pb.emplace_back(ItemId(id), rng.between(1, 1000));
      }
      // The extreme ids: in both inputs, in one, or in neither.
      if (trial & 1) pa.emplace_back(ItemId(0), 7);
      if (trial & 2) pa.emplace_back(ItemId(kMax), 9);
      if (trial != 1) pb.emplace_back(ItemId(0), 11);
      if (trial != 2) pb.emplace_back(ItemId(kMax), 13);
      const Map a = Map::from_unsorted(pa);
      const Map b = Map::from_unsorted(pb);
      ASSERT_TRUE(MergeMatchesReference(a, b)) << "ratio 1:" << ratio;
      ASSERT_TRUE(MergeMatchesReference(b, a)) << "ratio " << ratio << ":1";
    }
  }
}

TEST(ValueMapMergeTest, SelfMergeDoublesEveryValue) {
  Map m = Map::from_unsorted({{ItemId(0), 1}, {ItemId(5), 2}, {ItemId(9), 3}});
  m.merge_add(m);
  EXPECT_EQ(m, Map::from_unsorted(
                   {{ItemId(0), 2}, {ItemId(5), 4}, {ItemId(9), 6}}));
}

// merged(a, b) is merge_add's kernel with both inputs left untouched.
TEST(ValueMapMergedTest, EmptyDisjointInterleavedAndEqualIds) {
  const Map empty;
  const Map low = Map::from_unsorted({{ItemId(1), 1}, {ItemId(2), 2}});
  const Map high = Map::from_unsorted({{ItemId(7), 7}, {ItemId(9), 9}});
  const Map odd =
      Map::from_unsorted({{ItemId(1), 10}, {ItemId(3), 30}, {ItemId(5), 50}});
  const Map even = Map::from_unsorted({{ItemId(2), 20}, {ItemId(4), 40}});

  EXPECT_EQ(Map::merged(empty, empty), empty);
  EXPECT_EQ(Map::merged(low, empty), low);
  EXPECT_EQ(Map::merged(empty, low), low);
  EXPECT_EQ(Map::merged(low, high),
            Map::from_unsorted({{ItemId(1), 1}, {ItemId(2), 2},
                                {ItemId(7), 7}, {ItemId(9), 9}}));
  EXPECT_EQ(Map::merged(high, low), Map::merged(low, high));
  EXPECT_EQ(Map::merged(odd, even),
            Map::from_unsorted({{ItemId(1), 10}, {ItemId(2), 20},
                                {ItemId(3), 30}, {ItemId(4), 40},
                                {ItemId(5), 50}}));
  EXPECT_EQ(Map::merged(odd, odd),
            Map::from_unsorted(
                {{ItemId(1), 20}, {ItemId(3), 60}, {ItemId(5), 100}}));
  EXPECT_EQ(Map::merged(low, odd),
            Map::from_unsorted({{ItemId(1), 11}, {ItemId(2), 2},
                                {ItemId(3), 30}, {ItemId(5), 50}}));
}

TEST(ValueMapMergedTest, ExtremeIdsSum) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const Map a = Map::from_unsorted({{ItemId(0), 1}, {ItemId(kMax), 2}});
  const Map b =
      Map::from_unsorted({{ItemId(kMax - 1), 3}, {ItemId(kMax), 4}});
  const Map m = Map::merged(a, b);
  EXPECT_EQ(m, Map::from_unsorted({{ItemId(0), 1},
                                   {ItemId(kMax - 1), 3},
                                   {ItemId(kMax), 6}}));
  EXPECT_EQ(Map::merged(b, a), m);
}

/// `count` ascending ids starting at `first`, `step` apart, valued `v`.
Map run_of(std::uint64_t first, std::uint64_t step, std::size_t count,
           std::uint64_t v) {
  Map m;
  for (std::size_t i = 0; i < count; ++i) m.add(ItemId(first + step * i), v);
  return m;
}

// Sizes 0-17 on either side cover the empty inputs, the scalar tail alone
// and the first few batches of the two-chain loop.
TEST(ValueMapMergedTest, SmallSizesOnEitherSideMatchReference) {
  for (std::size_t n = 0; n <= 17; ++n) {
    for (std::size_t m = 0; m <= 17; ++m) {
      // Step 2 against step 3 from 0: some ids shared, some interleaved.
      const Map a = run_of(0, 2, n, 1);
      const Map b = run_of(0, 3, m, 100);
      const Map copy_a = a;
      const Map copy_b = b;
      const Map out = Map::merged(a, b);
      EXPECT_EQ(a, copy_a);
      EXPECT_EQ(b, copy_b);
      Map via_add = a;
      via_add.merge_add(b);
      ASSERT_EQ(out, via_add) << "n " << n << ", m " << m;
      const auto ref = reference_merge(a, b);
      ASSERT_EQ(out.size(), ref.size()) << "n " << n << ", m " << m;
      std::size_t i = 0;
      for (const auto& [id, v] : out) {
        EXPECT_EQ(id.value(), ref[i].first);
        EXPECT_EQ(v, ref[i].second);
        ++i;
      }
    }
  }
}

// Random inputs over the whole 64-bit id space: merged(a, b) equals a
// std::map fold and merge_add, and neither input changes.
TEST(ValueMapMergedTest, RandomInputsEqualMapFoldAndMergeAdd) {
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.below(300);
    const std::size_t m = rng.below(300);
    std::vector<std::pair<ItemId, std::uint64_t>> pa;
    std::vector<std::pair<ItemId, std::uint64_t>> pb;
    // A narrow id range in some trials forces many equal ids.
    const bool narrow = rng.chance(0.5);
    auto draw_id = [&] { return narrow ? rng.below(400) : rng(); };
    for (std::size_t i = 0; i < n; ++i) {
      pa.emplace_back(ItemId(draw_id()), rng.between(1, 1000));
    }
    for (std::size_t i = 0; i < m; ++i) {
      pb.emplace_back(ItemId(draw_id()), rng.between(1, 1000));
    }
    const Map a = Map::from_unsorted(pa);
    const Map b = Map::from_unsorted(pb);
    const Map copy_a = a;
    const Map copy_b = b;
    const Map out = Map::merged(a, b);
    ASSERT_EQ(a, copy_a) << "trial " << trial;
    ASSERT_EQ(b, copy_b) << "trial " << trial;

    std::map<std::uint64_t, std::uint64_t> fold;
    for (const auto& [id, v] : pa) fold[id.value()] += v;
    for (const auto& [id, v] : pb) fold[id.value()] += v;
    ASSERT_EQ(out.size(), fold.size()) << "trial " << trial;
    auto it = fold.begin();
    for (const auto& [id, v] : out) {
      ASSERT_EQ(id.value(), it->first) << "trial " << trial;
      ASSERT_EQ(v, it->second) << "trial " << trial;
      ++it;
    }
    Map via_add = a;
    via_add.merge_add(b);
    ASSERT_EQ(out, via_add) << "trial " << trial;
  }
}

}  // namespace
}  // namespace nf
