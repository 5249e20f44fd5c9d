#include "common/hashing.h"

#include <gtest/gtest.h>

#include <bit>
#include <iostream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

namespace nf {
namespace {

TEST(Fmix64Test, ZeroMapsToZero) { EXPECT_EQ(fmix64(0), 0u); }

TEST(Fmix64Test, IsInjectiveOnSample) {
  std::set<std::uint64_t> out;
  for (std::uint64_t i = 0; i < 10000; ++i) out.insert(fmix64(i));
  EXPECT_EQ(out.size(), 10000u);
}

TEST(Fmix64Test, AvalancheFlipsAboutHalfTheBits) {
  // Flipping one input bit should flip ~32 of 64 output bits.
  double total_flips = 0.0;
  int cases = 0;
  for (std::uint64_t x = 1; x < 100; ++x) {
    for (int bit = 0; bit < 64; bit += 7) {
      const std::uint64_t a = fmix64(x);
      const std::uint64_t b = fmix64(x ^ (1ull << bit));
      total_flips += std::popcount(a ^ b);
      ++cases;
    }
  }
  EXPECT_NEAR(total_flips / cases, 32.0, 3.0);
}

TEST(Hash64Test, SeedChangesOutput) {
  EXPECT_NE(hash64(123, 1), hash64(123, 2));
}

TEST(Hash64Test, Deterministic) {
  EXPECT_EQ(hash64(42, 7), hash64(42, 7));
}

TEST(HashBytesTest, DistinctStringsDistinctHashes) {
  std::set<std::uint64_t> out;
  for (int i = 0; i < 5000; ++i) {
    out.insert(hash_bytes("key-" + std::to_string(i)));
  }
  EXPECT_EQ(out.size(), 5000u);
}

TEST(HashBytesTest, EmptyAndSeedBehaviour) {
  EXPECT_EQ(hash_bytes(""), hash_bytes(""));
  EXPECT_NE(hash_bytes("a", 1), hash_bytes("a", 2));
  EXPECT_NE(hash_bytes("a"), hash_bytes("b"));
}

TEST(GroupHashTest, GroupsInRange) {
  const GroupHash h(99, 17);
  for (std::uint64_t i = 0; i < 10000; ++i) {
    EXPECT_LT(h.group_of(ItemId(i)).value(), 17u);
  }
}

TEST(GroupHashTest, ZeroGroupsThrows) {
  EXPECT_THROW(GroupHash(1, 0), InvalidArgument);
}

TEST(GroupHashTest, SameSeedSameMapping) {
  const GroupHash a(5, 100);
  const GroupHash b(5, 100);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.group_of(ItemId(i)), b.group_of(ItemId(i)));
  }
  EXPECT_EQ(a, b);
}

TEST(GroupHashTest, RoughlyBalancedBuckets) {
  const GroupHash h(123, 10);
  std::vector<int> counts(10, 0);
  constexpr int kItems = 100000;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    ++counts[h.group_of(ItemId(fmix64(i + 1))).value()];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kItems / 10, kItems / 100);
  }
}

TEST(GroupHashTest, MatchesPinnedReferenceValues) {
  // Peers agree on filters without coordination, so the (seed, g, item) ->
  // group map is part of the protocol: a silent remap would split peers
  // that run different builds. Each value is
  // (fmix64(item ^ fmix64(seed)) * g) >> 64, i.e. hash64 range-reduced.
  struct Pinned {
    std::uint64_t seed;
    std::uint32_t num_groups;
    std::uint64_t item;
    std::uint32_t group;
  };
  constexpr Pinned kPinned[] = {
      {0ull, 1, 0ull, 0},
      {0ull, 300, 1ull, 211},
      {1ull, 300, 42ull, 70},
      {42ull, 50, 123456789ull, 2},
      {0xACC1DE57ull, 1000, 0xFFFFFFFFFFFFFFFFull, 465},
      {7ull, 65536, 99ull, 28234},
      {0x9E3779B97F4A7C15ull, 3, 2024ull, 1},
      {123ull, 10, 0xDEADBEEFull, 3},
  };
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(::testing::Message() << "seed=" << p.seed
                                      << " g=" << p.num_groups
                                      << " item=" << p.item);
    const GroupHash h(p.seed, p.num_groups);
    EXPECT_EQ(h.group_of(ItemId(p.item)).value(), p.group);
    const auto reference = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(hash64(p.item, p.seed)) * p.num_groups) >>
        64);
    EXPECT_EQ(reference, p.group);
  }
}

TEST(FilterBankTest, DerivesIndependentFilters) {
  const FilterBank bank(42, 4, 50);
  ASSERT_EQ(bank.num_filters(), 4u);
  EXPECT_EQ(bank.num_groups(), 50u);
  // All filter seeds distinct.
  std::set<std::uint64_t> seeds;
  for (std::uint32_t i = 0; i < 4; ++i) seeds.insert(bank.filter(i).seed());
  EXPECT_EQ(seeds.size(), 4u);
}

/// Ids at the edges of the 64-bit space and of its 32-bit halves.
constexpr std::uint64_t kExtremeIds[] = {0ull, 0xFFFFFFFFull, 1ull << 63,
                                         0xFFFFFFFFFFFFFFFFull};

/// Logs which kernel path the tests below exercise on this host.
void log_group_block_path() {
  std::cout << "group_block path: " << group_block_path() << '\n';
  ::testing::Test::RecordProperty("group_block_path",
                                  std::string(group_block_path()));
}

TEST(GroupBlockTest, EqualsGroupOfOnEveryLength) {
  // The batch kernel against the per-item definition: every block length
  // that leaves a 0-7 id tail (0-17, 63-65, 1023-1025), group counts from
  // 1 to 2^32-1 (so the 32-bit split of the range reduction runs at both
  // ends of its bound), and the extreme ids. Output past the block must
  // stay untouched.
  log_group_block_path();
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  for (const std::size_t n : {63u, 64u, 65u, 1023u, 1024u, 1025u}) {
    lengths.push_back(n);
  }
  constexpr std::uint32_t kGuard = 0xA5A5A5A5u;
  Rng rng(77);
  for (const std::uint32_t g :
       {1u, 2u, 63u, 64u, 65u, 100u, 1000u, 1u << 31, 0xFFFFFFFFu}) {
    const GroupHash h(rng(), g);
    for (const std::size_t n : lengths) {
      std::vector<std::uint64_t> ids(n);
      for (std::size_t k = 0; k < n; ++k) {
        ids[k] = k < std::size(kExtremeIds) ? kExtremeIds[k] : rng();
      }
      std::vector<std::uint32_t> out(n + 8, kGuard);
      h.group_block(ids, out);
      for (std::size_t k = 0; k < n; ++k) {
        ASSERT_EQ(out[k], h.group_of(ItemId(ids[k])).value())
            << "g=" << g << " n=" << n << " k=" << k << " id=" << ids[k];
      }
      for (std::size_t k = n; k < out.size(); ++k) {
        ASSERT_EQ(out[k], kGuard) << "g=" << g << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(GroupBlockTest, ExtremeIdsUnderEverySeed) {
  // Each extreme id at every lane of a full block, so each lane of the
  // vector path sees them, under several seeds and the largest g.
  log_group_block_path();
  for (const std::uint64_t seed : {0ull, 1ull, 0xDEADBEEFull}) {
    for (const std::uint32_t g : {1u, 1000u, 0xFFFFFFFFu}) {
      const GroupHash h(seed, g);
      for (std::size_t lane = 0; lane < 8; ++lane) {
        std::vector<std::uint64_t> ids(8, 12345);
        for (const std::uint64_t id : kExtremeIds) {
          ids[lane] = id;
          std::vector<std::uint32_t> out(8);
          h.group_block(ids, out);
          EXPECT_EQ(out[lane], h.group_of(ItemId(id)).value())
              << "seed=" << seed << " g=" << g << " lane=" << lane;
        }
      }
    }
  }
}

TEST(GroupBlockTest, ShortOutputThrows) {
  const GroupHash h(1, 10);
  const std::vector<std::uint64_t> ids(9, 1);
  std::vector<std::uint32_t> out(8);
  EXPECT_THROW(h.group_block(ids, out), InvalidArgument);
}

TEST(FilterBankTest, SameMasterSeedSameBank) {
  const FilterBank a(7, 3, 100);
  const FilterBank b(7, 3, 100);
  EXPECT_EQ(a, b);
}

TEST(FilterBankTest, FiltersDisagreeOnItems) {
  // Independent filters should map a given item to different groups often.
  const FilterBank bank(11, 2, 100);
  int disagreements = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const ItemId item(fmix64(i));
    if (bank.filter(0).group_of(item) != bank.filter(1).group_of(item)) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 950);
}

TEST(FilterBankTest, InvalidConfigThrows) {
  EXPECT_THROW(FilterBank(1, 0, 10), InvalidArgument);
  const FilterBank bank(1, 2, 10);
  EXPECT_THROW((void)bank.filter(2), InvalidArgument);
}

}  // namespace
}  // namespace nf
