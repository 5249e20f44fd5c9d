#include "workload/workload.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hashing.h"
#include "common/rng.h"

namespace nf::wl {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig cfg;
  cfg.num_peers = 50;
  cfg.num_items = 2000;
  cfg.alpha = 1.0;
  cfg.seed = 42;
  return cfg;
}

TEST(WorkloadTest, TotalInstancesMatchConfig) {
  const Workload w = Workload::generate(small_config());
  // 10 instances per item, unit values.
  EXPECT_EQ(w.total_value(), 20000u);
  EXPECT_EQ(w.num_peers(), 50u);
}

TEST(WorkloadTest, GroundTruthEqualsSumOfLocalSets) {
  const Workload w = Workload::generate(small_config());
  LocalItems merged;
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    merged.merge_add(w.local_items(PeerId(p)));
  }
  EXPECT_EQ(merged, w.global());
}

TEST(WorkloadTest, DeterministicForSeed) {
  const Workload a = Workload::generate(small_config());
  const Workload b = Workload::generate(small_config());
  EXPECT_EQ(a.global(), b.global());
  for (std::uint32_t p = 0; p < a.num_peers(); ++p) {
    EXPECT_EQ(a.local_items(PeerId(p)), b.local_items(PeerId(p)));
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  WorkloadConfig c1 = small_config();
  WorkloadConfig c2 = small_config();
  c2.seed = 43;
  EXPECT_NE(Workload::generate(c1).global(),
            Workload::generate(c2).global());
}

TEST(WorkloadTest, ThresholdForRoundsUp) {
  const Workload w = Workload::generate(small_config());
  EXPECT_EQ(w.threshold_for(0.01),
            static_cast<Value>(std::ceil(0.01 * 20000)));
  EXPECT_EQ(w.threshold_for(1.0), w.total_value());
  EXPECT_THROW((void)w.threshold_for(0.0), InvalidArgument);
  EXPECT_THROW((void)w.threshold_for(1.5), InvalidArgument);
}

TEST(WorkloadTest, FrequentItemsOracleIsExact) {
  const Workload w = Workload::generate(small_config());
  const Value t = w.threshold_for(0.01);
  const auto frequent = w.frequent_items(t);
  for (const auto& [id, v] : frequent) {
    EXPECT_GE(v, t);
    EXPECT_EQ(v, w.global().value_of(id));
  }
  // Complement check: nothing above t was missed.
  std::size_t above = 0;
  for (const auto& [id, v] : w.global()) {
    if (v >= t) ++above;
  }
  EXPECT_EQ(frequent.size(), above);
  EXPECT_GT(frequent.size(), 0u);
}

TEST(WorkloadTest, HigherSkewConcentratesTopItem) {
  WorkloadConfig flat = small_config();
  flat.alpha = 0.0;
  WorkloadConfig steep = small_config();
  steep.alpha = 2.0;
  auto top_value = [](const Workload& w) {
    Value best = 0;
    for (const auto& [id, v] : w.global()) best = std::max(best, v);
    return best;
  };
  EXPECT_GT(top_value(Workload::generate(steep)),
            top_value(Workload::generate(flat)) * 10);
}

TEST(WorkloadTest, AvgLocalDistinctIsPlausible) {
  const Workload w = Workload::generate(small_config());
  // 20000 instances over 50 peers = 400 per peer; distinct <= 400.
  EXPECT_LE(w.avg_local_distinct(), 400.0);
  EXPECT_GT(w.avg_local_distinct(), 100.0);
}

TEST(WorkloadTest, AvgValuesAreConsistent) {
  const Workload w = Workload::generate(small_config());
  EXPECT_NEAR(w.avg_global_value(),
              static_cast<double>(w.total_value()) /
                  static_cast<double>(w.num_distinct()),
              1e-9);
  const Value t = w.threshold_for(0.01);
  EXPECT_LT(w.avg_light_value(t), static_cast<double>(t));
  EXPECT_GT(w.avg_light_value(t), 0.0);
}

// One 64-bit digest of everything `generate` outputs: every peer's
// (peer, id, value) triples in map order, the global map and the total.
std::uint64_t output_digest(const Workload& w) {
  std::uint64_t h = 0;
  const auto mix = [&h](std::uint64_t x) { h = hash64(x, h); };
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    for (const auto& [id, v] : w.local_items(PeerId(p))) {
      mix(p);
      mix(id.value());
      mix(v);
    }
  }
  for (const auto& [id, v] : w.global()) {
    mix(id.value());
    mix(v);
  }
  mix(w.total_value());
  return h;
}

// Pins `generate`'s output bit for bit, so a faster generator must draw and
// compact exactly as before. The shapes cover the skew range, the floor off
// and skipped (fewer instances than items), peers left empty, one item, and
// more than 2^20 items on a few peers.
TEST(WorkloadTest, GenerateOutputIsPinned) {
  struct Case {
    std::uint32_t peers;
    std::uint64_t items;
    double per_item;
    double alpha;
    bool floor;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {50, 2000, 10.0, 0.0, true, 8919794901091273148ull},
      {50, 2000, 10.0, 1.0, true, 14985248375247148016ull},
      {50, 2000, 10.0, 2.0, true, 7314617564984160243ull},
      {50, 2000, 10.0, 5.0, true, 6879683798867788205ull},
      {50, 2000, 10.0, 1.0, false, 10738321784167448246ull},
      {40, 5000, 0.5, 1.0, true, 13343846567175654432ull},
      {1000, 20, 10.0, 1.0, true, 16664624576842106818ull},
      {7, 1, 10.0, 1.0, true, 8168093017880793246ull},
      {3, (1u << 20) + 17, 1.25, 0.8, true, 6621366217420424855ull},
  };
  for (const Case& c : cases) {
    WorkloadConfig cfg;
    cfg.num_peers = c.peers;
    cfg.num_items = c.items;
    cfg.instances_per_item = c.per_item;
    cfg.alpha = c.alpha;
    cfg.min_one_instance = c.floor;
    cfg.seed = 2024;
    const Workload w = Workload::generate(cfg);
    EXPECT_EQ(output_digest(w), c.digest)
        << "N=" << c.peers << " n=" << c.items << " alpha=" << c.alpha;
  }
}

TEST(WorkloadTest, FromLocalSetsBuildsGroundTruth) {
  std::vector<LocalItems> locals(2);
  locals[0].add(ItemId(1), 5);
  locals[0].add(ItemId(2), 1);
  locals[1].add(ItemId(1), 3);
  const Workload w = Workload::from_local_sets(std::move(locals));
  EXPECT_EQ(w.total_value(), 9u);
  EXPECT_EQ(w.global().value_of(ItemId(1)), 8u);
  EXPECT_EQ(w.global().value_of(ItemId(2)), 1u);
  EXPECT_EQ(w.num_distinct(), 2u);
}

// from_local_sets builds ground truth with one sort of every peer's pairs;
// it must equal the fold of merge_add over the peers it replaced.
TEST(WorkloadTest, FromLocalSetsMatchesMergeFold) {
  Rng rng(7);
  for (const std::uint32_t peers : {1u, 3u, 40u, 300u}) {
    std::vector<LocalItems> locals(peers);
    for (auto& local : locals) {
      const std::uint64_t size = rng.below(60);
      std::vector<std::pair<ItemId, Value>> pairs;
      for (std::uint64_t i = 0; i < size; ++i) {
        // A small universe, so peers share ids; half of them hashed, so
        // ids also lie far apart.
        const std::uint64_t id = rng.below(2) == 0
                                     ? rng.below(100)
                                     : hash64(rng.below(100), 1);
        pairs.emplace_back(ItemId(id), 1 + rng.below(1000));
      }
      local = LocalItems::from_unsorted(std::move(pairs));
    }
    LocalItems fold;
    for (const auto& local : locals) fold.merge_add(local);
    const Workload w = Workload::from_local_sets(locals);
    EXPECT_EQ(w.global(), fold) << "peers=" << peers;
    EXPECT_EQ(w.total_value(), fold.total());
    for (std::uint32_t p = 0; p < peers; ++p) {
      EXPECT_EQ(w.local_items(PeerId(p)), locals[p]);
    }
  }
}

TEST(WorkloadTest, ItemIdsAreScatteredNotSequential) {
  const Workload w = Workload::generate(small_config());
  // Hashed ids should not be tiny integers.
  std::size_t big = 0;
  for (const auto& [id, v] : w.global()) {
    if (id.value() > 0xFFFFFFFFull) ++big;
  }
  EXPECT_GT(big, w.num_distinct() / 2);
}

TEST(WorkloadTest, InvalidConfigThrows) {
  WorkloadConfig bad = small_config();
  bad.num_peers = 0;
  EXPECT_THROW((void)Workload::generate(bad), InvalidArgument);
  bad = small_config();
  bad.alpha = -1.0;
  EXPECT_THROW((void)Workload::generate(bad), InvalidArgument);
  bad = small_config();
  bad.instances_per_item = 0.0;
  EXPECT_THROW((void)Workload::generate(bad), InvalidArgument);
}

class WorkloadParamTest
    : public ::testing::TestWithParam<std::tuple<double, std::uint64_t>> {};

TEST_P(WorkloadParamTest, InvariantsHoldAcrossSkewAndSeed) {
  const auto [alpha, seed] = GetParam();
  WorkloadConfig cfg = small_config();
  cfg.alpha = alpha;
  cfg.seed = seed;
  const Workload w = Workload::generate(cfg);
  EXPECT_EQ(w.total_value(), 20000u);
  EXPECT_LE(w.num_distinct(), 2000u);
  EXPECT_GT(w.num_distinct(), 0u);
  // Every local value positive, every item in ground truth.
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    for (const auto& [id, v] : w.local_items(PeerId(p))) {
      EXPECT_GT(v, 0u);
      EXPECT_GE(w.global().value_of(id), v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WorkloadParamTest,
    ::testing::Combine(::testing::Values(0.0, 0.5, 1.0, 2.0, 4.0),
                       ::testing::Values(1u, 7u)));

}  // namespace
}  // namespace nf::wl
