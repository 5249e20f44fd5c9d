#include "core/gossip_netfilter.h"

#include <gtest/gtest.h>

#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficMeter;

struct Rig {
  Rig(std::uint32_t num_peers, std::uint64_t num_items, std::uint64_t seed)
      : workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = num_peers;
          cfg.num_items = num_items;
          cfg.seed = seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(seed + 1);
          // Gossip needs a well-connected overlay to mix.
          return Overlay(net::random_connected(num_peers, 6.0, rng));
        }()),
        meter(num_peers) {}

  wl::Workload workload;
  Overlay overlay;
  TrafficMeter meter;
};

GossipNetFilterConfig config() {
  GossipNetFilterConfig c;
  c.num_groups = 64;
  c.num_filters = 2;
  c.phase1_rounds = 80;
  c.phase2_rounds = 80;
  c.slack = 0.15;
  return c;
}

TEST(GossipNetFilterTest, FindsAllFrequentItems) {
  Rig rig(150, 10000, 1);
  const Value t = rig.workload.threshold_for(0.01);
  const auto oracle = rig.workload.frequent_items(t);
  const GossipNetFilter gnf(config());
  const auto res = gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter,
                           t, &oracle);
  EXPECT_EQ(res.stats.false_negatives, 0u);
  for (const auto& [id, v] : oracle) {
    EXPECT_TRUE(res.reported.contains(id));
  }
}

TEST(GossipNetFilterTest, ValuesAreCloseAfterEnoughRounds) {
  Rig rig(150, 10000, 2);
  const Value t = rig.workload.threshold_for(0.01);
  const auto oracle = rig.workload.frequent_items(t);
  GossipNetFilterConfig c = config();
  c.phase1_rounds = 120;
  c.phase2_rounds = 120;
  const GossipNetFilter gnf(c);
  const auto res = gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter,
                           t, &oracle);
  EXPECT_EQ(res.stats.false_negatives, 0u);
  EXPECT_LT(res.stats.max_value_rel_error, 0.05);
}

TEST(GossipNetFilterTest, MoreRoundsImproveAccuracy) {
  auto error_at = [](std::uint32_t rounds) {
    Rig rig(100, 8000, 3);
    const Value t = rig.workload.threshold_for(0.01);
    const auto oracle = rig.workload.frequent_items(t);
    GossipNetFilterConfig c = config();
    c.phase1_rounds = rounds;
    c.phase2_rounds = rounds;
    c.slack = 0.4;  // keep pruning identical-ish across settings
    const GossipNetFilter gnf(c);
    return gnf
        .run(rig.workload, rig.overlay, PeerId(0), rig.meter, t, &oracle)
        .stats.max_value_rel_error;
  };
  EXPECT_LT(error_at(100), error_at(25));
}

TEST(GossipNetFilterTest, SurvivesDeadPeersWithoutRepair) {
  // The hierarchy-free selling point: failures before the run need no tree
  // repair at all; the protocol just runs over whoever is alive.
  Rig rig(120, 8000, 4);
  rig.overlay.fail(PeerId(11));
  rig.overlay.fail(PeerId(57));
  rig.overlay.fail(PeerId(93));

  LocalItems truth;
  for (std::uint32_t p = 0; p < 120; ++p) {
    if (rig.overlay.is_alive(PeerId(p))) {
      truth.merge_add(rig.workload.local_items(PeerId(p)));
    }
  }
  const Value t = std::max<Value>(1, truth.total() / 100);
  truth.retain([&](ItemId, Value v) { return v >= t; });

  const GossipNetFilter gnf(config());
  const auto res =
      gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter, t, &truth);
  EXPECT_EQ(res.stats.false_negatives, 0u);
}

TEST(GossipNetFilterTest, CostSplitsAcrossStages) {
  Rig rig(100, 5000, 5);
  const Value t = rig.workload.threshold_for(0.01);
  const GossipNetFilter gnf(config());
  const auto res =
      gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter, t, nullptr);
  EXPECT_GT(res.stats.phase1_cost, 0.0);
  EXPECT_GT(res.stats.flood_cost, 0.0);
  EXPECT_GT(res.stats.phase2_cost, 0.0);
  EXPECT_NEAR(res.stats.total_cost(),
              res.stats.phase1_cost + res.stats.flood_cost +
                  res.stats.phase2_cost,
              1e-9);
  EXPECT_GT(res.stats.rounds, 100u);
}

TEST(GossipNetFilterTest, FilteringActuallyPrunes) {
  Rig rig(100, 5000, 6);
  const Value t = rig.workload.threshold_for(0.01);
  // Pruning needs expected group mass v/g below t (Formula 3): with
  // v = 50000 and t = 500 that means g > 100 per filter.
  GossipNetFilterConfig pruning_config = config();
  pruning_config.num_groups = 256;
  const GossipNetFilter gnf(pruning_config);
  const auto res =
      gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter, t, nullptr);
  EXPECT_LT(res.stats.num_candidates, rig.workload.num_distinct() / 2);
  EXPECT_GT(res.stats.num_candidates, 0u);
  EXPECT_LT(res.stats.heavy_groups_total, 2u * 256u);
}

TEST(GossipNetFilterTest, DeterministicForSeed) {
  auto run_once = [] {
    Rig rig(80, 4000, 7);
    const Value t = rig.workload.threshold_for(0.01);
    const GossipNetFilter gnf(config());
    return gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter, t,
                   nullptr);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.reported, b.reported);
}

TEST(GossipNetFilterTest, SurvivesLossyLinks) {
  // Push-sum conserves mass only with exactly-once delivery; the engine's
  // reliability layer provides it, so the result quality matches the
  // loss-free run at the price of retransmissions.
  Rig rig(100, 6000, 21);
  const Value t = rig.workload.threshold_for(0.01);
  const auto oracle = rig.workload.frequent_items(t);
  GossipNetFilterConfig c = config();
  c.phase1_rounds = 100;
  c.phase2_rounds = 100;
  c.fault.loss_probability = 0.15;
  const GossipNetFilter gnf(c);
  const auto res = gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter,
                           t, &oracle);
  EXPECT_EQ(res.stats.false_negatives, 0u);
  EXPECT_LT(res.stats.max_value_rel_error, 0.10);
}

TEST(GossipNetFilterTest, HonoursLinkModel) {
  // Every stage engine runs on the configured links: delay-3 links leave
  // shares and flood hops in flight longer, so the run takes more rounds.
  const auto rounds_at = [](std::uint32_t delay) {
    Rig rig(60, 3000, 23);
    GossipNetFilterConfig c = config();
    c.phase1_rounds = 20;
    c.phase2_rounds = 20;
    c.link.min_delay = delay;
    c.link.max_delay = delay;
    const GossipNetFilter gnf(c);
    const Value t = rig.workload.threshold_for(0.01);
    return gnf.run(rig.workload, rig.overlay, PeerId(0), rig.meter, t)
        .stats.rounds;
  };
  EXPECT_GT(rounds_at(3), rounds_at(1));
}

TEST(GossipNetFilterTest, InvalidConfigThrows) {
  GossipNetFilterConfig c = config();
  c.slack = 1.0;
  EXPECT_THROW(GossipNetFilter{c}, InvalidArgument);
  c = config();
  c.num_groups = 0;
  EXPECT_THROW(GossipNetFilter{c}, InvalidArgument);
  c = config();
  c.phase1_rounds = 0;
  EXPECT_THROW(GossipNetFilter{c}, InvalidArgument);

  Rig rig(10, 100, 8);
  rig.overlay.fail(PeerId(3));
  const GossipNetFilter gnf(config());
  EXPECT_THROW((void)gnf.run(rig.workload, rig.overlay, PeerId(3),
                             rig.meter, 1, nullptr),
               InvalidArgument);
}

}  // namespace
}  // namespace nf::core
