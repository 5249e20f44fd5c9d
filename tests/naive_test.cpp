#include "core/naive.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>

#include "common/alloc_hook.h"
#include "core/cost_model.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficMeter;

struct Rig {
  Rig(std::uint32_t num_peers, std::uint64_t num_items, double alpha,
      std::uint64_t seed)
      : workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = num_peers;
          cfg.num_items = num_items;
          cfg.alpha = alpha;
          cfg.seed = seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(seed + 1);
          return Overlay(net::random_tree(num_peers, 3, rng));
        }()),
        meter(num_peers),
        hierarchy(agg::build_bfs_hierarchy(overlay, PeerId(0))) {}

  wl::Workload workload;
  Overlay overlay;
  TrafficMeter meter;
  agg::Hierarchy hierarchy;
};

TEST(NaiveTest, ExactResult) {
  Rig rig(80, 5000, 1.0, 1);
  const Value t = rig.workload.threshold_for(0.01);
  const NaiveCollector naive(WireSizes{});
  const NaiveResult res =
      naive.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  EXPECT_EQ(res.stats.num_frequent, res.frequent.size());
}

TEST(NaiveTest, CostWithinFormula2Bounds) {
  Rig rig(100, 20000, 1.0, 2);
  const Value t = rig.workload.threshold_for(0.01);
  const NaiveCollector naive(WireSizes{});
  const NaiveResult res =
      naive.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  const double o = rig.workload.avg_local_distinct();
  const WireSizes wire;
  // Lower bound has slack: the root propagates nothing, so the average over
  // peers can fall just below (sa+si)*o.
  EXPECT_GE(res.stats.cost_per_peer,
            cost_model::naive_cost_lower(wire, o) * 0.9);
  EXPECT_LE(res.stats.cost_per_peer,
            cost_model::naive_cost_upper(wire, o,
                                         rig.hierarchy.height()));
}

TEST(NaiveTest, CostFarBelowNTimesN) {
  // The paper's observation: C_naive is near o, not n*N.
  Rig rig(100, 20000, 1.0, 3);
  const Value t = rig.workload.threshold_for(0.01);
  const NaiveCollector naive(WireSizes{});
  const NaiveResult res =
      naive.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  const double full_broadcast = 8.0 * static_cast<double>(
      rig.workload.num_distinct());
  EXPECT_LT(res.stats.cost_per_peer, full_broadcast);
}

TEST(NaiveTest, ItemsPerPeerMatchesBytes) {
  Rig rig(50, 3000, 1.0, 4);
  const Value t = rig.workload.threshold_for(0.01);
  const NaiveCollector naive(WireSizes{});
  const NaiveResult res =
      naive.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_NEAR(res.stats.items_per_peer * 8.0, res.stats.cost_per_peer, 1e-9);
}

TEST(NaiveTest, SkewReducesCost) {
  auto cost_at = [](double alpha) {
    Rig rig(60, 10000, alpha, 5);
    const Value t = rig.workload.threshold_for(0.01);
    const NaiveCollector naive(WireSizes{});
    return naive
        .run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t)
        .stats.cost_per_peer;
  };
  // More skew -> fewer distinct items in circulation -> cheaper collection.
  EXPECT_LT(cost_at(3.0), cost_at(0.5));
}

TEST(NaiveTest, ZeroThresholdRejected) {
  Rig rig(10, 100, 1.0, 6);
  const NaiveCollector naive(WireSizes{});
  EXPECT_THROW((void)naive.run(rig.workload, rig.hierarchy, rig.overlay,
                               rig.meter, 0),
               InvalidArgument);
}

// Under 5 % link loss the engine retransmits, and each retransmission
// copies the message's payload: a member's own items borrowed in place, or
// the map it owns once a child merged in. Either copy must carry the same
// items, so the answer stays exact and two runs agree on every cost.
TEST(NaiveTest, LossyRunIsExactAndRepeatable) {
  Rig rig(300, 20000, 1.0, 7);
  const Value t = rig.workload.threshold_for(0.01);
  const NaiveCollector lossy(WireSizes{}, {.loss_probability = 0.05});
  auto run_once = [&] {
    TrafficMeter meter(rig.overlay.num_peers());
    return lossy.run(rig.workload, rig.hierarchy, rig.overlay, meter, t);
  };
  const NaiveResult first = run_once();
  const NaiveResult second = run_once();
  EXPECT_EQ(first.frequent, rig.workload.frequent_items(t));
  EXPECT_EQ(second.frequent, first.frequent);
  EXPECT_EQ(second.stats.cost_per_peer, first.stats.cost_per_peer);
  EXPECT_EQ(second.stats.rounds, first.stats.rounds);

  // Retransmissions are charged to kNaive: the lossy run paid for some.
  const NaiveResult clean = NaiveCollector(WireSizes{}).run(
      rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(clean.frequent, first.frequent);
  EXPECT_GT(first.stats.cost_per_peer, clean.stats.cost_per_peer);
}

// The result owns its entries: nothing in it refers into the item source,
// which members read in place during the run. With one peer the root's
// aggregate is its own items, borrowed to the end of the run.
TEST(NaiveTest, ResultOutlivesTheItemSource) {
  for (const std::uint32_t peers : {1u, 60u}) {
    auto rig = std::make_unique<Rig>(peers, 4000, 1.0, 8);
    const Value t = rig->workload.threshold_for(0.01);
    const LocalItems expected = rig->workload.frequent_items(t);
    ASSERT_FALSE(expected.empty());
    const NaiveResult res = NaiveCollector(WireSizes{}).run(
        rig->workload, rig->hierarchy, rig->overlay, rig->meter, t);
    rig.reset();
    EXPECT_EQ(res.frequent, expected) << peers << " peers";
    EXPECT_EQ(res.frequent.total(), expected.total());
  }
}

// Allocation gate: one run costs about two heap allocations per member (the
// upward message's payload object and, at internal members, the merged
// map), plus a fixed set-up. Copying each member's items at phase open, or
// keeping a parent list per member with no lineage recorder, pushes it past
// the bound. The count is deterministic for a fixed workload and tree.
TEST(NaiveTest, RunAllocatesAtMostTwoAndAHalfPerMember) {
  ASSERT_TRUE(alloc_hook::armed());
  Rig rig(2000, 20000, 1.0, 9);
  const Value t = rig.workload.threshold_for(0.01);
  const NaiveCollector naive(WireSizes{});
  const std::uint64_t before = alloc_hook::count();
  const NaiveResult res =
      naive.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  const std::uint64_t allocs = alloc_hook::count() - before;
  ASSERT_EQ(res.frequent, rig.workload.frequent_items(t));
  const double per_member = static_cast<double>(allocs) /
                            static_cast<double>(rig.hierarchy.num_members());
  std::printf("naive run: %llu allocations, %.3f per member\n",
              static_cast<unsigned long long>(allocs), per_member);
  EXPECT_LE(per_member, 2.5);
}

}  // namespace
}  // namespace nf::core
