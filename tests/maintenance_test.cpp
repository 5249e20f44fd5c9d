#include "agg/maintenance.h"

#include <gtest/gtest.h>

#include <tuple>

#include "common/error.h"

namespace nf::agg {
namespace {

using net::ChurnSchedule;
using net::Engine;
using net::Overlay;
using net::Topology;
using net::TrafficMeter;

struct Fixture {
  explicit Fixture(Topology topo)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0))) {}

  Overlay overlay;
  TrafficMeter meter;
  Hierarchy hierarchy;
};

HierarchyMaintenance::Config fast_config() {
  HierarchyMaintenance::Config c;
  c.timeout_rounds = 2;
  return c;
}

TEST(MaintenanceTest, StableNetworkStaysStable) {
  Rng rng(1);
  Fixture fx(net::random_tree(50, 3, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter, {});
  engine.run(maint, 20);
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  // Without churn the tree should be exactly the original.
  for (std::uint32_t p = 0; p < 50; ++p) {
    EXPECT_EQ(snap.depth(PeerId(p)), fx.hierarchy.depth(PeerId(p)));
  }
}

TEST(MaintenanceTest, HeartbeatsFlowEveryRound) {
  Rng rng(2);
  Fixture fx(net::random_tree(10, 3, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter, {});
  engine.run(maint, 5);
  // Every peer heartbeats all neighbors every round: 2 * edges * rounds
  // messages (minus the last round still in flight).
  EXPECT_GT(fx.meter.num_messages(), 2u * 9u * 3u);
  EXPECT_GT(fx.meter.total(net::TrafficCategory::kControl), 0u);
}

TEST(MaintenanceTest, LeafFailureNeedsNoRepair) {
  Rng rng(3);
  Fixture fx(net::random_tree(30, 3, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter, {});
  // Find a leaf.
  PeerId leaf(0);
  for (std::uint32_t p = 0; p < 30; ++p) {
    if (fx.hierarchy.is_leaf(PeerId(p))) {
      leaf = PeerId(p);
      break;
    }
  }
  ChurnSchedule churn;
  churn.fail_at(3, leaf);
  engine.run(maint, 30, &churn);
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  EXPECT_EQ(snap.num_members(), 29u);
  EXPECT_FALSE(snap.is_member(leaf));
}

TEST(MaintenanceTest, InternalFailureRepairsWhenRouteExists) {
  // Ring: every peer has two routes to the root, so any single non-root
  // failure leaves the rest reattachable.
  Topology t(12);
  for (std::uint32_t i = 0; i < 12; ++i) {
    t.add_edge(PeerId(i), PeerId((i + 1) % 12));
  }
  Fixture fx(std::move(t));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter, {});
  ChurnSchedule churn;
  churn.fail_at(3, PeerId(1));  // internal node on one side of the ring
  engine.run(maint, 60, &churn);
  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  EXPECT_EQ(snap.num_members(), 11u);
  // Peer 2 lost its parent (1) and must have reattached via peer 3.
  EXPECT_TRUE(snap.is_member(PeerId(2)));
}

TEST(MaintenanceTest, JoiningPeerAttaches) {
  Topology t(5);
  for (std::uint32_t i = 0; i + 1 < 5; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Overlay overlay(std::move(t));
  overlay.fail(PeerId(4));
  TrafficMeter meter(5);
  const Hierarchy initial = build_bfs_hierarchy(overlay, PeerId(0));
  EXPECT_EQ(initial.num_members(), 4u);
  HierarchyMaintenance maint(initial, fast_config());
  Engine engine(overlay, meter, {});
  ChurnSchedule churn;
  churn.join_at(3, PeerId(4));
  engine.run(maint, 30, &churn);
  EXPECT_TRUE(maint.stabilized(overlay));
  const Hierarchy snap = maint.snapshot(overlay);
  snap.validate(overlay);
  EXPECT_TRUE(snap.is_member(PeerId(4)));
  EXPECT_EQ(snap.depth(PeerId(4)), 4u);
  EXPECT_EQ(snap.upstream(PeerId(4)), PeerId(3));
}

class MaintenanceChurnTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(MaintenanceChurnTest, RandomChurnConvergesOnWellConnectedGraphs) {
  const auto [seed, fail_prob] = GetParam();
  Rng rng(seed);
  // Well-connected overlay: failures rarely disconnect it.
  Fixture fx(net::random_connected(60, 6.0, rng));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter, {});
  ChurnSchedule churn = ChurnSchedule::random_failures(
      2, 6, 60, fail_prob, PeerId(0), rng);
  engine.run(maint, 100, &churn);

  // Convergence is only guaranteed if the alive overlay stayed connected;
  // verify it did, then require stabilization.
  const auto alive_reachable = [&] {
    std::vector<bool> seen(60, false);
    std::vector<PeerId> stack{PeerId(0)};
    seen[0] = true;
    std::uint32_t count = 1;
    while (!stack.empty()) {
      const PeerId p = stack.back();
      stack.pop_back();
      for (PeerId q : fx.overlay.alive_neighbors(p)) {
        if (!seen[q.value()]) {
          seen[q.value()] = true;
          ++count;
          stack.push_back(q);
        }
      }
    }
    return count;
  }();
  if (alive_reachable != fx.overlay.num_alive()) GTEST_SKIP();

  EXPECT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  snap.validate(fx.overlay);
  EXPECT_EQ(snap.num_members(), fx.overlay.num_alive());
}

INSTANTIATE_TEST_SUITE_P(
    Churn, MaintenanceChurnTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(0.01, 0.05)));

TEST(MaintenanceTest, DepthCountersMatchSnapshotAfterRepair) {
  Topology t(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    t.add_edge(PeerId(i), PeerId((i + 1) % 8));
  }
  Fixture fx(std::move(t));
  HierarchyMaintenance maint(fx.hierarchy, fast_config());
  Engine engine(fx.overlay, fx.meter, {});
  ChurnSchedule churn;
  churn.fail_at(2, PeerId(7));
  engine.run(maint, 50, &churn);
  ASSERT_TRUE(maint.stabilized(fx.overlay));
  const Hierarchy snap = maint.snapshot(fx.overlay);
  for (std::uint32_t p = 0; p < 8; ++p) {
    if (!snap.is_member(PeerId(p))) continue;
    EXPECT_EQ(maint.depth(PeerId(p)), snap.depth(PeerId(p)));
  }
}

}  // namespace
}  // namespace nf::agg
