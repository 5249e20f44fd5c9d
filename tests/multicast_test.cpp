#include "agg/flat_phases.h"

#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

namespace nf::agg {
namespace {

using net::Engine;
using net::kStandaloneBroadcast;
using net::Overlay;
using net::PhaseContext;
using net::run_phase;
using net::Topology;
using net::TrafficCategory;
using net::TrafficMeter;

constexpr std::uint8_t kOneByteData[] = {7};
constexpr std::span<const std::uint8_t> kOneByte(kOneByteData);

struct Fixture {
  explicit Fixture(Topology topo)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0))) {}

  Overlay overlay;
  TrafficMeter meter;
  Hierarchy hierarchy;
};

TEST(MulticastTest, EveryMemberReceivesExactlyOnce) {
  Rng rng(1);
  Fixture fx(net::random_tree(100, 3, rng));
  std::multiset<std::uint32_t> receivers;
  const std::vector<std::uint8_t> payload{'p', 'a', 'y', 'l', 'o', 'a', 'd'};
  FlatMulticastPhase mc(
      fx.hierarchy, TrafficCategory::kDissemination,
      [&](PhaseContext& ctx, std::span<const std::uint8_t> body) {
        EXPECT_EQ(std::vector<std::uint8_t>(body.begin(), body.end()),
                  payload);
        receivers.insert(ctx.self().value());
      });
  mc.set_payload(payload, 16);
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, mc, kStandaloneBroadcast, 200);
  ASSERT_TRUE(mc.complete());
  EXPECT_EQ(mc.num_received(), 100u);
  EXPECT_EQ(receivers.size(), 100u);
  for (std::uint32_t p = 0; p < 100; ++p) {
    EXPECT_EQ(receivers.count(p), 1u) << "peer " << p;
  }
}

TEST(MulticastTest, ChargesOneMessagePerEdge) {
  Rng rng(2);
  Fixture fx(net::random_tree(64, 4, rng));
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [](PhaseContext&, std::span<const std::uint8_t>) {});
  mc.set_payload(kOneByte, 10);
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, mc, kStandaloneBroadcast, 100);
  // N-1 tree edges, one message of 10 bytes each.
  EXPECT_EQ(fx.meter.num_messages(), 63u);
  EXPECT_EQ(fx.meter.total(TrafficCategory::kDissemination), 630u);
}

TEST(MulticastTest, CompletesInHeightRounds) {
  Topology t(6);
  for (std::uint32_t i = 0; i + 1 < 6; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Fixture fx(std::move(t));
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [](PhaseContext&, std::span<const std::uint8_t>) {});
  mc.set_payload(kOneByte, 1);
  Engine engine(fx.overlay, fx.meter, {});
  const std::uint64_t rounds =
      run_phase(engine, mc, kStandaloneBroadcast, 100);
  EXPECT_TRUE(mc.complete());
  EXPECT_LE(rounds, fx.hierarchy.height() + 1);
}

TEST(MulticastTest, SingletonRootOnlyDeliversLocally) {
  Fixture fx{Topology(1)};
  int deliveries = 0;
  FlatMulticastPhase mc(
      fx.hierarchy, TrafficCategory::kDissemination,
      [&](PhaseContext&, std::span<const std::uint8_t>) { ++deliveries; });
  mc.set_payload(kOneByte, 1);
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, mc, kStandaloneBroadcast, 10);
  EXPECT_TRUE(mc.complete());
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(fx.meter.total(), 0u);
}

TEST(MulticastTest, RootHandlerRunsFirst) {
  Rng rng(3);
  Fixture fx(net::random_tree(30, 3, rng));
  std::vector<std::uint32_t> order;
  FlatMulticastPhase mc(fx.hierarchy, TrafficCategory::kDissemination,
                        [&](PhaseContext& ctx, std::span<const std::uint8_t>) {
                          order.push_back(ctx.self().value());
                        });
  mc.set_payload(kOneByte, 1);
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, mc, kStandaloneBroadcast, 100);
  ASSERT_FALSE(order.empty());
  EXPECT_EQ(order.front(), 0u);
  // Delivery order respects depth: a child never precedes its parent.
  std::vector<std::uint32_t> depth_at_delivery;
  for (std::uint32_t p : order) {
    depth_at_delivery.push_back(fx.hierarchy.depth(PeerId(p)));
  }
  EXPECT_TRUE(std::is_sorted(depth_at_delivery.begin(),
                             depth_at_delivery.end()));
}

}  // namespace
}  // namespace nf::agg
