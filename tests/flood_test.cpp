#include "net/flood.h"

#include <gtest/gtest.h>

#include <string>

#include "net/topology.h"

namespace nf::net {
namespace {

Overlay make_overlay(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Overlay(random_connected(n, 4.0, rng));
}

TEST(FloodTest, ReachesEveryAlivePeerExactlyOnce) {
  Overlay overlay = make_overlay(100, 1);
  TrafficMeter meter(100);
  std::vector<int> deliveries(100, 0);
  FloodPhase<std::string> flood(PeerId(7), "hello", 8,
                                TrafficCategory::kDissemination, 64,
                                [&](PhaseContext& ctx, const std::string& s) {
                                  EXPECT_EQ(s, "hello");
                                  ++deliveries[ctx.self().value()];
                                });
  Engine engine(overlay, meter);
  run_phase(engine, flood, kStandaloneBroadcast, 200);
  EXPECT_EQ(flood.num_reached(), 100u);
  for (int d : deliveries) EXPECT_EQ(d, 1);
}

TEST(FloodTest, DuplicatesAreCountedButSuppressed) {
  Overlay overlay = make_overlay(50, 2);
  TrafficMeter meter(50);
  FloodPhase<int> flood(PeerId(0), 1, 4, TrafficCategory::kDissemination, 64,
                        [](PhaseContext&, const int&) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, kStandaloneBroadcast, 200);
  EXPECT_EQ(flood.num_reached(), 50u);
  // A flood on a graph with cycles necessarily sees duplicates.
  EXPECT_GT(flood.num_copies(), 49u);
}

TEST(FloodTest, TtlLimitsPropagation) {
  // Line topology: TTL 3 reaches exactly peers 0..3.
  Topology t(10);
  for (std::uint32_t i = 0; i + 1 < 10; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Overlay overlay(std::move(t));
  TrafficMeter meter(10);
  FloodPhase<int> flood(PeerId(0), 1, 4, TrafficCategory::kDissemination, 3,
                        [](PhaseContext&, const int&) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, kStandaloneBroadcast, 100);
  EXPECT_EQ(flood.num_reached(), 4u);
  EXPECT_TRUE(flood.reached(PeerId(3)));
  EXPECT_FALSE(flood.reached(PeerId(4)));
}

TEST(FloodTest, DeadPeersBlockButDoNotCrash) {
  Topology t(5);
  for (std::uint32_t i = 0; i + 1 < 5; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  Overlay overlay(std::move(t));
  overlay.fail(PeerId(2));
  TrafficMeter meter(5);
  FloodPhase<int> flood(PeerId(0), 1, 4, TrafficCategory::kDissemination, 10,
                        [](PhaseContext&, const int&) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, kStandaloneBroadcast, 100);
  EXPECT_EQ(flood.num_reached(), 2u);  // 0 and 1; 2 is dead, 3-4 unreachable
}

TEST(FloodTest, BytesChargedPerForwardedCopy) {
  Topology t(3);
  t.add_edge(PeerId(0), PeerId(1));
  t.add_edge(PeerId(1), PeerId(2));
  Overlay overlay(std::move(t));
  TrafficMeter meter(3);
  FloodPhase<int> flood(PeerId(0), 1, 16, TrafficCategory::kDissemination, 10,
                        [](PhaseContext&, const int&) {});
  Engine engine(overlay, meter);
  run_phase(engine, flood, kStandaloneBroadcast, 100);
  // 0 -> 1, then 1 -> 2 (not back to 0): two copies of 16 bytes.
  EXPECT_EQ(meter.total(TrafficCategory::kDissemination), 32u);
}

TEST(FloodTest, InvalidTtlThrows) {
  EXPECT_THROW(FloodPhase<int>(PeerId(0), 1, 4,
                               TrafficCategory::kDissemination, 0,
                               [](PhaseContext&, const int&) {}),
               InvalidArgument);
}

}  // namespace
}  // namespace nf::net
