#include "agg/gossip.h"

#include <gtest/gtest.h>

#include <cmath>

#include "net/engine.h"
#include "net/topology.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::Overlay;
using net::TrafficMeter;

TEST(PushSumTest, ConvergesToGlobalSum) {
  Rng rng(1);
  Overlay overlay(net::random_connected(100, 6.0, rng));
  TrafficMeter meter(100);
  std::vector<std::vector<double>> initial;
  double truth = 0.0;
  for (std::uint32_t p = 0; p < 100; ++p) {
    initial.push_back({static_cast<double>(p) + 1.0});
    truth += static_cast<double>(p) + 1.0;
  }
  PushSumGossip::Config cfg;
  cfg.rounds = 80;
  PushSumGossip gossip(std::move(initial), cfg);
  Engine engine(overlay, meter, {});
  engine.run(gossip, cfg.rounds + 2);
  for (std::uint32_t p = 0; p < 100; ++p) {
    EXPECT_NEAR(gossip.estimate_sum(PeerId(p), 0), truth, truth * 0.01)
        << "peer " << p;
  }
  EXPECT_LT(gossip.relative_spread(0), 0.02);
}

TEST(PushSumTest, MassIsConserved) {
  Rng rng(2);
  Overlay overlay(net::random_connected(50, 5.0, rng));
  TrafficMeter meter(50);
  std::vector<std::vector<double>> initial(50, std::vector<double>{2.0});
  PushSumGossip::Config cfg;
  cfg.rounds = 5;
  PushSumGossip gossip(std::move(initial), cfg);
  Engine engine(overlay, meter, {});
  // The run drains in-flight shares after the last active round, so the
  // resident mass must equal the initial global mass exactly.
  engine.run(gossip, cfg.rounds + 2);
  EXPECT_NEAR(gossip.total_mass(0), 100.0, 1e-9);
}

TEST(PushSumTest, MultiDimensionalVectorsConvergePerCoordinate) {
  Rng rng(3);
  Overlay overlay(net::random_connected(60, 6.0, rng));
  TrafficMeter meter(60);
  std::vector<std::vector<double>> initial;
  for (std::uint32_t p = 0; p < 60; ++p) {
    initial.push_back({1.0, static_cast<double>(p % 3)});
  }
  PushSumGossip::Config cfg;
  cfg.rounds = 80;
  PushSumGossip gossip(std::move(initial), cfg);
  Engine engine(overlay, meter, {});
  engine.run(gossip, cfg.rounds + 2);
  EXPECT_NEAR(gossip.estimate_sum(PeerId(5), 0), 60.0, 1.0);
  EXPECT_NEAR(gossip.estimate_sum(PeerId(5), 1), 60.0, 1.5);  // 20*(0+1+2)
}

TEST(PushSumTest, TrafficScalesWithDimensionAndRounds) {
  Rng rng(4);
  Overlay overlay(net::random_connected(20, 4.0, rng));
  TrafficMeter meter(20);
  std::vector<std::vector<double>> initial(20, std::vector<double>(10, 1.0));
  PushSumGossip::Config cfg;
  cfg.rounds = 10;
  cfg.bytes_per_coordinate = 4;
  cfg.weight_bytes = 4;
  PushSumGossip gossip(std::move(initial), cfg);
  Engine engine(overlay, meter, {});
  engine.run(gossip, cfg.rounds + 2);
  // Each peer sends one message of (10+1)*4 + 4 bytes per round.
  const std::uint64_t per_msg = 48;
  EXPECT_EQ(meter.total(net::TrafficCategory::kGossip) % per_msg, 0u);
  EXPECT_GE(meter.num_messages(), 20u * 9);
  EXPECT_LE(meter.num_messages(), 20u * 11);
}

TEST(PushSumTest, SpreadShrinksWithMoreRounds) {
  auto spread_after = [](std::uint32_t rounds) {
    Rng rng(5);
    Overlay overlay(net::random_connected(80, 5.0, rng));
    TrafficMeter meter(80);
    std::vector<std::vector<double>> initial;
    for (std::uint32_t p = 0; p < 80; ++p) {
      initial.push_back({p < 40 ? 0.0 : 10.0});
    }
    PushSumGossip::Config cfg;
    cfg.rounds = rounds;
    PushSumGossip gossip(std::move(initial), cfg);
    Engine engine(overlay, meter, {});
    engine.run(gossip, cfg.rounds + 2);
    return gossip.relative_spread(0);
  };
  const double early = spread_after(8);
  const double late = spread_after(60);
  EXPECT_LT(late, early);
  EXPECT_LT(late, 0.05);
}

TEST(PushSumTest, RejectsBadInputs) {
  PushSumGossip::Config cfg;
  EXPECT_THROW(PushSumGossip({}, cfg), InvalidArgument);
  EXPECT_THROW(PushSumGossip({{1.0}, {1.0, 2.0}}, cfg), InvalidArgument);
}

}  // namespace
}  // namespace nf::agg
