// Heterogeneous link latencies (net/link_model.h LinkModel delays).
#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "core/netfilter.h"
#include "net/session.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::net {
namespace {

Overlay make_line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return Overlay(std::move(t));
}

LinkModel slow_links(std::uint32_t min_d, std::uint32_t max_d,
                     std::uint64_t seed = 3) {
  return LinkModel{min_d, max_d, seed};
}

TEST(LatencyModelTest, DelayIsSymmetricAndBounded) {
  const LinkModel m = slow_links(2, 7);
  for (std::uint32_t a = 0; a < 20; ++a) {
    for (std::uint32_t b = a + 1; b < 20; ++b) {
      const std::uint32_t d = m.delay(PeerId(a), PeerId(b));
      EXPECT_EQ(d, m.delay(PeerId(b), PeerId(a)));
      EXPECT_GE(d, 2u);
      EXPECT_LE(d, 7u);
    }
  }
}

TEST(LatencyModelTest, UnitModelChangesNothing) {
  Overlay overlay = make_line(5);
  TrafficMeter meter(5);
  Engine engine(overlay, meter, {.link = LinkModel{}});  // (1,1)
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, TrafficCategory::kFiltering, [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  const std::uint64_t rounds =
      run_phase(engine, cast, kStandaloneConvergecast, 100);
  EXPECT_EQ(cast.result(), 5u);
  EXPECT_LE(rounds, 7u);
}

TEST(LatencyModelTest, SlowLinksStretchCompletionNotCorrectness) {
  auto run_with = [](std::uint32_t max_delay) {
    Rng rng(5);
    Overlay overlay(random_connected(50, 4.0, rng));
    TrafficMeter meter(50);
    Engine engine(overlay, meter, {.link = slow_links(1, max_delay)});
    const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    agg::ConvergecastPhase<std::uint64_t> cast(
        h, TrafficCategory::kFiltering,
        [](PeerId p) { return std::uint64_t{p.value()} + 1; },
        [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
        [](const std::uint64_t&) { return std::uint64_t{4}; });
    const std::uint64_t rounds =
        run_phase(engine, cast, kStandaloneConvergecast, 5000);
    EXPECT_TRUE(cast.complete());
    std::uint64_t expect = 0;
    for (std::uint32_t p = 0; p < 50; ++p) expect += p + 1;
    EXPECT_EQ(cast.result(), expect);
    // Bytes unchanged: latency costs time, not traffic.
    EXPECT_EQ(meter.total(), 49u * 4);
    return rounds;
  };
  const std::uint64_t fast = run_with(1);
  const std::uint64_t slow = run_with(8);
  EXPECT_GT(slow, fast);
}

TEST(LatencyModelTest, FixedDelayLineIsExactlyPredictable) {
  // Line of 4 with uniform delay 3: the farthest leaf's contribution takes
  // 3 hops * 3 rounds; total completion ~9-11 rounds.
  Overlay overlay = make_line(4);
  TrafficMeter meter(4);
  Engine engine(overlay, meter, {.link = slow_links(3, 3)});
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, TrafficCategory::kFiltering, [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  const std::uint64_t rounds =
      run_phase(engine, cast, kStandaloneConvergecast, 100);
  EXPECT_EQ(cast.result(), 4u);
  EXPECT_GE(rounds, 9u);
  EXPECT_LE(rounds, 12u);
}

TEST(LatencyModelTest, ComposesWithLossModel) {
  Rng rng(6);
  Overlay overlay(random_connected(30, 4.0, rng));
  TrafficMeter meter(30);
  LinkFaultModel fault;
  fault.loss_probability = 0.2;
  fault.retransmit_after = 6;  // cover the worst link delay + ack
  Engine engine(overlay, meter, {.fault = fault, .link = slow_links(1, 4)});
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, TrafficCategory::kFiltering, [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  run_phase(engine, cast, kStandaloneConvergecast, 5000);
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 30u);
}

TEST(LatencyModelTest, InvalidModelsRejected) {
  Overlay overlay = make_line(2);
  TrafficMeter meter(2);
  EXPECT_THROW(Engine(overlay, meter, {.link = slow_links(0, 1)}),
               InvalidArgument);
  EXPECT_THROW(Engine(overlay, meter, {.link = slow_links(5, 2)}),
               InvalidArgument);
}

}  // namespace
}  // namespace nf::net
