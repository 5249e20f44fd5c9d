// Link capacity and contention model (net/link_model.h) and its
// interaction with the engine's reliable transport.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "agg/convergecast.h"
#include "net/engine.h"
#include "net/link_model.h"
#include "net/session.h"
#include "net/topology.h"

namespace nf::net {
namespace {

Overlay make_line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return Overlay(std::move(t));
}

agg::ConvergecastPhase<std::uint64_t> counting_cast(const agg::Hierarchy& h,
                                                    std::uint64_t wire_bytes) {
  return agg::ConvergecastPhase<std::uint64_t>(
      h, TrafficCategory::kFiltering, [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [wire_bytes](const std::uint64_t&) { return wire_bytes; });
}

TEST(LinkClassModelTest, InvalidInputsRejected) {
  EXPECT_THROW(LinkClassModel::uniform(0), InvalidArgument);
  EXPECT_THROW(LinkClassModel::mixed(-0.1, 0.5, 1), InvalidArgument);
  EXPECT_THROW(LinkClassModel::mixed(0.7, 0.5, 1), InvalidArgument);
  const std::vector<std::uint32_t> depths{0, 1, 1};
  LinkClassModel m;
  EXPECT_THROW(m.set_level_override(depths, 1, 0), InvalidArgument);
  m.set_level_override(depths, 1, 512);
  const std::vector<std::uint32_t> other{0, 1};
  EXPECT_THROW(m.set_level_override(other, 2, 512), InvalidArgument);
}

TEST(LinkClassModelTest, PresetsAndMinOfEndpoints) {
  EXPECT_EQ(link_class_capacity(LinkClass::kModem), 7'000u);
  EXPECT_EQ(link_class_capacity(LinkClass::kDsl), 256'000u);
  EXPECT_EQ(link_class_capacity(LinkClass::kFiber), 12'500'000u);

  const LinkClassModel modem = LinkClassModel::uniform_class(LinkClass::kModem);
  EXPECT_EQ(modem.link_capacity(PeerId(0), PeerId(1)), 7'000u);

  // Mixed: deterministic assignment, link capacity = min endpoint class,
  // symmetric in (a, b).
  const LinkClassModel mixed = LinkClassModel::mixed(0.4, 0.4, 17);
  const LinkClassModel again = LinkClassModel::mixed(0.4, 0.4, 17);
  bool saw_two_classes = false;
  for (std::uint32_t a = 0; a < 30; ++a) {
    EXPECT_EQ(mixed.peer_class(PeerId(a)), again.peer_class(PeerId(a)));
    for (std::uint32_t b = a + 1; b < 30; ++b) {
      const std::uint64_t cap = mixed.link_capacity(PeerId(a), PeerId(b));
      const std::uint64_t ca = mixed.peer_capacity(PeerId(a));
      const std::uint64_t cb = mixed.peer_capacity(PeerId(b));
      EXPECT_EQ(cap, std::min(ca, cb));
      EXPECT_EQ(cap, mixed.link_capacity(PeerId(b), PeerId(a)));
      if (ca != cb) saw_two_classes = true;
    }
  }
  EXPECT_TRUE(saw_two_classes);
}

TEST(LinkClassModelTest, LevelOverrideReplacesClassCapacity) {
  // Line 0-1-2 rooted at 0: depths (0, 1, 2). A link's level is its deeper
  // endpoint's depth.
  const std::vector<std::uint32_t> depths{0, 1, 2};
  LinkClassModel m = LinkClassModel::uniform(100'000);
  m.set_level_override(depths, 1, 512);
  EXPECT_EQ(m.link_capacity(PeerId(0), PeerId(1)), 512u);  // level 1
  EXPECT_EQ(m.link_capacity(PeerId(1), PeerId(2)), 100'000u);  // level 2
}

TEST(LinkClassModelTest, CapacityLimitedFlag) {
  EXPECT_FALSE(LinkClassModel{}.capacity_limited());
  EXPECT_FALSE(LinkClassModel::uniform(kInfiniteCapacity).capacity_limited());
  EXPECT_TRUE(LinkClassModel::uniform(100).capacity_limited());
  LinkClassModel overridden;
  const std::vector<std::uint32_t> depths{0, 1};
  overridden.set_level_override(depths, 1, 512);
  EXPECT_TRUE(overridden.capacity_limited());

  LinkModel infinite;
  EXPECT_FALSE(infinite.capacity_limited());
}

TEST(LinkModelTest, InvalidModelsRejected) {
  Overlay overlay = make_line(2);
  TrafficMeter meter(2);
  LinkModel zero;
  zero.min_delay = 0;
  EXPECT_THROW(Engine(overlay, meter, {.link = zero}), InvalidArgument);
  LinkModel inverted;
  inverted.min_delay = 5;
  inverted.max_delay = 2;
  EXPECT_THROW(Engine(overlay, meter, {.link = inverted}), InvalidArgument);
  LinkModel no_horizon;
  no_horizon.max_backlog_rounds = 0;
  EXPECT_THROW(Engine(overlay, meter, {.link = no_horizon}), InvalidArgument);
}

TEST(LinkModelTest, CapacityStretchesRoundsNotBytes) {
  auto run = [](std::uint64_t capacity) {
    Overlay overlay = make_line(4);
    TrafficMeter meter(4);
    LinkModel link;
    link.classes = LinkClassModel::uniform(capacity);
    Engine engine(overlay, meter, {.link = link});
    const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    auto cast = counting_cast(h, 1000);  // 1000-byte messages
    const std::uint64_t rounds =
        run_phase(engine, cast, kStandaloneConvergecast, 5000);
    EXPECT_TRUE(cast.complete());
    EXPECT_EQ(cast.result(), 4u);
    EXPECT_EQ(meter.total(), 3u * 1000);  // contention costs time, not bytes
    return rounds;
  };
  const std::uint64_t wide = run(kInfiniteCapacity);
  const std::uint64_t narrow = run(250);  // 4 transfer rounds per message
  EXPECT_GT(narrow, wide);
  // Line of 4: each of 3 hops pays ceil(1000/250) = 4 transfer rounds where
  // the infinite-capacity run pays 1; quiescence padding is identical.
  EXPECT_GE(narrow, wide + 3 * 3);
}

TEST(LinkModelTest, BacklogClampBoundsDelayAndReportsClampedBytes) {
  // Star: 8 leaves all converge on peer 0 in the same round; the root's
  // inbound links are narrow and the horizon is tight.
  Topology t(9);
  for (std::uint32_t i = 1; i < 9; ++i) t.add_edge(PeerId(0), PeerId(i));
  Overlay overlay(std::move(t));
  TrafficMeter meter(9);
  LinkModel link;
  link.classes = LinkClassModel::uniform(100);
  link.max_backlog_rounds = 3;  // horizon: 300 bytes per link
  Engine engine(overlay, meter, {.link = link});
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  auto cast = counting_cast(h, 1000);  // every message overflows the horizon
  const std::uint64_t rounds =
      run_phase(engine, cast, kStandaloneConvergecast, 200);
  EXPECT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 9u);
  EXPECT_GT(engine.queue_delay_rounds(), 0u);
  EXPECT_GT(engine.clamped_backlog_bytes(), 0u);
  // Clamping bounds the stretch: no message waits more than
  // max_delay + max_backlog_rounds, so completion stays near the horizon.
  EXPECT_LE(rounds, 20u);
  EXPECT_EQ(engine.backlog_bytes(), 0u);  // fully drained at quiescence
}

TEST(LinkQueueTableTest, ScheduleMathAndDrain) {
  LinkQueueTable q;
  q.configure(8);
  // Empty link, capacity 100: 250 bytes take ceil(250/100) = 3 rounds.
  auto s1 = q.schedule(PeerId(0), PeerId(1), 100, 250, 64, 0);
  EXPECT_EQ(s1.queue_rounds, 3u);
  EXPECT_EQ(s1.clamped_bytes, 0u);
  // 100 more behind the 250 backlog: ceil(350/100) = 4 rounds.
  auto s2 = q.schedule(PeerId(0), PeerId(1), 100, 100, 64, 0);
  EXPECT_EQ(s2.queue_rounds, 4u);
  EXPECT_EQ(q.backlogged_links(), 1u);
  // Independent link queues independently.
  auto s3 = q.schedule(PeerId(1), PeerId(2), 100, 50, 64, 0);
  EXPECT_EQ(s3.queue_rounds, 1u);
  // Every fresh admission joins the active list; the 50-byte backlog
  // drains at the next round-barrier drain.
  EXPECT_EQ(q.backlogged_links(), 2u);

  // Drain clears capacity bytes per link per round: 350 -> 250 -> ... -> 0.
  std::uint64_t remaining = ~0ull;
  int drains = 0;
  while (remaining != 0) {
    remaining = q.drain_round([](std::uint32_t, std::uint64_t) {});
    ++drains;
  }
  EXPECT_EQ(drains, 4);  // ceil(350/100)
  EXPECT_EQ(q.backlogged_links(), 0u);

  // Horizon clamp: capacity 100, 2-round horizon = 200 bytes. 500 bytes
  // admits at the clamped depth with the excess reported, never dropped.
  auto s4 = q.schedule(PeerId(3), PeerId(4), 100, 500, 2, 0);
  EXPECT_EQ(s4.queue_rounds, 2u);
  EXPECT_EQ(s4.clamped_bytes, 300u);
  EXPECT_EQ(q.drain_round([](std::uint32_t, std::uint64_t) {}), 100u);
}

// The satellite requirement: a message queued past the sender's retransmit
// timer must retransmit deterministically and never double-deliver.
TEST(LinkModelTest, QueueDelayBeyondRetransmitTimerStaysExactlyOnce) {
  auto run = [] {
    Overlay overlay = make_line(5);
    TrafficMeter meter(5);
    LinkModel link;
    link.classes = LinkClassModel::uniform(100);
    LinkFaultModel fault;
    // Near-zero loss arms the reliable transport without actually losing
    // anything: every retransmission below is queueing-driven.
    fault.loss_probability = 1e-9;
    fault.retransmit_after = 2;  // fires long before a 10-round transfer
    fault.max_retries = 50;
    Engine engine(overlay, meter, {.fault = fault, .link = link});
    const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    auto cast = counting_cast(h, 1000);  // 10 transfer rounds per hop
    const std::uint64_t rounds =
        run_phase(engine, cast, kStandaloneConvergecast, 1000);
    EXPECT_TRUE(cast.complete());
    // Exactly-once: retransmitted copies are suppressed at the receiver,
    // so the sum is exact even though the timer fired under queueing.
    EXPECT_EQ(cast.result(), 5u);
    EXPECT_GT(engine.retransmissions(), 0u);
    EXPECT_GT(engine.duplicates_suppressed(), 0u);
    EXPECT_LE(engine.duplicates_suppressed(), engine.retransmissions());
    return std::tuple{rounds, engine.retransmissions(), meter.total()};
  };
  // Deterministic: two identical runs agree on every count.
  EXPECT_EQ(run(), run());
}

TEST(LinkModelTest, LossAndQueueingComposeToExactResult) {
  Rng rng(6);
  Overlay overlay(random_connected(30, 4.0, rng));
  TrafficMeter meter(30);
  LinkModel link;
  link.min_delay = 1;
  link.max_delay = 3;
  link.classes = LinkClassModel::mixed(0.3, 0.4, 9);
  LinkFaultModel fault;
  fault.loss_probability = 0.15;
  fault.retransmit_after = 8;
  fault.max_retries = 100;
  Engine engine(overlay, meter, {.fault = fault, .link = link});
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  auto cast = counting_cast(h, 2000);
  run_phase(engine, cast, kStandaloneConvergecast, 5000);
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 30u);
}

}  // namespace
}  // namespace nf::net
