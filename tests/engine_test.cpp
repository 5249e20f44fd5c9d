#include "net/engine.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace nf::net {
namespace {

Overlay make_line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return Overlay(std::move(t));
}

/// Relays a token from peer 0 down the line, recording arrival rounds.
class RelayProtocol final : public Protocol {
 public:
  explicit RelayProtocol(std::uint32_t n) : arrival_round_(n, -1) {}

  void on_round(Context& ctx) override {
    if (ctx.self() == PeerId(0) && !started_) {
      started_ = true;
      arrival_round_[0] = static_cast<std::int64_t>(ctx.round());
      ctx.send(PeerId(1), TrafficCategory::kControl, 4, std::any(1));
    }
  }

  void on_message(Context& ctx, Envelope&& env) override {
    const std::uint32_t self = ctx.self().value();
    arrival_round_[self] = static_cast<std::int64_t>(ctx.round());
    received_from_.push_back(env.from);
    if (self + 1 < arrival_round_.size()) {
      ctx.send(PeerId(self + 1), TrafficCategory::kControl, 4,
               std::any(std::any_cast<int>(env.payload) + 1));
    } else {
      done_ = true;
    }
  }

  [[nodiscard]] bool active() const override { return !done_; }

  std::vector<std::int64_t> arrival_round_;
  std::vector<PeerId> received_from_;
  bool started_ = false;
  bool done_ = false;
};

TEST(EngineTest, MessagesTakeOneRoundPerHop) {
  Overlay overlay = make_line(5);
  TrafficMeter meter(5);
  Engine engine(overlay, meter, {});
  RelayProtocol relay(5);
  engine.run(relay, 100);
  EXPECT_TRUE(relay.done_);
  for (std::uint32_t p = 0; p < 5; ++p) {
    EXPECT_EQ(relay.arrival_round_[p], p) << "peer " << p;
  }
}

TEST(EngineTest, ChargesSenderOnSend) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(3);
  Engine engine(overlay, meter, {});
  RelayProtocol relay(3);
  engine.run(relay, 100);
  EXPECT_EQ(meter.peer_total(PeerId(0)), 4u);
  EXPECT_EQ(meter.peer_total(PeerId(1)), 4u);
  EXPECT_EQ(meter.peer_total(PeerId(2)), 0u);  // last peer never sends
  EXPECT_EQ(meter.num_messages(), 2u);
}

TEST(EngineTest, StopsWhenQuiescent) {
  Overlay overlay = make_line(4);
  TrafficMeter meter(4);
  Engine engine(overlay, meter, {});
  RelayProtocol relay(4);
  const std::uint64_t rounds = engine.run(relay, 1000);
  EXPECT_LE(rounds, 6u);  // 3 hops + bounded overhead, not 1000
}

TEST(EngineTest, DropsMessagesToDeadPeers) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(3);
  Engine engine(overlay, meter, {});
  RelayProtocol relay(3);
  ChurnSchedule churn;
  churn.fail_at(1, PeerId(1));  // dies before the message arrives
  engine.run(relay, 10, &churn);
  EXPECT_FALSE(relay.done_);
  EXPECT_EQ(engine.dropped_messages(), 1u);
  EXPECT_EQ(relay.arrival_round_[1], -1);
}

TEST(EngineTest, ChurnJoinRevivesPeer) {
  Overlay overlay = make_line(3);
  overlay.fail(PeerId(2));
  TrafficMeter meter(3);
  Engine engine(overlay, meter, {});
  RelayProtocol relay(3);
  ChurnSchedule churn;
  churn.join_at(1, PeerId(2));
  engine.run(relay, 10, &churn);
  EXPECT_TRUE(relay.done_);
}

TEST(EngineTest, DeadPeersGetNoOnRound) {
  Overlay overlay = make_line(2);
  overlay.fail(PeerId(0));
  TrafficMeter meter(2);
  Engine engine(overlay, meter, {});
  RelayProtocol relay(2);
  engine.run(relay, 5);
  EXPECT_FALSE(relay.started_);
}

TEST(EngineTest, RespectsMaxRounds) {
  /// A protocol that stays active forever.
  class Forever final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      ctx.wake_next_round();
      ++ticks;
    }
    [[nodiscard]] bool active() const override { return true; }
    int ticks = 0;
  };
  Overlay overlay = make_line(1);
  TrafficMeter meter(1);
  Engine engine(overlay, meter, {});
  Forever forever;
  const std::uint64_t rounds = engine.run(forever, 7);
  EXPECT_EQ(rounds, 7u);
  EXPECT_EQ(forever.ticks, 7);
}

using Ticks = std::vector<std::pair<std::uint64_t, std::uint32_t>>;

/// Records every tick as (round, peer). Peers in `wakers` ask for another
/// tick (twice per tick, to check that requests coalesce) until round
/// `wake_until`. Stays active, so a run lasts exactly max_rounds.
class TickRecorder final : public Protocol {
 public:
  explicit TickRecorder(std::vector<PeerId> wakers = {},
                        std::uint64_t wake_until = 0)
      : wakers_(std::move(wakers)), wake_until_(wake_until) {}

  void on_round(Context& ctx) override {
    ticks.emplace_back(ctx.round(), ctx.self().value());
    if (ctx.round() >= wake_until_) return;
    for (const PeerId w : wakers_) {
      if (w != ctx.self()) continue;
      ctx.wake_next_round();
      ctx.wake_next_round();
    }
  }
  [[nodiscard]] bool active() const override { return true; }

  Ticks ticks;

 private:
  std::vector<PeerId> wakers_;
  std::uint64_t wake_until_;
};

TEST(EngineTest, NeverWakingProtocolIsTickedOnlyInTheFirstRound) {
  Overlay overlay = make_line(5);
  overlay.fail(PeerId(2));
  TrafficMeter meter(5);
  Engine engine(overlay, meter, {});
  TickRecorder rec;
  EXPECT_EQ(engine.run(rec, 6), 6u);
  // Once per alive peer, in round 0, in peer order; never again.
  EXPECT_EQ(rec.ticks, (Ticks{{0, 0}, {0, 1}, {0, 3}, {0, 4}}));
}

TEST(EngineTest, WakeRequestsInOneRoundYieldOneTick) {
  /// Peer 1 is woken twice from on_round and once more from on_message
  /// (peer 0's round-0 send lands in round 1) — all for the same round.
  class Waker final : public Protocol {
   public:
    void on_round(Context& ctx) override {
      ticks.emplace_back(ctx.round(), ctx.self().value());
      if (ctx.self() != PeerId(1)) {
        if (ctx.round() == 0) {
          ctx.send(PeerId(1), TrafficCategory::kControl, 4, std::any(1));
        }
        return;
      }
      if (ctx.round() < 2) {
        ctx.wake_next_round();
        ctx.wake_next_round();
      }
    }
    void on_message(Context& ctx, Envelope&&) override {
      ctx.wake_next_round();
    }
    [[nodiscard]] bool active() const override { return true; }
    Ticks ticks;
  };
  Overlay overlay = make_line(2);
  TrafficMeter meter(2);
  Engine engine(overlay, meter, {});
  Waker waker;
  (void)engine.run(waker, 5);
  EXPECT_EQ(waker.ticks, (Ticks{{0, 0}, {0, 1}, {1, 1}, {2, 1}}));
}

TEST(EngineTest, WakeRequestsDriveTicksUntilTheyStop) {
  Overlay overlay = make_line(4);
  TrafficMeter meter(4);
  Engine engine(overlay, meter, {});
  TickRecorder rec({PeerId(3), PeerId(1)}, /*wake_until=*/2);
  (void)engine.run(rec, 5);
  EXPECT_EQ(rec.ticks, (Ticks{{0, 0}, {0, 1}, {0, 2}, {0, 3},  // first round
                              {1, 1}, {1, 3},                  // woken
                              {2, 1}, {2, 3}}));               // last wake
}

TEST(EngineTest, RevivedPeerIsTickedInItsRevivalRound) {
  Overlay overlay = make_line(3);
  overlay.fail(PeerId(2));
  TrafficMeter meter(3);
  Engine engine(overlay, meter, {});
  ChurnSchedule churn;
  churn.join_at(3, PeerId(2));  // dead from the start
  churn.fail_at(1, PeerId(0));  // dies mid-run...
  churn.join_at(4, PeerId(0));  // ...and comes back
  churn.join_at(2, PeerId(1));  // already alive: not a revival
  TickRecorder rec;
  (void)engine.run(rec, 6, &churn);
  EXPECT_EQ(rec.ticks, (Ticks{{0, 0}, {0, 1}, {3, 2}, {4, 0}}));
}

TEST(EngineTest, EveryRunStartsByTickingEveryAlivePeer) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(3);
  Engine engine(overlay, meter, {});
  // The first run ends with a wake request still queued; the second run
  // starts from a clean slate: all alive peers, once each.
  TickRecorder first({PeerId(1)}, /*wake_until=*/100);
  (void)engine.run(first, 2);
  TickRecorder second;
  (void)engine.run(second, 3);
  EXPECT_EQ(second.ticks, (Ticks{{2, 0}, {2, 1}, {2, 2}}));
}

TEST(EngineTest, RoundCounterAdvancesAcrossRuns) {
  Overlay overlay = make_line(2);
  TrafficMeter meter(2);
  Engine engine(overlay, meter, {});
  RelayProtocol r1(2);
  engine.run(r1, 10);
  const std::uint64_t after_first = engine.round();
  EXPECT_GT(after_first, 0u);
  RelayProtocol r2(2);
  engine.run(r2, 10);
  EXPECT_GT(engine.round(), after_first);
}

TEST(EngineTest, MismatchedMeterThrows) {
  Overlay overlay = make_line(3);
  TrafficMeter meter(2);
  EXPECT_THROW(Engine(overlay, meter, {}), InvalidArgument);
}

TEST(EngineTest, DeterministicAcrossIdenticalRuns) {
  auto run_once = [] {
    Overlay overlay = make_line(6);
    TrafficMeter meter(6);
    Engine engine(overlay, meter, {});
    RelayProtocol relay(6);
    engine.run(relay, 100);
    return relay.arrival_round_;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace nf::net
