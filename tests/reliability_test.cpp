// Golden suite for the engine's reliability layer (net/engine.h): ACKs,
// retransmission, give-up and receiver-side duplicate suppression.
//
// Every scenario below drives lossy links hard enough to reach each branch
// of that layer — messages given up after max_retries, duplicates from
// retransmissions racing slow ACKs, copies dropped at a destination that
// fails mid-run — with flat slab payloads and with typed std::any payloads.
// The observables (rounds, reliability counters, per-peer meter totals, a
// digest of every admitted transmission and of every peer's delivery
// order) are pinned to constants, so any rebuild of the reliability
// bookkeeping must reproduce the same execution bit for bit, at every
// shard count.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <span>
#include <vector>

#include "common/hashing.h"
#include "common/rng.h"
#include "net/churn.h"
#include "net/engine.h"
#include "net/topology.h"

namespace nf::net {
namespace {

constexpr std::uint32_t kPeers = 48;
constexpr std::uint32_t kShardCounts[] = {1, 2, 4};

/// Typed twin of the flat payload below.
struct ChatterMsg {
  std::uint64_t hop;
  std::uint64_t seq;
};

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return fmix64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

std::uint64_t read_varint(std::span<const std::uint8_t> bytes,
                          std::size_t& pos) {
  std::uint64_t v = 0;
  for (unsigned shift = 0; pos < bytes.size(); shift += 7) {
    const std::uint8_t b = bytes[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
  }
  return v;
}

/// Every peer sends one message to each neighbour per round until round
/// `until`; a receiver forwards each message it gets with hop < 2 to one
/// neighbour picked by the message's sequence number. Receivers fold what
/// they get, in arrival order, into a per-peer digest.
class Chatter final : public Protocol {
 public:
  Chatter(bool flat, std::uint64_t until) : flat_(flat), until_(until) {}

  void on_run_start(const Overlay& overlay, std::uint32_t) override {
    digests_.assign(overlay.num_peers(), 0);
  }

  void on_round(Context& ctx) override {
    if (ctx.round() >= until_) return;
    ctx.wake_next_round();
    const auto& nbrs = ctx.neighbors();
    for (std::size_t j = 0; j < nbrs.size(); ++j) {
      const std::uint64_t seq =
          hash64(ctx.self().value() * 1000003ull + j, ctx.round());
      send(ctx, nbrs[j], ChatterMsg{0, seq});
    }
  }

  void on_message(Context& ctx, Envelope&& env) override {
    ChatterMsg msg{};
    if (flat_) {
      const std::span<const std::uint8_t> bytes = ctx.payload_bytes(env);
      std::size_t pos = 0;
      msg.hop = read_varint(bytes, pos);
      msg.seq = read_varint(bytes, pos);
      EXPECT_EQ(bytes.size() - pos, msg.seq % 5) << "padding";
    } else {
      msg = std::any_cast<ChatterMsg>(env.payload);
    }
    std::uint64_t& d = digests_[ctx.self().value()];
    d = fold(fold(fold(d, env.from.value()), ctx.round()),
             fold(msg.hop, msg.seq));
    if (msg.hop >= 2) return;
    const auto& nbrs = ctx.neighbors();
    send(ctx, nbrs[msg.seq % nbrs.size()],
         ChatterMsg{msg.hop + 1, mix64(msg.seq)});
  }

  [[nodiscard]] std::uint64_t delivery_digest() const {
    std::uint64_t h = 0;
    for (const std::uint64_t d : digests_) h = fold(h, d);
    return h;
  }

 private:
  void send(Context& ctx, PeerId to, ChatterMsg msg) {
    const std::uint64_t pad = msg.seq % 5;
    if (flat_) {
      PayloadWriter w = ctx.flat_payload();
      w.put_varint(msg.hop);
      w.put_varint(msg.seq);
      for (std::uint64_t i = 0; i < pad; ++i) {
        w.put_varint((msg.seq >> (8 * i)) & 0x7F);
      }
      ctx.send_flat(to, TrafficCategory::kGossip, w.written() + 8,
                    w.finish());
    } else {
      ctx.send(to, TrafficCategory::kGossip, 24 + pad, std::any(msg));
    }
  }

  bool flat_;
  std::uint64_t until_;
  std::vector<std::uint64_t> digests_;  // per peer; written by its shard
};

struct Scenario {
  bool flat;
  LinkFaultModel fault;
  LinkModel link;
};

struct Outcome {
  std::uint64_t rounds = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t given_up = 0;
  std::uint64_t lost = 0;
  std::uint64_t dropped = 0;
  std::uint64_t meter_total = 0;
  std::uint64_t meter_digest = 0;      // every peer x category total
  std::uint64_t delivery_digest = 0;   // per-peer arrival order
  std::uint64_t admission_digest = 0;  // every admitted transmission
};

/// Two back-to-back Chatter runs on one engine (so the second run starts
/// with msg ids, rounds and reliability state carried over), with a
/// destination failing in each and reviving in the second.
Outcome run_scenario(const Scenario& s, std::uint32_t threads) {
  Rng rng(23);
  Overlay overlay(random_connected(kPeers, 4.0, rng));
  TrafficMeter meter(kPeers);
  Engine engine(overlay, meter,
                {.threads = threads, .fault = s.fault, .link = s.link});
  Outcome o;
  engine.set_send_probe([&](const Envelope& env) {
    std::uint64_t h = fold(fold(env.from.value(), env.to.value()),
                           fold(static_cast<std::uint64_t>(env.category),
                                env.bytes));
    for (const std::uint8_t b : engine.resolve(env.flat)) h = fold(h, b);
    if (const auto* m = std::any_cast<ChatterMsg>(&env.payload)) {
      h = fold(h, fold(m->hop, m->seq));
    }
    o.admission_digest = fold(o.admission_digest, h);
  });

  for (int pass = 0; pass < 2; ++pass) {
    const std::uint64_t start = engine.round();
    ChurnSchedule churn;
    churn.fail_at(start + 3, PeerId(pass == 0 ? 5 : 17));
    if (pass == 1) churn.join_at(start + 9, PeerId(5));
    Chatter chatter(s.flat, start + 6);
    o.rounds += engine.run(chatter, 400, &churn);
    o.delivery_digest = fold(o.delivery_digest, chatter.delivery_digest());
  }
  o.retransmissions = engine.retransmissions();
  o.duplicates = engine.duplicates_suppressed();
  o.given_up = engine.given_up();
  o.lost = engine.lost_transmissions();
  o.dropped = engine.dropped_messages();
  o.meter_total = meter.total();
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    for (const std::uint64_t b : meter.per_peer_breakdown(PeerId(p))) {
      o.meter_digest = fold(o.meter_digest, b);
    }
  }
  return o;
}

void expect_golden(const Scenario& s, const Outcome& golden) {
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const Outcome o = run_scenario(s, k);
    EXPECT_EQ(o.rounds, golden.rounds);
    EXPECT_EQ(o.retransmissions, golden.retransmissions);
    EXPECT_EQ(o.duplicates, golden.duplicates);
    EXPECT_EQ(o.given_up, golden.given_up);
    EXPECT_EQ(o.lost, golden.lost);
    EXPECT_EQ(o.dropped, golden.dropped);
    EXPECT_EQ(o.meter_total, golden.meter_total);
    EXPECT_EQ(o.meter_digest, golden.meter_digest);
    EXPECT_EQ(o.delivery_digest, golden.delivery_digest);
    EXPECT_EQ(o.admission_digest, golden.admission_digest);
    // Every branch of the layer is reached.
    EXPECT_GT(o.retransmissions, 0u);
    EXPECT_GT(o.duplicates, 0u);
    EXPECT_GT(o.given_up, 0u);
    EXPECT_GT(o.dropped, 0u);
  }
}

LinkFaultModel fault(double loss, std::uint32_t retransmit_after,
                     std::uint32_t max_retries, std::uint64_t seed) {
  LinkFaultModel f;
  f.loss_probability = loss;
  f.retransmit_after = retransmit_after;
  f.max_retries = max_retries;
  f.seed = seed;
  return f;
}

// Delay 1-3 against retransmit_after 2: slow copies and slow ACKs race the
// retransmission timer, so duplicates reach receivers; loss 0.3 with two
// retries gives messages up.
TEST(ReliabilityGoldenTest, FlatPayloadsUnderLossDelayAndFailure) {
  expect_golden({true, fault(0.3, 2, 2, 41), LinkModel{1, 3, 17}},
                Outcome{58, 8680, 4186, 1870, 7266, 628, 347254,
                        3613885965029890563ull, 16135313493881593856ull,
                        16696237748563535328ull});
}

TEST(ReliabilityGoldenTest, TypedPayloadsUnderLossDelayAndFailure) {
  expect_golden({false, fault(0.3, 2, 2, 41), LinkModel{1, 3, 17}},
                Outcome{58, 8680, 4186, 1870, 7266, 628, 429935,
                        11457356295176874935ull, 16135313493881593856ull,
                        10912730923039365806ull});
}

// Capacity-capped links queue transmissions behind a backlog, so copies
// stay in transit for many rounds after their message was acknowledged or
// given up — duplicates then arrive long after the sender finished.
TEST(ReliabilityGoldenTest, BackloggedLinksDeliverLongAfterTheAck) {
  LinkModel link{1, 2, 29};
  link.classes = LinkClassModel::uniform(48);
  link.max_backlog_rounds = 6;
  expect_golden({true, fault(0.1, 1, 3, 43), link},
                Outcome{66, 18632, 15757, 5630, 4559, 774, 603438,
                        798512503262467558ull, 7544098451365814569ull,
                        12449959083733791520ull});
}

}  // namespace
}  // namespace nf::net
