#include "net/flood.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>

#include "net/topology.h"

namespace nf::net {
namespace {

void ignore(PhaseContext&, std::span<const std::uint8_t>) {}

Overlay make_overlay(std::uint32_t n, std::uint64_t seed) {
  Rng rng(seed);
  return Overlay(random_connected(n, 4.0, rng));
}

TEST(FloodTest, ReachesEveryAlivePeerExactlyOnce) {
  Overlay overlay = make_overlay(100, 1);
  TrafficMeter meter(100);
  std::vector<int> deliveries(100, 0);
  const Bytes hello{'h', 'e', 'l', 'l', 'o'};
  FlatFloodPhase flood(PeerId(7), hello, 8, TrafficCategory::kDissemination,
                       64,
                       [&](PhaseContext& ctx, std::span<const std::uint8_t> s) {
                         EXPECT_EQ(Bytes(s.begin(), s.end()), hello);
                         ++deliveries[ctx.self().value()];
                       });
  Engine engine(overlay, meter, {});
  run_phase(engine, flood, kStandaloneBroadcast, 200);
  EXPECT_EQ(flood.num_reached(), 100u);
  for (int d : deliveries) EXPECT_EQ(d, 1);
}

TEST(FloodTest, DuplicatesAreCountedButSuppressed) {
  Overlay overlay = make_overlay(50, 2);
  TrafficMeter meter(50);
  FlatFloodPhase flood(PeerId(0), Bytes{1}, 4, TrafficCategory::kDissemination,
                       64, ignore);
  Engine engine(overlay, meter, {});
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
  FlatFloodPhase flood(PeerId(0), Bytes{1}, 4, TrafficCategory::kDissemination,
                       3, ignore);
  Engine engine(overlay, meter, {});
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
  FlatFloodPhase flood(PeerId(0), Bytes{1}, 4, TrafficCategory::kDissemination,
                       10, ignore);
  Engine engine(overlay, meter, {});
  run_phase(engine, flood, kStandaloneBroadcast, 100);
  EXPECT_EQ(flood.num_reached(), 2u);  // 0 and 1; 2 is dead, 3-4 unreachable
}

TEST(FloodTest, BytesChargedPerForwardedCopy) {
  Topology t(3);
  t.add_edge(PeerId(0), PeerId(1));
  t.add_edge(PeerId(1), PeerId(2));
  Overlay overlay(std::move(t));
  TrafficMeter meter(3);
  FlatFloodPhase flood(PeerId(0), Bytes{1}, 16, TrafficCategory::kDissemination,
                       10, ignore);
  Engine engine(overlay, meter, {});
  run_phase(engine, flood, kStandaloneBroadcast, 100);
  // 0 -> 1, then 1 -> 2 (not back to 0): two copies of 16 bytes.
  EXPECT_EQ(meter.total(TrafficCategory::kDissemination), 32u);
}

TEST(FloodTest, InvalidTtlThrows) {
  EXPECT_THROW(FlatFloodPhase(PeerId(0), Bytes{1}, 4,
                              TrafficCategory::kDissemination, 0, ignore),
               InvalidArgument);
}

/// Drives `mux` and, on its first tick, has `forger` send `target` a copy
/// tagged for the mux's first phase that claims `ttl` remaining hops.
class ForgingProtocol final : public Protocol {
 public:
  ForgingProtocol(SessionMux& mux, PeerId forger, PeerId target,
                  std::uint64_t ttl)
      : mux_(mux), forger_(forger), target_(target), ttl_(ttl) {}

  void on_run_start(const Overlay& overlay,
                    std::uint32_t num_shards) override {
    mux_.on_run_start(overlay, num_shards);
  }
  void on_round_begin(std::uint64_t round) override {
    mux_.on_round_begin(round);
  }
  void on_round(Context& ctx) override {
    mux_.on_round(ctx);
    if (sent_ || ctx.self() != forger_) return;
    sent_ = true;
    PayloadWriter w = ctx.flat_payload();
    w.put_varint(ttl_);
    w.put_bytes(Bytes{1});
    ctx.send_flat_tagged(target_, TrafficCategory::kDissemination, 4,
                         w.finish(), /*session=*/0, /*phase=*/0, {});
  }
  void on_message(Context& ctx, Envelope&& env) override {
    mux_.on_message(ctx, std::move(env));
  }
  void on_run_end() override { mux_.on_run_end(); }
  [[nodiscard]] bool active() const override { return mux_.active(); }

 private:
  SessionMux& mux_;
  PeerId forger_;
  PeerId target_;
  std::uint64_t ttl_;
  bool sent_ = false;
};

TEST(FloodTest, ForgedTtlBeyondTheBoundIsRejected) {
  // Line topology, TTL 3 from peer 0: only peers 0..3 may ever process the
  // payload. A copy injected at the far end claiming the full bound — or
  // 2^32, which a 32-bit truncation would turn into a near-endless flood —
  // would carry it to peers 4..8.
  for (const std::uint64_t forged : {std::uint64_t{3}, std::uint64_t{1} << 32}) {
    Topology t(10);
    for (std::uint32_t i = 0; i + 1 < 10; ++i) {
      t.add_edge(PeerId(i), PeerId(i + 1));
    }
    Overlay overlay(std::move(t));
    TrafficMeter meter(10);
    FlatFloodPhase flood(PeerId(0), Bytes{1}, 4,
                         TrafficCategory::kDissemination, 3, ignore);
    SessionMux mux;
    (void)mux.add_phase(mux.add_session(), flood, kStandaloneBroadcast);
    ForgingProtocol forging(mux, PeerId(9), PeerId(8), forged);
    Engine engine(overlay, meter, {});
    EXPECT_THROW((void)engine.run(forging, 100), ProtocolError) << forged;
    EXPECT_FALSE(flood.reached(PeerId(8))) << forged;
  }
}

}  // namespace
}  // namespace nf::net
