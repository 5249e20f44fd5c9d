#include "agg/unicast.h"

#include <gtest/gtest.h>

#include <optional>

#include "net/topology.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::Overlay;
using net::PhaseContext;
using net::Topology;
using net::TrafficMeter;

struct Fixture {
  explicit Fixture(Topology topo, PeerId root = PeerId(0))
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, root)) {}

  Overlay overlay;
  TrafficMeter meter;
  Hierarchy hierarchy;
};

Topology line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return t;
}

/// One round trip as one session: the request opens at every peer (the
/// requester originates), its arrival at the root installs `answer` and
/// opens the reply there, and the reply retraces the route.
struct RoundTrip {
  std::optional<ValueMap<ItemId, Value>> reply;
  std::optional<PeerId> served_at;
  std::uint64_t rounds = 0;
};

RoundTrip round_trip(Fixture& fx, PeerId requester,
                     std::uint64_t request_bytes, std::uint64_t pair_bytes,
                     const ValueMap<ItemId, Value>& answer) {
  RoundTrip out;
  net::SessionMux mux;
  const net::SessionId sid = mux.add_session();
  net::PhaseId reply_pid = 0;
  ReplyPhase reply(fx.hierarchy, requester, pair_bytes,
                   [&](PhaseContext& ctx, ValueMap<ItemId, Value>&& frequent) {
                     EXPECT_EQ(ctx.self(), requester);
                     out.reply = std::move(frequent);
                   });
  RequestPhase request(fx.hierarchy, requester, request_bytes,
                       [&](PhaseContext& ctx, RequestMsg&& msg) {
                         out.served_at = ctx.self();
                         reply.set_payload(
                             ReplyMsg{std::move(msg.route), answer});
                         ctx.open_phase(reply_pid);
                       });
  (void)mux.add_phase(sid, request, net::kStandaloneBroadcast);
  reply_pid = mux.add_phase(sid, reply, net::PhaseOptions{});
  Engine engine(fx.overlay, fx.meter, {});
  out.rounds = engine.run(mux, 200);
  EXPECT_TRUE(mux.all_done());
  return out;
}

ValueMap<ItemId, Value> answer_of(std::uint64_t n) {
  ValueMap<ItemId, Value> m;
  for (std::uint64_t i = 0; i < n; ++i) m.add(ItemId(i), 1000 + i);
  return m;
}

TEST(UnicastTest, RoundTripsAlongTheLine) {
  Fixture fx(line(6));
  const RoundTrip rt = round_trip(fx, PeerId(5), /*request_bytes=*/4,
                                  /*pair_bytes=*/8, answer_of(3));
  EXPECT_EQ(rt.served_at, PeerId(0));
  ASSERT_TRUE(rt.reply.has_value());
  EXPECT_EQ(*rt.reply, answer_of(3));
}

TEST(UnicastTest, CompletesInTwiceDepthRounds) {
  Fixture fx(line(8));
  const RoundTrip rt = round_trip(fx, PeerId(7), 4, 4, answer_of(1));
  EXPECT_TRUE(rt.reply.has_value());
  EXPECT_LE(rt.rounds, 2u * 7u + 2u);
}

TEST(UnicastTest, ChargesPerHopBothWays) {
  Fixture fx(line(4));  // requester depth 3
  (void)round_trip(fx, PeerId(3), /*request_bytes=*/10, /*pair_bytes=*/10,
                   answer_of(2));
  // 3 request hops at 10 bytes + 3 reply hops at 2 pairs x 10 bytes.
  EXPECT_EQ(fx.meter.total(net::TrafficCategory::kControl), 3u * 10 + 3u * 20);
}

TEST(UnicastTest, RootRequesterIsServedLocally) {
  Fixture fx(line(3));
  const RoundTrip rt = round_trip(fx, PeerId(0), 4, 4, answer_of(2));
  EXPECT_EQ(rt.served_at, PeerId(0));
  ASSERT_TRUE(rt.reply.has_value());
  EXPECT_EQ(*rt.reply, answer_of(2));
  EXPECT_EQ(fx.meter.total(), 0u);
}

TEST(UnicastTest, WorksOnRandomTreesFromAnyRequester) {
  Rng rng(3);
  Fixture fx(net::random_tree(60, 3, rng));
  for (std::uint32_t requester : {1u, 17u, 42u, 59u}) {
    const RoundTrip rt =
        round_trip(fx, PeerId(requester), 4, 4, answer_of(requester % 5));
    EXPECT_EQ(rt.served_at, fx.hierarchy.root()) << requester;
    ASSERT_TRUE(rt.reply.has_value()) << requester;
    EXPECT_EQ(*rt.reply, answer_of(requester % 5));
  }
}

TEST(UnicastTest, NonMemberRequesterRejected) {
  Overlay overlay(line(4));
  overlay.fail(PeerId(3));
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));
  EXPECT_THROW(
      RequestPhase(h, PeerId(3), 4, [](PhaseContext&, RequestMsg&&) {}),
      InvalidArgument);
}

}  // namespace
}  // namespace nf::agg
