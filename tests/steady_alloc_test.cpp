// Zero-allocation steady state (ISSUE: million-peer hot path).
//
// The flat payload path exists so a warmed engine performs no heap
// allocation per round: slabs, outboxes, inboxes and protocol arenas all
// reach their high-water mark during a warm-up run and are reused
// afterwards. This test links the nf_alloc_hook operator-new override,
// warms an engine with one full flat convergecast run, flips
// begin_steady_state(), and runs a second (fresh) phase instance on the
// same engine — asserting the round loop allocated exactly nothing.
//
// Phase instances are one-shot, so the steady-state run uses a fresh
// instance B while the *engine* stays warm; B's own arenas and the mux
// run_phase builds around it fill in before the measured round loop by
// design.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "agg/flat_phases.h"
#include "agg/hierarchy.h"
#include "common/alloc_hook.h"
#include "common/rng.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::kStandaloneConvergecast;
using net::Overlay;
using net::run_phase;
using net::TrafficCategory;
using net::TrafficMeter;

constexpr std::uint32_t kPeers = 256;
constexpr std::uint32_t kWidth = 96;  // f*g group sums per message

FlatAggregateConvergecastPhase make_cast(const Hierarchy& hierarchy,
                                         obs::Context* obs = nullptr) {
  return FlatAggregateConvergecastPhase(
      hierarchy, TrafficCategory::kFiltering, kWidth,
      [](PeerId p, std::span<std::uint64_t> out) {
        for (std::uint32_t j = 0; j < kWidth; ++j) {
          out[j] = (p.value() + j) % 7;
        }
      },
      /*flat_bytes=*/0, obs);
}

TEST(SteadyAllocTest, HookIsArmedAndCounting) {
  // Guard against a silently missing link line: a binary without the
  // override TU would report zero allocations for any run.
  ASSERT_TRUE(alloc_hook::armed());
  const std::uint64_t before = alloc_hook::count();
  std::vector<std::uint8_t> sink(1 << 16);
  ASSERT_NE(sink.data(), nullptr);
  EXPECT_GT(alloc_hook::count(), before);
}

TEST(SteadyAllocTest, WarmedFlatRunAllocatesNothing) {
  ASSERT_TRUE(alloc_hook::armed());
  Rng rng(11);
  Overlay overlay(net::random_tree(kPeers, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  Engine engine(overlay, meter, {});

  // Warm-up: one full run grows every slab, outbox and inbox to its
  // high-water mark.
  FlatAggregateConvergecastPhase warm = make_cast(hierarchy);
  run_phase(engine, warm, kStandaloneConvergecast, 100);
  ASSERT_TRUE(warm.complete());

  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_cast(hierarchy);
  run_phase(engine, steady, kStandaloneConvergecast, 100);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "flat hot path allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedWideFlatRunAllocatesNothing) {
  // netFilter's shape: f×g = 500 lanes per message, every tenth a 2-byte
  // varint at the leaves already. Parents hold their children's payloads
  // in per-shard byte stores reserved at run start, so the round loop
  // must not grow them.
  ASSERT_TRUE(alloc_hook::armed());
  constexpr std::uint32_t kWide = 500;
  Rng rng(14);
  Overlay overlay(net::random_tree(kPeers, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  Engine engine(overlay, meter, {});
  const auto make_wide = [&hierarchy] {
    return FlatAggregateConvergecastPhase(
        hierarchy, TrafficCategory::kFiltering, kWide,
        [](PeerId p, std::span<std::uint64_t> out) {
          for (std::uint32_t j = 0; j < kWide; ++j) {
            out[j] = j % 10 == 0 ? 128 + (p.value() + j) % 100
                                 : (p.value() + j) % 7;
          }
        },
        /*flat_bytes=*/0);
  };

  FlatAggregateConvergecastPhase warm = make_wide();
  run_phase(engine, warm, kStandaloneConvergecast, 100);
  ASSERT_TRUE(warm.complete());

  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_wide();
  run_phase(engine, steady, kStandaloneConvergecast, 100);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "wide flat convergecast allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedTenByteLaneFlatRunAllocatesNothing) {
  // The bulk writer claims 10 bytes per lane at the outbox slab's tail
  // before it writes, and one lane in 50 here is a 10-byte varint that
  // takes write_varint's byte loop: every lane holds the complement of a
  // small number, so its sums stay near 2^64 all the way up the tree. The
  // warm-up run reaches the claims' high-water mark, so a warmed run must
  // not allocate. The other lanes stay small, which keeps the held
  // payloads inside the byte stores' reservation (1.5 bytes per lane): a
  // row of mostly 10-byte lanes would outgrow it, and that growth is the
  // store's, not the writer's.
  ASSERT_TRUE(alloc_hook::armed());
  constexpr std::uint32_t kWide = 500;
  Rng rng(15);
  Overlay overlay(net::random_tree(kPeers, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  Engine engine(overlay, meter, {});
  const auto make_wide = [&hierarchy] {
    return FlatAggregateConvergecastPhase(
        hierarchy, TrafficCategory::kFiltering, kWide,
        [](PeerId p, std::span<std::uint64_t> out) {
          for (std::uint32_t j = 0; j < kWide; ++j) {
            const std::uint64_t small = (p.value() + j) % 7;
            out[j] = j % 50 == 0 ? ~small : small;
          }
        },
        /*flat_bytes=*/0);
  };

  FlatAggregateConvergecastPhase warm = make_wide();
  run_phase(engine, warm, kStandaloneConvergecast, 100);
  ASSERT_TRUE(warm.complete());
  ASSERT_GE(warm.result()[0], std::uint64_t{1} << 63);  // a 10-byte lane

  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_wide();
  run_phase(engine, steady, kStandaloneConvergecast, 100);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "10-byte lanes allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedLossyFlatRunAllocatesNothing) {
  // The reliability layer's bookkeeping — the unacked table, its payload
  // bytes, the retransmit wheel and the delivered bits — is recycled too:
  // once warm, ACKs, retransmissions and duplicate suppression reuse it.
  ASSERT_TRUE(alloc_hook::armed());
  Rng rng(13);
  Overlay overlay(net::random_tree(kPeers, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  net::LinkFaultModel fault;
  fault.loss_probability = 0.05;
  Engine engine(overlay, meter, {.fault = fault});

  FlatAggregateConvergecastPhase warm = make_cast(hierarchy);
  run_phase(engine, warm, kStandaloneConvergecast, 200);
  ASSERT_TRUE(warm.complete());

  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_cast(hierarchy);
  run_phase(engine, steady, kStandaloneConvergecast, 200);
  ASSERT_TRUE(steady.complete());
  EXPECT_GT(engine.retransmissions(), 0u);
  EXPECT_EQ(engine.steady_allocs(), 0u)
      << "lossy flat path allocated on a warmed engine";
}

TEST(SteadyAllocTest, WarmedLinkStatsChargePathAllocatesNothing) {
  // The telemetry plane's own contract: after the warm-up calls
  // (set_link_capacity / configure_levels / bind_series), charge() touches
  // only preallocated storage — including the Misra-Gries overflow path,
  // which this stream forces by feeding far more distinct links than the
  // summary's capacity.
  ASSERT_TRUE(alloc_hook::armed());
  obs::Context obs;
  obs::LinkStats& ls = obs.link_stats;
  std::vector<std::uint32_t> depths(kPeers);
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    depths[p] = p == 0 ? 0 : 1 + p % 3;
  }
  ls.set_link_capacity(64);
  ls.configure_levels(depths, 4);
  ls.bind_series(obs.registry, obs.series);

  const std::uint64_t before = alloc_hook::count();
  for (std::uint32_t i = 0; i < 20000; ++i) {
    ls.charge(i % kPeers, (i * 7 + 1) % kPeers, i % 9, 64);
  }
  EXPECT_EQ(alloc_hook::count(), before)
      << "LinkStats::charge allocated on a warmed telemetry plane";
}

TEST(SteadyAllocTest, SteadyAllocsMirroredIntoObsCounter) {
  // With an obs context attached the per-round delta also feeds the
  // `engine/steady_allocs` counter. Obs itself allocates (tracer events,
  // metric names), so this test checks the mirror, not zero.
  Rng rng(12);
  Overlay overlay(net::random_tree(64, 3, rng));
  TrafficMeter meter(overlay.num_peers());
  const Hierarchy hierarchy = build_bfs_hierarchy(overlay, PeerId(0));
  obs::Context obs;
  Engine engine(overlay, meter, {.obs = &obs});

  FlatAggregateConvergecastPhase warm = make_cast(hierarchy, &obs);
  run_phase(engine, warm, kStandaloneConvergecast, 100, &obs);
  engine.begin_steady_state();
  FlatAggregateConvergecastPhase steady = make_cast(hierarchy, &obs);
  run_phase(engine, steady, kStandaloneConvergecast, 100, &obs);
  ASSERT_TRUE(steady.complete());
  EXPECT_EQ(obs.registry.counter("engine/steady_allocs").value(),
            engine.steady_allocs());
}

}  // namespace
}  // namespace nf::agg
