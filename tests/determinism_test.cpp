// Golden determinism suite for the sharded round engine (DESIGN.md §6c).
//
// The engine's contract is that the shard count is invisible: a K-shard run
// must produce the SAME execution as the serial engine, bit for bit — the
// same envelopes admitted in the same order (observed via set_send_probe),
// the same meter charges, and the same protocol results. These tests pin
// that contract for K ∈ {2, 4, 8} against K = 1, for plain runs and under
// the adversarial engine features (link loss, latency jitter), and for the
// full netFilter driver.
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "agg/flat_phases.h"
#include "agg/hierarchy.h"
#include "common/arena.h"
#include "common/hashing.h"
#include "core/host_report.h"
#include "core/netfilter.h"
#include "core/query_service.h"
#include "core/tuner.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/export.h"
#include "workload/workload.h"

namespace nf {
namespace {

using net::Engine;
using net::Envelope;
using net::LinkFaultModel;
using net::LinkModel;
using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

// 60 peers: not a multiple of 8, so every K in {2,4,8} gets uneven
// contiguous shards — the case where a sloppy merge would reorder sends.
constexpr std::uint32_t kPeers = 60;
constexpr std::uint32_t kShardCounts[] = {2, 4, 8};

struct TestWorld {
  wl::Workload workload;
  Overlay overlay;
  agg::Hierarchy hierarchy;

  static TestWorld make() {
    wl::WorkloadConfig wc;
    wc.num_peers = kPeers;
    wc.num_items = 2000;
    wc.seed = 11;
    wl::Workload w = wl::Workload::generate(wc);
    Rng rng(5);
    Overlay overlay(net::random_tree(kPeers, 3, rng));
    agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
    return TestWorld{std::move(w), std::move(overlay), std::move(h)};
  }
};

/// One admitted envelope, flattened for exact comparison. The payload is
/// protocol-internal; identity of (from, to, category, bytes) in identical
/// order pins the wire-visible execution.
using SendRecord = std::tuple<std::uint32_t, std::uint32_t, int, std::uint64_t>;

struct RunTrace {
  std::vector<SendRecord> sends;
  std::array<std::uint64_t, net::kNumTrafficCategories> totals{};
  std::uint64_t num_messages = 0;
  std::uint64_t rounds = 0;
  std::vector<Value> result;
};

/// Runs the fig5-style phase-1 convergecast (group aggregates up the
/// hierarchy) at the given shard count and records everything observable.
RunTrace run_convergecast(const TestWorld& world, std::uint32_t threads,
                          const LinkFaultModel* fault,
                          const LinkModel* latency) {
  const core::NetFilter nf(core::NetFilterConfig{});
  TrafficMeter meter(kPeers);
  Overlay overlay = world.overlay;  // engines never mutate it, but stay safe
  Engine engine(overlay, meter,
                {.threads = threads,
                 .fault = fault != nullptr ? *fault : LinkFaultModel{},
                 .link = latency != nullptr ? *latency : LinkModel{}});

  RunTrace trace;
  engine.set_send_probe([&trace](const Envelope& env) {
    trace.sends.emplace_back(env.from.value(), env.to.value(),
                             static_cast<int>(env.category), env.bytes);
  });

  agg::ConvergecastPhase<std::vector<Value>> cast(
      world.hierarchy, TrafficCategory::kFiltering,
      [&](PeerId p) {
        return nf.local_group_aggregates(world.workload.local_items(p));
      },
      [](std::vector<Value>& acc, std::vector<Value>&& child) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += child[i];
      },
      [](const std::vector<Value>&) { return std::uint64_t{128}; });
  trace.rounds =
      net::run_phase(engine, cast, net::kStandaloneConvergecast, 5000);
  EXPECT_TRUE(cast.complete());
  trace.result = cast.result();
  for (std::size_t c = 0; c < net::kNumTrafficCategories; ++c) {
    trace.totals[c] = meter.total(static_cast<TrafficCategory>(c));
  }
  trace.num_messages = meter.num_messages();
  return trace;
}

void expect_identical(const RunTrace& serial, const RunTrace& sharded,
                      std::uint32_t threads) {
  SCOPED_TRACE(::testing::Message() << "threads=" << threads);
  EXPECT_EQ(serial.rounds, sharded.rounds);
  EXPECT_EQ(serial.result, sharded.result);
  EXPECT_EQ(serial.totals, sharded.totals);
  EXPECT_EQ(serial.num_messages, sharded.num_messages);
  ASSERT_EQ(serial.sends.size(), sharded.sends.size());
  // Element-wise (not one big EQ) so a failure names the first divergence.
  for (std::size_t i = 0; i < serial.sends.size(); ++i) {
    ASSERT_EQ(serial.sends[i], sharded.sends[i]) << "send index " << i;
  }
}

TEST(DeterminismTest, ShardedConvergecastIsBitIdenticalToSerial) {
  const TestWorld world = TestWorld::make();
  const RunTrace serial = run_convergecast(world, 1, nullptr, nullptr);
  ASSERT_FALSE(serial.sends.empty());
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, nullptr, nullptr), k);
  }
}

TEST(DeterminismTest, LossyLinksPreserveTheSendStream) {
  const TestWorld world = TestWorld::make();
  LinkFaultModel fault;
  fault.loss_probability = 0.25;
  fault.seed = 99;
  const RunTrace serial = run_convergecast(world, 1, &fault, nullptr);
  // Loss forces retransmissions and ACK traffic through the probe too.
  EXPECT_GT(serial.totals[static_cast<std::size_t>(TrafficCategory::kControl)],
            0u);
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, &fault, nullptr), k);
  }
}

TEST(DeterminismTest, LatencyJitterPreservesTheSendStream) {
  const TestWorld world = TestWorld::make();
  const LinkModel latency{1, 4, 7};
  const RunTrace serial = run_convergecast(world, 1, nullptr, &latency);
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, nullptr, &latency), k);
  }
}

TEST(DeterminismTest, LossPlusLatencyPreservesTheSendStream) {
  const TestWorld world = TestWorld::make();
  LinkFaultModel fault;
  fault.loss_probability = 0.15;
  fault.seed = 3;
  const LinkModel latency{1, 3, 21};
  const RunTrace serial = run_convergecast(world, 1, &fault, &latency);
  for (const std::uint32_t k : kShardCounts) {
    expect_identical(serial, run_convergecast(world, k, &fault, &latency), k);
  }
}

// Flat payloads raise the determinism bar from "same envelope stream" to
// "same wire bytes": slab-backed payload spans — written into per-shard
// outbox slabs and copied to transit-ring slots at the canonical-order
// merge barrier — must resolve to byte-identical content at every shard
// count, not just the same (from, to, category, bytes) metadata.
TEST(DeterminismTest, FlatPayloadBytesAreBitIdenticalAcrossShardCounts) {
  const TestWorld world = TestWorld::make();
  constexpr std::uint32_t kWidth = 80;  // f=2 banks of g=40 group sums

  struct FlatTrace {
    std::vector<SendRecord> sends;
    std::vector<net::Bytes> payloads;
    std::vector<Value> result;
  };

  const auto run_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    Engine engine(overlay, meter, {.threads = threads});

    FlatTrace trace;
    // The probe fires at admission, after the engine parked the payload in
    // the delivery slot's slab — resolve() here reads the actual wire span.
    engine.set_send_probe([&trace, &engine](const Envelope& env) {
      trace.sends.emplace_back(env.from.value(), env.to.value(),
                               static_cast<int>(env.category), env.bytes);
      const std::span<const std::uint8_t> bytes = engine.resolve(env.flat);
      trace.payloads.emplace_back(bytes.begin(), bytes.end());
    });

    agg::FlatAggregateConvergecastPhase cast(
        world.hierarchy, TrafficCategory::kFiltering, kWidth,
        [&](PeerId p, std::span<Value> out) {
          nf.local_group_aggregates_into(world.workload.local_items(p), out);
        },
        /*flat_bytes=*/0);
    net::run_phase(engine, cast, net::kStandaloneConvergecast, 5000);
    EXPECT_TRUE(cast.complete());
    const std::span<const Value> result = cast.result();
    trace.result.assign(result.begin(), result.end());
    return trace;
  };

  const FlatTrace serial = run_at(1);
  ASSERT_FALSE(serial.sends.empty());
  // Every upward merge ships a real encoded payload, not an empty ref.
  for (const net::Bytes& p : serial.payloads) ASSERT_FALSE(p.empty());
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const FlatTrace sharded = run_at(k);
    EXPECT_EQ(serial.result, sharded.result);
    ASSERT_EQ(serial.sends.size(), sharded.sends.size());
    for (std::size_t i = 0; i < serial.sends.size(); ++i) {
      ASSERT_EQ(serial.sends[i], sharded.sends[i]) << "send index " << i;
      ASSERT_EQ(serial.payloads[i], sharded.payloads[i])
          << "payload bytes diverge at send index " << i;
    }
  }
}

TEST(DeterminismTest, NetFilterEndToEndMatchesSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(std::move(r), meter.total(), meter.num_messages());
  };

  const auto [serial, serial_bytes, serial_msgs] = run_at(1);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, bytes, msgs] = run_at(k);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.heavy_groups_total, sharded.stats.heavy_groups_total);
    EXPECT_EQ(serial.stats.num_candidates, sharded.stats.num_candidates);
    EXPECT_EQ(serial.stats.rounds_filtering, sharded.stats.rounds_filtering);
    EXPECT_EQ(serial.stats.rounds_verification,
              sharded.stats.rounds_verification);
    ASSERT_EQ(serial.frequent.size(), sharded.frequent.size());
    auto it = sharded.frequent.begin();
    for (const auto& [id, v] : serial.frequent) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
  }
}

TEST(DeterminismTest, ObsMetricsAndSeriesMatchSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    (void)nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return ctx;
  };

  const auto serial = run_at(1);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto sharded = run_at(k);
    // Every counter except the wall-clock timings must be bit-identical.
    for (const auto& [name, c] : serial->registry.counters()) {
      if (name.rfind("time_us/", 0) == 0) continue;
      if (name == "obs/overhead_us" || name == "engine/round_us") continue;
      EXPECT_EQ(c.value(), sharded->registry.counter(name).value()) << name;
    }
    // Deterministic series columns: same rows, same stamps, same deltas.
    // Busy/idle shard gauges are real time and excluded by construction
    // (they are gauge columns compared by explicit name below).
    EXPECT_EQ(serial->series.stamps(), sharded->series.stamps());
    for (const char* col :
         {"engine/sent", "engine/delivered", "engine/sent_bytes"}) {
      EXPECT_EQ(serial->series.counter_series(col),
                sharded->series.counter_series(col))
          << col;
    }
    EXPECT_EQ(serial->series.gauge_series("engine/in_flight"),
              sharded->series.gauge_series("engine/in_flight"));
    // Conformance runs are derived from deterministic stats, so the whole
    // report must agree too.
    EXPECT_EQ(obs::to_json(serial->conformance).dump(),
              obs::to_json(sharded->conformance).dump());
    // The topology telemetry plane is charged once, on the engine thread,
    // in canonical merge order — so the whole link_stats export (per-level
    // matrix, Misra-Gries hot list, predictions) must be byte-identical,
    // and so must the per-level series columns it binds.
    EXPECT_EQ(obs::to_json(serial->link_stats).dump(),
              obs::to_json(sharded->link_stats).dump());
    ASSERT_TRUE(serial->link_stats.configured());
    EXPECT_FALSE(serial->link_stats.links().ranked().empty());
    for (std::uint32_t d = 0; d < serial->link_stats.num_levels(); ++d) {
      const std::string col = "link/level" + std::to_string(d) + "/bytes";
      EXPECT_EQ(serial->series.counter_series(col),
                sharded->series.counter_series(col))
          << col;
    }
  }
}

// The link scheduler runs at the canonical-order merge barrier on the
// engine thread, so saturating congestion must not cost a single bit of
// determinism: under narrow links with a clamping backlog horizon, the
// full netFilter run — results, congestion counters, the backlog gauge
// series, and the link_stats congestion export — must be byte-identical
// serial vs sharded.
TEST(DeterminismTest, SaturatedCongestionMatchesSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    // Saturating: every message (f*g encoded group sums, ~100+ bytes)
    // overflows a 64-byte link, the root-adjacent links get an even
    // narrower override, and the tight horizon forces clamping.
    cfg.link.classes = net::LinkClassModel::uniform(64);
    std::vector<std::uint32_t> depths(kPeers);
    for (std::uint32_t p = 0; p < kPeers; ++p) {
      depths[p] = world.hierarchy.depth(PeerId(p));
    }
    cfg.link.classes.set_level_override(depths, 1, 24);
    cfg.link.max_backlog_rounds = 6;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(std::move(r), std::move(ctx), meter.total(),
                           meter.num_messages());
  };

  const auto [serial, serial_ctx, serial_bytes, serial_msgs] = run_at(1);
  // The scenario actually saturates: messages queued, rounds stretched.
  EXPECT_GT(serial_ctx->registry.counter("engine/congestion/queued_msgs")
                .value(),
            0u);
  EXPECT_GT(
      serial_ctx->registry.counter("engine/congestion/queue_delay_rounds")
          .value(),
      0u);
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, ctx, bytes, msgs] = run_at(k);
    EXPECT_EQ(serial_bytes, bytes);  // contention costs rounds, not bytes
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.rounds_total, sharded.stats.rounds_total);
    EXPECT_EQ(serial.frequent, sharded.frequent);
    for (const auto& [name, c] : serial_ctx->registry.counters()) {
      if (name.rfind("time_us/", 0) == 0) continue;
      if (name == "obs/overhead_us" || name == "engine/round_us") continue;
      EXPECT_EQ(c.value(), ctx->registry.counter(name).value()) << name;
    }
    // The congestion telemetry columns specifically: same stamps, same
    // backlog trajectory per level, same utilization inputs.
    EXPECT_EQ(serial_ctx->series.stamps(), ctx->series.stamps());
    EXPECT_EQ(serial_ctx->series.gauge_series("engine/backlog_bytes"),
              ctx->series.gauge_series("engine/backlog_bytes"));
    ASSERT_TRUE(serial_ctx->link_stats.configured());
    for (std::uint32_t d = 0; d < serial_ctx->link_stats.num_levels(); ++d) {
      const std::string bytes_col =
          "link/level" + std::to_string(d) + "/bytes";
      EXPECT_EQ(serial_ctx->series.counter_series(bytes_col),
                ctx->series.counter_series(bytes_col))
          << bytes_col;
      const std::string backlog_col =
          "link/level" + std::to_string(d) + "/backlog_bytes";
      EXPECT_EQ(serial_ctx->series.gauge_series(backlog_col),
                ctx->series.gauge_series(backlog_col))
          << backlog_col;
    }
    // The whole export — per-level capacity rows, the congestion
    // sub-object, hot spill links — byte for byte.
    EXPECT_EQ(obs::to_json(serial_ctx->link_stats).dump(),
              obs::to_json(ctx->link_stats).dump());
  }
}

// The infinite-capacity LinkModel must be invisible: explicitly setting the
// default model on a netFilter run reproduces the no-model run bit for bit
// (same sends, bytes, rounds, results) — the committed-baseline guarantee.
TEST(DeterminismTest, InfiniteCapacityLinkModelIsInvisible) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](bool explicit_model) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    if (explicit_model) {
      cfg.link.classes = net::LinkClassModel::uniform(net::kInfiniteCapacity);
    }
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(r.frequent, r.stats.rounds_total, meter.total(),
                           meter.num_messages());
  };

  EXPECT_EQ(run_at(false), run_at(true));
}

// The pipelined session runtime must be a pure orchestration change: byte
// for byte the same answer and phase costs as the barriered schedule
// (filter_candidates then verify_candidates, three engine runs), in
// strictly fewer engine rounds — serial and sharded alike.
TEST(DeterminismTest, PipelinedNetFilterMatchesBarrieredInFewerRounds) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);
  const auto make_nf = [](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    return core::NetFilter(cfg);
  };

  const auto run_back_to_back = [&] {
    const core::NetFilter nf = make_nf(1);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    // The same host-report-folded view NetFilter::run builds.
    const core::EffectiveItems items(world.workload, world.hierarchy,
                                     overlay, nf.config().wire, &meter);
    core::NetFilterStats stats;
    const core::HeavyGroupSet heavy = nf.filter_candidates(
        items, world.hierarchy, overlay, meter, t, &stats);
    core::NetFilterResult r = nf.verify_candidates(
        items, world.hierarchy, overlay, meter, t, heavy, stats);
    r.stats.rounds_total =
        r.stats.rounds_filtering + r.stats.rounds_verification;
    return std::make_tuple(std::move(r), meter.total(), meter.num_messages());
  };
  const auto run_pipelined = [&](std::uint32_t threads) {
    const core::NetFilter nf = make_nf(threads);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::NetFilterResult r =
        nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return std::make_tuple(std::move(r), meter.total(), meter.num_messages());
  };

  const auto [barriered, b_bytes, b_msgs] = run_back_to_back();
  for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const auto [pipelined, p_bytes, p_msgs] = run_pipelined(threads);
    // Loss-free, the message set is identical — only the schedule differs.
    EXPECT_EQ(b_bytes, p_bytes);
    EXPECT_EQ(b_msgs, p_msgs);
    EXPECT_EQ(barriered.stats.heavy_groups_total,
              pipelined.stats.heavy_groups_total);
    EXPECT_EQ(barriered.stats.num_candidates, pipelined.stats.num_candidates);
    EXPECT_EQ(barriered.stats.num_frequent, pipelined.stats.num_frequent);
    EXPECT_EQ(barriered.stats.filtering_cost, pipelined.stats.filtering_cost);
    EXPECT_EQ(barriered.stats.dissemination_cost,
              pipelined.stats.dissemination_cost);
    EXPECT_EQ(barriered.stats.aggregation_cost,
              pipelined.stats.aggregation_cost);
    ASSERT_EQ(barriered.frequent.size(), pipelined.frequent.size());
    auto it = pipelined.frequent.begin();
    for (const auto& [id, v] : barriered.frequent) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    // The pipelining win itself: phase overlap saves whole rounds.
    EXPECT_GT(barriered.stats.rounds_total, 0u);
    EXPECT_LT(pipelined.stats.rounds_total, barriered.stats.rounds_total);
  }
}

// N queries multiplexed over one engine run must return bit-identical
// answers to the same queries run back to back, at every shard count.
TEST(DeterminismTest, ConcurrentSessionsMatchBackToBackRuns) {
  const TestWorld world = TestWorld::make();
  const std::vector<core::ConcurrentRequest> requests{
      {PeerId(3), 0.01, 0, 0, 0},
      {PeerId(20), 0.03, 3, 64, 77},  // its own filter bank
      {PeerId(41), 0.005, 0, 0, 0},
      {PeerId(9), 0.08, 2, 24, 5},
  };

  const auto serve_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    const core::QueryService svc(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::ConcurrentQueryStats stats;
    auto responses = svc.serve_concurrent(requests, world.workload,
                                          world.hierarchy, overlay, meter,
                                          &stats);
    return std::make_tuple(std::move(responses), std::move(stats),
                           meter.total(), meter.num_messages());
  };

  const auto [serial, serial_stats, serial_bytes, serial_msgs] = serve_at(1);
  ASSERT_EQ(serial.size(), requests.size());

  // Back-to-back baseline: each request as its own netFilter run with the
  // same effective config and threshold.
  for (std::size_t i = 0; i < requests.size(); ++i) {
    core::NetFilterConfig cfg;
    cfg.num_groups =
        requests[i].num_groups != 0 ? requests[i].num_groups : 40;
    cfg.num_filters =
        requests[i].num_filters != 0 ? requests[i].num_filters : 2;
    if (requests[i].filter_seed != 0) cfg.filter_seed = requests[i].filter_seed;
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    const core::NetFilterResult solo = nf.run(
        world.workload, world.hierarchy, overlay, meter, serial[i].threshold);
    SCOPED_TRACE(::testing::Message() << "request " << i);
    EXPECT_EQ(solo.frequent, serial[i].frequent);
    EXPECT_EQ(solo.stats.heavy_groups_total,
              serial_stats.sessions[i].netfilter.heavy_groups_total);
    EXPECT_EQ(solo.stats.num_candidates,
              serial_stats.sessions[i].netfilter.num_candidates);
  }

  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, sharded_stats, bytes, msgs] = serve_at(k);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial_stats.rounds_total, sharded_stats.rounds_total);
    ASSERT_EQ(serial.size(), sharded.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].requester, sharded[i].requester);
      EXPECT_EQ(serial[i].threshold, sharded[i].threshold);
      EXPECT_EQ(serial[i].frequent, sharded[i].frequent) << "request " << i;
      EXPECT_EQ(serial_stats.sessions[i].traffic.total_bytes(),
                sharded_stats.sessions[i].traffic.total_bytes());
      EXPECT_EQ(serial_stats.sessions[i].traffic.total_msgs(),
                sharded_stats.sessions[i].traffic.total_msgs());
    }
  }
}

// Two multiplexed queries over one filter bank whose heavy sets differ:
// each peer decodes the heavy set once per distinct payload, so a decode
// shared across sessions, or per shard only, would hand one query the
// other's set. Answers, traffic and rounds must be bit-identical at every
// shard count, and both answers exact.
TEST(DeterminismTest, ConcurrentSessionsWithDistinctHeavySetsMatchSerial) {
  const TestWorld world = TestWorld::make();
  const std::vector<core::ConcurrentRequest> requests{
      {PeerId(7), 0.004, 0, 0, 0},
      {PeerId(33), 0.03, 0, 0, 0},
  };
  struct Served {
    std::vector<core::FrequentItemsResponse> responses;
    core::ConcurrentQueryStats stats;
    std::array<std::uint64_t, net::kNumTrafficCategories> totals{};
    std::uint64_t msgs = 0;
  };
  const auto serve_at = [&](std::uint32_t threads) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 24;
    cfg.num_filters = 2;
    cfg.threads = threads;
    const core::QueryService svc(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    Served out;
    out.responses = svc.serve_concurrent(requests, world.workload,
                                         world.hierarchy, overlay, meter,
                                         &out.stats);
    for (std::size_t c = 0; c < net::kNumTrafficCategories; ++c) {
      out.totals[c] = meter.total(static_cast<TrafficCategory>(c));
    }
    out.msgs = meter.num_messages();
    return out;
  };

  const Served serial = serve_at(1);
  ASSERT_EQ(serial.responses.size(), 2u);
  EXPECT_NE(serial.stats.sessions[0].netfilter.heavy_groups_total,
            serial.stats.sessions[1].netfilter.heavy_groups_total);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(serial.responses[i].frequent,
              world.workload.frequent_items(serial.responses[i].threshold))
        << "request " << i;
  }
  EXPECT_NE(serial.responses[0].frequent, serial.responses[1].frequent);
  // Each session's candidates come from its own heavy set: the same counts
  // as the query run alone.
  for (std::size_t i = 0; i < 2; ++i) {
    core::NetFilterConfig cfg;
    cfg.num_groups = 24;
    cfg.num_filters = 2;
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    const core::NetFilterResult solo =
        core::NetFilter(cfg).run(world.workload, world.hierarchy, overlay,
                                 meter, serial.responses[i].threshold);
    EXPECT_EQ(solo.stats.heavy_groups_total,
              serial.stats.sessions[i].netfilter.heavy_groups_total);
    EXPECT_EQ(solo.stats.num_candidates,
              serial.stats.sessions[i].netfilter.num_candidates)
        << "request " << i;
  }

  for (const std::uint32_t k : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const Served sharded = serve_at(k);
    EXPECT_EQ(serial.totals, sharded.totals);
    EXPECT_EQ(serial.msgs, sharded.msgs);
    EXPECT_EQ(serial.stats.rounds_total, sharded.stats.rounds_total);
    ASSERT_EQ(sharded.responses.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(serial.responses[i].frequent, sharded.responses[i].frequent)
          << "request " << i;
      EXPECT_EQ(serial.stats.sessions[i].netfilter.num_candidates,
                sharded.stats.sessions[i].netfilter.num_candidates);
      EXPECT_EQ(serial.stats.sessions[i].traffic.bytes,
                sharded.stats.sessions[i].traffic.bytes);
      EXPECT_EQ(serial.stats.sessions[i].traffic.msgs,
                sharded.stats.sessions[i].traffic.msgs);
    }
  }
}

// The sampling (tuner) path composes the containers nf-lint polices
// hardest: branch walks and Floyd index picks. Tuning from branch samples
// and then running netFilter with the tuned setting over a hierarchy at a
// randomly drawn root must give byte-identical results AND byte-identical
// obs output, serial vs sharded.
TEST(DeterminismTest, TunedNetFilterAndSamplingMatchSerial) {
  const TestWorld world = TestWorld::make();

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;

    // Sampling path: g, f, and t all come from random-branch estimates.
    core::TunerConfig tc;
    tc.sampling.num_branches = 6;
    tc.sampling.items_per_peer = 8;
    tc.sampling.seed = 23;
    const core::TunedSetting tuned =
        core::tune(world.workload, world.hierarchy, 0.01, tc, &meter);

    core::NetFilterConfig base;
    base.threads = threads;
    base.obs = ctx.get();
    const core::NetFilter nf(tuned.to_config(base));

    // The query hierarchy's root is drawn from a fresh RNG.
    Rng root_rng(31);
    const agg::Hierarchy hierarchy = agg::build_bfs_hierarchy(
        overlay, PeerId(static_cast<std::uint32_t>(root_rng.below(kPeers))));
    core::NetFilterResult r =
        nf.run(world.workload, hierarchy, overlay, meter, tuned.threshold);
    return std::make_tuple(std::move(r), tuned, std::move(ctx),
                           meter.total(), meter.num_messages());
  };

  const auto [serial, serial_tuned, serial_ctx, serial_bytes, serial_msgs] =
      run_at(1);
  ASSERT_GT(serial.frequent.size(), 0u);
  for (const std::uint32_t k : {2u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [sharded, tuned, ctx, bytes, msgs] = run_at(k);
    // The tuner never touches the engine; its estimates must not depend on
    // the shard count at all.
    EXPECT_EQ(serial_tuned.num_groups, tuned.num_groups);
    EXPECT_EQ(serial_tuned.num_filters, tuned.num_filters);
    EXPECT_EQ(serial_tuned.threshold, tuned.threshold);
    EXPECT_EQ(serial_tuned.estimates.v_bar, tuned.estimates.v_bar);
    EXPECT_EQ(serial_tuned.estimates.r_hat, tuned.estimates.r_hat);
    EXPECT_EQ(serial_bytes, bytes);
    EXPECT_EQ(serial_msgs, msgs);
    EXPECT_EQ(serial.stats.rounds_total, sharded.stats.rounds_total);
    EXPECT_EQ(serial.stats.heavy_groups_total, sharded.stats.heavy_groups_total);
    EXPECT_EQ(serial.stats.num_candidates, sharded.stats.num_candidates);
    ASSERT_EQ(serial.frequent.size(), sharded.frequent.size());
    auto it = sharded.frequent.begin();
    for (const auto& [id, v] : serial.frequent) {
      EXPECT_EQ(id, it->first);
      EXPECT_EQ(v, it->second);
      ++it;
    }
    // Byte-identical obs output, wall-clock readings aside.
    for (const auto& [name, c] : serial_ctx->registry.counters()) {
      if (name.rfind("time_us/", 0) == 0) continue;
      if (name == "obs/overhead_us" || name == "engine/round_us") continue;
      EXPECT_EQ(c.value(), ctx->registry.counter(name).value()) << name;
    }
    EXPECT_EQ(serial_ctx->series.stamps(), ctx->series.stamps());
    for (const char* col :
         {"engine/sent", "engine/delivered", "engine/sent_bytes"}) {
      EXPECT_EQ(serial_ctx->series.counter_series(col),
                ctx->series.counter_series(col))
          << col;
    }
    EXPECT_EQ(serial_ctx->series.gauge_series("engine/in_flight"),
              ctx->series.gauge_series("engine/in_flight"));
    EXPECT_EQ(obs::to_json(serial_ctx->link_stats).dump(),
              obs::to_json(ctx->link_stats).dump());
  }
}

// Lineage ids are stamped by the engine in canonical merge order — the
// same total order that makes K-shard runs bit-identical — so the whole
// schema v5 lineage section (ids, parents, sampled extra edges, extracted
// critical paths and slack) must serialize byte-identically at every shard
// count.
TEST(DeterminismTest, LineageAndCriticalPathsMatchSerial) {
  const TestWorld world = TestWorld::make();
  const Value t = world.workload.threshold_for(0.01);

  const auto run_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    const core::NetFilter nf(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    (void)nf.run(world.workload, world.hierarchy, overlay, meter, t);
    return ctx;
  };

  const auto serial = run_at(1);
  EXPECT_GT(serial->lineage.total(), 0u);
  const std::vector<obs::CriticalPath> paths =
      obs::critical_paths(serial->lineage);
  ASSERT_FALSE(paths.empty());
  for (const obs::CriticalPath& p : paths) {
    ASSERT_FALSE(p.hops.empty());
    // Chains are causally ordered: each hop departs no earlier than the
    // previous hop's delivery round.
    for (std::size_t i = 1; i < p.hops.size(); ++i) {
      EXPECT_GE(p.hops[i].send_round, p.hops[i - 1].deliver_round);
    }
    EXPECT_EQ(p.hops.back().deliver_round, p.done_round);
  }
  const std::string serial_json = obs::to_json(serial->lineage).dump();
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto sharded = run_at(k);
    EXPECT_EQ(serial_json, obs::to_json(sharded->lineage).dump());
  }
}

// Every multiplexed session's gating chain must end at the round the
// session recorded as done: the critical path's final delivery round IS
// the per-session rounds_total that serve_concurrent reports (and that
// `nf-inspect critical-path` cross-checks).
TEST(DeterminismTest, CriticalPathsTerminateAtSessionDone) {
  const TestWorld world = TestWorld::make();
  const std::vector<core::ConcurrentRequest> requests{
      {PeerId(3), 0.01, 0, 0, 0},
      {PeerId(20), 0.03, 3, 64, 77},
      {PeerId(41), 0.005, 0, 0, 0},
  };

  const auto serve_at = [&](std::uint32_t threads) {
    auto ctx = std::make_unique<obs::Context>();
    core::NetFilterConfig cfg;
    cfg.num_groups = 40;
    cfg.num_filters = 2;
    cfg.threads = threads;
    cfg.obs = ctx.get();
    const core::QueryService svc(cfg);
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    core::ConcurrentQueryStats stats;
    (void)svc.serve_concurrent(requests, world.workload, world.hierarchy,
                               overlay, meter, &stats);
    return std::make_tuple(std::move(ctx), std::move(stats));
  };

  const auto [serial_ctx, serial_stats] = serve_at(1);
  const std::vector<obs::CriticalPath> paths =
      obs::critical_paths(serial_ctx->lineage);
  ASSERT_EQ(paths.size(), requests.size());
  ASSERT_EQ(serial_stats.sessions.size(), requests.size());
  for (const obs::CriticalPath& p : paths) {
    ASSERT_FALSE(p.hops.empty());
    const core::ConcurrentSessionStats& ss = serial_stats.sessions[p.session];
    EXPECT_EQ(p.session_name, ss.name);
    EXPECT_EQ(p.done_round, ss.netfilter.rounds_total) << ss.name;
    EXPECT_EQ(p.hops.back().deliver_round, ss.netfilter.rounds_total)
        << ss.name;
    // Slack rows never report a delivery later than the session's done
    // round feeding its completion.
    for (const obs::PhaseSlack& s : p.slack) {
      EXPECT_EQ(s.slack_rounds,
                p.done_round > s.last_deliver_round
                    ? p.done_round - s.last_deliver_round
                    : 0u);
    }
  }
  const std::string serial_json = obs::to_json(serial_ctx->lineage).dump();
  for (const std::uint32_t k : kShardCounts) {
    SCOPED_TRACE(::testing::Message() << "threads=" << k);
    const auto [ctx, stats] = serve_at(k);
    EXPECT_EQ(serial_json, obs::to_json(ctx->lineage).dump());
    for (std::size_t i = 0; i < stats.sessions.size(); ++i) {
      EXPECT_EQ(serial_stats.sessions[i].netfilter.rounds_total,
                stats.sessions[i].netfilter.rounds_total);
    }
  }
}

/// Peers tick only on request. A ticked peer sends one message to a
/// hash-chosen neighbour and re-arms for a few peer-dependent rounds; a
/// receipt wakes the receiver for the next round a third of the time. Wake
/// requests thus come from both callbacks, cross shard boundaries with the
/// traffic, and coalesce when several land on one peer.
class WakeDrivenProtocol final : public net::Protocol {
 public:
  void on_run_start(const Overlay& overlay,
                    std::uint32_t /*num_shards*/) override {
    rearms_.assign(overlay.num_peers(), 0);
    ticks_.assign(overlay.num_peers(), 0);
  }
  void on_round(net::Context& ctx) override {
    const PeerId self = ctx.self();
    ++ticks_[self];
    const auto& nb = ctx.neighbors();
    const std::uint64_t draw = hash64(ctx.round(), self.value());
    ctx.send(nb[draw % nb.size()], TrafficCategory::kControl,
             4 + self.value() % 3);
    if (rearms_[self] < self.value() % 4) {
      ++rearms_[self];
      ctx.wake_next_round();
    }
  }
  void on_message(net::Context& ctx, Envelope&& /*env*/) override {
    if (hash64(ctx.round(), ctx.self().value() + 0x5EEDull) % 3 == 0) {
      ctx.wake_next_round();
    }
  }
  [[nodiscard]] std::vector<std::uint32_t> ticks() const {
    return {ticks_.begin(), ticks_.end()};
  }

 private:
  PeerArena<std::uint32_t> rearms_;
  PeerArena<std::uint32_t> ticks_;
};

TEST(DeterminismTest, WakeDrivenTicksMatchSerial) {
  const TestWorld world = TestWorld::make();
  const auto run_at = [&](std::uint32_t threads) {
    TrafficMeter meter(kPeers);
    Overlay overlay = world.overlay;
    Engine engine(overlay, meter, {.threads = threads});
    RunTrace trace;
    engine.set_send_probe([&trace](const Envelope& env) {
      trace.sends.emplace_back(env.from.value(), env.to.value(),
                               static_cast<int>(env.category), env.bytes);
    });
    // Churn crosses shards too: revived peers are ticked on revival.
    net::ChurnSchedule churn;
    for (const std::uint32_t p : {7u, 29u, 44u}) {
      churn.fail_at(2, PeerId(p));
      churn.join_at(5, PeerId(p));
    }
    WakeDrivenProtocol proto;
    trace.rounds = engine.run(proto, 500, &churn);
    for (std::size_t c = 0; c < net::kNumTrafficCategories; ++c) {
      trace.totals[c] = meter.total(static_cast<TrafficCategory>(c));
    }
    trace.num_messages = meter.num_messages();
    return std::make_pair(std::move(trace), proto.ticks());
  };

  const auto [serial, serial_ticks] = run_at(1);
  // The run must actually be wake-driven: more than the first round's
  // ticks, and far fewer than rounds x peers.
  std::uint64_t total_ticks = 0;
  for (const std::uint32_t t : serial_ticks) total_ticks += t;
  EXPECT_GT(total_ticks, std::uint64_t{kPeers});
  EXPECT_LT(total_ticks, serial.rounds * kPeers / 2);
  for (const std::uint32_t k : {2u, 4u}) {
    const auto [sharded, sharded_ticks] = run_at(k);
    expect_identical(serial, sharded, k);
    EXPECT_EQ(serial_ticks, sharded_ticks);
  }
}

}  // namespace
}  // namespace nf
