// obs::TimeSeries: delta semantics, ring wraparound, stamp monotonicity,
// JSON round-trip, and shard-count invariance of the engine-driven series.
#include "obs/timeseries.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "agg/hierarchy.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "workload/workload.h"

namespace nf::obs {
namespace {

TEST(TimeSeriesTest, CountersSampleAsPerRoundDeltas) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  TimeSeries series(8);
  c.add(5);  // pre-registration activity becomes the baseline, not a delta
  series.track_counter("x", &c);
  c.add(3);
  series.sample(1);
  series.sample(2);  // no activity -> zero delta
  c.add(7);
  series.sample(3);
  EXPECT_EQ(series.counter_series("x"),
            (std::vector<std::uint64_t>{3, 0, 7}));
  EXPECT_EQ(series.stamps(), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(TimeSeriesTest, GaugesSampleCurrentValue) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("y");
  TimeSeries series(8);
  series.track_gauge("y", &g);
  g.set(1.5);
  series.sample(1);
  g.set(-2.0);
  series.sample(2);
  series.sample(3);
  EXPECT_EQ(series.gauge_series("y"), (std::vector<double>{1.5, -2.0, -2.0}));
}

TEST(TimeSeriesTest, LateRegistrationReadsZeroForEarlierRows) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  TimeSeries series(8);
  series.sample(1);
  series.sample(2);
  series.track_counter("x", &c);
  c.add(4);
  series.sample(3);
  EXPECT_EQ(series.counter_series("x"),
            (std::vector<std::uint64_t>{0, 0, 4}));
}

TEST(TimeSeriesTest, RebindingRebaselinesWithoutASpuriousDelta) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  TimeSeries series(8);
  series.track_counter("x", &c);
  c.add(10);
  series.sample(1);
  // A second engine attaching to the same context re-registers the column;
  // the counter moved meanwhile, but nothing was sampled, so the next row
  // must only cover post-rebind activity.
  c.add(100);
  series.track_counter("x", &c);
  c.add(2);
  series.sample(2);
  EXPECT_EQ(series.counter_series("x"), (std::vector<std::uint64_t>{10, 2}));
}

TEST(TimeSeriesTest, RingWraparoundKeepsNewestRowsAndMonotonicTotals) {
  MetricsRegistry reg;
  Counter& c = reg.counter("x");
  TimeSeries series(4);
  series.track_counter("x", &c);
  for (std::uint64_t round = 1; round <= 10; ++round) {
    c.add(round);
    series.sample(round);
  }
  EXPECT_EQ(series.capacity(), 4u);
  EXPECT_EQ(series.size(), 4u);
  EXPECT_EQ(series.total_samples(), 10u);
  EXPECT_EQ(series.dropped(), 6u);
  EXPECT_EQ(series.stamps(), (std::vector<std::uint64_t>{7, 8, 9, 10}));
  EXPECT_EQ(series.counter_series("x"),
            (std::vector<std::uint64_t>{7, 8, 9, 10}));
}

TEST(TimeSeriesTest, JsonExportRoundTripsThroughParse) {
  MetricsRegistry reg;
  Counter& c = reg.counter("engine/sent");
  Gauge& g = reg.gauge("engine/in_flight");
  TimeSeries series(4);
  series.track_counter("engine/sent", &c);
  series.track_gauge("engine/in_flight", &g);
  for (int i = 1; i <= 6; ++i) {  // wraps: 6 samples into capacity 4
    c.add(static_cast<std::uint64_t>(i));
    g.set(i * 0.5);
    series.sample(static_cast<std::uint64_t>(i));
  }
  const Json doc = to_json(series);
  EXPECT_EQ(doc.at("total_samples").as_uint64(), 6u);
  EXPECT_EQ(doc.at("dropped").as_uint64(), 2u);
  EXPECT_EQ(doc.at("stamps").size(), 4u);
  EXPECT_EQ(doc.at("counters").at("engine/sent").size(), 4u);
  EXPECT_EQ(doc.at("gauges").at("engine/in_flight").size(), 4u);
  EXPECT_EQ(Json::parse(doc.dump()), doc);
}

/// Runs a small convergecast with an obs context attached and returns the
/// context for series inspection.
std::unique_ptr<Context> run_with_obs(std::uint32_t threads) {
  constexpr std::uint32_t kPeers = 40;
  wl::WorkloadConfig wc;
  wc.num_peers = kPeers;
  wc.num_items = 500;
  wc.seed = 17;
  const wl::Workload w = wl::Workload::generate(wc);
  Rng rng(9);
  net::Overlay overlay(net::random_tree(kPeers, 3, rng));
  const agg::Hierarchy h = agg::build_bfs_hierarchy(overlay, PeerId(0));
  net::TrafficMeter meter(kPeers);

  auto ctx = std::make_unique<Context>();
  net::Engine engine(overlay, meter, {.threads = threads, .obs = ctx.get()});
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, net::TrafficCategory::kFiltering,
      [&](PeerId p) { return w.local_items(p).size(); },
      [](std::uint64_t& acc, std::uint64_t&& child) { acc += child; },
      [](const std::uint64_t&) { return std::uint64_t{64}; }, ctx.get());
  net::run_phase(engine, cast, net::kStandaloneConvergecast, 5000, ctx.get());
  EXPECT_TRUE(cast.complete());
  return ctx;
}

TEST(TimeSeriesTest, EngineSeriesHasOneMonotonicRowPerRound) {
  const auto ctx = run_with_obs(1);
  const TimeSeries& s = ctx->series;
  const std::vector<std::uint64_t> stamps = s.stamps();
  ASSERT_FALSE(stamps.empty());
  EXPECT_EQ(stamps.size(), ctx->registry.counter("engine/rounds").value());
  for (std::size_t i = 1; i < stamps.size(); ++i) {
    EXPECT_LT(stamps[i - 1], stamps[i]);
  }
  // Per-round deltas re-total to the cumulative counters.
  std::uint64_t sent = 0;
  for (const std::uint64_t d : s.counter_series("engine/sent")) sent += d;
  EXPECT_EQ(sent, ctx->registry.counter("engine/sent").value());
  std::uint64_t bytes = 0;
  for (const std::uint64_t d : s.counter_series("engine/sent_bytes")) {
    bytes += d;
  }
  EXPECT_EQ(bytes, ctx->registry.counter("engine/sent_bytes").value());
  // Quiescent at the end: nothing left in flight.
  EXPECT_EQ(s.gauge_series("engine/in_flight").back(), 0.0);
}

TEST(TimeSeriesTest, DeterministicSeriesColumnsMatchAcrossShardCounts) {
  const auto serial = run_with_obs(1);
  const auto sharded = run_with_obs(4);
  EXPECT_EQ(serial->series.stamps(), sharded->series.stamps());
  for (const char* col : {"engine/sent", "engine/delivered",
                          "engine/sent_bytes"}) {
    EXPECT_EQ(serial->series.counter_series(col),
              sharded->series.counter_series(col))
        << col;
  }
  EXPECT_EQ(serial->series.gauge_series("engine/in_flight"),
            sharded->series.gauge_series("engine/in_flight"));
  // Busy/idle wall time is real time — present per shard, but never
  // compared across shard counts.
  EXPECT_FALSE(serial->series.gauge_series("engine/shard0/busy_us").empty());
}

}  // namespace
}  // namespace nf::obs
