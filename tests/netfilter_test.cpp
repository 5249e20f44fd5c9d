#include "core/netfilter.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <tuple>

#include "common/error.h"
#include "common/rng.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

struct Rig {
  Rig(std::uint32_t num_peers, std::uint64_t num_items, double alpha,
      std::uint64_t seed, std::uint32_t fanout = 3)
      : workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = num_peers;
          cfg.num_items = num_items;
          cfg.alpha = alpha;
          cfg.seed = seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(seed + 1);
          return Overlay(net::random_tree(num_peers, fanout, rng));
        }()),
        meter(num_peers),
        hierarchy(agg::build_bfs_hierarchy(overlay, PeerId(0))) {}

  wl::Workload workload;
  Overlay overlay;
  TrafficMeter meter;
  agg::Hierarchy hierarchy;
};

NetFilterConfig config(std::uint32_t g, std::uint32_t f) {
  NetFilterConfig c;
  c.num_groups = g;
  c.num_filters = f;
  return c;
}

TEST(NetFilterTest, ExactOnDefaultishSetup) {
  Rig rig(100, 10000, 1.0, 1);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(100, 3));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  EXPECT_GT(res.frequent.size(), 0u);
}

TEST(NetFilterTest, PaperWorkedExample) {
  // Figure 1 of the paper: 3 peers, 8 items a..h, threshold 3; only item d
  // (global value 3) is frequent.
  std::vector<LocalItems> locals(3);
  const ItemId a(1), b(2), c(3), d(4), e(5), f(6), g(7), h(8);
  locals[0] = LocalItems::from_unsorted({{a, 1}, {b, 1}, {d, 1}});
  locals[1] = LocalItems::from_unsorted({{d, 1}, {f, 1}, {g, 1}});
  locals[2] = LocalItems::from_unsorted({{c, 1}, {d, 1}, {e, 1}, {h, 1}});
  const wl::Workload w = wl::Workload::from_local_sets(std::move(locals));

  net::Topology topo(3);
  topo.add_edge(PeerId(0), PeerId(1));
  topo.add_edge(PeerId(0), PeerId(2));
  Overlay overlay(std::move(topo));
  TrafficMeter meter(3);
  const agg::Hierarchy hier = agg::build_bfs_hierarchy(overlay, PeerId(0));

  const NetFilter nf(config(4, 1));
  const NetFilterResult res = nf.run(w, hier, overlay, meter, 3);
  ASSERT_EQ(res.frequent.size(), 1u);
  EXPECT_EQ(res.frequent.value_of(d), 3u);
}

class NetFilterExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<std::uint32_t, std::uint32_t, double, std::uint64_t>> {};

TEST_P(NetFilterExactnessTest, NoFalsePositivesOrNegativesEver) {
  const auto [g, f, theta, seed] = GetParam();
  Rig rig(60, 5000, 1.0, seed);
  const Value t = rig.workload.threshold_for(theta);
  const NetFilter nf(config(g, f));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t))
      << "g=" << g << " f=" << f << " theta=" << theta << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NetFilterExactnessTest,
    ::testing::Combine(::testing::Values(1u, 4u, 25u, 100u, 1000u),
                       ::testing::Values(1u, 2u, 5u),
                       ::testing::Values(0.1, 0.01, 0.003),
                       ::testing::Values(1u, 2u)));

TEST(NetFilterTest, CandidateSetNeverLosesFrequentItems) {
  // Phase-1 invariant: every truly frequent item passes every filter
  // (group aggregate >= item's own value >= t).
  Rig rig(80, 8000, 1.2, 5);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(50, 4));
  NetFilterStats stats;
  const HeavyGroupSet heavy = nf.filter_candidates(
      rig.workload, rig.hierarchy, rig.overlay, rig.meter, t, &stats);
  for (const auto& [id, v] : rig.workload.frequent_items(t)) {
    EXPECT_TRUE(heavy.passes(id, nf.bank())) << "item " << id;
  }
}

TEST(NetFilterTest, ReportedValuesAreExact) {
  Rig rig(100, 10000, 1.0, 3);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(100, 3));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  for (const auto& [id, v] : res.frequent) {
    EXPECT_EQ(v, rig.workload.global().value_of(id));
  }
}

TEST(NetFilterTest, FilteringCostIsExactlySaFG) {
  Rig rig(64, 5000, 1.0, 7);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(75, 4));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  // Every non-root peer sends sa*f*g once: total = 63 * 4*4*75.
  const double expected =
      63.0 * 4 * 4 * 75 / 64.0;
  EXPECT_DOUBLE_EQ(res.stats.filtering_cost, expected);
}

TEST(NetFilterTest, DisseminationCostMatchesHeavyGroups) {
  Rig rig(64, 5000, 1.0, 9);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(60, 2));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  // Each of the 63 tree edges carries sg * (total heavy groups) bytes.
  const double expected =
      63.0 * 4.0 * static_cast<double>(res.stats.heavy_groups_total) / 64.0;
  EXPECT_DOUBLE_EQ(res.stats.dissemination_cost, expected);
}

TEST(NetFilterTest, StatsCountsAreConsistent) {
  Rig rig(100, 10000, 1.0, 11);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(100, 3));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  const auto& s = res.stats;
  EXPECT_EQ(s.threshold, t);
  EXPECT_EQ(s.num_frequent, res.frequent.size());
  EXPECT_EQ(s.num_candidates, s.num_frequent + s.num_false_positives);
  EXPECT_GT(s.heavy_groups_total, 0u);
  EXPECT_GT(s.candidates_per_peer, 0.0);
  EXPECT_GT(s.rounds_filtering, 0u);
  EXPECT_GT(s.rounds_verification, 0u);
  EXPECT_NEAR(s.total_cost(),
              s.filtering_cost + s.dissemination_cost + s.aggregation_cost,
              1e-9);
}

TEST(NetFilterTest, TrivialFilterDegeneratesToNaiveCandidates) {
  // g=1: the single group holds everything and is heavy, so every item is
  // a candidate — still exact, just expensive.
  Rig rig(30, 1000, 1.0, 13);
  const Value t = rig.workload.threshold_for(0.01);
  const NetFilter nf(config(1, 1));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  EXPECT_EQ(res.stats.num_candidates, rig.workload.num_distinct());
}

TEST(NetFilterTest, ImpossibleThresholdYieldsEmptyResult) {
  Rig rig(30, 1000, 1.0, 15);
  const NetFilter nf(config(50, 2));
  const NetFilterResult res = nf.run(rig.workload, rig.hierarchy, rig.overlay,
                                     rig.meter, rig.workload.total_value() + 1);
  EXPECT_EQ(res.frequent.size(), 0u);
  EXPECT_EQ(res.stats.heavy_groups_total, 0u);
  EXPECT_EQ(res.stats.num_candidates, 0u);
}

TEST(NetFilterTest, ThresholdOneReportsEverything) {
  Rig rig(30, 500, 1.0, 17);
  const NetFilter nf(config(64, 2));
  const NetFilterResult res =
      nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, 1);
  EXPECT_EQ(res.frequent, rig.workload.global());
}

TEST(NetFilterTest, LocalGroupAggregatesPreserveMass) {
  Rig rig(20, 1000, 1.0, 19);
  const NetFilter nf(config(37, 3));
  for (std::uint32_t p = 0; p < 20; ++p) {
    const auto& items = rig.workload.local_items(PeerId(p));
    const auto agg = nf.local_group_aggregates(items);
    ASSERT_EQ(agg.size(), 37u * 3u);
    // Each filter partitions the mass: per-filter sum == local total.
    for (std::uint32_t fi = 0; fi < 3; ++fi) {
      Value sum = 0;
      for (std::uint32_t gi = 0; gi < 37; ++gi) sum += agg[fi * 37 + gi];
      EXPECT_EQ(sum, items.total());
    }
  }
}

TEST(NetFilterTest, MaterializeCandidatesHonorsAllFilters) {
  Rig rig(20, 1000, 1.0, 21);
  const NetFilter nf(config(8, 2));
  HeavyGroupSet heavy;
  heavy.heavy = {std::vector<bool>(8, false), std::vector<bool>(8, true)};
  heavy.heavy[0][3] = true;  // filter 0 admits only group 3
  const auto& items = rig.workload.local_items(PeerId(5));
  const LocalItems cands = nf.materialize_candidates(items, heavy);
  for (const auto& [id, v] : cands) {
    EXPECT_EQ(nf.bank().filter(0).group_of(id).value(), 3u);
  }
  for (const auto& [id, v] : items) {
    const bool expect = nf.bank().filter(0).group_of(id).value() == 3;
    EXPECT_EQ(cands.contains(id), expect);
  }
}

TEST(NetFilterTest, MaterializeRejectsMismatchedHeavySet) {
  // passes() reads heavy[i][group] for every filter of the bank; a set of
  // another shape would be an out-of-bounds read, so the materializer
  // checks the shape once per call. The receipts that hand both phase-2
  // paths their sets decode what a peer received to the bank's shape, or
  // reject it.
  Rig rig(20, 1000, 1.0, 21);
  const NetFilter nf(config(8, 2));
  const auto& items = rig.workload.local_items(PeerId(5));
  HeavyGroupSet too_few_rows;
  too_few_rows.heavy = {std::vector<bool>(8, true)};
  HeavyGroupSet short_row;
  short_row.heavy = {std::vector<bool>(8, true), std::vector<bool>(3, true)};
  HeavyGroupSet too_many_rows;
  too_many_rows.heavy.assign(3, std::vector<bool>(8, true));
  for (const HeavyGroupSet* bad : {&too_few_rows, &short_row,
                                   &too_many_rows}) {
    EXPECT_FALSE(bad->matches(nf.bank()));
    EXPECT_THROW((void)nf.materialize_candidates(items, *bad),
                 InvalidArgument);
  }
  HeavySetReceipts receipts(20, 2, 8);
  receipts.receive(PeerId(5), encode_heavy_groups(too_few_rows));
  EXPECT_TRUE(receipts.of(PeerId(5)).matches(nf.bank()));
  // Ids past f*g name a filter the bank does not have.
  EXPECT_THROW(receipts.receive(PeerId(7), encode_heavy_groups(too_many_rows)),
               ProtocolError);
  HeavyGroupSet good;
  good.heavy.assign(2, std::vector<bool>(8, true));
  EXPECT_TRUE(good.matches(nf.bank()));
  EXPECT_EQ(nf.materialize_candidates(items, good), items);
}

TEST(NetFilterTest, MaterializeAppendsExactlyThePassingPairs) {
  // Reference: the whole local set, minus the pairs that fail the filter.
  Rig rig(20, 1000, 1.0, 29);
  const NetFilter nf(config(16, 3));
  Rng rng(4);
  for (int c = 0; c < 8; ++c) {
    HeavyGroupSet heavy;
    heavy.heavy.assign(3, std::vector<bool>(16, false));
    for (auto& bitmap : heavy.heavy) {
      for (std::size_t j = 0; j < bitmap.size(); ++j) {
        bitmap[j] = rng.below(4) != 0;
      }
    }
    for (std::uint32_t p = 0; p < 20; ++p) {
      const LocalItems& items = rig.workload.local_items(PeerId(p));
      LocalItems expected = items;
      expected.retain(
          [&](ItemId id, Value) { return heavy.passes(id, nf.bank()); });
      EXPECT_EQ(nf.materialize_candidates(items, heavy), expected)
          << "case " << c << " peer " << p;
    }
  }
}

HeavyGroupSet heavy_set(std::uint32_t f, std::uint32_t g,
                        std::initializer_list<std::uint32_t> ids) {
  HeavyGroupSet h;
  h.heavy.assign(f, std::vector<bool>(g, false));
  for (const std::uint32_t id : ids) h.heavy[id / g][id % g] = true;
  return h;
}

TEST(HeavySetReceiptsTest, InstalledBytesShareOneDecodedSet) {
  const HeavyGroupSet set = heavy_set(2, 8, {1, 6, 9, 15});
  const net::Bytes encoded = encode_heavy_groups(set);
  HeavySetReceipts receipts(4, 2, 8);
  receipts.install(encoded);
  for (std::uint32_t p = 0; p < 4; ++p) receipts.receive(PeerId(p), encoded);
  EXPECT_EQ(receipts.of(PeerId(0)).heavy, set.heavy);
  for (std::uint32_t p = 1; p < 4; ++p) {
    EXPECT_EQ(&receipts.of(PeerId(p)), &receipts.of(PeerId(0)));
  }
}

TEST(HeavySetReceiptsTest, OtherBytesAreDecodedForTheirPeerOnly) {
  const HeavyGroupSet installed = heavy_set(2, 8, {1, 9});
  const HeavyGroupSet other = heavy_set(2, 8, {2, 3, 12});
  HeavySetReceipts receipts(3, 2, 8);
  // Before install: a peer's bytes are decoded for it alone.
  receipts.receive(PeerId(0), encode_heavy_groups(other));
  receipts.install(encode_heavy_groups(installed));
  receipts.receive(PeerId(1), encode_heavy_groups(installed));
  receipts.receive(PeerId(2), encode_heavy_groups(other));
  EXPECT_EQ(receipts.of(PeerId(0)).heavy, other.heavy);
  EXPECT_EQ(receipts.of(PeerId(1)).heavy, installed.heavy);
  EXPECT_EQ(receipts.of(PeerId(2)).heavy, other.heavy);
  EXPECT_NE(&receipts.of(PeerId(2)), &receipts.of(PeerId(1)));
}

TEST(HeavySetReceiptsTest, MutatedBytesAreDecodedAndRejected) {
  const net::Bytes encoded = encode_heavy_groups(heavy_set(2, 8, {1, 9}));
  HeavySetReceipts receipts(2, 2, 8);
  receipts.install(encoded);
  net::Bytes trailing = encoded;
  trailing.push_back(0);
  EXPECT_THROW(receipts.receive(PeerId(0), trailing), ProtocolError);
  const net::Bytes truncated(encoded.begin(), encoded.end() - 1);
  EXPECT_THROW(receipts.receive(PeerId(0), truncated), ProtocolError);
  // Nothing valid reached peer 0, so it has no set to aggregate with.
  EXPECT_THROW((void)receipts.of(PeerId(0)), ProtocolError);
  EXPECT_THROW((void)receipts.of(PeerId(1)), ProtocolError);
}

TEST(NetFilterTest, InvalidInputsThrow) {
  Rig rig(10, 100, 1.0, 23);
  EXPECT_THROW(NetFilter(config(0, 1)), InvalidArgument);
  EXPECT_THROW(NetFilter(config(10, 0)), InvalidArgument);
  const NetFilter nf(config(10, 1));
  EXPECT_THROW((void)nf.run(rig.workload, rig.hierarchy, rig.overlay,
                            rig.meter, 0),
               InvalidArgument);
}

TEST(NetFilterTest, RunIsDeterministic) {
  auto run_once = [] {
    Rig rig(50, 2000, 1.0, 25);
    const Value t = rig.workload.threshold_for(0.01);
    const NetFilter nf(config(40, 2));
    return nf.run(rig.workload, rig.hierarchy, rig.overlay, rig.meter, t);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.frequent, b.frequent);
  EXPECT_EQ(a.stats.heavy_groups_total, b.stats.heavy_groups_total);
  EXPECT_EQ(a.stats.num_candidates, b.stats.num_candidates);
}

}  // namespace
}  // namespace nf::core
