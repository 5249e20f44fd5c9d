#include "core/netfilter.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <initializer_list>
#include <iostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficCategory;
using net::TrafficMeter;

/// An f×g set whose heavy groups are the flat ids i*g + group in `ids`.
HeavyGroupSet heavy_set(std::uint32_t f, std::uint32_t g,
                        std::initializer_list<std::uint32_t> ids) {
  HeavyGroupSet h(f, g);
  for (const std::uint32_t id : ids) h.set(id / g, id % g);
  return h;
}

HeavyGroupSet all_heavy(std::uint32_t f, std::uint32_t g) {
  HeavyGroupSet h(f, g);
  for (std::uint32_t i = 0; i < f; ++i) {
    for (std::uint32_t j = 0; j < g; ++j) h.set(i, j);
  }
  return h;
}

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

/// Logs which group_block path the test exercises on this host.
void log_group_block_path() {
  std::cout << "group_block path: " << group_block_path() << '\n';
  ::testing::Test::RecordProperty("group_block_path",
                                  std::string(group_block_path()));
}

/// `n` distinct random ids with random values.
LocalItems random_items(std::size_t n, Rng& rng) {
  std::vector<LocalItems::value_type> pairs;
  for (std::size_t k = 0; k < n; ++k) {
    pairs.emplace_back(ItemId(rng()), 1 + rng.below(1000));
  }
  return LocalItems::from_unsorted(std::move(pairs));
}

TEST(NetFilterTest, LocalGroupAggregatesEqualThePerItemDefinition) {
  // The blocked kernel against the definition: each item adds its value to
  // row i, column group_of(item) of every filter i. Set sizes cover the
  // empty set, one item, a kernel step and its neighbours (7, 8, 9), one
  // block (192) and several blocks (2500).
  log_group_block_path();
  Rng rng(2027);
  for (const std::uint32_t f : {1u, 5u, 17u}) {
    for (const std::uint32_t g : {1u, 63u, 64u, 65u, 100u, 1000u}) {
      const NetFilter nf(config(g, f));
      for (const std::size_t n :
           {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
            std::size_t{9}, std::size_t{192}, std::size_t{2500}}) {
        const LocalItems items = random_items(n, rng);
        std::vector<Value> expected(std::size_t{f} * g, 0);
        for (const auto& [id, v] : items) {
          for (std::uint32_t i = 0; i < f; ++i) {
            expected[std::size_t{i} * g +
                     nf.bank().filter(i).group_of(id).value()] += v;
          }
        }
        EXPECT_EQ(nf.local_group_aggregates(items), expected)
            << "f=" << f << " g=" << g << " n=" << n;
      }
    }
  }
}

TEST(NetFilterTest, MaterializeCandidatesHonorsAllFilters) {
  Rig rig(20, 1000, 1.0, 21);
  const NetFilter nf(config(8, 2));
  // Filter 0 admits only group 3, filter 1 every group.
  const HeavyGroupSet heavy =
      heavy_set(2, 8, {3, 8, 9, 10, 11, 12, 13, 14, 15});
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
  // passes() reads bit (i, group) for every filter of the bank; a set of
  // another shape would be an out-of-bounds read, so the materializer
  // checks the shape once per call. The receipts that hand both phase-2
  // paths their sets decode what a peer received to the bank's shape, or
  // reject it.
  Rig rig(20, 1000, 1.0, 21);
  const NetFilter nf(config(8, 2));
  const auto& items = rig.workload.local_items(PeerId(5));
  const HeavyGroupSet too_few_rows = all_heavy(1, 8);
  const HeavyGroupSet short_rows = all_heavy(2, 3);
  const HeavyGroupSet too_many_rows = all_heavy(3, 8);
  const HeavyGroupSet unsized;
  for (const HeavyGroupSet* bad : {&too_few_rows, &short_rows,
                                   &too_many_rows, &unsized}) {
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
  const HeavyGroupSet good = all_heavy(2, 8);
  EXPECT_TRUE(good.matches(nf.bank()));
  EXPECT_EQ(nf.materialize_candidates(items, good), items);
}

TEST(NetFilterTest, MaterializeAppendsExactlyThePassingPairs) {
  // Reference: the whole local set, minus the pairs that fail the filter.
  Rig rig(20, 1000, 1.0, 29);
  const NetFilter nf(config(16, 3));
  Rng rng(4);
  for (int c = 0; c < 8; ++c) {
    HeavyGroupSet heavy(3, 16);
    for (std::uint32_t i = 0; i < 3; ++i) {
      for (std::uint32_t j = 0; j < 16; ++j) {
        if (rng.below(4) != 0) heavy.set(i, j);
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

/// An f×g set whose groups are each heavy with probability `density`.
HeavyGroupSet random_heavy(std::uint32_t f, std::uint32_t g, double density,
                           Rng& rng) {
  HeavyGroupSet h(f, g);
  for (std::uint32_t i = 0; i < f; ++i) {
    for (std::uint32_t j = 0; j < g; ++j) {
      if (rng.chance(density)) h.set(i, j);
    }
  }
  return h;
}

TEST(NetFilterTest, MaterializeEqualsThePerItemDefinition) {
  // The cascade against the definition it replaces: keep exactly the items
  // for which passes() holds, in map order. Shapes cover one word per row
  // (g <= 64), a row's padding bits (g = 1, 63, 65, 100, 1000), a kernel
  // step and its neighbours (7, 8, 9, 65 items), local sets that span
  // several of the cascade's chunks, and the degenerate sets.
  log_group_block_path();
  Rng rng(2026);
  for (const std::uint32_t f : {1u, 2u, 5u, 10u, 17u}) {
    for (const std::uint32_t g : {1u, 63u, 64u, 65u, 100u, 1000u}) {
      const NetFilter nf(config(g, f));
      for (const double density : {0.0, 0.2, 0.5, 0.9, 1.0}) {
        const HeavyGroupSet heavy = random_heavy(f, g, density, rng);
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
              std::size_t{9}, std::size_t{65}, std::size_t{192},
              std::size_t{2500}}) {
          const LocalItems items = random_items(n, rng);
          LocalItems expected;
          for (const auto& [id, v] : items) {
            if (heavy.passes(id, nf.bank())) expected.add(id, v);
          }
          const LocalItems got = nf.materialize_candidates(items, heavy);
          EXPECT_EQ(got, expected) << "f=" << f << " g=" << g
                                   << " density=" << density << " n=" << n;
          if (density == 0.0) {
            EXPECT_TRUE(got.empty());
          }
          if (density == 1.0) {
            EXPECT_EQ(got, items);
          }
        }
      }
    }
  }
}

TEST(HeavyGroupSetTest, TotalCountsNoPaddingBits) {
  // Rows of g groups take ⌈g/64⌉ words; the bits past g must never count.
  for (const std::uint32_t g : {1u, 63u, 64u, 65u, 100u, 1000u}) {
    const HeavyGroupSet all = all_heavy(3, g);
    EXPECT_EQ(all.total(), 3u * g) << "g=" << g;
    EXPECT_EQ(HeavyGroupSet(3, g).total(), 0u);
    // Thresholding sets the same bits as set() and nothing past g.
    const std::vector<Value> global(std::size_t{3} * g, 5);
    EXPECT_EQ(HeavyGroupSet(global, 3, g, 5), all) << "g=" << g;
    EXPECT_EQ(HeavyGroupSet(global, 3, g, 6).total(), 0u);
  }
  const HeavyGroupSet last = heavy_set(2, 65, {64, 129});
  EXPECT_EQ(last.total(), 2u);
  EXPECT_TRUE(last.is_heavy(0, 64));
  EXPECT_TRUE(last.is_heavy(1, 64));
  EXPECT_FALSE(last.is_heavy(1, 0));
  HeavyGroupSet h(2, 65);
  EXPECT_THROW(h.set(2, 0), InvalidArgument);
  EXPECT_THROW(h.set(0, 65), InvalidArgument);
  EXPECT_THROW(HeavyGroupSet(std::vector<Value>(10, 1), 2, 4, 1),
               InvalidArgument);
}

TEST(HeavyGroupSetTest, ThresholdingMatchesTheDefinition) {
  Rng rng(7);
  for (const std::uint32_t g : {1u, 63u, 64u, 65u, 100u}) {
    std::vector<Value> global(std::size_t{4} * g);
    for (Value& v : global) v = rng.below(20);
    const HeavyGroupSet heavy(global, 4, g, 10);
    std::uint64_t expected_total = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
      for (std::uint32_t j = 0; j < g; ++j) {
        const bool expect = global[std::size_t{i} * g + j] >= 10;
        expected_total += expect ? 1 : 0;
        EXPECT_EQ(heavy.is_heavy(i, j), expect) << i << "," << j;
      }
    }
    EXPECT_EQ(heavy.total(), expected_total);
  }
}

TEST(HeavyGroupSetTest, EncodeDecodeRoundTripsExactly) {
  Rng rng(11);
  for (const std::uint32_t f : {1u, 2u, 5u, 10u}) {
    for (const std::uint32_t g : {1u, 63u, 64u, 65u, 100u, 1000u}) {
      for (const double density : {0.0, 0.1, 0.5, 1.0}) {
        const HeavyGroupSet heavy = random_heavy(f, g, density, rng);
        const net::Bytes encoded = encode_heavy_groups(heavy);
        EXPECT_EQ(decode_heavy_groups(encoded, f, g), heavy)
            << "f=" << f << " g=" << g << " density=" << density;
        // The wire form is the sorted flat ids i*g + group.
        std::vector<std::uint64_t> ids;
        for (std::uint32_t i = 0; i < f; ++i) {
          for (std::uint32_t j = 0; j < g; ++j) {
            if (heavy.is_heavy(i, j)) ids.push_back(std::uint64_t{i} * g + j);
          }
        }
        EXPECT_EQ(encoded, net::encode_sorted_ids(ids));
      }
    }
  }
}

TEST(HeavySetReceiptsTest, InstalledBytesShareOneDecodedSet) {
  const HeavyGroupSet set = heavy_set(2, 8, {1, 6, 9, 15});
  const net::Bytes encoded = encode_heavy_groups(set);
  HeavySetReceipts receipts(4, 2, 8);
  receipts.install(encoded);
  for (std::uint32_t p = 0; p < 4; ++p) receipts.receive(PeerId(p), encoded);
  EXPECT_EQ(receipts.of(PeerId(0)), set);
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
  EXPECT_EQ(receipts.of(PeerId(0)), other);
  EXPECT_EQ(receipts.of(PeerId(1)), installed);
  EXPECT_EQ(receipts.of(PeerId(2)), other);
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
