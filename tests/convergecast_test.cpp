#include "agg/convergecast.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>
#include <vector>

#include "agg/flat_phases.h"
#include "common/rng.h"
#include "common/value_map.h"
#include "net/codec.h"
#include "net/topology.h"

namespace nf::agg {
namespace {

using net::Engine;
using net::kStandaloneConvergecast;
using net::Overlay;
using net::run_phase;
using net::Topology;
using net::TrafficCategory;
using net::TrafficMeter;

struct Fixture {
  explicit Fixture(Topology topo)
      : overlay(std::move(topo)),
        meter(overlay.num_peers()),
        hierarchy(build_bfs_hierarchy(overlay, PeerId(0))) {}

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

TEST(ConvergecastTest, SumsScalarsOverLine) {
  Fixture fx(line(5));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId p) { return std::uint64_t{p.value() + 1}; },  // 1..5
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, cast, kStandaloneConvergecast, 100);
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 15u);
}

TEST(ConvergecastTest, CompletesInHeightRounds) {
  Fixture fx(line(8));  // height 8
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter, {});
  const std::uint64_t rounds =
      run_phase(engine, cast, kStandaloneConvergecast, 100);
  EXPECT_EQ(cast.result(), 8u);
  // One level per round plus the final quiescence checks.
  EXPECT_LE(rounds, fx.hierarchy.height() + 2);
}

TEST(ConvergecastTest, OneMessagePerNonRootMember) {
  Rng rng(4);
  Fixture fx(net::random_tree(100, 3, rng));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, cast, kStandaloneConvergecast, 200);
  EXPECT_EQ(cast.result(), 100u);
  EXPECT_EQ(fx.meter.num_messages(), 99u);
  EXPECT_EQ(fx.meter.total(TrafficCategory::kFiltering), 99u * 4);
  // The root never sends.
  EXPECT_EQ(cast.sent_bytes(PeerId(0)), 0u);
}

TEST(ConvergecastTest, VectorAggregatesAddElementwise) {
  Rng rng(5);
  Fixture fx(net::random_tree(50, 3, rng));
  ConvergecastPhase<std::vector<std::uint64_t>> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId p) {
        return std::vector<std::uint64_t>{1, p.value(), 2 * p.value()};
      },
      [](std::vector<std::uint64_t>& a, std::vector<std::uint64_t>&& b) {
        for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
      },
      [](const std::vector<std::uint64_t>& v) { return 4 * v.size(); });
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, cast, kStandaloneConvergecast, 200);
  ASSERT_TRUE(cast.complete());
  const std::uint64_t sum_ids = 50 * 49 / 2;
  EXPECT_EQ(cast.result()[0], 50u);
  EXPECT_EQ(cast.result()[1], sum_ids);
  EXPECT_EQ(cast.result()[2], 2 * sum_ids);
}

TEST(ConvergecastTest, ValueMapMergeMatchesGroundTruth) {
  Rng rng(6);
  Fixture fx(net::random_tree(64, 4, rng));
  // Each peer holds items {p mod 7, p mod 3} with value p+1.
  auto local = [](PeerId p) {
    ValueMap<ItemId, std::uint64_t> m;
    m.add(ItemId(p.value() % 7), p.value() + 1);
    m.add(ItemId(100 + p.value() % 3), p.value() + 1);
    return m;
  };
  ValueMap<ItemId, std::uint64_t> truth;
  for (std::uint32_t p = 0; p < 64; ++p) truth.merge_add(local(PeerId(p)));

  ConvergecastPhase<ValueMap<ItemId, std::uint64_t>> cast(
      fx.hierarchy, TrafficCategory::kAggregation, local,
      [](auto& a, auto&& b) { a.merge_add(b); },
      [](const auto& m) { return 8 * m.size(); });
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, cast, kStandaloneConvergecast, 200);
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), truth);
}

TEST(ConvergecastTest, SingletonHierarchyCompletesWithoutTraffic) {
  Fixture fx{Topology(1)};
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{42}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, cast, kStandaloneConvergecast, 10);
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 42u);
  EXPECT_EQ(fx.meter.total(), 0u);
}

TEST(ConvergecastTest, ResultBeforeCompletionThrows) {
  Fixture fx(line(3));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  EXPECT_THROW((void)cast.result(), InvalidArgument);
}

class ConvergecastTopologyTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(ConvergecastTopologyTest, SumIsExactOnArbitraryGraphs) {
  const auto [n, seed] = GetParam();
  Rng rng(seed);
  Fixture fx(net::random_connected(n, 4.0, rng));
  ConvergecastPhase<std::uint64_t> cast(
      fx.hierarchy, TrafficCategory::kFiltering,
      [](PeerId p) { return std::uint64_t{p.value()} * 3 + 1; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  Engine engine(fx.overlay, fx.meter, {});
  run_phase(engine, cast, kStandaloneConvergecast, 1000);
  ASSERT_TRUE(cast.complete());
  std::uint64_t expect = 0;
  for (std::uint32_t p = 0; p < n; ++p) expect += std::uint64_t{p} * 3 + 1;
  EXPECT_EQ(cast.result(), expect);
}

INSTANTIATE_TEST_SUITE_P(
    Graphs, ConvergecastTopologyTest,
    ::testing::Combine(::testing::Values(2u, 5u, 37u, 256u, 1000u),
                       ::testing::Values(11u, 12u)));

// FlatAggregateConvergecastPhase holds each child's encoded payload until
// the parent's last child reports, then merges once in the shard's scratch
// row. Against a reference computed per subtree, the global sums and every
// peer's upward payload size must be exact on every shape — including a
// root that is itself a leaf — and at several shard counts.
constexpr std::uint32_t kFlatWidth = 5;

using FlatLocal = std::vector<std::uint64_t> (*)(PeerId);

std::vector<std::uint64_t> flat_local(PeerId p) {
  std::vector<std::uint64_t> row(kFlatWidth);
  for (std::uint32_t j = 0; j < kFlatWidth; ++j) {
    // Spans several varint widths so payload sizes differ per subtree.
    row[j] = (std::uint64_t{p.value()} * 977 + j * 131) << (7 * (j % 3));
  }
  return row;
}

// 9- and 10-byte varints: every payload is several times the one byte per
// lane that the byte store reserves, so held payloads overrun it. Subtree
// sums wrap modulo 2^64, which addition order does not change.
std::vector<std::uint64_t> wide_local(PeerId p) {
  std::vector<std::uint64_t> row(kFlatWidth);
  for (std::uint32_t j = 0; j < kFlatWidth; ++j) {
    row[j] = (std::uint64_t{1} << (56 + 7 * (j % 2))) +
             std::uint64_t{p.value()} * 977 + j * 131;
  }
  return row;
}

std::vector<std::uint64_t> subtree_sum(const Hierarchy& h, PeerId p,
                                       FlatLocal local) {
  std::vector<std::uint64_t> sum = local(p);
  for (const PeerId c : h.downstream(p)) {
    const std::vector<std::uint64_t> child = subtree_sum(h, c, local);
    for (std::uint32_t j = 0; j < kFlatWidth; ++j) sum[j] += child[j];
  }
  return sum;
}

Topology star(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 1; i < n; ++i) t.add_edge(PeerId(0), PeerId(i));
  return t;
}

FlatAggregateConvergecastPhase make_flat_cast(const Hierarchy& hierarchy,
                                              FlatLocal local) {
  return FlatAggregateConvergecastPhase(
      hierarchy, TrafficCategory::kFiltering, kFlatWidth,
      [local](PeerId p, std::span<std::uint64_t> out) {
        const std::vector<std::uint64_t> row = local(p);
        std::copy(row.begin(), row.end(), out.begin());
      },
      /*flat_bytes=*/0);
}

// Checks one completed run against the per-subtree reference.
void expect_flat_run_exact(const Fixture& fx,
                           const FlatAggregateConvergecastPhase& cast,
                           FlatLocal local) {
  ASSERT_TRUE(cast.complete());
  const PeerId root = fx.hierarchy.root();
  const std::vector<std::uint64_t> global =
      subtree_sum(fx.hierarchy, root, local);
  EXPECT_TRUE(std::equal(global.begin(), global.end(),
                         cast.result().begin(), cast.result().end()));
  for (std::uint32_t i = 0; i < fx.overlay.num_peers(); ++i) {
    const PeerId p(i);
    const std::uint64_t expected =
        p == root ? 0
                  : net::encode_aggregates(subtree_sum(fx.hierarchy, p, local))
                        .size();
    EXPECT_EQ(cast.sent_bytes(p), expected) << "peer " << i;
  }
}

void expect_flat_sums_exact(Topology topo, FlatLocal local = flat_local) {
  for (const std::uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    Fixture fx(topo);
    FlatAggregateConvergecastPhase cast = make_flat_cast(fx.hierarchy, local);
    Engine engine(fx.overlay, fx.meter, {.threads = threads});
    run_phase(engine, cast, kStandaloneConvergecast, 100);
    expect_flat_run_exact(fx, cast, local);
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < fx.overlay.num_peers(); ++i) {
      total += cast.sent_bytes(PeerId(i));
    }
    EXPECT_EQ(fx.meter.total(TrafficCategory::kFiltering), total);
  }
}

TEST(FlatAggregateConvergecastTest, SinglePeerRootIsALeaf) {
  expect_flat_sums_exact(Topology(1));
}

TEST(FlatAggregateConvergecastTest, StarMergesOnlyAtTheRoot) {
  expect_flat_sums_exact(star(9));
}

TEST(FlatAggregateConvergecastTest, LineMergesAtEveryInnerPeer) {
  expect_flat_sums_exact(line(7));
}

TEST(FlatAggregateConvergecastTest, RandomTreeSumsAndPayloadsAreExact) {
  Rng rng(31);
  expect_flat_sums_exact(net::random_tree(40, 3, rng));
}

TEST(FlatAggregateConvergecastTest, WideVarintsOverrunTheReservation) {
  Rng rng(32);
  expect_flat_sums_exact(net::random_tree(40, 3, rng), wide_local);
  expect_flat_sums_exact(star(9), wide_local);
}

TEST(FlatAggregateConvergecastTest, RerunReusesTheStoreExactly) {
  // One phase object, two runs: the second starts from the first run's
  // byte-store capacity (grown past its reservation by the wide lanes)
  // and must reproduce every sum and payload size.
  Rng rng(33);
  const Topology topo = net::random_tree(40, 3, rng);
  for (const std::uint32_t threads : {1u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    Fixture fx(topo);
    FlatAggregateConvergecastPhase cast =
        make_flat_cast(fx.hierarchy, wide_local);
    Engine engine(fx.overlay, fx.meter, {.threads = threads});
    run_phase(engine, cast, kStandaloneConvergecast, 100);
    expect_flat_run_exact(fx, cast, wide_local);
    const std::vector<std::uint64_t> first(cast.result().begin(),
                                           cast.result().end());
    std::vector<std::uint64_t> first_bytes;
    for (std::uint32_t i = 0; i < fx.overlay.num_peers(); ++i) {
      first_bytes.push_back(cast.sent_bytes(PeerId(i)));
    }
    run_phase(engine, cast, kStandaloneConvergecast, 100);
    expect_flat_run_exact(fx, cast, wide_local);
    EXPECT_TRUE(std::equal(first.begin(), first.end(),
                           cast.result().begin(), cast.result().end()));
    for (std::uint32_t i = 0; i < fx.overlay.num_peers(); ++i) {
      EXPECT_EQ(cast.sent_bytes(PeerId(i)), first_bytes[i]) << "peer " << i;
    }
  }
}

}  // namespace
}  // namespace nf::agg
