#include "core/partitioned.h"

#include <gtest/gtest.h>

#include "core/netfilter.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf::core {
namespace {

using net::Overlay;
using net::TrafficMeter;

struct Rig {
  Rig(std::uint32_t num_peers, std::uint64_t num_items, std::uint64_t seed)
      : workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = num_peers;
          cfg.num_items = num_items;
          cfg.seed = seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(seed + 1);
          return Overlay(net::random_connected(num_peers, 4.0, rng));
        }()),
        meter(num_peers) {}

  wl::Workload workload;
  Overlay overlay;
  TrafficMeter meter;
};

NetFilterConfig config(std::uint32_t g, std::uint32_t f) {
  NetFilterConfig c;
  c.num_groups = g;
  c.num_filters = f;
  return c;
}

TEST(PartitionedNetFilterTest, ExactAcrossPartitionCounts) {
  for (std::uint32_t k : {1u, 2u, 3u, 4u}) {
    Rig rig(80, 6000, 10 + k);
    Rng rng(99 + k);
    const auto mh =
        agg::MultiHierarchy::build_random(rig.overlay, k, rng);
    const Value t = rig.workload.threshold_for(0.01);
    const PartitionedNetFilter pnf(config(64, 4));
    const auto res =
        pnf.run(rig.workload, mh, rig.overlay, rig.meter, t);
    EXPECT_EQ(res.frequent, rig.workload.frequent_items(t)) << "k=" << k;
    EXPECT_EQ(res.stats.num_frequent, res.frequent.size());
    EXPECT_GT(res.stats.total_cost(), 0.0);
  }
}

TEST(PartitionedNetFilterTest, LossyLinksStayExact) {
  // Every slice engine runs on the configured links: at 5 % loss the
  // reliability layer keeps the answer exact and charges its ACKs.
  Rig rig(80, 6000, 40);
  Rng rng(41);
  const auto mh = agg::MultiHierarchy::build_random(rig.overlay, 3, rng);
  const Value t = rig.workload.threshold_for(0.01);
  NetFilterConfig cfg = config(64, 4);
  cfg.fault.loss_probability = 0.05;
  const PartitionedNetFilter pnf(cfg);
  const auto res = pnf.run(rig.workload, mh, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
  EXPECT_GT(rig.meter.total(net::TrafficCategory::kControl), 0u);
}

TEST(PartitionedNetFilterTest, SinglePartitionMatchesPlainNetFilterCost) {
  Rig rig(60, 4000, 20);
  const auto mh = agg::MultiHierarchy::build(rig.overlay, {PeerId(0)});
  const Value t = rig.workload.threshold_for(0.01);
  const PartitionedNetFilter pnf(config(64, 3));
  const auto part = pnf.run(rig.workload, mh, rig.overlay, rig.meter, t);

  TrafficMeter meter2(60);
  const NetFilter nf(config(64, 3));
  const auto plain = nf.run(rig.workload, mh.primary(), rig.overlay, meter2,
                            t);
  EXPECT_EQ(part.frequent, plain.frequent);
  EXPECT_DOUBLE_EQ(part.stats.filtering_cost, plain.stats.filtering_cost);
  EXPECT_DOUBLE_EQ(part.stats.dissemination_cost,
                   plain.stats.dissemination_cost);
  EXPECT_DOUBLE_EQ(part.stats.aggregation_cost,
                   plain.stats.aggregation_cost);
}

TEST(PartitionedNetFilterTest, SpreadsTheRootLoad) {
  // The headline: with k partitions, the busiest peer carries much less
  // than under a single hierarchy, at similar average cost.
  Rig single_rig(120, 20000, 30);
  const auto mh1 =
      agg::MultiHierarchy::build(single_rig.overlay, {PeerId(0)});
  const Value t = single_rig.workload.threshold_for(0.01);
  const PartitionedNetFilter pnf(config(100, 4));
  (void)pnf.run(single_rig.workload, mh1, single_rig.overlay,
                single_rig.meter, t);
  const std::uint64_t single_max = single_rig.meter.max_peer_total();

  Rig part_rig(120, 20000, 30);
  Rng rng(31);
  const auto mh4 =
      agg::MultiHierarchy::build_random(part_rig.overlay, 4, rng);
  (void)pnf.run(part_rig.workload, mh4, part_rig.overlay, part_rig.meter,
                t);
  const std::uint64_t part_max = part_rig.meter.max_peer_total();

  EXPECT_LT(part_max, single_max);
  // Average cost stays within 2x (extra hierarchies do not multiply cost).
  EXPECT_LT(part_rig.meter.per_peer(), 2.0 * single_rig.meter.per_peer());
}

TEST(PartitionedNetFilterTest, MorePartitionsThanFiltersStillExact) {
  Rig rig(50, 3000, 40);
  Rng rng(41);
  const auto mh = agg::MultiHierarchy::build_random(rig.overlay, 5, rng);
  const Value t = rig.workload.threshold_for(0.02);
  const PartitionedNetFilter pnf(config(32, 2));  // k=5 > f=2
  const auto res = pnf.run(rig.workload, mh, rig.overlay, rig.meter, t);
  EXPECT_EQ(res.frequent, rig.workload.frequent_items(t));
}

TEST(PartitionedNetFilterTest, InvalidThresholdThrows) {
  Rig rig(10, 100, 50);
  const auto mh = agg::MultiHierarchy::build(rig.overlay, {PeerId(0)});
  const PartitionedNetFilter pnf(config(8, 2));
  EXPECT_THROW(
      (void)pnf.run(rig.workload, mh, rig.overlay, rig.meter, 0),
      InvalidArgument);
}

}  // namespace
}  // namespace nf::core
