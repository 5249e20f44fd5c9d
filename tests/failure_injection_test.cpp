// Failure injection: what the protocols do when peers die mid-run.
//
// A hierarchical aggregation whose tree breaks mid-pass cannot silently
// return a wrong answer — it must either complete exactly (failure did not
// hit the active path) or fail loudly so the driver re-runs on a repaired
// hierarchy. These tests pin that contract.
#include <gtest/gtest.h>

#include "agg/convergecast.h"
#include "core/netfilter.h"
#include "net/session.h"
#include "net/topology.h"
#include "workload/workload.h"

namespace nf {
namespace {

using agg::build_bfs_hierarchy;
using agg::Hierarchy;
using net::ChurnSchedule;
using net::Engine;
using net::Overlay;
using net::Topology;
using net::TrafficMeter;

Topology line(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return t;
}

TEST(FailureInjectionTest, ConvergecastNeverCompletesAcrossADeadRelay) {
  Overlay overlay(line(6));
  TrafficMeter meter(6);
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, net::TrafficCategory::kFiltering,
      [](PeerId) { return std::uint64_t{1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  net::SessionMux mux;
  mux.add_phase(mux.add_session(), cast, net::kStandaloneConvergecast);
  Engine engine(overlay, meter, {});
  ChurnSchedule churn;
  churn.fail_at(1, PeerId(3));  // relay dies while the wave passes
  engine.run(mux, 50, &churn);
  // The pass must NOT complete with a partial sum; it reports incomplete.
  EXPECT_FALSE(cast.complete());
  EXPECT_THROW((void)cast.result(), InvalidArgument);
}

TEST(FailureInjectionTest, LateLeafFailureAfterSendingIsHarmless) {
  Overlay overlay(line(4));
  TrafficMeter meter(4);
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));
  agg::ConvergecastPhase<std::uint64_t> cast(
      h, net::TrafficCategory::kFiltering,
      [](PeerId p) { return std::uint64_t{p.value() + 1}; },
      [](std::uint64_t& a, std::uint64_t&& b) { a += b; },
      [](const std::uint64_t&) { return std::uint64_t{4}; });
  net::SessionMux mux;
  mux.add_phase(mux.add_session(), cast, net::kStandaloneConvergecast);
  Engine engine(overlay, meter, {});
  ChurnSchedule churn;
  // The leaf (peer 3) sends during round 0; its message is in flight and
  // still delivered. Failing it afterwards changes nothing.
  churn.fail_at(2, PeerId(3));
  engine.run(mux, 50, &churn);
  ASSERT_TRUE(cast.complete());
  EXPECT_EQ(cast.result(), 1u + 2u + 3u + 4u);
}

TEST(FailureInjectionTest, NetFilterPhase1FailsLoudlyOnBrokenTree) {
  wl::WorkloadConfig wc;
  wc.num_peers = 8;
  wc.num_items = 200;
  wc.seed = 3;
  const wl::Workload workload = wl::Workload::generate(wc);
  Overlay overlay(line(8));
  TrafficMeter meter(8);
  const Hierarchy h = build_bfs_hierarchy(overlay, PeerId(0));

  core::NetFilterConfig cfg;
  cfg.num_groups = 16;
  cfg.num_filters = 2;
  // Cap rounds so the stalled convergecast surfaces as an error quickly.
  cfg.max_rounds_per_phase = 30;
  const core::NetFilter nf(cfg);

  // Kill a mid-line relay before the run: the hierarchy snapshot is stale
  // (it still routes through the dead peer), so phase 1 cannot finish and
  // must throw rather than return a partial answer.
  overlay.fail(PeerId(4));
  core::NetFilterStats stats;
  EXPECT_THROW((void)nf.filter_candidates(workload, h, overlay, meter, 2,
                                          &stats),
               ProtocolError);
}

TEST(FailureInjectionTest, RerunOnRepairedHierarchySucceeds) {
  // The documented recovery path: rebuild/repair the hierarchy over the
  // survivors, then re-run; exactness holds for the surviving data.
  Rng rng(9);
  Overlay overlay(net::random_connected(40, 5.0, rng));
  TrafficMeter meter(40);

  wl::WorkloadConfig wc;
  wc.num_peers = 40;
  wc.num_items = 2000;
  wc.seed = 4;
  const wl::Workload workload = wl::Workload::generate(wc);

  // Find a non-cut victim.
  PeerId victim(1);
  for (std::uint32_t cand = 1; cand < 40; ++cand) {
    overlay.fail(PeerId(cand));
    std::vector<bool> seen(40, false);
    std::vector<PeerId> stack{PeerId(0)};
    seen[0] = true;
    std::uint32_t count = 1;
    while (!stack.empty()) {
      const PeerId p = stack.back();
      stack.pop_back();
      for (PeerId q : overlay.alive_neighbors(p)) {
        if (!seen[q.value()]) {
          seen[q.value()] = true;
          ++count;
          stack.push_back(q);
        }
      }
    }
    overlay.revive(PeerId(cand));
    if (count == 39) {
      victim = PeerId(cand);
      break;
    }
  }

  overlay.fail(victim);
  const Hierarchy repaired = build_bfs_hierarchy(overlay, PeerId(0));

  LocalItems truth;
  for (std::uint32_t p = 0; p < 40; ++p) {
    if (overlay.is_alive(PeerId(p))) {
      truth.merge_add(workload.local_items(PeerId(p)));
    }
  }
  const Value t = std::max<Value>(1, truth.total() / 50);
  truth.retain([&](ItemId, Value v) { return v >= t; });

  core::NetFilterConfig cfg;
  cfg.num_groups = 32;
  cfg.num_filters = 2;
  const core::NetFilter nf(cfg);
  const auto res = nf.run(workload, repaired, overlay, meter, t);
  EXPECT_EQ(res.frequent, truth);
}

}  // namespace
}  // namespace nf
