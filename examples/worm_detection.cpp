// Internet worm detection under churn (paper Table I, row 7 + §III-A.3).
//
// Peers monitor byte-sequence signatures in passing flows; a worm's
// signature recurs at nearly every vantage point. This example runs the
// full operational loop a deployment would face: the aggregation hierarchy
// is maintained by heartbeats, several monitors fail mid-operation, the
// DEPTH-based repair protocol heals the tree, and netFilter then identifies
// the worm signatures exactly over the surviving monitors.
#include <iostream>

#include "agg/maintenance.h"
#include "core/netfilter.h"
#include "net/topology.h"
#include "workload/scenarios.h"

int main() {
  using namespace nf;

  const std::uint32_t kPeers = 120;
  const wl::ScenarioOutput scenario =
      wl::worm_signatures(kPeers, 20000, 200, 2, 123);
  const wl::Workload& workload = scenario.workload;

  Rng rng(6);
  net::Overlay overlay(net::random_connected(kPeers, 6.0, rng));
  net::TrafficMeter meter(kPeers);
  const agg::Hierarchy initial =
      agg::build_bfs_hierarchy(overlay, PeerId(0));
  std::cout << "monitoring overlay: " << kPeers
            << " sensors, hierarchy height " << initial.height() << "\n";

  // Run the maintenance protocol; three sensors die at round 3.
  agg::HierarchyMaintenance::Config mconfig;
  mconfig.timeout_rounds = 2;
  agg::HierarchyMaintenance maintenance(initial, mconfig);
  net::Engine engine(overlay, meter, {});
  net::ChurnSchedule churn;
  churn.fail_at(3, PeerId(17));
  churn.fail_at(3, PeerId(55));
  churn.fail_at(3, PeerId(101));
  std::uint64_t rounds = 0;
  while (rounds < 200 && !maintenance.stabilized(overlay)) {
    rounds += engine.run(maintenance, 5, &churn);
  }
  std::cout << "sensors 17, 55, 101 failed; hierarchy repaired after "
            << rounds << " rounds ("
            << meter.per_peer(net::TrafficCategory::kControl)
            << " control bytes/peer)\n\n";
  const agg::Hierarchy repaired = maintenance.snapshot(overlay);
  repaired.validate(overlay);

  // Detect signatures present in >= 1% of monitored flow volume.
  LocalItems surviving_truth;
  for (std::uint32_t p = 0; p < kPeers; ++p) {
    if (overlay.is_alive(PeerId(p))) {
      surviving_truth.merge_add(workload.local_items(PeerId(p)));
    }
  }
  const Value threshold =
      std::max<Value>(1, surviving_truth.total() / 100);

  core::NetFilterConfig config;
  config.num_groups = 100;
  config.num_filters = 3;
  const core::NetFilter netfilter(config);
  const auto result =
      netfilter.run(workload, repaired, overlay, meter, threshold);

  std::cout << "signatures above " << threshold << " flows ("
            << result.stats.total_cost() << " bytes/peer):\n";
  for (const auto& [id, value] : result.frequent) {
    const bool planted =
        std::find(scenario.planted.begin(), scenario.planted.end(), id) !=
        scenario.planted.end();
    std::cout << "  " << scenario.catalog.name_of(id) << "  " << value
              << (planted ? "   <-- planted worm" : "") << "\n";
  }

  bool worms_found = true;
  for (ItemId worm : scenario.planted) {
    worms_found &= result.frequent.contains(worm);
  }
  surviving_truth.retain(
      [&](ItemId, Value v) { return v >= threshold; });
  const bool exact = result.frequent == surviving_truth;
  std::cout << "\nworms detected: " << (worms_found ? "yes" : "NO")
            << "; exact over surviving sensors: " << (exact ? "yes" : "NO")
            << "\n";
  return (worms_found && exact) ? 0 : 1;
}
