// Denial-of-service attack detection (paper Table I, row 6).
//
// Routers (peers) observe flows to destination addresses. A DDoS victim
// receives moderate traffic through MANY routers — invisible locally,
// dominant globally. netFilter finds every destination whose global flow
// volume crosses the threshold, exactly: no false accusations (the paper's
// argument for exactness in attack detection, §II).
#include <algorithm>
#include <iostream>

#include "core/netfilter.h"
#include "net/topology.h"
#include "workload/scenarios.h"

int main() {
  using namespace nf;

  // 150 routers, 30,000 background destinations, 250 flows per router,
  // 3 planted attack victims.
  const wl::ScenarioOutput scenario = wl::ddos_flows(150, 30000, 250, 3, 99);
  const wl::Workload& workload = scenario.workload;

  Rng rng(5);
  net::Overlay overlay(net::random_connected(150, 5.0, rng));
  const agg::Hierarchy hierarchy =
      agg::build_bfs_hierarchy(overlay, PeerId(0));
  net::TrafficMeter meter(150);

  const Value threshold = workload.threshold_for(0.004);
  std::cout << "flow volume system-wide: " << workload.total_value()
            << " KB; alert threshold: " << threshold << " KB (0.4%)\n\n";

  // How invisible are the victims locally? Count routers where a victim is
  // among the top-5 local destinations.
  for (ItemId victim : scenario.planted) {
    int top5 = 0;
    int carrying = 0;
    for (std::uint32_t p = 0; p < 150; ++p) {
      const auto& local = workload.local_items(PeerId(p));
      const Value v = local.value_of(victim);
      if (v == 0) continue;
      ++carrying;
      int bigger = 0;
      for (const auto& [id, val] : local) {
        if (val > v) ++bigger;
      }
      if (bigger < 5) ++top5;
    }
    std::cout << "victim " << scenario.catalog.name_of(victim)
              << ": traffic crosses " << carrying
              << "/150 routers, locally top-5 at only " << top5 << "\n";
  }

  core::NetFilterConfig config;
  config.num_groups = 128;
  config.num_filters = 3;
  const core::NetFilter netfilter(config);
  const auto result =
      netfilter.run(workload, hierarchy, overlay, meter, threshold);

  std::cout << "\nnetFilter alerts (" << result.stats.total_cost()
            << " bytes/peer):\n";
  bool victims_found = true;
  for (const auto& [id, value] : result.frequent) {
    const bool planted =
        std::find(scenario.planted.begin(), scenario.planted.end(), id) !=
        scenario.planted.end();
    std::cout << "  " << scenario.catalog.name_of(id) << "  " << value
              << " KB" << (planted ? "   <-- planted attack" : "") << "\n";
  }
  for (ItemId victim : scenario.planted) {
    victims_found &= result.frequent.contains(victim);
  }
  const bool exact = result.frequent == workload.frequent_items(threshold);
  std::cout << "all planted victims detected: "
            << (victims_found ? "yes" : "NO")
            << "; exact (no false accusations): " << (exact ? "yes" : "NO")
            << "\n";

  return (victims_found && exact) ? 0 : 1;
}
