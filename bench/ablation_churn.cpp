// Ablation — hierarchy repair under churn (paper §III-A.3).
//
// Fail k random non-root peers simultaneously, run the maintenance
// protocol, and measure rounds to stabilization and control traffic; then
// run netFilter on the repaired hierarchy and verify exactness over the
// survivors. Also fails the root and rebuilds from a replica root drawn
// up front, the paper's answer to root failure.
#include "bench/bench_util.h"

#include "agg/maintenance.h"

int main(int argc, char** argv) {
  using namespace nf;
  const auto cli = bench::Cli::parse(argc, argv);

  std::cout << "# Ablation: hierarchy repair under churn (N=300, "
               "well-connected overlay)\n";
  bench::banner("simultaneous failures -> repair -> exact netFilter run",
                "repair completes in tens of rounds; results stay exact "
                "over the survivors");

  TableWriter table({"failures", "repair_rounds", "ctrl_bytes/peer",
                     "stabilized", "exact"},
                    std::cout, 16);

  for (std::uint32_t failures : {1u, 3u, 10u, 30u}) {
    const std::uint32_t n_peers = 300;
    Rng rng(cli.seed + failures);
    net::Overlay overlay(net::random_connected(n_peers, 6.0, rng));
    net::TrafficMeter meter(n_peers);
    const agg::Hierarchy initial =
        agg::build_bfs_hierarchy(overlay, PeerId(0));

    wl::WorkloadConfig wc;
    wc.num_peers = n_peers;
    wc.num_items = 20000;
    wc.seed = cli.seed;
    const wl::Workload workload = wl::Workload::generate(wc);

    // Schedule the failures at round 2, keeping the *surviving* overlay
    // connected (a disconnected survivor could never rejoin any tree).
    // Candidates are checked cumulatively: each stays failed while testing
    // the next, then all are revived and handed to the churn schedule.
    net::ChurnSchedule churn;
    std::vector<PeerId> victims;
    while (victims.size() < failures) {
      const PeerId cand(
          static_cast<std::uint32_t>(rng.between(1, n_peers - 1)));
      if (!overlay.is_alive(cand)) continue;
      overlay.fail(cand);
      std::vector<bool> seen(n_peers, false);
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
      if (count != overlay.num_alive()) {
        overlay.revive(cand);
        continue;
      }
      victims.push_back(cand);
    }
    for (PeerId v : victims) {
      overlay.revive(v);
      churn.fail_at(2, v);
    }

    agg::HierarchyMaintenance::Config mc;
    mc.timeout_rounds = 2;
    agg::HierarchyMaintenance maint(initial, mc);
    net::Engine engine(overlay, meter, {});

    // Run until stabilized (checking every 5 rounds), cap at 200.
    std::uint64_t repair_rounds = 0;
    while (repair_rounds < 200) {
      repair_rounds += engine.run(maint, 5, &churn);
      if (maint.stabilized(overlay)) break;
    }
    const bool stable = maint.stabilized(overlay);
    const double ctrl =
        meter.per_peer(net::TrafficCategory::kControl);

    bool exact = false;
    if (stable) {
      const agg::Hierarchy repaired = maint.snapshot(overlay);
      LocalItems truth;
      for (std::uint32_t p = 0; p < n_peers; ++p) {
        if (overlay.is_alive(PeerId(p))) {
          truth.merge_add(workload.local_items(PeerId(p)));
        }
      }
      const Value t = std::max<Value>(1, truth.total() / 100);
      truth.retain([&](ItemId, Value v) { return v >= t; });

      core::NetFilterConfig cfg;
      cfg.num_groups = 100;
      cfg.num_filters = 3;
      const core::NetFilter nf(cfg);
      net::TrafficMeter run_meter(n_peers);
      const auto res =
          nf.run(workload, repaired, overlay, run_meter, t);
      exact = (res.frequent == truth);
    }
    table.row(failures, repair_rounds, ctrl, stable ? "yes" : "NO",
              exact ? "yes" : "NO");
  }

  bench::banner("root failure with replicated hierarchies",
                "failover root answers exactly");
  {
    const std::uint32_t n_peers = 200;
    Rng rng(cli.seed);
    net::Overlay overlay(net::random_connected(n_peers, 6.0, rng));
    // Two distinct roots: the primary, which fails, and its replica.
    std::vector<PeerId> roots;
    while (roots.size() < 2) {
      const PeerId cand(static_cast<std::uint32_t>(rng.below(n_peers)));
      if (roots.empty() || roots[0] != cand) roots.push_back(cand);
    }
    overlay.fail(roots[0]);
    const agg::Hierarchy usable = agg::build_bfs_hierarchy(overlay, roots[1]);

    wl::WorkloadConfig wc;
    wc.num_peers = n_peers;
    wc.num_items = 10000;
    wc.seed = cli.seed;
    const wl::Workload workload = wl::Workload::generate(wc);
    LocalItems truth;
    for (std::uint32_t p = 0; p < n_peers; ++p) {
      if (overlay.is_alive(PeerId(p))) {
        truth.merge_add(workload.local_items(PeerId(p)));
      }
    }
    const Value t = std::max<Value>(1, truth.total() / 100);
    truth.retain([&](ItemId, Value v) { return v >= t; });

    core::NetFilterConfig cfg;
    cfg.num_groups = 100;
    cfg.num_filters = 3;
    net::TrafficMeter meter(n_peers);
    const auto res = core::NetFilter(cfg).run(workload, usable, overlay,
                                              meter, t);
    TableWriter table2({"failover_root", "exact"}, std::cout, 16);
    table2.row(usable.root().value(), res.frequent == truth ? "yes" : "NO");
  }
  return 0;
}
