// Ablation — heterogeneous link latencies (net/link_model.h LinkModel).
//
// The paper's synchronous model delivers every message in one round. Real
// overlay links vary; completion time of a tree pass stretches to the sum
// of delays along the slowest root-leaf path, while byte costs stay put.
// Composing with 10% loss adds retransmission latency on top.
#include "bench/bench_util.h"

#include "agg/convergecast.h"
#include "net/session.h"

int main(int argc, char** argv) {
  using namespace nf;
  const auto cli = bench::Cli::parse(argc, argv);

  bench::Params params;
  params.num_peers = 500;
  params.num_items = 50000;
  params.seed = cli.seed;
  params.threads = cli.threads;
  bench::Env env(params);
  const Value t = env.threshold();
  const auto oracle = env.workload.frequent_items(t);

  std::cout << "# Ablation: link latency spread (N=500, n=5*10^4, g=100, "
               "f=3; delay ~ U[1, max])\n";
  bench::banner("completion rounds vs latency spread, with/without loss",
                "rounds scale with the slowest path; bytes flat without "
                "loss; exact everywhere");
  TableWriter table({"max_delay", "loss_p", "rounds", "bytes/peer",
                     "exact"},
                    std::cout, 14);
  for (std::uint32_t max_delay : {1u, 2u, 4u, 8u}) {
    for (double loss : {0.0, 0.1}) {
      net::TrafficMeter meter(params.num_peers);
      core::NetFilterConfig cfg;
      cfg.num_groups = 100;
      cfg.num_filters = 3;
      cfg.fault.loss_probability = loss;
      cfg.fault.retransmit_after = 2 * max_delay + 2;
      cfg.fault.seed = cli.seed;
      // The driver owns its engines; thread latency through the fault-free
      // path by running phases manually.
      const core::NetFilter nf(cfg);
      // Phase 1 + 2 via the building blocks over one configured engine.
      net::Engine engine(env.overlay, meter,
                         {.fault = cfg.fault,
                          .link = net::LinkModel{1, max_delay, cli.seed + 1}});

      agg::ConvergecastPhase<std::vector<Value>> phase1(
          env.hierarchy, net::TrafficCategory::kFiltering,
          [&](PeerId p) {
            return nf.local_group_aggregates(env.workload.local_items(p));
          },
          [](std::vector<Value>& a, std::vector<Value>&& b) {
            for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
          },
          [&](const std::vector<Value>&) {
            return std::uint64_t{4} * 3 * 100;
          });
      std::uint64_t rounds = net::run_phase(
          engine, phase1, net::kStandaloneConvergecast, 100000);
      if (!phase1.complete()) {
        table.row(max_delay, loss, "stall", 0.0, "NO");
        continue;
      }
      const core::HeavyGroupSet heavy(phase1.result(), 3, 100, t);
      agg::ConvergecastPhase<LocalItems> phase2(
          env.hierarchy, net::TrafficCategory::kAggregation,
          [&](PeerId p) {
            return nf.materialize_candidates(env.workload.local_items(p),
                                             heavy);
          },
          [](LocalItems& a, LocalItems&& b) { a.merge_add(b); },
          [](const LocalItems& m) { return m.size() * 8; });
      rounds += net::run_phase(engine, phase2, net::kStandaloneConvergecast,
                               100000);
      LocalItems frequent = phase2.result();
      frequent.retain([&](ItemId, Value v) { return v >= t; });
      table.row(max_delay, loss, rounds, meter.per_peer(),
                frequent == oracle ? "yes" : "NO");
    }
  }
  return 0;
}
