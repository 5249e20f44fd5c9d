// netfilter_sim — full-featured command-line driver for the library.
//
// Runs any combination of algorithm, workload, topology and parameters and
// prints results, cost breakdown and an exactness check. Examples:
//
//   netfilter_sim                                  # paper defaults, small
//   netfilter_sim --peers=1000 --items=100000      # Table III defaults
//   netfilter_sim --algo=all --alpha=2 --theta=0.001
//   netfilter_sim --tune                           # self-tune g and f
//   netfilter_sim --trace=flows.txt --algo=netfilter
//   netfilter_sim --topology=ba --participation=0.5
#include <algorithm>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "agg/root_selection.h"
#include "core/naive.h"
#include "core/netfilter.h"
#include "core/topk.h"
#include "core/tuner.h"
#include "net/topology.h"
#include "workload/trace.h"
#include "workload/workload.h"

namespace {

using namespace nf;

struct Options {
  std::uint32_t peers = 200;
  std::uint64_t items = 20000;
  double instances = 10.0;
  double alpha = 1.0;
  double theta = 0.01;
  std::string topology = "tree";
  std::string root = "random";
  std::uint32_t fanout = 3;
  double degree = 4.0;
  std::uint32_t g = 100;
  std::uint32_t f = 3;
  bool tune = false;
  std::string algo = "netfilter";
  double participation = 1.0;
  std::string wire = "flat";
  std::uint32_t topk = 0;  // 0 = threshold query (default)
  std::uint64_t seed = 42;
  std::optional<std::string> trace;
  std::optional<std::string> save_trace;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "netfilter_sim — identify frequent items in a simulated P2P system\n"
      "\n"
      "workload:   --peers=N --items=n --instances=I --alpha=A --seed=S\n"
      "            --trace=FILE (load instead of synthetic)\n"
      "            --save-trace=FILE (dump the workload and exit)\n"
      "query:      --theta=T (threshold ratio, default 0.01)\n"
      "topology:   --topology=tree|er|ws|ba --fanout=B --degree=D\n"
      "            --root=random|stable|center (hierarchy root policy)\n"
      "algorithm:  --algo=netfilter|naive|all\n"
      "            --g=G --f=F | --tune (pick G, F by in-network sampling)\n"
      "            --participation=P (stable-peer fraction forming the tree)\n"
      "accounting: --wire=flat|varint (paper byte model vs real encoding)\n"
      "top-k:      --topk=K (k most frequent items instead of a threshold)\n";
  std::exit(code);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto eq = arg.find('=');
    const std::string_view key = arg.substr(0, eq);
    const std::string val =
        eq == std::string_view::npos ? "" : std::string(arg.substr(eq + 1));
    try {
      if (key == "--help" || key == "-h") usage(0);
      else if (key == "--peers") opt.peers = static_cast<std::uint32_t>(std::stoul(val));
      else if (key == "--items") opt.items = std::stoull(val);
      else if (key == "--instances") opt.instances = std::stod(val);
      else if (key == "--alpha") opt.alpha = std::stod(val);
      else if (key == "--theta") opt.theta = std::stod(val);
      else if (key == "--topology") opt.topology = val;
      else if (key == "--root") opt.root = val;
      else if (key == "--fanout") opt.fanout = static_cast<std::uint32_t>(std::stoul(val));
      else if (key == "--degree") opt.degree = std::stod(val);
      else if (key == "--g") opt.g = static_cast<std::uint32_t>(std::stoul(val));
      else if (key == "--f") opt.f = static_cast<std::uint32_t>(std::stoul(val));
      else if (key == "--tune") opt.tune = true;
      else if (key == "--algo") opt.algo = val;
      else if (key == "--participation") opt.participation = std::stod(val);
      else if (key == "--wire") opt.wire = val;
      else if (key == "--topk") opt.topk = static_cast<std::uint32_t>(std::stoul(val));
      else if (key == "--seed") opt.seed = std::stoull(val);
      else if (key == "--trace") opt.trace = val;
      else if (key == "--save-trace") opt.save_trace = val;
      else {
        std::cerr << "unknown flag: " << arg << "\n";
        usage(2);
      }
    } catch (const std::exception&) {
      std::cerr << "bad value for " << key << ": '" << val << "'\n";
      usage(2);
    }
  }
  if (opt.algo != "netfilter" && opt.algo != "naive" && opt.algo != "all") {
    std::cerr << "unknown --algo: " << opt.algo << "\n";
    usage(2);
  }
  if (opt.wire != "flat" && opt.wire != "varint") {
    std::cerr << "unknown --wire: " << opt.wire << "\n";
    usage(2);
  }
  return opt;
}

net::Topology make_topology(const Options& opt, std::uint32_t peers,
                            Rng& rng) {
  if (opt.topology == "tree") return net::random_tree(peers, opt.fanout, rng);
  if (opt.topology == "er") return net::random_connected(peers, opt.degree, rng);
  if (opt.topology == "ws") {
    auto k = static_cast<std::uint32_t>(opt.degree);
    if (k % 2 != 0) ++k;
    return net::watts_strogatz(peers, std::max(2u, k), 0.2, rng);
  }
  if (opt.topology == "ba") {
    return net::barabasi_albert(
        peers, std::max(1u, static_cast<std::uint32_t>(opt.degree / 2)), rng);
  }
  std::cerr << "unknown topology: " << opt.topology << "\n";
  usage(2);
}

void print_top(const ValueMap<ItemId, Value>& result,
               const wl::Catalog& catalog, std::size_t limit) {
  std::vector<std::pair<ItemId, Value>> sorted(result.begin(), result.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < std::min(limit, sorted.size()); ++i) {
    std::cout << "    ";
    if (catalog.contains(sorted[i].first)) {
      std::cout << catalog.name_of(sorted[i].first);
    } else {
      std::cout << "item-" << sorted[i].first.value();
    }
    std::cout << "  " << sorted[i].second << "\n";
  }
  if (sorted.size() > limit) {
    std::cout << "    ... and " << sorted.size() - limit << " more\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // --- Workload ---
  wl::ScenarioOutput scenario;
  if (opt.trace.has_value()) {
    scenario = wl::load_trace_file(*opt.trace);
    std::cout << "loaded trace: " << scenario.workload.num_peers()
              << " peers, " << scenario.workload.num_distinct()
              << " distinct items, total value "
              << scenario.workload.total_value() << "\n";
  } else {
    wl::WorkloadConfig wc;
    wc.num_peers = opt.peers;
    wc.num_items = opt.items;
    wc.instances_per_item = opt.instances;
    wc.alpha = opt.alpha;
    wc.seed = opt.seed;
    scenario.workload = wl::Workload::generate(wc);
    std::cout << "synthetic workload: N=" << opt.peers << " n=" << opt.items
              << " alpha=" << opt.alpha << " -> "
              << scenario.workload.num_distinct()
              << " realized items, total value "
              << scenario.workload.total_value() << "\n";
  }
  const wl::Workload& workload = scenario.workload;
  const std::uint32_t peers = workload.num_peers();

  if (opt.save_trace.has_value()) {
    wl::save_trace_file(*opt.save_trace, workload, wl::TraceKeyMode::kIds);
    std::cout << "trace written to " << *opt.save_trace << "\n";
    return 0;
  }

  // --- Overlay & hierarchy ---
  Rng rng(opt.seed + 1);
  net::Overlay overlay(make_topology(opt, peers, rng));
  std::vector<double> uptime(peers);
  for (auto& u : uptime) u = rng.uniform();
  agg::RootPolicy root_policy = agg::RootPolicy::kRandom;
  if (opt.root == "stable") root_policy = agg::RootPolicy::kMostStable;
  else if (opt.root == "center") root_policy = agg::RootPolicy::kCenter;
  else if (opt.root != "random") {
    std::cerr << "unknown root policy: " << opt.root << "\n";
    usage(2);
  }
  const PeerId root = agg::select_root(overlay, root_policy, uptime, rng);
  std::vector<bool> participant(peers, true);
  if (opt.participation < 1.0) {
    participant = agg::select_stable_peers(uptime, opt.participation, root);
  }
  const agg::Hierarchy hierarchy =
      agg::build_bfs_hierarchy(overlay, root, participant);
  std::cout << "overlay: " << opt.topology << ", hierarchy height "
            << hierarchy.height() << ", members " << hierarchy.num_members()
            << "/" << peers << "\n";

  const Value threshold = workload.threshold_for(opt.theta);
  const auto oracle = workload.frequent_items(threshold);
  std::cout << "threshold t=" << threshold << " (theta=" << opt.theta
            << "); oracle: " << oracle.size() << " frequent items\n\n";

  net::TrafficMeter meter(peers);

  // --- Configuration (fixed or tuned) ---
  std::uint32_t g = opt.g;
  std::uint32_t f = opt.f;
  if (opt.tune) {
    const core::TunedSetting ts = core::tune(workload, hierarchy, opt.theta,
                                             core::TunerConfig{}, &meter);
    g = ts.num_groups;
    f = ts.num_filters;
    std::cout << "tuned: g=" << g << " f=" << f << " (sampled "
              << ts.estimates.num_sampled_peers << " peers)\n\n";
  }

  const core::WireModel wire_model = opt.wire == "varint"
                                         ? core::WireModel::kVarintDelta
                                         : core::WireModel::kFlatFields;

  if (opt.topk > 0) {
    core::NetFilterConfig cfg;
    cfg.num_groups = g;
    cfg.num_filters = f;
    cfg.wire_model = wire_model;
    const core::TopK topk(cfg);
    const auto res =
        topk.run(workload, hierarchy, overlay, meter, opt.topk);
    std::cout << "top-" << opt.topk << " items ("
              << res.stats.netfilter_runs << " netFilter runs, "
              << res.stats.total_cost << " bytes/peer):\n";
    ValueMap<ItemId, Value> as_map;
    for (const auto& [id, v] : res.items) as_map.add(id, v);
    print_top(as_map, scenario.catalog, opt.topk);
    return 0;
  }

  const bool all = opt.algo == "all";

  if (all || opt.algo == "netfilter") {
    core::NetFilterConfig cfg;
    cfg.num_groups = g;
    cfg.num_filters = f;
    cfg.wire_model = wire_model;
    const auto res = core::NetFilter(cfg).run(workload, hierarchy, overlay,
                                              meter, threshold);
    std::cout << "netFilter (g=" << g << ", f=" << f << "): "
              << res.frequent.size() << " items, "
              << res.stats.total_cost() << " bytes/peer (filter "
              << res.stats.filtering_cost << " + dissem "
              << res.stats.dissemination_cost << " + agg "
              << res.stats.aggregation_cost << "), exact: "
              << (res.frequent == oracle ? "yes" : "NO") << "\n";
    print_top(res.frequent, scenario.catalog, 5);
  }

  if (all || opt.algo == "naive") {
    const auto res = core::NaiveCollector{WireSizes{}}.run(
        workload, hierarchy, overlay, meter, threshold);
    std::cout << "naive: " << res.frequent.size() << " items, "
              << res.stats.cost_per_peer << " bytes/peer, exact: "
              << (res.frequent == oracle ? "yes" : "NO") << "\n";
  }

  return 0;
}
