// Shared experiment plumbing for the bench binaries.
//
// Every binary reproduces one table/figure of the paper's evaluation (§V)
// under the Table III defaults:
//   N = 1000 peers, n = 10^5 items, 10·n instances, θ = 0.01, α = 1,
//   b = 3 downstream neighbors, sa = sg = si = 4 bytes.
//
// Flags (shared): --quick scales the 10^6-item experiments down 10x for CI
// runs; --seed=S changes the master seed; --json=PATH writes an
// obs::ExportBundle document (schema docs/OBSERVABILITY.md) with the sweep
// rows, traffic breakdown, metrics, protocol trace, per-round series and
// cost-model conformance; --trace-out=PATH writes a Chrome/Perfetto
// trace-event file of the same run; --trace-cap=N (or the NF_TRACE_CAP env
// var) sizes the tracer ring; --lineage-cap=N (or NF_LINEAGE_CAP) sizes
// the causal lineage ring (schema v5 "lineage" section); --series-cap=N
// (or NF_SERIES_CAP) sizes the per-round TimeSeries ring; --link-cap=N (or
// NF_LINK_CAP) sizes the heavy-hitter link summary (schema v6 "link_stats"
// section — exact while it covers the overlay's directed links, a sketch
// beyond).
#pragma once

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/table.h"
#include "core/cost_model.h"
#include "core/host_report.h"
#include "core/naive.h"
#include "core/netfilter.h"
#include "core/query_service.h"
#include "net/topology.h"
#include "obs/context.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/trace_event.h"
#include "workload/workload.h"

namespace nf::bench {

struct Params {
  std::uint32_t num_peers = 1000;    ///< N
  std::uint64_t num_items = 100000;  ///< n
  double instances_per_item = 10.0;  ///< total instances = this * n
  double alpha = 1.0;                ///< Zipf skewness
  double theta = 0.01;               ///< threshold ratio
  std::uint32_t fanout = 3;          ///< b
  std::uint64_t seed = 42;
  /// Engine shards (--threads=K). Results are bit-identical for any value
  /// (the sharded schedule equals the serial one — DESIGN.md §6c); recorded
  /// in the JSON report so archived numbers state how they were produced.
  std::uint32_t threads = 1;
};

/// Workload + overlay + hierarchy, built once and shared across a sweep.
/// The meter is a member (reset per run) so a caller can inspect the traffic
/// breakdown of the most recent run; pass an obs::Context to thread
/// tracing/metrics through the protocol stack.
struct Env {
  explicit Env(const Params& p, obs::Context* obs_ctx = nullptr)
      : params(p),
        workload([&] {
          wl::WorkloadConfig cfg;
          cfg.num_peers = p.num_peers;
          cfg.num_items = p.num_items;
          cfg.instances_per_item = p.instances_per_item;
          cfg.alpha = p.alpha;
          cfg.seed = p.seed;
          return wl::Workload::generate(cfg);
        }()),
        overlay([&] {
          Rng rng(p.seed + 1);
          return net::Overlay(net::random_tree(p.num_peers, p.fanout, rng));
        }()),
        hierarchy(agg::build_bfs_hierarchy(overlay, PeerId(0))),
        meter(p.num_peers),
        obs(obs_ctx) {}

  [[nodiscard]] Value threshold() const {
    return workload.threshold_for(params.theta);
  }

  [[nodiscard]] core::NetFilterResult run_netfilter(std::uint32_t g,
                                                    std::uint32_t f) {
    meter.reset();
    core::NetFilterConfig cfg;
    cfg.num_groups = g;
    cfg.num_filters = f;
    cfg.threads = params.threads;
    cfg.obs = obs;
    const core::NetFilter nf(cfg);
    core::NetFilterResult result =
        nf.run(workload, hierarchy, overlay, meter, threshold());
    annotate_conformance(result.stats, cfg, g, f);
    return result;
  }

  /// Extends the Formula-1 conformance run NetFilter::run just recorded
  /// with the workload-dependent annotations core cannot compute: the
  /// Formula 4 false-positive prediction (advisory — it is an expectation
  /// over filter seeds, one run is one draw) and the Formula 3/6 optimal
  /// g and f for these parameters.
  void annotate_conformance(const core::NetFilterStats& s,
                            const core::NetFilterConfig& cfg, std::uint32_t g,
                            std::uint32_t f) {
    namespace cm = core::cost_model;
    if (obs == nullptr || obs->conformance.num_runs() == 0) return;
    const auto n_items = static_cast<double>(workload.num_distinct());
    const auto r = static_cast<double>(s.num_frequent);
    obs->conformance.add_check(
        "F4.fp2", cm::expected_fp2(n_items, r, g, f),
        static_cast<double>(s.num_false_positives), /*gated=*/false);
    obs->conformance.set_param(
        "g_opt",
        cm::optimal_num_groups(workload.avg_light_value(s.threshold),
                               params.theta, workload.avg_global_value()));
    if (g >= 2) {
      obs->conformance.set_param(
          "f_opt", cm::optimal_num_filters(cfg.wire, n_items, r, g));
    }
  }

  /// The barriered schedule, the A/B baseline for the pipelined session:
  /// filter_candidates then verify_candidates, three engine runs with a
  /// global barrier between phases, over the same host-report-folded view
  /// NetFilter::run uses. Runs on a scratch meter without obs so it never
  /// disturbs the report of the pipelined run it is compared against; only
  /// the round counts differ.
  [[nodiscard]] core::NetFilterStats run_netfilter_barriered(
      std::uint32_t g, std::uint32_t f) {
    net::TrafficMeter scratch(params.num_peers);
    core::NetFilterConfig cfg;
    cfg.num_groups = g;
    cfg.num_filters = f;
    cfg.threads = params.threads;
    const core::NetFilter nf(cfg);
    const core::EffectiveItems items(workload, hierarchy, overlay, cfg.wire,
                                     &scratch);
    core::NetFilterStats stats;
    const core::HeavyGroupSet heavy = nf.filter_candidates(
        items, hierarchy, overlay, scratch, threshold(), &stats);
    stats = nf.verify_candidates(items, hierarchy, overlay, scratch,
                                 threshold(), heavy, stats)
                .stats;
    stats.rounds_total = stats.rounds_filtering + stats.rounds_verification;
    return stats;
  }

  [[nodiscard]] core::NaiveResult run_naive() {
    meter.reset();
    const core::NaiveCollector naive{WireSizes{}};
    return naive.run(workload, hierarchy, overlay, meter, threshold());
  }

  Params params;
  wl::Workload workload;
  net::Overlay overlay;
  agg::Hierarchy hierarchy;
  net::TrafficMeter meter;
  obs::Context* obs = nullptr;
};

struct Cli {
  bool quick = false;
  std::uint64_t seed = 42;
  std::uint32_t threads = 1;  ///< --threads=K engine shards (determinism-safe)
  std::string json;       ///< --json=PATH; empty disables the JSON report
  std::string trace_out;  ///< --trace-out=PATH; Chrome trace-event file
  std::uint64_t trace_cap = 0;  ///< --trace-cap=N; 0 = unset (env/default)
  std::uint64_t lineage_cap = 0;  ///< --lineage-cap=N; 0 = unset
  std::uint64_t series_cap = 0;   ///< --series-cap=N; 0 = unset
  std::uint64_t link_cap = 0;     ///< --link-cap=N; 0 = unset

  static Cli parse(int argc, char** argv) {
    Cli cli;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--quick") {
        cli.quick = true;
      } else if (arg.rfind("--seed=", 0) == 0) {
        cli.seed = std::stoull(std::string(arg.substr(7)));
      } else if (arg.rfind("--threads=", 0) == 0) {
        cli.threads = static_cast<std::uint32_t>(
            std::stoul(std::string(arg.substr(10))));
        if (cli.threads == 0) {
          std::cerr << "--threads must be >= 1\n";
          std::exit(2);
        }
      } else if (arg.rfind("--json=", 0) == 0) {
        cli.json = std::string(arg.substr(7));
      } else if (arg.rfind("--trace-out=", 0) == 0) {
        cli.trace_out = std::string(arg.substr(12));
      } else if (arg.rfind("--trace-cap=", 0) == 0) {
        cli.trace_cap = std::stoull(std::string(arg.substr(12)));
        if (cli.trace_cap == 0) {
          std::cerr << "--trace-cap must be >= 1\n";
          std::exit(2);
        }
      } else if (arg.rfind("--lineage-cap=", 0) == 0) {
        cli.lineage_cap = std::stoull(std::string(arg.substr(14)));
        if (cli.lineage_cap == 0) {
          std::cerr << "--lineage-cap must be >= 1\n";
          std::exit(2);
        }
      } else if (arg.rfind("--series-cap=", 0) == 0) {
        cli.series_cap = std::stoull(std::string(arg.substr(13)));
        if (cli.series_cap == 0) {
          std::cerr << "--series-cap must be >= 1\n";
          std::exit(2);
        }
      } else if (arg.rfind("--link-cap=", 0) == 0) {
        cli.link_cap = std::stoull(std::string(arg.substr(11)));
        if (cli.link_cap == 0) {
          std::cerr << "--link-cap must be >= 1\n";
          std::exit(2);
        }
      } else if (arg == "--help" || arg == "-h") {
        std::cout << "flags: --quick (scale 10^6-item runs down 10x), "
                     "--seed=S, --threads=K (engine shards; results are "
                     "identical for any K), --json=PATH (write "
                     "observability report), --trace-out=PATH (write "
                     "Chrome/Perfetto trace-event JSON), --trace-cap=N "
                     "(tracer ring capacity; NF_TRACE_CAP env is the "
                     "fallback, default 16384), --lineage-cap=N (lineage "
                     "ring capacity; NF_LINEAGE_CAP env is the fallback, "
                     "default 65536), --series-cap=N (per-round series "
                     "ring; NF_SERIES_CAP fallback, default 4096), "
                     "--link-cap=N (heavy-hitter link summary capacity; "
                     "NF_LINK_CAP fallback, default 4096)\n";
        std::exit(0);
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        std::exit(2);
      }
    }
    return cli;
  }

  /// n for the paper's 10^6-item experiments, honoring --quick.
  [[nodiscard]] std::uint64_t large_n() const {
    return quick ? 100000ull : 1000000ull;
  }

  /// Tracer ring capacity: --trace-cap beats NF_TRACE_CAP beats 16384.
  [[nodiscard]] std::uint64_t resolved_trace_cap() const {
    if (trace_cap != 0) return trace_cap;
    if (const char* env = std::getenv("NF_TRACE_CAP")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) return v;
      std::cerr << "ignoring malformed NF_TRACE_CAP=" << env << "\n";
    }
    return 1ull << 14;
  }

  /// Lineage ring capacity: --lineage-cap beats NF_LINEAGE_CAP beats 65536.
  [[nodiscard]] std::uint64_t resolved_lineage_cap() const {
    if (lineage_cap != 0) return lineage_cap;
    if (const char* env = std::getenv("NF_LINEAGE_CAP")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) return v;
      std::cerr << "ignoring malformed NF_LINEAGE_CAP=" << env << "\n";
    }
    return obs::LineageRecorder::kDefaultCapacity;
  }

  /// Series ring capacity: --series-cap beats NF_SERIES_CAP beats 4096.
  [[nodiscard]] std::uint64_t resolved_series_cap() const {
    if (series_cap != 0) return series_cap;
    if (const char* env = std::getenv("NF_SERIES_CAP")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) return v;
      std::cerr << "ignoring malformed NF_SERIES_CAP=" << env << "\n";
    }
    return 4096;
  }

  /// Link summary capacity: --link-cap beats NF_LINK_CAP beats the default.
  [[nodiscard]] std::uint64_t resolved_link_cap() const {
    if (link_cap != 0) return link_cap;
    if (const char* env = std::getenv("NF_LINK_CAP")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1) return v;
      std::cerr << "ignoring malformed NF_LINK_CAP=" << env << "\n";
    }
    return obs::LinkStats::kDefaultLinkCapacity;
  }
};

inline void banner(std::string_view title, std::string_view expectation) {
  std::cout << "\n## " << title << "\n#  paper expectation: " << expectation
            << "\n";
}

/// NetFilterStats as one JSON result row (shared by the fig* benches).
[[nodiscard]] inline obs::Json to_json(const core::NetFilterStats& s) {
  obs::Json row = obs::Json::object();
  row["threshold"] = obs::Json(s.threshold);
  row["heavy_groups_total"] = obs::Json(s.heavy_groups_total);
  row["num_candidates"] = obs::Json(s.num_candidates);
  row["num_frequent"] = obs::Json(s.num_frequent);
  row["num_false_positives"] = obs::Json(s.num_false_positives);
  row["candidates_per_peer"] = obs::Json(s.candidates_per_peer);
  row["rounds_filtering"] = obs::Json(s.rounds_filtering);
  row["rounds_verification"] = obs::Json(s.rounds_verification);
  row["rounds_total"] = obs::Json(s.rounds_total);  // schema v4
  row["filtering_cost"] = obs::Json(s.filtering_cost);
  row["dissemination_cost"] = obs::Json(s.dissemination_cost);
  row["aggregation_cost"] = obs::Json(s.aggregation_cost);
  row["host_report_cost"] = obs::Json(s.host_report_cost);
  row["total_cost"] = obs::Json(s.total_cost());
  return row;
}

/// Accumulates one bench's observability output and writes it on request.
///
/// Constructed from the parsed Cli: when --json=PATH or --trace-out=PATH was
/// given it owns an obs::Context (pass `report.obs()` into Env) and write()
/// serializes the ExportBundle and/or the trace-event file; without either
/// flag every method is a cheap no-op, so benches call the same code either
/// way.
class JsonReport {
 public:
  JsonReport(const Cli& cli, std::string bench_name)
      : path_(cli.json), trace_path_(cli.trace_out) {
    bundle_.bench = std::move(bench_name);
    if (enabled()) {
      ctx_ = std::make_unique<obs::Context>(
          /*trace_capacity=*/cli.resolved_trace_cap(),
          /*series_capacity=*/cli.resolved_series_cap(),
          /*lineage_capacity=*/cli.resolved_lineage_cap());
      ctx_->link_stats.set_link_capacity(cli.resolved_link_cap());
      bundle_.obs = ctx_.get();
      param("seed", obs::Json(cli.seed));
      param("quick", obs::Json(cli.quick));
    }
  }

  [[nodiscard]] bool enabled() const {
    return !path_.empty() || !trace_path_.empty();
  }

  /// The context to thread through Env/configs; null when disabled.
  [[nodiscard]] obs::Context* obs() { return ctx_.get(); }

  void param(const std::string& name, obs::Json value) {
    if (enabled()) bundle_.params[name] = std::move(value);
  }

  void params_from(const Params& p) {
    if (!enabled()) return;
    param("num_peers", obs::Json(p.num_peers));
    param("num_items", obs::Json(p.num_items));
    param("instances_per_item", obs::Json(p.instances_per_item));
    param("alpha", obs::Json(p.alpha));
    param("theta", obs::Json(p.theta));
    param("fanout", obs::Json(p.fanout));
    param("threads", obs::Json(p.threads));  // schema v2: always recorded
  }

  void row(obs::Json r) {
    if (enabled()) bundle_.results.push_back(std::move(r));
  }

  /// Snapshots the meter's breakdown now (Env meters reset per run, so
  /// capture after the run whose traffic should land in the report).
  /// per_peer_matrix=false drops the N×category byte matrix from the
  /// report — at bench scales of 10^5+ peers it dominates the file while
  /// nf-inspect and the baseline diffs only read the summary sections.
  void capture_traffic(const net::TrafficMeter& meter,
                       bool per_peer_matrix = true) {
    if (enabled()) bundle_.traffic = obs::to_json(meter, per_peer_matrix);
  }

  /// Per-session traffic attribution of a multiplexed run (schema v4
  /// "sessions"). Pass QueryService's ConcurrentQueryStats sessions.
  void capture_sessions(
      const std::vector<core::ConcurrentSessionStats>& sessions) {
    if (!enabled()) return;
    auto arr = obs::Json::array();
    for (const auto& ss : sessions) {
      auto row = obs::Json::object();
      row["name"] = obs::Json(ss.name);
      row["threshold"] = obs::Json(ss.threshold);
      row["netfilter"] = to_json(ss.netfilter);
      auto bytes = obs::Json::object();
      auto msgs = obs::Json::object();
      for (std::size_t c = 0; c < net::kNumTrafficCategories; ++c) {
        if (ss.traffic.msgs[c] == 0) continue;
        const std::string cat(
            net::to_string(static_cast<net::TrafficCategory>(c)));
        bytes[cat] = obs::Json(ss.traffic.bytes[c]);
        msgs[cat] = obs::Json(ss.traffic.msgs[c]);
      }
      row["bytes"] = std::move(bytes);
      row["msgs"] = std::move(msgs);
      row["total_bytes"] = obs::Json(ss.traffic.total_bytes());
      arr.push_back(std::move(row));
    }
    bundle_.sessions = std::move(arr);
  }

  /// Serializes the bundle to the --json path and, when --trace-out was
  /// given, the Chrome trace-event file. Returns false (with a stderr note)
  /// if either file cannot be written.
  bool write() {
    bool ok = true;
    if (ctx_ != nullptr) {
      // Make ring truncation visible in the report: nf-inspect warns when
      // these are nonzero instead of readers silently seeing a gap.
      ctx_->registry.counter("trace/dropped_events")
          .add(ctx_->tracer.dropped());  // nf-lint: nf-obs-context-ok
      ctx_->registry.counter("obs/timeseries_dropped_rounds")
          .add(ctx_->series.dropped());  // nf-lint: nf-obs-context-ok
    }
    if (!path_.empty()) {
      std::ofstream out(path_);
      if (!out) {
        std::cerr << "cannot write JSON report to " << path_ << "\n";
        ok = false;
      } else {
        obs::to_json(bundle_).dump(out, /*indent=*/2);
        out << '\n';
        std::cout << "# JSON report: " << path_ << "\n";
        ok = out.good() && ok;
      }
    }
    if (!trace_path_.empty() && ctx_ != nullptr) {
      if (obs::write_trace_event_file(trace_path_, *ctx_)) {
        std::cout << "# trace-event file: " << trace_path_ << "\n";
      } else {
        ok = false;
      }
    }
    return ok;
  }

 private:
  std::string path_;
  std::string trace_path_;
  std::unique_ptr<obs::Context> ctx_;
  obs::ExportBundle bundle_;
};

}  // namespace nf::bench
