// nf-inspect — terminal inspector for bench --json reports
// (docs/OBSERVABILITY.md schema, version 6).
//
// One report: prints the bench/params header, per-row results, phase spans,
// the per-peer traffic split, the per-session traffic breakdown of
// multiplexed runs, a per-round series summary and the cost-model
// conformance table. Exits non-zero when any *gated* conformance residual
// exceeds the tolerance, so CI can assert "the simulator still matches
// Formula 1" with one command:
//
//   nf-inspect [--tol=0.10] fig5.json
//
// Two reports: an A-vs-B regression diff. Result rows are compared by
// index; deterministic per-peer cost columns (`*_cost`) gate on relative
// increase beyond the tolerance, wall-clock fields are ignored (they never
// compare across machines):
//
//   nf-inspect [--tol=0.10] fig5.json BENCH_baseline.json
//
// Critical path: prints each session's gating chain (the lineage critical
// path — peer, phase, round and bytes per hop) and per-phase slack from
// the schema v5 `lineage` section, cross-checking the chain's final round
// against the session's recorded rounds_total:
//
//   nf-inspect critical-path multiquery.json
//
// Hotspots: ranks the heaviest directed links from the schema v6
// `link_stats` section (Misra-Gries estimates, lower bounds within
// links_error_bound). --expect-root-adjacent gates on the topology-locality
// property: the hottest link must touch the hierarchy root (level <= 1):
//
//   nf-inspect hotspots [--top=20] [--expect-root-adjacent] fig7.json
//
// Levels: reconciles observed per-hierarchy-level bytes against the
// cost-model per-level terms (link_stats levels[].predicted); a gated
// residual beyond the tolerance exits 1:
//
//   nf-inspect levels [--tol=0.01] fig7.json
//
// Overhead: the obs self-overhead budget — obs/overhead_us as a fraction
// of engine/round_us (whole-run wall inside the engine loop); exceeding
// --budget exits 1 so CI can cap what telemetry itself costs:
//
//   nf-inspect overhead --budget=0.35 fig7.json
//
// Congestion: the schema v7 link-capacity telemetry — per-level
// utilization (charged bytes over static capacity x engine rounds), peak
// backlog and the number of retained rounds each level's queue gated, the
// queueing counters and the spill hot-link table. With a second report the
// deterministic congestion scalars diff against the baseline and a
// relative increase beyond --tol exits 1:
//
//   nf-inspect congestion [--util=0.75] fig_congestion.json [BASELINE.json]
//
// Perf: compares two rows of the performance trajectory (BENCH_perf.json,
// written by scripts/perf_row.py) against the repository benchmark's
// bounds. For each workload and end-to-end metric of BENCHMARK.json, row
// B's median is compared with row A's (each row's `change` side: the code
// as of that row's commit), in the metric's better direction; a change for
// the worse beyond the metric's relative bound exits 1. Rows default to
// the last two; the bounds come from BENCHMARK.json beside the file:
//
//   nf-inspect perf [--rows=A,B] BENCH_perf.json
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/table.h"
#include "obs/json.h"

namespace {

using nf::TableWriter;
using nf::obs::Json;

Json load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "nf-inspect: cannot open " << path << "\n";
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  try {
    return Json::parse(buf.str());
  } catch (const std::exception& e) {
    std::cerr << "nf-inspect: " << path << ": " << e.what() << "\n";
    std::exit(2);
  }
}

double num(const Json& j, std::string_view key, double fallback = 0.0) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::string fmt(double v) {
  std::ostringstream os;
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    os.setf(std::ios::fixed);
    os.precision(0);
  } else {
    os.precision(6);
  }
  os << v;
  return os.str();
}

void print_header(const Json& doc, const std::string& path) {
  std::cout << "# " << path << "\n";
  const Json* bench = doc.find("bench");
  std::cout << "bench: " << (bench != nullptr ? bench->as_string() : "?")
            << "   schema_version: "
            << static_cast<std::uint64_t>(num(doc, "schema_version")) << "\n";
  if (const Json* params = doc.find("params"); params != nullptr) {
    std::cout << "params:";
    for (const auto& [k, v] : params->as_object()) {
      std::cout << ' ' << k << '=' << v.dump();
    }
    std::cout << "\n";
  }
}

void print_results(const Json& doc) {
  const Json* results = doc.find("results");
  if (results == nullptr || !results->is_array() || results->size() == 0) {
    return;
  }
  std::cout << "\n== results (" << results->size() << " rows) ==\n";
  TableWriter t({"row", "frequent", "false_pos", "filter_cost", "dissem_cost",
                 "agg_cost", "total_cost"},
                std::cout, 14);
  std::size_t i = 0;
  for (const Json& r : results->as_array()) {
    t.row(i++, num(r, "num_frequent"), num(r, "num_false_positives"),
          num(r, "filtering_cost"), num(r, "dissemination_cost"),
          num(r, "aggregation_cost"), num(r, "total_cost"));
  }
}

void print_spans(const Json& doc) {
  const Json* spans = doc.find("spans");
  if (spans == nullptr || !spans->is_array() || spans->size() == 0) return;
  std::cout << "\n== phase spans ==\n";
  TableWriter t({"phase", "rounds", "wall_us"}, std::cout, 16);
  for (const Json& s : spans->as_array()) {
    t.row(s.at("name").as_string(), num(s, "rounds"), num(s, "wall_us"));
  }
}

void print_traffic(const Json& doc) {
  const Json* traffic = doc.find("traffic");
  if (traffic == nullptr || !traffic->is_object()) return;
  std::cout << "\n== traffic (bytes/peer, most recent captured run) ==\n";
  if (const Json* per_peer = traffic->find("per_peer"); per_peer != nullptr) {
    TableWriter t({"category", "bytes/peer"}, std::cout, 16);
    for (const auto& [k, v] : per_peer->as_object()) t.row(k, v.as_double());
  }
  std::cout << "total: " << fmt(num(*traffic, "total_bytes")) << " bytes, "
            << fmt(num(*traffic, "num_messages")) << " messages\n";
}

/// Schema v4 "sessions": per-query traffic attribution of a multiplexed
/// (SessionMux) run — which session moved how many bytes, by category.
void print_sessions(const Json& doc) {
  const Json* sessions = doc.find("sessions");
  if (sessions == nullptr || !sessions->is_array() || sessions->size() == 0) {
    return;
  }
  std::cout << "\n== sessions (" << sessions->size()
            << " multiplexed over one run) ==\n";
  TableWriter t({"session", "threshold", "filtering", "dissemination",
                 "aggregation", "control", "total_bytes"},
                std::cout, 14);
  for (const Json& s : sessions->as_array()) {
    const Json* bytes = s.find("bytes");
    const auto cat = [&](std::string_view name) {
      return bytes != nullptr ? num(*bytes, name) : 0.0;
    };
    const Json* name = s.find("name");
    t.row(name != nullptr ? name->as_string() : "?", num(s, "threshold"),
          cat("filtering"), cat("dissemination"), cat("aggregation"),
          cat("control"), num(s, "total_bytes"));
  }
}

void print_series(const Json& doc) {
  const Json* series = doc.find("series");
  if (series == nullptr || !series->is_object()) return;
  const Json* stamps = series->find("stamps");
  const std::size_t rows = stamps != nullptr ? stamps->size() : 0;
  std::cout << "\n== series (" << rows << " rounds retained, "
            << fmt(num(*series, "dropped")) << " dropped) ==\n";
  TableWriter t({"column", "kind", "sum", "max"}, std::cout, 22);
  if (const Json* counters = series->find("counters"); counters != nullptr) {
    for (const auto& [name, col] : counters->as_object()) {
      double sum = 0.0;
      double mx = 0.0;
      for (const Json& v : col.as_array()) {
        sum += v.as_double();
        mx = std::max(mx, v.as_double());
      }
      t.row(name, "counter", sum, mx);
    }
  }
  if (const Json* gauges = series->find("gauges"); gauges != nullptr) {
    for (const auto& [name, col] : gauges->as_object()) {
      double last = 0.0;
      double mx = 0.0;
      for (const Json& v : col.as_array()) {
        last = v.as_double();
        mx = std::max(mx, v.as_double());
      }
      t.row(name, "gauge", last, mx);
    }
  }
}

/// Prints the conformance table; returns the number of gated checks whose
/// |residual| exceeds `tol`.
int print_conformance(const Json& doc, double tol) {
  const Json* conf = doc.find("conformance");
  if (conf == nullptr || !conf->is_object()) return 0;
  const Json* runs = conf->find("runs");
  if (runs == nullptr || runs->size() == 0) {
    std::cout << "\n== conformance: no runs recorded ==\n";
    return 0;
  }
  std::cout << "\n== cost-model conformance (" << runs->size()
            << " runs, tol " << tol * 100 << "% on gated checks) ==\n";
  int breaches = 0;
  std::size_t i = 0;
  for (const Json& run : runs->as_array()) {
    std::cout << "run " << i++;
    if (const Json* params = run.find("params"); params != nullptr) {
      for (const std::string key :
           {"num_filters", "num_groups", "num_frequent",
            "num_false_positives"}) {
        if (const Json* v = params->find(key); v != nullptr) {
          std::cout << "  " << key << '=' << fmt(v->as_double());
        }
      }
    }
    std::cout << "\n";
    TableWriter t({"check", "predicted", "observed", "residual%", "status"},
                  std::cout, 16);
    for (const Json& c : run.at("checks").as_array()) {
      const double residual = num(c, "residual");
      const bool gated = c.at("gated").as_bool();
      std::string status = gated ? "ok" : "advisory";
      if (gated && std::abs(residual) > tol) {
        status = "BREACH";
        ++breaches;
      }
      t.row(c.at("name").as_string(), num(c, "predicted"),
            num(c, "observed"), residual * 100.0, status);
    }
  }
  return breaches;
}

/// Satellite of the lineage work: ring truncation must be loud. A wrapped
/// tracer ring used to surface only as a silent gap in the span/trace
/// tables; now the report carries trace/dropped_events and this warning.
void warn_trace_truncation(const Json& doc) {
  const Json* trace = doc.find("trace");
  if (trace == nullptr || !trace->is_object()) return;
  const double dropped = num(*trace, "dropped");
  if (dropped <= 0.0) return;
  std::cout << "\nWARNING: trace ring wrapped; " << fmt(dropped)
            << " event(s) dropped (oldest first) — spans and flows may be "
               "incomplete; raise --trace-cap / NF_TRACE_CAP\n";
}

/// Same treatment for the per-round series ring: a wrap means the oldest
/// rounds fell off every column and per-round analyses silently start
/// mid-run, so say so. Reads the series section and (reports written
/// before sampling stopped) the obs/timeseries_dropped_rounds counter.
void warn_series_truncation(const Json& doc) {
  double dropped = 0.0;
  if (const Json* series = doc.find("series");
      series != nullptr && series->is_object()) {
    dropped = num(*series, "dropped");
  }
  if (dropped <= 0.0) {
    if (const Json* metrics = doc.find("metrics");
        metrics != nullptr && metrics->is_object()) {
      if (const Json* counters = metrics->find("counters");
          counters != nullptr) {
        dropped = num(*counters, "obs/timeseries_dropped_rounds");
      }
    }
  }
  if (dropped <= 0.0) return;
  std::cout << "\nWARNING: time-series ring wrapped; " << fmt(dropped)
            << " round(s) dropped (oldest first) — per-round columns start "
               "mid-run; raise --series-cap / NF_SERIES_CAP\n";
}

int inspect_one(const Json& doc, const std::string& path, double tol) {
  print_header(doc, path);
  warn_trace_truncation(doc);
  warn_series_truncation(doc);
  print_results(doc);
  print_spans(doc);
  print_traffic(doc);
  print_sessions(doc);
  print_series(doc);
  const int breaches = print_conformance(doc, tol);
  if (breaches != 0) {
    std::cout << "\nFAIL: " << breaches
              << " gated conformance check(s) exceed tolerance\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

/// A-vs-B regression diff over the results rows. Only the deterministic
/// per-peer `*_cost` columns gate (wall-clock never compares across
/// machines); a relative increase beyond `tol` is a breach.
int diff_reports(const Json& a, const Json& b, const std::string& path_a,
                 const std::string& path_b, double tol) {
  std::cout << "# A: " << path_a << "\n# B (baseline): " << path_b << "\n";
  const Json* ra = a.find("results");
  const Json* rb = b.find("results");
  if (ra == nullptr || rb == nullptr || !ra->is_array() || !rb->is_array()) {
    std::cerr << "nf-inspect: both reports need a results array\n";
    return 2;
  }
  if (ra->size() != rb->size()) {
    std::cout << "note: row count differs (" << ra->size() << " vs "
              << rb->size() << "); comparing the common prefix\n";
  }
  const std::size_t rows = std::min(ra->size(), rb->size());
  int breaches = 0;
  TableWriter t({"row", "column", "A", "B", "delta%", "status"}, std::cout,
                16);
  for (std::size_t i = 0; i < rows; ++i) {
    const Json& row_a = ra->as_array()[i];
    const Json& row_b = rb->as_array()[i];
    if (!row_a.is_object() || !row_b.is_object()) continue;
    for (const auto& [key, va] : row_a.as_object()) {
      if (!ends_with(key, "_cost") || !va.is_number()) continue;
      const Json* vb = row_b.find(key);
      if (vb == nullptr || !vb->is_number()) continue;
      const double x = va.as_double();
      const double y = vb->as_double();
      const double delta =
          y != 0.0 ? (x - y) / std::abs(y) : (x == 0.0 ? 0.0 : 1.0);
      const bool breach = delta > tol;
      if (breach || std::abs(delta) > 1e-12) {
        t.row(i, key, x, y, delta * 100.0, breach ? "BREACH" : "ok");
      }
      if (breach) ++breaches;
    }
  }
  if (breaches != 0) {
    std::cout << "\nFAIL: " << breaches << " cost column(s) regressed more "
              << "than " << tol * 100 << "% vs baseline\n";
    return 1;
  }
  std::cout << "\nOK: no cost regressions vs baseline\n";
  return 0;
}

/// `nf-inspect critical-path REPORT.json` — the gating chain and per-phase
/// slack of every session, from the schema v5 lineage section. The chain's
/// final deliver round is cross-checked against the session's recorded
/// rounds_total (sessions section, matched by name): a disagreement means
/// the lineage DAG and the session accounting have diverged, exit 1.
/// Exit 2 when the report predates schema v5 / has no lineage section.
int critical_path_cmd(const Json& doc, const std::string& path) {
  print_header(doc, path);
  warn_trace_truncation(doc);
  const Json* lineage = doc.find("lineage");
  if (lineage == nullptr || !lineage->is_object()) {
    std::cerr << "nf-inspect: " << path
              << " has no lineage section (needs a schema v5 report from a "
                 "bench run with --json)\n";
    return 2;
  }
  const double dropped_nodes = num(*lineage, "dropped_nodes");
  if (dropped_nodes > 0.0) {
    std::cout << "\nWARNING: lineage ring wrapped; " << fmt(dropped_nodes)
              << " node(s) dropped — chains may start mid-run; raise "
                 "--lineage-cap / NF_LINEAGE_CAP\n";
  }
  const Json* paths = lineage->find("critical_paths");
  if (paths == nullptr || !paths->is_array() || paths->size() == 0) {
    std::cout << "\nno critical paths (no session-tagged deliveries were "
                 "recorded)\n";
    return 0;
  }

  // rounds_total per session name, for the cross-check.
  const Json* sessions = doc.find("sessions");
  const auto recorded_rounds = [&](std::string_view name) -> double {
    if (sessions == nullptr || !sessions->is_array()) return -1.0;
    for (const Json& s : sessions->as_array()) {
      const Json* n = s.find("name");
      if (n == nullptr || n->as_string() != name) continue;
      const Json* nfj = s.find("netfilter");
      if (nfj == nullptr) return -1.0;
      return num(*nfj, "rounds_total", -1.0);
    }
    return -1.0;
  };

  int mismatches = 0;
  for (const Json& cp : paths->as_array()) {
    const Json* name_j = cp.find("name");
    std::string name = fmt(num(cp, "session"));
    name.insert(0, "s");
    if (name_j != nullptr && !name_j->as_string().empty()) {
      name = name_j->as_string();
    }
    std::cout << "\n== critical path: " << name << " (done round "
              << fmt(num(cp, "done_round")) << ", chain "
              << fmt(num(cp, "rounds")) << " rounds, "
              << fmt(num(cp, "bytes")) << " bytes) ==\n";
    double final_round = -1.0;
    const Json* hops = cp.find("hops");
    if (hops != nullptr && hops->is_array() && hops->size() != 0) {
      TableWriter t({"hop", "from", "to", "phase", "bytes", "send_round",
                     "deliver_round"},
                    std::cout, 17);
      std::size_t i = 0;
      for (const Json& h : hops->as_array()) {
        const Json* phase = h.find("phase");
        t.row(i++, fmt(num(h, "from")), fmt(num(h, "to")),
              phase != nullptr && !phase->as_string().empty()
                  ? phase->as_string()
                  : "-",
              fmt(num(h, "bytes")), fmt(num(h, "send_round")),
              fmt(num(h, "deliver_round")));
        final_round = num(h, "deliver_round");
      }
    }
    const double recorded = recorded_rounds(name);
    if (recorded >= 0.0 && final_round >= 0.0) {
      if (final_round == recorded) {
        std::cout << "gating delivery at round " << fmt(final_round)
                  << " == recorded rounds_total\n";
      } else {
        std::cout << "MISMATCH: gating chain ends at round "
                  << fmt(final_round) << " but the session recorded "
                  << "rounds_total=" << fmt(recorded) << "\n";
        ++mismatches;
      }
    }
    const Json* slack = cp.find("slack");
    if (slack != nullptr && slack->is_array() && slack->size() != 0) {
      TableWriter t({"phase", "last_deliver_round", "slack_rounds"},
                    std::cout, 20);
      for (const Json& s : slack->as_array()) {
        const Json* phase = s.find("phase");
        t.row(phase != nullptr ? phase->as_string() : "?",
              fmt(num(s, "last_deliver_round")), fmt(num(s, "slack_rounds")));
      }
    }
  }
  if (mismatches != 0) {
    std::cout << "\nFAIL: " << mismatches << " gating chain(s) disagree "
              << "with the recorded session rounds\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}

/// Fetch the schema v6 link_stats section or exit 2 with a pointer at the
/// likely cause (pre-v6 report, or a bench run without --json/obs).
const Json& link_stats_or_die(const Json& doc, const std::string& path) {
  const Json* ls = doc.find("link_stats");
  if (ls == nullptr || !ls->is_object()) {
    std::cerr << "nf-inspect: " << path
              << " has no link_stats section (needs a schema v6 report "
                 "from a bench run with --json)\n";
    std::exit(2);
  }
  return *ls;
}

/// `nf-inspect hotspots [--top=N] [--expect-root-adjacent] REPORT.json` —
/// the heaviest directed links plus per-level utilization. Estimates are
/// Misra-Gries lower bounds; when links_error_bound is 0 the summary never
/// decremented and every count is exact. With --expect-root-adjacent the
/// hottest link must touch the root (level <= 1) — the paper's hierarchy
/// concentrates filtering/aggregation traffic at the root, so a top link
/// elsewhere means the accounting (or the topology) is wrong; exit 1.
int hotspots_cmd(const Json& doc, const std::string& path, std::size_t top,
                 bool expect_root_adjacent) {
  print_header(doc, path);
  warn_series_truncation(doc);
  const Json& ls = link_stats_or_die(doc, path);
  const double error_bound = num(ls, "links_error_bound");
  std::cout << "links tracked: " << fmt(num(ls, "links_tracked")) << " / "
            << fmt(num(ls, "link_capacity")) << " capacity, "
            << fmt(num(ls, "links_total_bytes")) << " bytes total, "
            << "error bound " << fmt(error_bound)
            << (error_bound == 0.0 ? " (exact)" : " (sketch)") << "\n";

  const Json* levels = ls.find("levels");
  if (levels != nullptr && levels->is_array() && levels->size() != 0) {
    std::cout << "\n== per-level utilization ==\n";
    TableWriter t({"level", "peers", "total_bytes", "total_msgs"}, std::cout,
                  14);
    for (const Json& row : levels->as_array()) {
      t.row(fmt(num(row, "level")), fmt(num(row, "peers")),
            fmt(num(row, "total_bytes")), fmt(num(row, "total_msgs")));
    }
    if (const Json* off = ls.find("off_hierarchy"); off != nullptr) {
      std::cout << "off-hierarchy: " << fmt(num(*off, "total_bytes"))
                << " bytes, " << fmt(num(*off, "total_msgs")) << " msgs\n";
    }
  }

  const Json* hot = ls.find("hot");
  if (hot == nullptr || !hot->is_array() || hot->size() == 0) {
    std::cout << "\nno links recorded\n";
    return expect_root_adjacent ? 1 : 0;
  }
  std::cout << "\n== hottest links (top " << top << " of "
            << fmt(num(ls, "links_tracked")) << ") ==\n";
  TableWriter t({"rank", "from", "to", "level", "bytes"}, std::cout, 12);
  std::size_t rank = 0;
  for (const Json& link : hot->as_array()) {
    if (rank >= top) break;
    t.row(rank++, fmt(num(link, "from")), fmt(num(link, "to")),
          fmt(num(link, "level")), fmt(num(link, "bytes")));
  }
  if (expect_root_adjacent) {
    const Json& first = hot->as_array()[0];
    const double level = num(first, "level");
    if (level > 1.0) {
      std::cout << "\nFAIL: hottest link " << fmt(num(first, "from"))
                << " -> " << fmt(num(first, "to")) << " is at level "
                << fmt(level) << "; expected a root-adjacent link "
                << "(level <= 1)\n";
      return 1;
    }
    std::cout << "\nOK: hottest link is root-adjacent (level "
              << fmt(level) << ")\n";
    return 0;
  }
  std::cout << "\nOK\n";
  return 0;
}

/// `nf-inspect levels [--tol=0.01] REPORT.json` — per-level observed bytes
/// against the cost-model level terms. Only categories with a recorded
/// prediction gate (the per-level split is only exact for flat wire sizes
/// and loss-free runs — the same gating as the F1 conformance checks);
/// |residual| > tol on any gated cell exits 1.
int levels_cmd(const Json& doc, const std::string& path, double tol) {
  print_header(doc, path);
  warn_series_truncation(doc);
  const Json& ls = link_stats_or_die(doc, path);
  const Json* levels = ls.find("levels");
  if (levels == nullptr || !levels->is_array() || levels->size() == 0) {
    std::cout << "\nno levels recorded\n";
    return 0;
  }
  std::cout << "\n== per-level cost-model reconciliation (tol " << tol * 100
            << "%) ==\n";
  TableWriter t({"level", "category", "predicted", "observed", "residual%",
                 "status"},
                std::cout, 14);
  int breaches = 0;
  int gated = 0;
  for (const Json& row : levels->as_array()) {
    const Json* predicted = row.find("predicted");
    if (predicted == nullptr || !predicted->is_object()) continue;
    const Json* bytes = row.find("bytes");
    for (const auto& [cat, pv] : predicted->as_object()) {
      const double pred = pv.as_double();
      if (pred <= 0.0) continue;
      const double obs = bytes != nullptr ? num(*bytes, cat) : 0.0;
      const double residual = (obs - pred) / pred;
      ++gated;
      const bool breach = std::abs(residual) > tol;
      if (breach) ++breaches;
      t.row(fmt(num(row, "level")), cat, pred, obs, residual * 100.0,
            breach ? "BREACH" : "ok");
    }
  }
  if (gated == 0) {
    std::cout << "no per-level predictions recorded (non-flat wire sizes or "
                 "lossy run)\n";
    return 0;
  }
  if (breaches != 0) {
    std::cout << "\nFAIL: " << breaches << " per-level check(s) exceed "
              << tol * 100 << "% tolerance\n";
    return 1;
  }
  std::cout << "\nOK: " << gated << " per-level check(s) within tolerance\n";
  return 0;
}

/// `nf-inspect overhead [--budget=X] REPORT.json` — what telemetry itself
/// costs. obs/overhead_us accumulates the wall time the engine spends in
/// obs-only work (round stamping, shard-gauge folds, link charging, series
/// sampling); engine/round_us is the whole engine loop. Their ratio beyond
/// --budget exits 1. Exit 2 when the counters are absent (pre-v6 report or
/// a run without obs attached).
int overhead_cmd(const Json& doc, const std::string& path, double budget) {
  print_header(doc, path);
  const Json* metrics = doc.find("metrics");
  const Json* counters =
      metrics != nullptr && metrics->is_object() ? metrics->find("counters")
                                                 : nullptr;
  if (counters == nullptr || counters->find("obs/overhead_us") == nullptr ||
      counters->find("engine/round_us") == nullptr) {
    std::cerr << "nf-inspect: " << path
              << " has no obs/overhead_us + engine/round_us counters (needs "
                 "a schema v6 report from a bench run with --json)\n";
    return 2;
  }
  const double overhead_us = num(*counters, "obs/overhead_us");
  const double round_us = num(*counters, "engine/round_us");
  const double frac = round_us > 0.0 ? overhead_us / round_us : 0.0;
  std::cout << "obs overhead: " << fmt(overhead_us) << " us of "
            << fmt(round_us) << " us engine-loop wall = "
            << fmt(frac * 100.0) << "% (budget " << fmt(budget * 100.0)
            << "%)\n";
  if (frac > budget) {
    std::cout << "\nFAIL: obs self-overhead exceeds budget\n";
    return 1;
  }
  std::cout << "\nOK\n";
  return 0;
}

/// Reads a counter from the metrics section (0.0 when absent).
double metric_counter(const Json& doc, std::string_view name) {
  const Json* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return 0.0;
  const Json* counters = metrics->find("counters");
  if (counters == nullptr || !counters->is_object()) return 0.0;
  return num(*counters, name);
}

/// `nf-inspect congestion [--util=0.75] REPORT.json` — the schema v7
/// link-capacity picture: which levels saturated (utilization = charged
/// bytes / (static capacity x engine rounds)), how deep their backlogs got
/// (peak of the link/level<d>/backlog_bytes series) and how many retained
/// rounds each queue gated, plus the engine queueing counters and the
/// spill hot-link table (which links the queueing concentrated on). Exit 2
/// when the report has no link_stats section.
int congestion_cmd(const Json& doc, const std::string& path,
                   double util_threshold) {
  print_header(doc, path);
  warn_series_truncation(doc);
  const Json& ls = link_stats_or_die(doc, path);

  const double rounds = metric_counter(doc, "engine/rounds");
  const double queued = metric_counter(doc, "engine/congestion/queued_msgs");
  const double delay =
      metric_counter(doc, "engine/congestion/queue_delay_rounds");
  const double clamped =
      metric_counter(doc, "engine/congestion/clamped_bytes");
  std::cout << "engine rounds: " << fmt(rounds) << "   queued msgs: "
            << fmt(queued) << "   queue delay: " << fmt(delay)
            << " rounds   clamped backlog: " << fmt(clamped) << " bytes\n";

  // Per-level backlog series columns, for peak depth and gated rounds.
  const Json* gauges = nullptr;
  if (const Json* series = doc.find("series");
      series != nullptr && series->is_object()) {
    gauges = series->find("gauges");
  }
  const auto backlog_stats = [&](double level, double* peak,
                                 double* gated_rounds) {
    *peak = 0.0;
    *gated_rounds = 0.0;
    if (gauges == nullptr || !gauges->is_object()) return;
    std::string name = "link/level";
    name += fmt(level);
    name += "/backlog_bytes";
    const Json* col = gauges->find(name);
    if (col == nullptr || !col->is_array()) return;
    for (const Json& v : col->as_array()) {
      const double b = v.as_double();
      *peak = std::max(*peak, b);
      if (b > 0.0) *gated_rounds += 1.0;
    }
  };

  const Json* levels = ls.find("levels");
  int saturated = 0;
  if (levels != nullptr && levels->is_array() && levels->size() != 0) {
    std::cout << "\n== per-level congestion (saturated at "
              << fmt(util_threshold * 100.0) << "% utilization) ==\n";
    TableWriter t({"level", "peers", "capacity", "bytes", "util%",
                   "backlog_peak", "gated_rounds", "status"},
                  std::cout, 14);
    for (const Json& row : levels->as_array()) {
      const double level = num(row, "level");
      const double capacity = num(row, "capacity");
      const double bytes = num(row, "total_bytes");
      const double util = capacity > 0.0 && rounds > 0.0
                              ? bytes / (capacity * rounds)
                              : 0.0;
      double peak = 0.0;
      double gated_rounds = 0.0;
      backlog_stats(level, &peak, &gated_rounds);
      std::string status = "ok";
      if (capacity <= 0.0) {
        status = "uncapped";
      } else if (util >= util_threshold || peak > 0.0) {
        status = "SATURATED";
        ++saturated;
      }
      t.row(fmt(level), fmt(num(row, "peers")), fmt(capacity), fmt(bytes),
            util * 100.0, fmt(peak), fmt(gated_rounds), status);
    }
  }

  const Json* congestion = ls.find("congestion");
  if (congestion != nullptr && congestion->is_object()) {
    std::cout << "\n== spill hot links (" << fmt(num(*congestion,
                                                     "spilled_bytes"))
              << " bytes queued, error bound "
              << fmt(num(*congestion, "spill_error_bound")) << ") ==\n";
    if (const Json* hot = congestion->find("hot");
        hot != nullptr && hot->is_array()) {
      TableWriter t({"rank", "from", "to", "level", "queued_bytes"},
                    std::cout, 13);
      std::size_t rank = 0;
      for (const Json& link : hot->as_array()) {
        t.row(rank++, fmt(num(link, "from")), fmt(num(link, "to")),
              fmt(num(link, "level")), fmt(num(link, "bytes")));
      }
    }
  } else {
    std::cout << "\nno links queued (run never exceeded link capacity)\n";
  }
  if (saturated != 0) {
    std::cout << "\n" << saturated << " level(s) saturated\n";
  }
  std::cout << "\nOK\n";
  return 0;
}

/// `nf-inspect congestion REPORT.json BASELINE.json` — regression diff of
/// the deterministic congestion scalars. The engine schedules on the
/// engine thread in canonical order, so these are exact across machines
/// and thread counts; a relative increase beyond --tol (more queueing than
/// the committed baseline) exits 1.
int congestion_diff_cmd(const Json& a, const Json& b,
                        const std::string& path_a, const std::string& path_b,
                        double tol) {
  std::cout << "# A: " << path_a << "\n# B (baseline): " << path_b << "\n";
  const auto spilled = [](const Json& doc) {
    const Json* ls = doc.find("link_stats");
    if (ls == nullptr || !ls->is_object()) return 0.0;
    const Json* congestion = ls->find("congestion");
    if (congestion == nullptr || !congestion->is_object()) return 0.0;
    return num(*congestion, "spilled_bytes");
  };
  struct Scalar {
    const char* name;
    double x;
    double y;
  };
  const Scalar scalars[] = {
      {"engine/rounds", metric_counter(a, "engine/rounds"),
       metric_counter(b, "engine/rounds")},
      {"congestion/queued_msgs",
       metric_counter(a, "engine/congestion/queued_msgs"),
       metric_counter(b, "engine/congestion/queued_msgs")},
      {"congestion/queue_delay_rounds",
       metric_counter(a, "engine/congestion/queue_delay_rounds"),
       metric_counter(b, "engine/congestion/queue_delay_rounds")},
      {"congestion/clamped_bytes",
       metric_counter(a, "engine/congestion/clamped_bytes"),
       metric_counter(b, "engine/congestion/clamped_bytes")},
      {"link_stats/spilled_bytes", spilled(a), spilled(b)},
  };
  int breaches = 0;
  TableWriter t({"scalar", "A", "B", "delta%", "status"}, std::cout, 24);
  for (const Scalar& s : scalars) {
    const double delta = s.y != 0.0 ? (s.x - s.y) / std::abs(s.y)
                                    : (s.x == 0.0 ? 0.0 : 1.0);
    const bool breach = delta > tol;
    if (breach) ++breaches;
    t.row(s.name, s.x, s.y, delta * 100.0, breach ? "BREACH" : "ok");
  }
  if (breaches != 0) {
    std::cout << "\nFAIL: " << breaches << " congestion scalar(s) regressed "
              << "more than " << tol * 100 << "% vs baseline\n";
    return 1;
  }
  std::cout << "\nOK: no congestion regressions vs baseline\n";
  return 0;
}

/// Row `index` of a trajectory file, or nullptr (with a message) when the
/// file has no such row.
const Json* trajectory_row(const Json& perf, std::size_t index) {
  const Json* rows = perf.find("rows");
  if (rows == nullptr || !rows->is_array() || index >= rows->size()) {
    std::cerr << "nf-inspect perf: no row " << index << " (the file has "
              << (rows != nullptr && rows->is_array() ? rows->size() : 0)
              << ")\n";
    return nullptr;
  }
  return &rows->as_array()[index];
}

/// Median of `metric` on `workload`'s change side of `row`, if recorded.
const Json* change_median(const Json& row, const std::string& workload,
                          const std::string& metric) {
  const Json* w = row.find("workloads");
  if (w != nullptr) w = w->find(workload);
  if (w != nullptr) w = w->find("change");
  if (w != nullptr) w = w->find("metrics");
  if (w != nullptr) w = w->find(metric);
  if (w != nullptr) w = w->find("median");
  return w != nullptr && w->is_number() ? w : nullptr;
}

int perf_cmd(const Json& perf, const Json& spec, const std::string& path,
             std::size_t row_a, std::size_t row_b) {
  const Json* a = trajectory_row(perf, row_a);
  const Json* b = trajectory_row(perf, row_b);
  const Json* workloads = spec.find("workloads");
  const Json* metrics = spec.find("end_to_end");
  if (a == nullptr || b == nullptr) return 2;
  if (workloads == nullptr || !workloads->is_array() || metrics == nullptr ||
      !metrics->is_array()) {
    std::cerr << "nf-inspect perf: the benchmark spec lacks workloads or "
                 "end_to_end\n";
    return 2;
  }
  std::cout << "# " << path << ": row " << row_a << " -> row " << row_b
            << "\n";
  for (const std::size_t i : {row_a, row_b}) {
    const Json* row = trajectory_row(perf, i);
    const Json* change = row->find("change");
    std::cout << "row " << i << ": "
              << (change != nullptr && change->is_string() ? change->as_string()
                                                           : "?")
              << "\n";
  }
  int regressions = 0;
  int missing = 0;
  for (const Json& w : workloads->as_array()) {
    const std::string& workload = w.at("name").as_string();
    std::cout << "\n== " << workload << "\n";
    TableWriter t({"metric", "better", "bound%", "A", "B", "delta%", "status"},
                  std::cout, 18);
    for (const Json& m : metrics->as_array()) {
      const std::string& metric = m.at("name").as_string();
      const bool lower = m.at("better").as_string() == "lower";
      const double bound = m.at("bound").as_double();
      const Json* va = change_median(*a, workload, metric);
      const Json* vb = change_median(*b, workload, metric);
      if (va == nullptr || vb == nullptr) {
        ++missing;
        t.row(metric, lower ? "lower" : "higher", bound * 100.0, "-", "-", "-",
              "missing");
        continue;
      }
      const double x = va->as_double();
      const double y = vb->as_double();
      const double delta =
          x != 0.0 ? (y - x) / std::abs(x) : (y == 0.0 ? 0.0 : 1.0);
      // Relative change for the worse, in the metric's better direction.
      const double worse = lower ? delta : -delta;
      const bool breach = worse > bound;
      if (breach) ++regressions;
      t.row(metric, lower ? "lower" : "higher", bound * 100.0, x, y,
            delta * 100.0, breach ? "REGRESSED" : "ok");
    }
  }
  if (missing != 0) {
    std::cout << "\nnote: " << missing
              << " metric(s) missing from a row were not compared\n";
  }
  if (regressions != 0) {
    std::cout << "\nFAIL: " << regressions
              << " end-to-end metric(s) regressed beyond their bound\n";
    return 1;
  }
  std::cout << "\nOK: no end-to-end metric regressed beyond its bound\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  double tol = 0.10;
  bool tol_set = false;
  std::size_t top = 20;
  bool expect_root_adjacent = false;
  double budget = 0.35;
  double util_threshold = 0.75;
  std::string rows_arg;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--tol=", 0) == 0) {
      tol = std::stod(std::string(arg.substr(6)));
      tol_set = true;
    } else if (arg.rfind("--top=", 0) == 0) {
      top = std::stoull(std::string(arg.substr(6)));
    } else if (arg == "--expect-root-adjacent") {
      expect_root_adjacent = true;
    } else if (arg.rfind("--budget=", 0) == 0) {
      budget = std::stod(std::string(arg.substr(9)));
    } else if (arg.rfind("--util=", 0) == 0) {
      util_threshold = std::stod(std::string(arg.substr(7)));
    } else if (arg.rfind("--rows=", 0) == 0) {
      rows_arg = std::string(arg.substr(7));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: nf-inspect [--tol=0.10] REPORT.json "
                   "[BASELINE.json]\n"
                   "       nf-inspect critical-path REPORT.json\n"
                   "       nf-inspect hotspots [--top=20] "
                   "[--expect-root-adjacent] REPORT.json\n"
                   "       nf-inspect levels [--tol=0.01] REPORT.json\n"
                   "       nf-inspect overhead [--budget=0.35] REPORT.json\n"
                   "       nf-inspect congestion [--util=0.75] REPORT.json "
                   "[BASELINE.json]\n"
                   "       nf-inspect perf [--rows=A,B] BENCH_perf.json\n"
                   "  one file: summarize + gate cost-model conformance\n"
                   "  two files: regression-diff A against baseline B\n"
                   "  critical-path: per-session gating chain + per-phase "
                   "slack (schema v5 lineage)\n"
                   "  hotspots: heaviest links + per-level utilization "
                   "(schema v6 link_stats)\n"
                   "  levels: per-level bytes vs cost-model level terms\n"
                   "  overhead: gate obs self-overhead against a budget "
                   "fraction of engine wall\n"
                   "  congestion: saturated levels/links, backlog depth + "
                   "gated rounds; with a\n"
                   "    baseline, gate the deterministic queueing scalars "
                   "(schema v7)\n"
                   "  perf: end-to-end medians of trajectory row B vs row A "
                   "(default: the last\n"
                   "    two) against the benchmark's bounds\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "nf-inspect: unknown flag " << arg << "\n";
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }
  if (!paths.empty() && paths[0] == "critical-path") {
    if (paths.size() != 2) {
      std::cerr << "usage: nf-inspect critical-path REPORT.json\n";
      return 2;
    }
    return critical_path_cmd(load(paths[1]), paths[1]);
  }
  if (!paths.empty() && paths[0] == "hotspots") {
    if (paths.size() != 2) {
      std::cerr << "usage: nf-inspect hotspots [--top=20] "
                   "[--expect-root-adjacent] REPORT.json\n";
      return 2;
    }
    return hotspots_cmd(load(paths[1]), paths[1], top, expect_root_adjacent);
  }
  if (!paths.empty() && paths[0] == "levels") {
    if (paths.size() != 2) {
      std::cerr << "usage: nf-inspect levels [--tol=0.01] REPORT.json\n";
      return 2;
    }
    // Per-level reconciliation is exact by construction for gated cells,
    // so default much tighter than the conformance gate.
    return levels_cmd(load(paths[1]), paths[1], tol_set ? tol : 0.01);
  }
  if (!paths.empty() && paths[0] == "congestion") {
    if (paths.size() != 2 && paths.size() != 3) {
      std::cerr << "usage: nf-inspect congestion [--util=0.75] REPORT.json "
                   "[BASELINE.json]\n";
      return 2;
    }
    if (paths.size() == 2) {
      return congestion_cmd(load(paths[1]), paths[1], util_threshold);
    }
    return congestion_diff_cmd(load(paths[1]), load(paths[2]), paths[1],
                               paths[2], tol);
  }
  if (!paths.empty() && paths[0] == "overhead") {
    if (paths.size() != 2) {
      std::cerr << "usage: nf-inspect overhead [--budget=0.35] "
                   "REPORT.json\n";
      return 2;
    }
    return overhead_cmd(load(paths[1]), paths[1], budget);
  }
  if (!paths.empty() && paths[0] == "perf") {
    if (paths.size() != 2) {
      std::cerr << "usage: nf-inspect perf [--rows=A,B] BENCH_perf.json\n";
      return 2;
    }
    const Json perf = load(paths[1]);
    const Json* rows = perf.find("rows");
    const std::size_t n =
        rows != nullptr && rows->is_array() ? rows->size() : 0;
    std::size_t row_a = n >= 2 ? n - 2 : 0;
    std::size_t row_b = n >= 1 ? n - 1 : 0;
    if (!rows_arg.empty()) {
      const std::size_t comma = rows_arg.find(',');
      if (comma == std::string::npos) {
        std::cerr << "nf-inspect perf: --rows takes A,B\n";
        return 2;
      }
      row_a = std::stoull(rows_arg.substr(0, comma));
      row_b = std::stoull(rows_arg.substr(comma + 1));
    } else if (n < 2) {
      std::cerr << "nf-inspect perf: " << paths[1]
                << " needs two rows to compare\n";
      return 2;
    }
    const std::size_t slash = paths[1].find_last_of('/');
    const std::string spec_path =
        (slash == std::string::npos ? std::string()
                                    : paths[1].substr(0, slash + 1)) +
        "BENCHMARK.json";
    return perf_cmd(perf, load(spec_path), paths[1], row_a, row_b);
  }
  if (paths.empty() || paths.size() > 2) {
    std::cerr << "usage: nf-inspect [--tol=0.10] REPORT.json "
                 "[BASELINE.json] | nf-inspect "
                 "critical-path|hotspots|levels|overhead|congestion|perf "
                 "REPORT.json\n";
    return 2;
  }
  const Json a = load(paths[0]);
  if (paths.size() == 1) return inspect_one(a, paths[0], tol);
  const Json b = load(paths[1]);
  return diff_reports(a, b, paths[0], paths[1], tol);
}
