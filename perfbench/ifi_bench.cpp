// Closed-loop IFI benchmark program (see README.md in this directory).
//
// One client keeps one query outstanding: it calls a public entry point
// (QueryService::serve_concurrent or NaiveCollector::run),
// checks every answer against the Workload oracle, and immediately issues
// the next query, until --seconds have elapsed. A fixed gauge kernel runs
// between queries; host times are reported at its nominal speed (see
// HostGauge). All inputs derive from --seed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// attribution instead: spans around every call into a layer, the counters
// the engine exports into an obs::Context, and probes that time single
// layer functions on this workload's data. Nothing inside the library is
// instrumented by this file.
//
// The last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// The line before it starts with "diag " and carries diagnostics that are
// not metrics (raw host times, gauge times, sample counts, notes on
// unmeasured layers).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/alloc_hook.h"
#include "common/rng.h"
#include "core/naive.h"
#include "core/netfilter.h"
#include "core/query_service.h"
#include "net/codec.h"
#include "net/link_model.h"
#include "net/metrics.h"
#include "net/overlay.h"
#include "net/payload.h"
#include "net/topology.h"
#include "obs/context.h"
#include "workload/workload.h"

namespace {

using namespace nf;
using Clock = std::chrono::steady_clock;
using Answer = ValueMap<ItemId, Value>;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Linear interpolation between closest ranks; `v` need not be sorted.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// Upper percentile reported for query times: a timed run has ~75-90
// (lossy) or more queries, so at least ten lie above it.
constexpr double kTailQuantile = 0.85;

volatile std::uint64_t g_sink = 0;

/// Fixed register-only kernel, timed before and after each run, so a slow
/// phase of the host shows at a glance. Diagnostic only: the gauge below,
/// not this, normalizes host times (register-only code slows down less than
/// the queries do).
double spin_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink = x;
  return seconds_between(t0, Clock::now()) * 1e3;
}

// ------------------------------------------------------------ host gauge

// The host is a shared VM whose speed swings by up to 1.75x in phases of
// seconds to minutes, and a slow phase can cover a whole run, so no
// statistic of a run's own timings repeats between runs. Every host time of
// the untraced run is therefore timed between two runs of a fixed gauge
// kernel and reported at the gauge's nominal speed:
//   normalized = measured x kGaugeNominalMs / mean(gauge before, after).
// The gauge is frozen benchmark code (count 2^20 keys into a fresh
// std::unordered_map, then sort the counts: heap, hashing and cache misses,
// like a query), so it slows down with the host as the queries do, and it
// is the same code on every commit the benchmark compares. Raw times are in
// the diag line. README.md, "Host noise", has the measurements.
// kGaugeNominalMs only sets the scale: it is about the gauge's median time
// on the 4-vCPU Xeon VM the benchmark was tuned on.
constexpr double kGaugeNominalMs = 80.0;

class HostGauge {
 public:
  HostGauge() : keys_(kKeys) {
    std::uint64_t state = 0x6A09E667F3BCC908ull;
    for (auto& k : keys_) k = splitmix64(state) % kDistinct;
  }

  /// Runs the kernel twice; returns the wall time of the second run in ms.
  /// The first run re-warms the heap: after a query frees 100+ MB, the next
  /// allocations fault pages in, and a gauge timed then followed the host
  /// less closely between runs (README.md, "Host noise").
  double ms() {
    kernel();
    const auto t0 = Clock::now();
    kernel();
    return seconds_between(t0, Clock::now()) * 1e3;
  }

 private:
  void kernel() {
    std::unordered_map<std::uint64_t, std::uint32_t> counts;
    for (const std::uint64_t k : keys_) ++counts[k];
    std::vector<std::pair<std::uint64_t, std::uint32_t>> sorted(counts.begin(),
                                                                counts.end());
    std::sort(sorted.begin(), sorted.end());
    g_sink = sorted.size() + sorted.front().second;
  }

  static constexpr std::size_t kKeys = std::size_t{1} << 20;
  static constexpr std::uint64_t kDistinct = 200000;
  std::vector<std::uint64_t> keys_;
};

/// `raw[i]` at the gauge's nominal speed. `gauge` has one sample more than
/// `raw`: gauge[i] ran just before raw[i] was measured, gauge[i + 1] just
/// after.
std::vector<double> normalized(const std::vector<double>& raw,
                               const std::vector<double>& gauge) {
  std::vector<double> out;
  out.reserve(raw.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    out.push_back(raw[i] * 2.0 * kGaugeNominalMs / (gauge[i] + gauge[i + 1]));
  }
  return out;
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

// ---------------------------------------------------------------- spans

/// In-memory span log: name, start, end, parent span and the query id the
/// span belongs to (0 = not part of a query). Written out at exit.
class SpanLog {
 public:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
    std::uint64_t query = 0;
  };

  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t query) : log_(log) {
      if (log_ == nullptr) return;
      index_ = static_cast<int>(log_->spans_.size());
      const int parent = log_->open_.empty() ? -1 : log_->open_.back();
      log_->spans_.push_back({name, Clock::now(), {}, parent, query});
      log_->open_.push_back(index_);
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->spans_[static_cast<std::size_t>(index_)].end = Clock::now();
      log_->open_.pop_back();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  /// Durations in ms of every closed span called `name`, in order.
  [[nodiscard]] std::vector<double> durations_ms(std::string_view name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(seconds_between(s.start, s.end) * 1e3);
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "warning: cannot write spans to " << path << "\n";
      return;
    }
    const Clock::time_point t0 =
        spans_.empty() ? Clock::now() : spans_.front().start;
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - t0).count();
    };
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":" << quote(s.name)
          << ",\"start_us\":" << fmt(us(s.start))
          << ",\"end_us\":" << fmt(us(s.end)) << ",\"parent\":" << s.parent
          << ",\"query\":" << s.query << "}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ------------------------------------------------------------ workloads

enum class Entry { kQueryService, kNaive };

struct Spec {
  const char* name;
  Entry entry;
  std::uint32_t num_peers;
  std::uint64_t num_items;
  double instances_per_item;
  /// One threshold ratio per answer; serve_concurrent gets one session each.
  std::vector<double> thetas;
  double loss = 0.0;
  bool mixed_links = false;
};

constexpr std::uint32_t kGroups = 100;
constexpr std::uint32_t kFilters = 5;
constexpr std::uint32_t kFanout = 3;
// Timed queries run the serial engine; the traced run checks one query on
// two shards against it.
constexpr std::uint32_t kThreads = 1;
constexpr std::uint32_t kShardedThreads = 2;
// Link cap of the traced run's congestion query, bytes per round: under the
// mean message size of lossy_multiquery (~580 B), so links queue. The
// workload's own link classes (7000 B/round and up) would not.
constexpr std::uint64_t kCongestedLinkBytes = 512;

// Sizes and reasons: README.md, "Workloads".
const std::vector<Spec>& specs() {
  static const std::vector<Spec> all{
      {"lossy_multiquery", Entry::kQueryService, 4000, 100000, 10.0,
       {0.01, 0.015, 0.02, 0.03}, 0.05, true},
      {"naive_collect", Entry::kNaive, 10000, 100000, 10.0, {0.01}},
  };
  return all;
}

// --seed draws the data: the item instances and their placement. The
// network (overlay tree, link classes, which messages are lost) and the
// protocol configuration (filter banks) are fixed parts of each workload: a
// seed-dependent tree depth or loss pattern moved rounds_per_query by up to
// 12 % between seeds, which would hide real changes in rounds and time.
/// Seed of fixed stream `k` (never 0: 0 means "default" in
/// ConcurrentRequest::filter_seed).
std::uint64_t fixed_seed(std::uint64_t k) {
  const std::uint64_t v = splitmix64(k);
  return v == 0 ? 1 : v;
}

struct System {
  wl::Workload workload;
  net::Overlay overlay;
  agg::Hierarchy hierarchy;
};

struct SetupTimes {
  double generate_s = 0.0;
  double overlay_s = 0.0;
  double hierarchy_s = 0.0;
  [[nodiscard]] double total() const {
    return generate_s + overlay_s + hierarchy_s;
  }
};

std::unique_ptr<System> build_system(const Spec& spec, std::uint64_t seed,
                                     SetupTimes& times, SpanLog* spans) {
  wl::WorkloadConfig wc;
  wc.num_peers = spec.num_peers;
  wc.num_items = spec.num_items;
  wc.instances_per_item = spec.instances_per_item;
  wc.alpha = 1.0;
  wc.seed = seed;
  const auto t0 = Clock::now();
  std::optional<wl::Workload> workload;
  {
    const SpanLog::Scope s(spans, "workload.generate", 0);
    workload.emplace(wl::Workload::generate(wc));
  }
  const auto t1 = Clock::now();
  std::optional<net::Overlay> overlay;
  {
    const SpanLog::Scope s(spans, "net.overlay", 0);
    Rng rng(fixed_seed(1));
    overlay.emplace(net::random_tree(spec.num_peers, kFanout, rng));
  }
  const auto t2 = Clock::now();
  std::optional<agg::Hierarchy> hierarchy;
  {
    const SpanLog::Scope s(spans, "agg.hierarchy", 0);
    hierarchy.emplace(agg::build_bfs_hierarchy(*overlay, PeerId(0)));
  }
  const auto t3 = Clock::now();
  times = {seconds_between(t0, t1), seconds_between(t1, t2),
           seconds_between(t2, t3)};
  return std::make_unique<System>(System{std::move(*workload),
                                         std::move(*overlay),
                                         std::move(*hierarchy)});
}

/// Everything one call into the entry point produced that the benchmark
/// checks or reports.
struct Outcome {
  std::vector<Answer> answers;  ///< one per theta, in spec order
  std::uint64_t rounds = 0;     ///< simulated rounds of the call
  std::uint64_t session_rounds_max = 0;
  std::uint64_t num_candidates = 0;  ///< 0 for naive (no candidate phase)
  std::uint64_t num_frequent = 0;
  std::uint64_t meter_bytes = 0;
  std::uint64_t meter_msgs = 0;
  std::vector<std::uint64_t> peer_bytes;  ///< per-peer totals (bit-exact check)

  /// The deterministic part: identical for every query of a run, for any
  /// thread count, with or without an obs::Context attached.
  [[nodiscard]] bool same_as(const Outcome& o) const {
    return answers == o.answers && rounds == o.rounds &&
           session_rounds_max == o.session_rounds_max &&
           num_candidates == o.num_candidates &&
           num_frequent == o.num_frequent && meter_bytes == o.meter_bytes &&
           meter_msgs == o.meter_msgs && peer_bytes == o.peer_bytes;
  }
};

class Runner {
 public:
  Runner(const Spec& spec, System& sys, std::uint32_t threads, double loss,
         obs::Context* obs)
      : spec_(spec), sys_(sys), meter_(spec.num_peers) {
    cfg_.num_groups = kGroups;
    cfg_.num_filters = kFilters;
    cfg_.threads = threads;
    cfg_.obs = obs;
    cfg_.fault.loss_probability = loss;
    cfg_.fault.seed = fixed_seed(3);
    // Part of the workload's definition, although serve_concurrent does
    // not hand link classes to its engine (see the traced link probe).
    if (spec.mixed_links) {
      cfg_.link.classes =
          net::LinkClassModel::mixed(0.25, 0.5, fixed_seed(4));
    }
    for (std::size_t k = 0; k < spec.thetas.size(); ++k) {
      thresholds_.push_back(sys.workload.threshold_for(spec.thetas[k]));
      const std::uint32_t n = spec.num_peers;
      requests_.push_back(
          {PeerId(static_cast<std::uint32_t>((2 * k + 1) * n /
                                             (2 * spec.thetas.size()))),
           spec.thetas[k], 0, 0, fixed_seed(10 + k)});
    }
  }

  [[nodiscard]] const std::vector<Value>& thresholds() const {
    return thresholds_;
  }
  [[nodiscard]] const core::NetFilterConfig& config() const { return cfg_; }

  /// One call into the entry point. Only this is inside the timed region.
  Outcome call() {
    meter_.reset();
    Outcome out;
    switch (spec_.entry) {
      case Entry::kQueryService: {
        const core::QueryService svc(cfg_);
        core::ConcurrentQueryStats stats;
        auto responses =
            svc.serve_concurrent(requests_, sys_.workload, sys_.hierarchy,
                                 sys_.overlay, meter_, &stats);
        out.rounds = stats.rounds_total;
        for (const auto& s : stats.sessions) {
          out.session_rounds_max =
              std::max(out.session_rounds_max, s.netfilter.rounds_total);
          out.num_candidates += s.netfilter.num_candidates;
          out.num_frequent += s.netfilter.num_frequent;
        }
        for (auto& r : responses) out.answers.push_back(std::move(r.frequent));
        break;
      }
      case Entry::kNaive: {
        const core::NaiveCollector naive{cfg_.wire, cfg_.fault};
        core::NaiveResult r = naive.run(sys_.workload, sys_.hierarchy,
                                        sys_.overlay, meter_, thresholds_[0]);
        out.rounds = r.stats.rounds;
        out.session_rounds_max = r.stats.rounds;
        out.num_frequent = r.stats.num_frequent;
        out.answers.push_back(std::move(r.frequent));
        break;
      }
    }
    out.meter_bytes = meter_.total();
    out.meter_msgs = meter_.num_messages();
    out.peer_bytes.resize(spec_.num_peers);
    for (std::uint32_t p = 0; p < spec_.num_peers; ++p) {
      out.peer_bytes[p] = meter_.peer_total(PeerId(p));
    }
    return out;
  }

 private:
  const Spec& spec_;
  System& sys_;
  core::NetFilterConfig cfg_;
  net::TrafficMeter meter_;
  std::vector<Value> thresholds_;
  std::vector<core::ConcurrentRequest> requests_;
};

// --------------------------------------------------------- closed loop

/// Per-run record of the closed loop: timings, answer checks and the
/// determinism guard (every query must reproduce the reference outcome).
struct Loop {
  std::vector<double> query_ms;
  std::vector<double> cpu_ms;
  std::vector<double> gauge_ms;  ///< bracketing queries; empty without gauge
  std::uint64_t answers_attempted = 0;
  std::uint64_t answers_failed = 0;
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
  std::uint64_t nondeterministic = 0;
  std::string first_error;
  std::optional<Outcome> reference;

  /// Checks one call's outcome (or its error) against the oracle and the
  /// run's reference outcome.
  void check(const std::optional<Outcome>& out,
             const std::vector<Answer>& oracle) {
    ++calls;
    answers_attempted += oracle.size();
    if (!out) {
      ++errors;
      answers_failed += oracle.size();
      return;
    }
    for (std::size_t k = 0; k < oracle.size(); ++k) {
      if (k >= out->answers.size() || !(out->answers[k] == oracle[k])) {
        ++answers_failed;
      }
    }
    if (!reference) {
      reference = *out;
    } else if (!out->same_as(*reference)) {
      ++nondeterministic;
    }
  }
};

/// Calls the entry point once, timing the call; errors become failures.
std::optional<Outcome> timed_call(Runner& runner, double& wall_ms,
                                  double& cpu_ms, std::string& error) {
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  std::optional<Outcome> out;
  try {
    out = runner.call();
  } catch (const std::exception& e) {
    if (error.empty()) error = e.what();
  }
  const auto t1 = Clock::now();
  wall_ms = seconds_between(t0, t1) * 1e3;
  cpu_ms = (cpu_seconds() - c0) * 1e3;
  return out;
}

/// Runs back-to-back queries until `seconds` of wall time have elapsed.
/// With a gauge, the gauge also runs before the first query and after each
/// one.
void closed_loop(Runner& runner, const std::vector<Answer>& oracle,
                 double seconds, Loop& loop, HostGauge* gauge = nullptr) {
  const auto start = Clock::now();
  if (gauge != nullptr) loop.gauge_ms.push_back(gauge->ms());
  while (seconds_between(start, Clock::now()) < seconds) {
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
    const auto out = timed_call(runner, wall_ms, cpu_ms, loop.first_error);
    loop.query_ms.push_back(wall_ms);
    loop.cpu_ms.push_back(cpu_ms);
    loop.check(out, oracle);
    if (gauge != nullptr) loop.gauge_ms.push_back(gauge->ms());
  }
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += quote(metrics[i].name) + ": {\"value\": " + fmt(metrics[i].value) +
            ", \"unit\": " + quote(metrics[i].unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

/// The `diag` line: key → number or string, plus notes.
class Diag {
 public:
  void num(const std::string& k, double v) { items_.emplace_back(k, fmt(v)); }
  void str(const std::string& k, std::string_view v) {
    items_.emplace_back(k, quote(v));
  }
  void note(const std::string& metric, std::string_view why) {
    notes_.emplace_back(metric, quote(why));
  }
  void print() const {
    std::string line = "diag {";
    bool first = true;
    for (const auto& [k, v] : items_) {
      line += (first ? "" : ", ") + quote(k) + ": " + v;
      first = false;
    }
    line += std::string(first ? "" : ", ") + "\"unmeasured\": {";
    for (std::size_t i = 0; i < notes_.size(); ++i) {
      line += (i ? ", " : "") + quote(notes_[i].first) + ": " + notes_[i].second;
    }
    line += "}}";
    std::cout << line << std::endl;
  }

 private:
  std::vector<std::pair<std::string, std::string>> items_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0.0;  ///< required
  bool trace = false;
  std::string spans_path;
};

[[noreturn]] void usage(const std::string& msg) {
  std::cerr << "ifi_bench: " << msg
            << "\nusage: ifi_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--spans PATH]\nworkloads:";
  for (const Spec& s : specs()) std::cerr << " " << s.name;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(a));
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = (v == "1");
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      } else if (a == "--spans") {
        o.spans_path = v;
      } else {
        usage("unknown flag " + std::string(a));
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + std::string(a) + ": " + v);
    }
  }
  if (o.seconds <= 0.0) usage("--seconds is required and must be > 0");
  return o;
}

const Spec& find_spec(const std::string& name) {
  for (const Spec& s : specs()) {
    if (name == s.name) return s;
  }
  usage("unknown workload '" + name + "'");
}

std::vector<Answer> compute_oracle(const System& sys,
                                   const std::vector<Value>& thresholds,
                                   SpanLog* spans) {
  std::vector<Answer> oracle;
  for (const Value t : thresholds) {
    const SpanLog::Scope s(spans, "workload.oracle", 0);
    oracle.push_back(sys.workload.frequent_items(t));
  }
  return oracle;
}

std::uint64_t total_local_items(const wl::Workload& w) {
  std::uint64_t n = 0;
  for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
    n += w.local_items(PeerId(p)).size();
  }
  return n;
}

// Repetitions of each single-layer probe in the traced run (median taken).
constexpr int kProbeReps = 3;

template <typename F>
double median_ms_of(int reps, SpanLog* spans, const char* name, F&& f) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const SpanLog::Scope s(spans, name, 0);
    const auto t0 = Clock::now();
    f();
    ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  return median(ms);
}

// ------------------------------------------------------- untraced run

// Set-up repetitions on each side of the closed loop (~1 s per side).
constexpr int kSetupRepsPerSide = 8;

/// Builds the system `reps` times between runs of the gauge, appending each
/// set-up time to `raw_s` and its normalized value to `setup_s`; returns
/// the last system.
std::unique_ptr<System> timed_setups(const Spec& spec, std::uint64_t seed,
                                     int reps, HostGauge& gauge,
                                     std::vector<double>& raw_s,
                                     std::vector<double>& setup_s) {
  std::unique_ptr<System> sys;
  std::vector<double> raw;
  std::vector<double> gauge_ms{gauge.ms()};
  for (int r = 0; r < reps; ++r) {
    sys.reset();
    SetupTimes t;
    sys = build_system(spec, seed, t, nullptr);
    raw.push_back(t.total());
    gauge_ms.push_back(gauge.ms());
  }
  for (const double v : normalized(raw, gauge_ms)) setup_s.push_back(v);
  raw_s.insert(raw_s.end(), raw.begin(), raw.end());
  return sys;
}

int run_untraced(const Spec& spec, const Options& opt) {
  const double spin_before = spin_ms();
  HostGauge gauge;
  // setup_s is the median of repetitions made before and after the closed
  // loop, so it samples the host at two moments a run apart.
  std::vector<double> setup_raw_s;
  std::vector<double> setup_s;
  std::unique_ptr<System> sys = timed_setups(
      spec, opt.seed, kSetupRepsPerSide, gauge, setup_raw_s, setup_s);

  Runner runner(spec, *sys, kThreads, spec.loss, nullptr);
  const std::vector<Answer> oracle =
      compute_oracle(*sys, runner.thresholds(), nullptr);

  Loop loop;
  {
    // Untimed warm-up: fills caches and lazily sized buffers; its answer
    // is checked like every other and becomes the determinism reference.
    double w = 0.0;
    double c = 0.0;
    loop.check(timed_call(runner, w, c, loop.first_error), oracle);
  }
  // Delivered messages per query: the same deterministic query once more
  // with an obs::Context attached, outside the timed region. The naive
  // collector takes no context; its loss-free links deliver every message
  // the meter counts.
  double msgs_per_query = 0.0;
  if (spec.entry == Entry::kNaive) {
    msgs_per_query = loop.reference
                         ? static_cast<double>(loop.reference->meter_msgs)
                         : 0.0;
  } else {
    obs::Context ctx;
    Runner counted(spec, *sys, kThreads, spec.loss, &ctx);
    double w = 0.0;
    double c = 0.0;
    loop.check(timed_call(counted, w, c, loop.first_error), oracle);
    msgs_per_query = static_cast<double>(
        ctx.registry.counter("engine/delivered").value());
  }
  const std::uint64_t untimed_calls = loop.calls;

  closed_loop(runner, oracle, opt.seconds, loop, &gauge);
  const double spin_after = spin_ms();
  const double peak_rss = peak_rss_mb();
  sys.reset();  // the runner is not used again
  timed_setups(spec, opt.seed, kSetupRepsPerSide, gauge, setup_raw_s, setup_s);

  double timed_s = 0.0;
  for (const double ms : loop.query_ms) timed_s += ms / 1e3;
  const auto timed = static_cast<double>(loop.query_ms.size());
  const Outcome* ref = loop.reference ? &*loop.reference : nullptr;
  const double bytes_per_peer =
      ref ? static_cast<double>(ref->meter_bytes) / spec.num_peers : 0.0;

  const std::vector<double> query_ms = normalized(loop.query_ms, loop.gauge_ms);
  double query_s = 0.0;
  for (const double ms : query_ms) query_s += ms / 1e3;
  const std::vector<Metric> metrics{
      {"setup_s", median(setup_s), "s"},
      {"query_ms_p50", median(query_ms), "ms"},
      {"query_ms_p85", quantile(query_ms, kTailQuantile), "ms"},
      {"msgs_per_s", msgs_per_query * timed / query_s, "msgs/s"},
      {"cpu_ms_per_query", median(normalized(loop.cpu_ms, loop.gauge_ms)),
       "ms"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"bytes_per_peer", bytes_per_peer, "bytes"},
      {"rounds_per_query", ref ? static_cast<double>(ref->rounds) : 0.0,
       "rounds"},
      {"exact_rate",
       static_cast<double>(loop.answers_attempted - loop.answers_failed) /
           static_cast<double>(loop.answers_attempted),
       "share"},
  };

  Diag d;
  d.str("workload", spec.name);
  d.num("seed", static_cast<double>(opt.seed));
  d.num("timed_queries", timed);
  d.num("untimed_queries", static_cast<double>(untimed_calls));
  d.num("answers_attempted", static_cast<double>(loop.answers_attempted));
  d.num("errors", static_cast<double>(loop.errors));
  d.num("nondeterministic_queries", static_cast<double>(loop.nondeterministic));
  d.num("setup_reps", static_cast<double>(setup_s.size()));
  d.num("msgs_per_query", msgs_per_query);
  d.num("timed_seconds", timed_s);
  d.num("raw.setup_s", median(setup_raw_s));
  d.num("raw.query_ms_p10", quantile(loop.query_ms, 0.10));
  d.num("raw.query_ms_p50", median(loop.query_ms));
  d.num("raw.query_ms_p85", quantile(loop.query_ms, kTailQuantile));
  d.num("raw.cpu_ms_p50", median(loop.cpu_ms));
  d.num("raw.msgs_per_s", msgs_per_query * timed / timed_s);
  d.num("host.gauge_ms_p10", quantile(loop.gauge_ms, 0.10));
  d.num("host.gauge_ms_p50", median(loop.gauge_ms));
  d.num("host.gauge_ms_p85", quantile(loop.gauge_ms, kTailQuantile));
  d.num("host.spin_ms_before", spin_before);
  d.num("host.spin_ms_after", spin_after);
  if (timed < 67) {
    d.str("warning", "fewer than 67 timed queries: p85 has < 10 samples above");
  }
  if (!loop.first_error.empty()) d.str("first_error", loop.first_error);
  d.print();

  const bool correct = loop.answers_failed == 0 && loop.nondeterministic == 0;
  print_result(correct, loop.answers_attempted, loop.answers_failed, metrics);
  return 0;
}

// --------------------------------------------------------- traced run

/// Engine counters of one traced query (a fresh obs::Context per query).
struct EngineSample {
  double round_ms = 0.0;
  double delivered = 0.0;
  double sent_bytes = 0.0;
  double steady_allocs = 0.0;
  double queued_msgs = 0.0;
  double queue_delay_rounds = 0.0;
  double overhead_us = 0.0;
  double shard_busy_max_ms = 0.0;
  double shard_imbalance = 0.0;
  double allocs = 0.0;
};

EngineSample read_engine(obs::Context& ctx) {
  auto& reg = ctx.registry;
  EngineSample s;
  const auto c = [&](const char* n) {
    return static_cast<double>(reg.counter(n).value());
  };
  s.round_ms = c("engine/round_us") / 1e3;
  s.delivered = c("engine/delivered");
  s.sent_bytes = c("engine/sent_bytes");
  s.steady_allocs = c("engine/steady_allocs");
  s.queued_msgs = c("engine/congestion/queued_msgs");
  s.queue_delay_rounds = c("engine/congestion/queue_delay_rounds");
  s.overhead_us = c("obs/overhead_us");
  std::vector<double> busy;
  for (const auto& [name, gauge] : reg.gauges()) {
    if (name.rfind("engine/shard", 0) == 0 &&
        name.size() > 8 && name.compare(name.size() - 8, 8, "/busy_us") == 0) {
      busy.push_back(gauge.value() / 1e3);
    }
  }
  if (!busy.empty()) {
    double sum = 0.0;
    for (const double b : busy) sum += b;
    s.shard_busy_max_ms = *std::max_element(busy.begin(), busy.end());
    const double mean = sum / static_cast<double>(busy.size());
    s.shard_imbalance = mean > 0.0 ? s.shard_busy_max_ms / mean : 1.0;
  }
  return s;
}

int run_traced(const Spec& spec, const Options& opt) {
  SpanLog log;
  SpanLog* spans = &log;
  Diag d;
  d.str("workload", spec.name);
  d.num("seed", static_cast<double>(opt.seed));
  const double spin_before = spin_ms();
  HostGauge gauge;
  const double gauge_before = gauge.ms();

  SetupTimes setup;
  std::unique_ptr<System> sys;
  {
    const SpanLog::Scope s(spans, "setup", 0);
    sys = build_system(spec, opt.seed, setup, spans);
  }
  const bool is_netfilter = spec.entry != Entry::kNaive;
  Runner plain(spec, *sys, kThreads, spec.loss, nullptr);
  const std::vector<Answer> oracle =
      compute_oracle(*sys, plain.thresholds(), spans);

  // Untraced half, then traced half, of the same closed loop; the traced
  // half's outcomes must equal the untraced reference bit for bit.
  Loop loop;
  {
    double w = 0.0;
    double c = 0.0;
    const SpanLog::Scope s(spans, "warmup", 0);
    loop.check(timed_call(plain, w, c, loop.first_error), oracle);
  }
  Loop untraced;
  untraced.reference = loop.reference;
  closed_loop(plain, oracle, opt.seconds / 2, untraced);

  std::vector<EngineSample> samples;
  Loop traced;
  traced.reference = loop.reference;
  const char* entry_span = is_netfilter
                               ? "core.query_service.serve_concurrent"
                               : "core.naive.run";
  {
    double elapsed = 0.0;
    std::uint64_t q = 0;
    while (elapsed < opt.seconds / 2) {
      ++q;
      // A fresh context per query, so its counters are this query's.
      obs::Context ctx;
      Runner runner(spec, *sys, kThreads, spec.loss,
                    is_netfilter ? &ctx : nullptr);
      double wall_ms = 0.0;
      double cpu_ms = 0.0;
      const std::uint64_t allocs_before = alloc_hook::count();
      std::optional<Outcome> out;
      {
        const SpanLog::Scope s(spans, entry_span, q);
        out = timed_call(runner, wall_ms, cpu_ms, traced.first_error);
      }
      EngineSample es = read_engine(ctx);
      es.allocs = static_cast<double>(alloc_hook::count() - allocs_before);
      if (!is_netfilter && out) {
        es.delivered = static_cast<double>(out->meter_msgs);
        es.sent_bytes = static_cast<double>(out->meter_bytes);
      }
      samples.push_back(es);
      traced.query_ms.push_back(wall_ms);
      traced.check(out, oracle);
      elapsed += wall_ms / 1e3;
    }
  }
  const auto med = [&](double EngineSample::*field) {
    std::vector<double> v;
    for (const auto& s : samples) v.push_back(s.*field);
    return median(v);
  };
  const double untraced_p10 = quantile(untraced.query_ms, 0.10);
  const double traced_p10 = quantile(traced.query_ms, 0.10);
  const double loop_ms = med(&EngineSample::round_ms);
  std::vector<double> outside;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    outside.push_back(traced.query_ms[i] - samples[i].round_ms);
  }

  // A warm-up that threw leaves no reference; the run is then incorrect and
  // the probes compare against an empty outcome.
  const Outcome ref = loop.reference.value_or(Outcome{});

  // Single-layer probes on this workload's data, outside any query. Each
  // probe that yields an answer counts it as attempted; a wrong answer or a
  // thrown error counts as failed.
  const wl::Workload& w = sys->workload;
  const std::uint64_t local_items = total_local_items(w);
  const core::NetFilter probe_nf(plain.config());
  double local_agg_ns = 0.0;
  double materialize_ns = 0.0;
  double filter_ms = 0.0;
  double verify_ms = 0.0;
  double precision = 0.0;
  if (is_netfilter) {
    ++traced.answers_attempted;
    try {
      const double items = static_cast<double>(local_items);
      std::vector<Value> row(std::size_t{kGroups} * kFilters);
      std::uint64_t sink = 0;
      const auto aggregate_all = [&] {
        for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
          probe_nf.local_group_aggregates_into(w.local_items(PeerId(p)), row);
          sink += row[p % row.size()];
        }
      };
      local_agg_ns = median_ms_of(kProbeReps, spans, "core.local_aggregates",
                                  aggregate_all) *
                     1e6 / items;
      net::TrafficMeter scratch(spec.num_peers);
      core::HeavyGroupSet heavy;
      core::NetFilterStats stats;
      filter_ms = median_ms_of(kProbeReps, spans, "core.filter", [&] {
        scratch.reset();
        stats = {};
        heavy = probe_nf.filter_candidates(w, sys->hierarchy, sys->overlay,
                                           scratch, plain.thresholds()[0],
                                           &stats);
      });
      core::NetFilterResult verified;
      verify_ms = median_ms_of(kProbeReps, spans, "core.verify", [&] {
        scratch.reset();
        verified = probe_nf.verify_candidates(w, sys->hierarchy, sys->overlay,
                                              scratch, plain.thresholds()[0],
                                              heavy, stats);
      });
      if (!(verified.frequent == oracle[0])) {
        ++traced.answers_failed;
        d.str("phase_probe_error", "filter+verify answer differs from oracle");
      }
      const auto materialize_all = [&] {
        for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
          sink += probe_nf.materialize_candidates(w.local_items(PeerId(p)), heavy)
                      .size();
        }
      };
      materialize_ns = median_ms_of(kProbeReps, spans, "core.materialize",
                                    materialize_all) *
                       1e6 / items;
      g_sink = sink;
      precision = ref.num_candidates == 0
                      ? 0.0
                      : static_cast<double>(ref.num_frequent) /
                            static_cast<double>(ref.num_candidates);
    } catch (const std::exception& e) {
      ++traced.answers_failed;
      d.str("phase_probe_error", e.what());
    }
  } else {
    for (const char* m :
         {"core.filter_ms", "core.verify_ms", "core.local_aggregates_ns_per_item",
          "core.materialize_ns_per_item", "core.candidate_precision",
          "net.engine.self_ms_approx"}) {
      d.note(m, "reported as 0: naive_collect does not run netFilter phases");
    }
    for (const char* m :
         {"net.engine.loop_ms", "net.engine.outside_loop_ms",
          "net.engine.shard_busy_max_ms", "net.engine.shard_imbalance",
          "net.engine.steady_allocs", "net.link.queued_msgs",
          "net.link.queue_delay_rounds", "obs.overhead_us"}) {
      d.note(m,
             "reported as 0: NaiveCollector::run takes no obs::Context, so "
             "its engine exports no counters");
    }
    d.note("net.engine.msgs",
           "from the TrafficMeter (messages charged), not engine/delivered");
    d.note("net.engine.bytes", "from the TrafficMeter, not engine/sent_bytes");
  }

  // Codec: pairs on the workload's own local sets, aggregates on f×g rows.
  double pairs_ns = 0.0;
  double agg_ns = 0.0;
  {
    std::uint64_t pairs = 0;
    bool roundtrip = true;
    const double ms = median_ms_of(kProbeReps, spans, "net.codec.pairs", [&] {
      pairs = 0;
      for (std::uint32_t p = 0; p < w.num_peers(); ++p) {
        const LocalItems& li = w.local_items(PeerId(p));
        const net::Bytes b = net::encode_pairs(li);
        const auto back = net::decode_pairs(b);
        roundtrip = roundtrip && back.size() == li.size();
        pairs += li.size();
      }
    });
    pairs_ns = ms * 1e6 / static_cast<double>(pairs);
    if (!roundtrip) d.str("codec_probe_error", "pairs round trip lost entries");

    const std::uint32_t peers = std::min<std::uint32_t>(w.num_peers(), 2000);
    std::vector<std::vector<std::uint64_t>> rows;
    for (std::uint32_t p = 0; p < peers; ++p) {
      rows.push_back(probe_nf.local_group_aggregates(w.local_items(PeerId(p))));
    }
    std::vector<std::uint64_t> acc(std::size_t{kGroups} * kFilters);
    net::SlabArena slab;
    const double ams =
        median_ms_of(kProbeReps, spans, "net.codec.aggregates", [&] {
          std::fill(acc.begin(), acc.end(), 0);
          for (const auto& r : rows) {
            slab.reset();
            net::PayloadWriter pw(slab, 0);
            net::encode_aggregates_to(pw, r);
            const net::PayloadRef payload = pw.finish();
            net::add_aggregates_from(
                slab.view(payload.offset, payload.length), acc);
          }
        });
    agg_ns = ams * 1e6 / static_cast<double>(peers * acc.size());
    std::uint64_t expect = 0;
    for (const auto& r : rows) expect += r[0];
    if (acc[0] != expect) {
      d.str("codec_probe_error", "aggregate column add mismatch");
    }
  }

  // Reliability: the same batch on loss-free links (useful bytes) against
  // the lossy batch (charged bytes).
  double overhead_ratio = 1.0;
  if (spec.loss > 0.0) {
    traced.answers_attempted += oracle.size();
    Runner lossless(spec, *sys, kThreads, 0.0, nullptr);
    std::optional<Outcome> out;
    {
      const SpanLog::Scope s(spans, "net.reliability.lossless_batch", 0);
      double wall_ms = 0.0;
      double cpu_ms = 0.0;
      std::string error;
      out = timed_call(lossless, wall_ms, cpu_ms, error);
    }
    if (out && out->answers == oracle) {
      overhead_ratio = static_cast<double>(ref.meter_bytes) /
                       static_cast<double>(out->meter_bytes);
    } else {
      traced.answers_failed += oracle.size();
      d.str("reliability_probe_error", "loss-free batch differs from oracle");
    }
  } else {
    d.note("net.reliability.overhead_ratio",
           "1 by construction: this workload's links are loss-free");
  }

  // Link scheduler: QueryService::serve_concurrent never hands
  // NetFilterConfig::link to its engine, so the batches above run on
  // unlimited links. One NetFilter::run of the first session, on links
  // capped below the size of an aggregate message, makes messages queue;
  // its answer must still be exact.
  EngineSample congested;
  if (is_netfilter) {
    obs::Context ctx;
    core::NetFilterConfig cfg = plain.config();
    cfg.obs = &ctx;
    cfg.link.classes = net::LinkClassModel::uniform(kCongestedLinkBytes);
    ++traced.answers_attempted;
    try {
      net::TrafficMeter meter(spec.num_peers);
      const SpanLog::Scope s(spans, "net.link.congested_query", 0);
      const core::NetFilterResult r =
          core::NetFilter(cfg).run(w, sys->hierarchy, sys->overlay, meter,
                                   plain.thresholds()[0]);
      if (!(r.frequent == oracle[0])) {
        ++traced.answers_failed;
        d.str("link_probe_error", "capped-link answer differs from oracle");
      }
      congested = read_engine(ctx);
      d.num("congested_query_rounds",
            static_cast<double>(r.stats.rounds_total));
    } catch (const std::exception& e) {
      ++traced.answers_failed;
      d.str("link_probe_error", e.what());
    }
    for (const char* m :
         {"net.link.queued_msgs", "net.link.queue_delay_rounds"}) {
      d.note(m, "from one NetFilter::run of the first session with every "
                "link capped at " + std::to_string(kCongestedLinkBytes) +
                " B/round: serve_concurrent ignores NetFilterConfig::link");
    }
  }

  // The --threads invariant: one query on two shards must reproduce the
  // serial result bit for bit. The shard metrics come from that query.
  bool threads_match = true;
  double shard_busy_max_ms = 0.0;
  double shard_imbalance = 0.0;
  if (is_netfilter) {
    obs::Context ctx;
    Runner runner(spec, *sys, kShardedThreads, spec.loss, &ctx);
    std::optional<Outcome> out;
    double wall_ms = 0.0;
    {
      const SpanLog::Scope s(spans, "determinism.threads", 0);
      double cpu_ms = 0.0;
      std::string error;
      out = timed_call(runner, wall_ms, cpu_ms, error);
    }
    threads_match = out && out->same_as(ref);
    d.num("threads2_matches_threads1", threads_match ? 1 : 0);
    const EngineSample es = read_engine(ctx);
    shard_busy_max_ms = es.shard_busy_max_ms;
    shard_imbalance = es.shard_imbalance;
    d.num("threads2_query_ms", wall_ms);
    for (const char* m :
         {"net.engine.shard_busy_max_ms", "net.engine.shard_imbalance"}) {
      d.note(m, "from one query at threads = 2 (timed queries are serial)");
    }
  }

  const double gauge_after = gauge.ms();
  const double spin_after = spin_ms();
  const double kernels_ms =
      (local_agg_ns + materialize_ns) * static_cast<double>(local_items) *
      static_cast<double>(spec.thetas.size()) / 1e6;
  if (is_netfilter) {
    d.note("net.engine.self_ms_approx",
           "approximation: loop_ms minus (local_aggregates + materialize) "
           "ns/item x local items x sessions, timed in isolation");
    d.note("net.engine.steady_allocs",
           "reads engine/steady_allocs, which counts only after "
           "Engine::begin_steady_state(); no entry point calls it, so "
           "see core.query_allocs for allocations per call");
  }
  const std::vector<Metric> metrics{
      {"workload.generate_s", setup.generate_s, "s"},
      {"workload.oracle_ms", median(log.durations_ms("workload.oracle")), "ms"},
      {"net.overlay_ms", setup.overlay_s * 1e3, "ms"},
      {"agg.hierarchy_ms", setup.hierarchy_s * 1e3, "ms"},
      {"net.engine.loop_ms", loop_ms, "ms"},
      {"net.engine.outside_loop_ms", is_netfilter ? median(outside) : 0.0,
       "ms"},
      {"net.engine.self_ms_approx",
       is_netfilter ? loop_ms - kernels_ms : 0.0, "ms"},
      {"net.engine.msgs", med(&EngineSample::delivered), "count"},
      {"net.engine.bytes", med(&EngineSample::sent_bytes), "bytes"},
      {"net.engine.shard_busy_max_ms", shard_busy_max_ms, "ms"},
      {"net.engine.shard_imbalance", shard_imbalance, "ratio"},
      {"net.engine.steady_allocs", med(&EngineSample::steady_allocs), "count"},
      {"core.query_allocs", med(&EngineSample::allocs), "count"},
      {"net.link.queued_msgs", congested.queued_msgs, "count"},
      {"net.link.queue_delay_rounds", congested.queue_delay_rounds, "rounds"},
      {"net.reliability.overhead_ratio", overhead_ratio, "ratio"},
      {"net.codec.pairs_ns_per_pair", pairs_ns, "ns/pair"},
      {"net.codec.aggregates_ns_per_value", agg_ns, "ns/value"},
      {"core.filter_ms", filter_ms, "ms"},
      {"core.verify_ms", verify_ms, "ms"},
      {"core.local_aggregates_ns_per_item", local_agg_ns, "ns/item"},
      {"core.materialize_ns_per_item", materialize_ns, "ns/item"},
      {"core.candidate_precision", precision, "ratio"},
      {"core.session_rounds_max", static_cast<double>(ref.session_rounds_max),
       "rounds"},
      {"obs.overhead_pct",
       untraced_p10 > 0.0 ? (traced_p10 - untraced_p10) / untraced_p10 * 100.0
                          : 0.0,
       "%"},
      {"obs.overhead_us", med(&EngineSample::overhead_us), "us"},
  };

  d.num("untraced_queries", static_cast<double>(untraced.query_ms.size()));
  d.num("traced_queries", static_cast<double>(traced.query_ms.size()));
  d.num("untraced_query_ms_p10", untraced_p10);
  d.num("traced_query_ms_p10", traced_p10);
  d.num("local_items", static_cast<double>(local_items));
  d.num("host.gauge_ms_before", gauge_before);
  d.num("host.gauge_ms_after", gauge_after);
  d.num("host.spin_ms_before", spin_before);
  d.num("host.spin_ms_after", spin_after);
  if (!opt.spans_path.empty()) {
    log.write(opt.spans_path);
    d.str("spans", opt.spans_path);
  }
  d.print();

  const std::uint64_t attempted = loop.answers_attempted +
                                  untraced.answers_attempted +
                                  traced.answers_attempted;
  const std::uint64_t failed = loop.answers_failed + untraced.answers_failed +
                               traced.answers_failed;
  const bool correct = failed == 0 && threads_match &&
                       untraced.nondeterministic == 0 &&
                       traced.nondeterministic == 0;
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  if (opt.workload.empty()) usage("--workload is required");
  const Spec& spec = find_spec(opt.workload);
  try {
    return opt.trace ? run_traced(spec, opt) : run_untraced(spec, opt);
  } catch (const std::exception& e) {
    std::cerr << "ifi_bench: " << e.what() << "\n";
    return 1;
  }
}
