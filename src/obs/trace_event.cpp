#include "obs/trace_event.h"

#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

namespace nf::obs {

namespace {

// One synthetic process; phase tracks take tids 1.., instant-event tracks
// sit above them so they group below the phases in the viewer.
constexpr std::uint64_t kPid = 0;
constexpr std::uint64_t kMergeTid = 100;
constexpr std::uint64_t kFanoutTid = 101;
constexpr std::uint64_t kMarkTid = 103;

Json metadata(const char* what, std::uint64_t tid, std::string_view name) {
  auto e = Json::object();
  e["name"] = what;
  e["ph"] = "M";
  e["pid"] = kPid;
  e["tid"] = tid;
  auto args = Json::object();
  args["name"] = name;
  e["args"] = std::move(args);
  return e;
}

Json event(const char* ph, std::string_view name, std::uint64_t ts,
           std::uint64_t tid) {
  auto e = Json::object();
  e["ph"] = ph;
  e["name"] = name;
  e["ts"] = ts;
  e["pid"] = kPid;
  e["tid"] = tid;
  return e;
}

std::uint64_t instant_tid(EventKind kind) {
  switch (kind) {
    case EventKind::kMerge: return kMergeTid;
    case EventKind::kFanout: return kFanoutTid;
    default: return kMarkTid;
  }
}

const char* instant_value_key(EventKind kind) {
  switch (kind) {
    case EventKind::kMerge: return "bytes";
    case EventKind::kFanout: return "copies";
    default: return "value";
  }
}

}  // namespace

Json trace_event_json(const Context& ctx) {
  const std::vector<TraceEvent> trace = ctx.tracer.snapshot();

  // Pass 1: a track per distinct phase name (first-appearance order) and
  // the set of instant tracks actually used, so the metadata is minimal
  // and deterministic.
  std::vector<std::pair<std::string, std::uint64_t>> phase_tids;
  std::map<std::uint64_t, const char*> instant_tracks;
  const auto phase_tid = [&](std::string_view name) -> std::uint64_t {
    for (const auto& [n, tid] : phase_tids) {
      if (n == name) return tid;
    }
    const std::uint64_t tid = phase_tids.size() + 1;
    phase_tids.emplace_back(std::string(name), tid);
    return tid;
  };
  for (const TraceEvent& e : trace) {
    switch (e.kind) {
      case EventKind::kPhaseBegin:
      case EventKind::kPhaseEnd: phase_tid(e.name); break;
      case EventKind::kMerge: instant_tracks[kMergeTid] = "merges"; break;
      case EventKind::kFanout: instant_tracks[kFanoutTid] = "fanouts"; break;
      case EventKind::kMark: instant_tracks[kMarkTid] = "marks"; break;
      case EventKind::kRound: break;
    }
  }

  auto events = Json::array();
  events.push_back(metadata("process_name", 0, "netfilter"));
  for (const auto& [name, tid] : phase_tids) {
    events.push_back(metadata("thread_name", tid, name));
  }
  for (const auto& [tid, name] : instant_tracks) {
    events.push_back(metadata("thread_name", tid, name));
  }

  // Pass 2: the events. Ends whose begin fell off the ring are dropped —
  // Perfetto rejects a track whose "E" stack underflows.
  std::map<std::string, std::uint64_t, std::less<>> open_depth;
  for (const TraceEvent& e : trace) {
    switch (e.kind) {
      case EventKind::kPhaseBegin: {
        ++open_depth[e.name];
        events.push_back(event("B", e.name, e.clock, phase_tid(e.name)));
        break;
      }
      case EventKind::kPhaseEnd: {
        const auto it = open_depth.find(std::string_view(e.name));
        if (it == open_depth.end() || it->second == 0) break;
        --it->second;
        Json end = event("E", e.name, e.clock, phase_tid(e.name));
        auto args = Json::object();
        args["wall_us"] = e.value;
        end["args"] = std::move(args);
        events.push_back(std::move(end));
        break;
      }
      case EventKind::kRound: {
        Json c = event("C", "engine.arrivals", e.clock, 0);
        auto args = Json::object();
        args["arrivals"] = e.value;
        c["args"] = std::move(args);
        events.push_back(std::move(c));
        break;
      }
      case EventKind::kMerge:
      case EventKind::kFanout:
      case EventKind::kMark: {
        Json i = event("i", e.name, e.clock, instant_tid(e.kind));
        i["s"] = "t";
        auto args = Json::object();
        args[instant_value_key(e.kind)] = e.value;
        if (e.peer != kNoPeer) args["peer"] = e.peer;
        i["args"] = std::move(args);
        events.push_back(std::move(i));
        break;
      }
    }
  }

  // Flow arrows along each session's critical path: one flow per session,
  // stepping from the gating chain's first send to the delivery that gates
  // done(). Emitted only when lineage analysis yields paths, so traces
  // from runs without lineage tagging are unchanged.
  const std::vector<CriticalPath> paths = critical_paths(ctx.lineage);
  if (!paths.empty() && !ctx.lineage.runs().empty()) {
    const std::uint64_t base = ctx.lineage.runs().back().clock;
    const auto known_tid = [&](std::string_view name) -> std::uint64_t {
      for (const auto& [n, tid] : phase_tids) {
        if (n == name) return tid;
      }
      return 0;  // phase never produced a span; no track to bind to
    };
    const auto flow = [&](const char* ph, std::uint64_t id, std::uint64_t ts,
                          std::uint64_t tid) {
      Json f = event(ph, "critical-path", ts, tid);
      f["cat"] = "lineage";
      f["id"] = id;
      f["bp"] = "e";
      events.push_back(std::move(f));
    };
    std::uint64_t flow_id = 0;
    for (const CriticalPath& cp : paths) {
      ++flow_id;
      std::vector<std::pair<const CriticalHop*, std::uint64_t>> bound;
      for (const CriticalHop& h : cp.hops) {
        const std::uint64_t tid = known_tid(h.phase_name);
        if (tid != 0) bound.emplace_back(&h, tid);
      }
      if (bound.empty()) continue;
      flow("s", flow_id, bound.front().first->send_round + base,
           bound.front().second);
      for (std::size_t k = 0; k < bound.size(); ++k) {
        flow(k + 1 == bound.size() ? "f" : "t", flow_id,
             bound[k].first->deliver_round + base, bound[k].second);
      }
    }
  }

  // Counter tracks: one per TimeSeries column, sampled once per round.
  const std::vector<std::uint64_t> stamps = ctx.series.stamps();
  const auto counter_events = [&](std::string_view name, const auto& values) {
    for (std::size_t i = 0; i < values.size() && i < stamps.size(); ++i) {
      Json c = event("C", name, stamps[i], 0);
      auto args = Json::object();
      args["value"] = values[i];
      c["args"] = std::move(args);
      events.push_back(std::move(c));
    }
  };
  for (const std::string& name : ctx.series.counter_names()) {
    counter_events(name, ctx.series.counter_series(name));
  }
  for (const std::string& name : ctx.series.gauge_names()) {
    counter_events(name, ctx.series.gauge_series(name));
  }

  auto out = Json::object();
  out["displayTimeUnit"] = "ms";
  out["traceEvents"] = std::move(events);
  return out;
}

bool write_trace_event_file(const std::string& path, const Context& ctx) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write trace-event file to " << path << "\n";
    return false;
  }
  trace_event_json(ctx).dump(out);
  out << '\n';
  return out.good();
}

}  // namespace nf::obs
