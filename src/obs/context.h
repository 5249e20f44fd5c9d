// Observability context: metrics registry, protocol tracer, round-sampled
// time series and cost-model conformance report, threaded through the
// protocol layers as a nullable pointer.
//
// A null Context* means observability is off; every helper below reduces to
// a single branch in that case, so instrumentation can sit on hot paths
// (engine message delivery, convergecast merges) without a measurable tax —
// bench/microbench.cpp's BM_Obs* fixtures document both the disabled and
// the enabled cost.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/conformance.h"
#include "obs/lineage.h"
#include "obs/link_stats.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace nf::obs {

struct Context {
  MetricsRegistry registry;
  ProtocolTracer tracer;
  /// Engine-driven per-round recorder; its sources are registry handles, so
  /// registry.reset() requires a series.clear() first.
  TimeSeries series;
  ConformanceReport conformance;
  /// Happened-before DAG of engine messages (engine-thread writes only).
  LineageRecorder lineage;
  /// Per-hierarchy-level traffic matrix + heavy-hitter link summary,
  /// charged by the engine at the canonical-order merge barrier (schema v6
  /// `link_stats` section).
  LinkStats link_stats;

  explicit Context(std::size_t trace_capacity = 4096,
                   std::size_t series_capacity = 4096,
                   std::size_t lineage_capacity =
                       LineageRecorder::kDefaultCapacity)
      : tracer(trace_capacity),
        series(series_capacity),
        lineage(lineage_capacity) {}
};

// Null-safe instrumentation helpers. Sites that fire per message should
// prefer caching the registry handle (as the net::Engine constructor does)
// when enabled.
inline void add_counter(Context* c, std::string_view name,
                        std::uint64_t delta = 1) {
  if (c != nullptr) c->registry.counter(name).add(delta);
}
inline void set_gauge(Context* c, std::string_view name, double value) {
  if (c != nullptr) c->registry.gauge(name).set(value);
}
inline void observe(Context* c, std::string_view name, std::uint64_t value) {
  if (c != nullptr) c->registry.histogram(name).observe(value);
}
inline void trace_event(Context* c, EventKind kind, const char* name,
                        std::uint32_t peer = kNoPeer,
                        std::uint64_t value = 0) {
  if (c != nullptr) c->tracer.record(kind, name, peer, value);
}

/// RAII protocol phase span: emits kPhaseBegin on entry and, on exit,
/// kPhaseEnd (value = wall microseconds) plus a `time_us/<name>` counter
/// the exporters surface as the phase timing table. `name` must be a
/// string literal.
class ScopedPhase {
 public:
  ScopedPhase(Context* ctx, const char* name) : ctx_(ctx), name_(name) {
    if (ctx_ == nullptr) return;
    ctx_->tracer.record(EventKind::kPhaseBegin, name_);
    start_ = std::chrono::steady_clock::now();
  }

  ~ScopedPhase() {
    if (ctx_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    const auto us = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count());
    ctx_->registry.counter(std::string("time_us/") + name_).add(us);
    ctx_->tracer.record(EventKind::kPhaseEnd, name_, kNoPeer, us);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  Context* ctx_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace nf::obs
