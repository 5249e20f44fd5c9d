// Chrome trace-event export (docs/OBSERVABILITY.md "Trace-event export").
//
// Converts an obs::Context — the ProtocolTracer ring plus the TimeSeries
// recorder — into the Trace Event Format consumed by Perfetto
// (ui.perfetto.dev) and chrome://tracing: a JSON object with a
// "traceEvents" array. The mapping uses the *logical* clock as the
// timestamp axis (1 simulated round = 1 µs), so the visual timeline shows
// protocol time, not host wall time:
//
//   - every distinct phase name gets its own named track (thread), with
//     "B"/"E" duration events from kPhaseBegin/kPhaseEnd (wall µs in args);
//   - kMerge / kFanout / kMark become per-peer instant
//     events ("i") on kind-named tracks, peer and value in args;
//   - kRound events and every TimeSeries column become counter tracks
//     ("C"), one per metric, so in-flight messages, per-round deliveries
//     and per-shard busy time plot as graphs under the phase tracks.
//
// Phase-end events whose begin was lost to ring wraparound are dropped
// (Perfetto rejects unbalanced "E"s); begins still open at export time are
// left open, which the viewer tolerates.
#pragma once

#include <string>

#include "obs/context.h"
#include "obs/json.h"

namespace nf::obs {

/// {"displayTimeUnit":"ms","traceEvents":[...]} — valid trace-event JSON.
[[nodiscard]] Json trace_event_json(const Context& ctx);

/// Serializes trace_event_json(ctx) to `path` (compact, one line). Returns
/// false with a stderr note when the file cannot be written.
bool write_trace_event_file(const std::string& path, const Context& ctx);

}  // namespace nf::obs
