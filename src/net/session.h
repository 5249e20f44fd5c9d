// Protocol session runtime: composable phases multiplexed over one engine
// run (DESIGN.md §6d).
//
// A *session* is one logical protocol execution — e.g. one IFI query — made
// of an ordered list of *phases* (convergecast up, multicast down, ...).
// Running phases one at a time (run_phase below: one engine run each)
// inserts a global barrier between them: no peer may enter phase k+1 until
// every peer finished phase k. The SessionMux removes that barrier. It is
// a single net::Protocol that routes envelopes by their (session, phase)
// tags to Phase components, and phases open *per peer*: a peer transitions
// the moment its own trigger arrives (a completed subtree, a multicast
// reaching it), so independent subtrees pipeline freely and N sessions
// share one engine run.
//
// Phase lifecycle at one peer: closed -> open (on_start fires exactly once)
// -> handling on_message/on_round callbacks. Opening happens through one of
//   - PhaseStart::kAllPeers: the mux opens the phase at a peer on the
//     peer's first tick of the run, or on its revival tick if it was dead
//     at the start (entry phases);
//   - an earlier phase calling PhaseContext::open_phase() from a callback
//     (the per-peer transition edge);
//   - a tagged message arriving for a closed phase with open_on_message
//     (multicast-style phases where receipt *is* the trigger); with
//     open_on_message off the envelope is buffered and replayed in arrival
//     order when the phase opens (safety net for convergecast-style phases
//     that must initialize local state before merging children).
// done() is a session-global predicate (e.g. "root merged all children");
// the mux keeps the engine alive until every phase of every session is
// done. The mux follows the engine's tick rule (net/engine.h): a peer is
// ticked in the run's first round and afterwards only when a phase there
// asked for it with PhaseContext::wake_next_round(), so idle peers cost
// nothing per round.
//
// Shard safety: the per-peer open flags and buffers live in byte/slot
// arenas touched only by the owning peer's callbacks; per-session traffic
// tallies are commutative atomics; phase done() flags follow the
// single-writer-read-at-barrier rule. The mux itself adds no cross-peer
// state, so a mux run is bit-identical for any --threads=K.
#pragma once

#include <any>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/arena.h"
#include "common/capability.h"
#include "common/error.h"
#include "common/ids.h"
#include "net/engine.h"
#include "obs/context.h"

namespace nf::net {

class SessionMux;
class Phase;

/// How a phase opens at a peer when nothing opened it explicitly.
enum class PhaseStart : std::uint8_t {
  /// Opened at a peer by its first on_round tick of the run: round 0 for a
  /// peer alive then, its revival round for one that was dead.
  kAllPeers,
  /// Stays closed until open_phase() or (with open_on_message) a message.
  kOnDemand,
};

struct PhaseOptions {
  PhaseStart start = PhaseStart::kOnDemand;
  /// A message for a closed phase opens it (true) or is buffered until the
  /// phase opens (false). Buffering is the right choice when on_start must
  /// initialize per-peer state that on_payload merges into.
  bool open_on_message = true;
  /// Phase name for trace spans; must be a string literal. Empty disables
  /// span events for this phase.
  const char* name = "";
};

/// Per-session traffic attribution: bytes/messages this session's phases
/// sent, by category. Counts protocol sends as admitted; the reliability
/// layer's retransmissions and ACKs are engine-level and appear only in the
/// global TrafficMeter.
struct SessionTraffic {
  std::string name;
  std::array<std::uint64_t, kNumTrafficCategories> bytes{};
  std::array<std::uint64_t, kNumTrafficCategories> msgs{};

  [[nodiscard]] std::uint64_t total_bytes() const {
    std::uint64_t t = 0;
    for (const std::uint64_t b : bytes) t += b;
    return t;
  }
  [[nodiscard]] std::uint64_t total_msgs() const {
    std::uint64_t t = 0;
    for (const std::uint64_t m : msgs) t += m;
    return t;
  }
};

/// Per-peer view handed to Phase callbacks: the engine context plus the
/// (session, phase) identity, so sends are tagged automatically and the
/// phase can open later phases of its own session at this peer.
class PhaseContext {
 public:
  NF_REENTRANT [[nodiscard]] PeerId self() const { return ctx_.self(); }
  /// The executing shard (Context::shard()).
  NF_REENTRANT [[nodiscard]] std::uint32_t shard() const {
    return ctx_.shard();
  }
  NF_REENTRANT [[nodiscard]] std::uint64_t round() const {
    return ctx_.round();
  }
  NF_REENTRANT [[nodiscard]] const Overlay& overlay() const {
    return ctx_.overlay();
  }
  NF_REENTRANT [[nodiscard]] const std::vector<PeerId>& neighbors() const {
    return ctx_.neighbors();
  }
  NF_REENTRANT [[nodiscard]] bool is_alive(PeerId p) const {
    return ctx_.is_alive(p);
  }
  NF_REENTRANT [[nodiscard]] SessionId session() const { return session_; }
  NF_REENTRANT [[nodiscard]] PhaseId phase() const { return phase_; }

  /// Asks the engine to tick this peer next round (Context::
  /// wake_next_round()). The tick runs on_round of every open, not-done
  /// phase at the peer; a phase that needs on_round re-arms from on_start
  /// and from each on_round.
  NF_REENTRANT void wake_next_round() { ctx_.wake_next_round(); }

  /// Lineage id of the message whose arrival triggered this callback, or
  /// kNoLineage for round-originated work. During buffered replay this is
  /// the replayed envelope's own id, not the delivery that opened the
  /// phase — so causality survives the buffering detour.
  NF_REENTRANT [[nodiscard]] obs::LineageId cause() const { return cause_; }

  /// Sends `payload` tagged with this phase's (session, phase) and charges
  /// it to the session's traffic tally. Prefer TypedPhase::send, which
  /// type-checks the payload at compile time. The send inherits cause() as
  /// its causal parent.
  NF_REENTRANT void send_raw(PeerId to, TrafficCategory category,
                             std::uint64_t bytes, std::any payload);

  /// As send_raw(), with an explicit causal parent set — for sends that
  /// merge several arrivals (convergecast forwards). Zero ids are ignored.
  NF_REENTRANT void send_raw(PeerId to, TrafficCategory category,
                             std::uint64_t bytes, std::any payload,
                             std::span<const obs::LineageId> parents);

  /// A writer into the executing shard's outbox slab (Context::
  /// flat_payload()); pair with send_flat() from the same callback.
  NF_REENTRANT [[nodiscard]] PayloadWriter flat_payload() {
    return ctx_.flat_payload();
  }

  /// Resolves a delivered envelope's flat payload. During buffered replay
  /// the mux substitutes its owned copy of the bytes (the originating slab
  /// slot has been reclaimed by then), so phases read payloads only through
  /// this accessor, never through the raw ref.
  NF_REENTRANT [[nodiscard]] std::span<const std::uint8_t> payload_bytes(
      const Envelope& env) const {
    return replay_payload_active_ ? replay_payload_ : ctx_.payload_bytes(env);
  }

  /// Flat tagged send, charged to the session's traffic tally. The hot-path
  /// counterpart of send_raw(): ships a slab span, never an owning object.
  NF_REENTRANT void send_flat(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, PayloadRef flat);
  NF_REENTRANT void send_flat(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, PayloadRef flat,
                              std::span<const obs::LineageId> parents);

  /// Opens `phase` of this session at this peer (idempotent): fires its
  /// on_start now and replays any buffered messages. This is the per-peer
  /// phase-transition edge — each peer advances on its own trigger, no
  /// global barrier.
  NF_REENTRANT void open_phase(PhaseId phase);

 private:
  friend class SessionMux;
  PhaseContext(SessionMux& mux, Context& ctx, SessionId session,
               PhaseId phase, obs::LineageId cause)
      : mux_(mux), ctx_(ctx), session_(session), phase_(phase),
        cause_(cause) {}

  SessionMux& mux_;
  Context& ctx_;
  SessionId session_;
  PhaseId phase_;
  obs::LineageId cause_;
  // Set by the mux while replaying a buffered envelope: payload_bytes()
  // returns this owned copy instead of resolving the (stale) slab ref.
  std::span<const std::uint8_t> replay_payload_;
  bool replay_payload_active_ = false;
};

/// One phase of a session. Implementations follow the same shard-safety
/// contract as net::Protocol; callbacks run on the owning peer's shard
/// except on_run_start (engine thread, before the first round).
class Phase {
 public:
  virtual ~Phase() = default;

  /// Size per-peer arenas (and per-shard scratch, indexed by
  /// PhaseContext::shard()) here; called once per engine run.
  NF_ENGINE_THREAD virtual void on_run_start(const Overlay& /*overlay*/,
                                             std::uint32_t /*num_shards*/) {}

  /// Fires exactly once per peer, when the phase opens there.
  NF_SHARD_CONTEXT virtual void on_start(PhaseContext& /*ctx*/) {}

  /// Called at each tick of an alive peer (net/engine.h's tick rule) while
  /// the phase is open there and not done. Ticks are not periodic: after
  /// the run's first round a peer is ticked only if something at it called
  /// PhaseContext::wake_next_round() the round before (or churn revived
  /// it). Most event-driven phases need no tick.
  NF_SHARD_CONTEXT virtual void on_round(PhaseContext& /*ctx*/) {}

  /// Called for each envelope tagged with this phase.
  NF_SHARD_CONTEXT virtual void on_message(PhaseContext& ctx,
                                           Envelope&& env) = 0;

  /// Session-global completion. Polled on the engine thread; the engine
  /// stays alive until every phase of every session is done.
  NF_REENTRANT [[nodiscard]] virtual bool done() const = 0;
};

/// CRTP-free typed phase base: performs the single std::any_cast at the
/// dispatch boundary so concrete phases exchange `M` values directly —
/// payload type mismatches in phase code fail at compile time, not as a
/// null any_cast at runtime.
template <typename M>
class TypedPhase : public Phase {
 public:
  using Message = M;

  NF_SHARD_CONTEXT void on_message(PhaseContext& ctx, Envelope&& env) final {
    M* msg = std::any_cast<M>(&env.payload);
    ensure(msg != nullptr, "session phase payload type mismatch");
    on_payload(ctx, std::move(*msg), env.from);
  }

 protected:
  /// Typed delivery hook; `from` is the sending peer.
  NF_SHARD_CONTEXT virtual void on_payload(PhaseContext& ctx, M&& msg,
                                           PeerId from) = 0;

  /// Typed send: only this phase's message type compiles.
  NF_REENTRANT void send(PhaseContext& ctx, PeerId to,
                         TrafficCategory category, std::uint64_t bytes,
                         M msg) const {
    ctx.send_raw(to, category, bytes, std::any(std::move(msg)));
  }

  /// Typed send with an explicit causal parent set (multi-parent merges).
  NF_REENTRANT void send(PhaseContext& ctx, PeerId to,
                         TrafficCategory category, std::uint64_t bytes, M msg,
                         std::span<const obs::LineageId> parents) const {
    ctx.send_raw(to, category, bytes, std::any(std::move(msg)), parents);
  }
};

/// Base for hot-path phases whose messages are flat slab spans
/// (net/payload.h): the dispatch boundary resolves the envelope's ref (or
/// the mux's buffered copy) to bytes once, and concrete phases decode with
/// the codecs in net/codec.h. No owning payload object exists at any point.
class FlatPhase : public Phase {
 public:
  NF_SHARD_CONTEXT void on_message(PhaseContext& ctx, Envelope&& env) final {
    on_flat(ctx, ctx.payload_bytes(env), env.from);
  }

 protected:
  /// Flat delivery hook; `bytes` is valid for this callback only. Runs every
  /// warmed steady-state round, so overrides must stay heap-free (and must
  /// repeat both capability macros — nf-lint models no inheritance).
  NF_SHARD_CONTEXT NF_STEADY_NOALLOC virtual void on_flat(
      PhaseContext& ctx, std::span<const std::uint8_t> bytes,
      PeerId from) = 0;
};

/// Routes tagged envelopes to per-session Phase components and drives their
/// lifecycle. Register sessions and phases before Engine::run; the mux does
/// not own the phases (they usually hold callbacks into caller state).
class SessionMux final : public Protocol {
 public:
  explicit SessionMux(obs::Context* obs = nullptr) : obs_(obs) {}

  /// Opens a new session; `name` prefixes trace spans and obs counters
  /// ("<name>/<phase>"). An empty name keeps bare phase names (single
  /// session runs) and reports as "s<index>" in traffic summaries.
  [[nodiscard]] SessionId add_session(std::string name = {});

  /// Appends `phase` to `session`'s phase list and returns its PhaseId
  /// (list position). The phase must outlive the mux's last run.
  PhaseId add_phase(SessionId session, Phase& phase, PhaseOptions options);

  // net::Protocol — the engine-facing half.
  NF_ENGINE_THREAD void on_run_start(const Overlay& overlay,
                                     std::uint32_t num_shards) override;
  NF_ENGINE_THREAD void on_round_begin(std::uint64_t round) override;
  NF_SHARD_CONTEXT void on_round(Context& ctx) override;
  NF_SHARD_CONTEXT void on_message(Context& ctx, Envelope&& env) override;
  NF_ENGINE_THREAD void on_run_end() override;
  NF_REENTRANT [[nodiscard]] bool active() const override;

  /// True iff every phase of `session` is done.
  [[nodiscard]] bool session_done(SessionId session) const;
  /// True iff every phase of every session is done.
  [[nodiscard]] bool all_done() const { return !active(); }

  /// Run-relative round at which `session` completed (its gating delivery's
  /// round: completion is detected at the next round boundary and
  /// attributed to the round that flipped the last done() flag). Falls back
  /// to the rounds the run executed when the session never completed. Read
  /// after the run.
  [[nodiscard]] std::uint64_t done_round(SessionId session) const;

  [[nodiscard]] std::size_t num_sessions() const { return sessions_.size(); }

  /// Per-session traffic attribution snapshot (read after the run).
  [[nodiscard]] std::vector<SessionTraffic> traffic() const;

  /// Publishes each session's nonzero per-category tallies as
  /// "session/<name>/<category>_bytes" (+ "_msgs") registry counters, so
  /// JSON reports and nf-inspect can break traffic down per query. No-op
  /// without an obs context. Call once, after the run.
  void flush_obs_counters();

 private:
  /// A buffered early arrival. The envelope's flat payload (if any) is
  /// copied out of its slab at buffering time — the slot slab is reclaimed
  /// when its delivery round ends, but the replay happens rounds later.
  struct BufferedEnvelope {
    Envelope env;
    std::vector<std::uint8_t> flat_bytes;
  };

  struct PhaseSlot {
    Phase* phase = nullptr;
    PhaseOptions options;
    const char* span_name = "";  // literal or tracer-interned; "" = no span
    PeerArena<bool> opened;
    // Sized only when !open_on_message; arrival-order replay queues.
    PeerArena<std::vector<BufferedEnvelope>> buffered;
    std::atomic<bool> span_begun{false};
    bool span_ended = false;  // engine thread only (on_round_begin)
  };

  struct SessionSlot {
    std::string name;
    std::vector<std::unique_ptr<PhaseSlot>> phases;
    std::array<std::atomic<std::uint64_t>, kNumTrafficCategories> bytes{};
    std::array<std::atomic<std::uint64_t>, kNumTrafficCategories> msgs{};
    // Engine thread only (on_round_begin / on_run_end); kNoRound until the
    // session's last done() flag is observed flipped.
    std::uint64_t done_round = obs::LineageRecorder::kNoRound;
  };

  friend class PhaseContext;

  [[nodiscard]] PhaseSlot& slot(SessionId s, PhaseId p) const;
  [[nodiscard]] std::string display_name(SessionId s) const;
  NF_REENTRANT void open_at(Context& ctx, SessionId s, PhaseId p,
                            obs::LineageId cause);
  NF_REENTRANT void charge(SessionId s, TrafficCategory category,
                           std::uint64_t bytes);
  NF_REENTRANT void maybe_begin_span(PhaseSlot& slot);
  NF_ENGINE_THREAD void record_done_rounds();

  obs::Context* obs_;
  std::vector<std::unique_ptr<SessionSlot>> sessions_;
  std::uint64_t rounds_seen_ = 0;  ///< on_round_begin calls this run
};

/// Options for a phase run alone: it opens at every alive peer on the first
/// tick. A convergecast also buffers child messages that arrive before its
/// own contribution exists; a broadcast (multicast) opens on receipt.
inline constexpr PhaseOptions kStandaloneConvergecast{
    PhaseStart::kAllPeers, /*open_on_message=*/false};
inline constexpr PhaseOptions kStandaloneBroadcast{PhaseStart::kAllPeers};

/// Runs `phase` alone to completion: one anonymous session on a mux built
/// with `obs`, driven by one engine run of at most `max_rounds` rounds.
/// Returns the rounds executed; read complete()/result() from the phase.
NF_ENGINE_THREAD std::uint64_t run_phase(Engine& engine, Phase& phase,
                                         PhaseOptions options,
                                         std::uint64_t max_rounds,
                                         obs::Context* obs = nullptr);

}  // namespace nf::net
