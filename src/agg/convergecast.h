// Generic bottom-up aggregate computation over a hierarchy (paper §III-A.2).
//
// Leaves send their local contribution to their upstream neighbor; an
// internal peer merges its own contribution with everything received from
// downstream and forwards one merged message upward; the root ends up with
// the global aggregate. One message per non-root member, completing in
// `height` rounds — the "one or two rounds of communications" property the
// paper credits hierarchical aggregation with.
//
// The aggregate type `T` must be provided with:
//   local(peer)  -> T        the peer's own contribution
//   merge(T&, T&&)           combine a child's aggregate into the parent's
//   wire_bytes(const T&)     modelled serialized size of one message
//
// Its one user in the library is the naive collector (core/naive.cpp),
// whose aggregate borrows or owns an item map; tests and
// bench/ablation_latency instantiate it too. netFilter's own phases use the
// flat counterparts (agg/flat_phases.h). This is the last typed hierarchy
// phase: the naive collector measured 3.0–3.1× slower on
// FlatPairsConvergecastPhase, even with pairs merged straight from the wire
// (perfbench naive_collect query_ms_p50 181–183 vs 58–60 ms; ROADMAP
// item 1), so the typed path stays.
//
// ConvergecastPhase is a session-runtime component (net/session.h): it
// initializes a peer when its phase opens there — so a convergecast can
// start per peer, pipelined behind whatever triggers it — and reports
// done() once the root has merged every child. To run one alone, pass it
// to net::run_phase with net::kStandaloneConvergecast.
//
// Each upward message names as causal parents the arrival that opened the
// phase at its sender and every child message merged in. A parent is kept
// only when it is a lineage id (obs/lineage.h): with no recorder attached
// every cause is kNoLineage, so such runs keep no per-member parent list.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/arena.h"
#include "common/error.h"
#include "common/ids.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::agg {

/// Shard-safe: callbacks for peer p touch only state_[p]; `complete_` has a
/// single writer (the root's shard) and is read at the round barrier.
/// Messages are typed (net::TypedPhase<T>): a payload type error in caller
/// code fails at compile time.
template <typename T>
// Object-payload path; flat counterparts: FlatAggregateConvergecastPhase
// and FlatPairsConvergecastPhase (agg/flat_phases.h).
class ConvergecastPhase final : public net::TypedPhase<T> {  // nf-lint: nf-flat-payload-ok
 public:
  using LocalFn = std::function<T(PeerId)>;
  using MergeFn = std::function<void(T&, T&&)>;
  using WireBytesFn = std::function<std::uint64_t(const T&)>;
  /// Fires at the root, inside the run, the moment the global aggregate is
  /// complete — the hook a downstream phase transition chains from.
  using CompleteFn = std::function<void(net::PhaseContext&, const T&)>;

  ConvergecastPhase(const Hierarchy& hierarchy, net::TrafficCategory category,
                    LocalFn local, MergeFn merge, WireBytesFn wire_bytes,
                    obs::Context* obs = nullptr)
      : hierarchy_(hierarchy),
        category_(category),
        local_(std::move(local)),
        merge_(std::move(merge)),
        wire_bytes_(std::move(wire_bytes)),
        obs_(obs),
        state_(hierarchy.num_peers()) {}

  void set_on_complete(CompleteFn on_complete) {
    on_complete_ = std::move(on_complete);
  }

  void on_start(net::PhaseContext& ctx) override {
    const PeerId p = ctx.self();
    if (!hierarchy_.is_member(p)) return;
    State& st = state_[p.value()];
    st.acc.emplace(local_(p));
    st.pending =
        static_cast<std::uint32_t>(hierarchy_.downstream(p).size());
    // Whatever opened this phase here (a dissemination arrival, a replayed
    // envelope) is a causal parent of the merged message sent upward.
    keep_parent(ctx, st);
    maybe_forward(ctx, st);
  }

  // Atomic (single writer: the root's shard; many readers: the mux's
  // per-peer round gating runs on every shard). Relaxed is enough — a stale
  // false only costs one no-op tick, and the round barrier publishes the
  // flag before anyone acts on downstream state.
  [[nodiscard]] bool done() const override {
    return complete_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] bool complete() const { return done(); }

  /// The global aggregate; valid once complete().
  [[nodiscard]] const T& result() const {
    require(complete(), "convergecast not complete");
    return *state_[hierarchy_.root().value()].acc;
  }

  /// Bytes this peer propagated upward (0 for the root). Valid after run.
  [[nodiscard]] std::uint64_t sent_bytes(PeerId p) const {
    return state_[p.value()].sent_bytes;
  }

 protected:
  void on_payload(net::PhaseContext& ctx, T&& child,
                  PeerId /*from*/) override {
    State& st = state_[ctx.self().value()];
    ensure(st.acc.has_value(), "convergecast message before initialization");
    ensure(st.pending > 0, "unexpected convergecast message");
    if (obs_ != nullptr) {
      obs_->registry.counter("convergecast/merges").add(1);
      obs_->tracer.record(obs::EventKind::kMerge, "convergecast.merge",
                          ctx.self().value(), st.sent_bytes);
    }
    merge_(*st.acc, std::move(child));
    --st.pending;
    keep_parent(ctx, st);
    maybe_forward(ctx, st);
  }

 private:
  struct State {
    bool sent = false;
    std::uint32_t pending = 0;
    std::uint64_t sent_bytes = 0;
    std::optional<T> acc;
    /// Causal parents of the merged upward message: the arrival that opened
    /// the phase plus every child aggregate merged in.
    std::vector<obs::LineageId> parents;
  };

  /// Keeps the current cause as a parent only when it is a lineage id:
  /// send() skips kNoLineage anyway, so a run without a recorder builds no
  /// parent list at all.
  static void keep_parent(const net::PhaseContext& ctx, State& st) {
    // nf-lint: nf-envelope-discipline-ok (compared here, never sent)
    if (ctx.cause() != obs::kNoLineage) st.parents.push_back(ctx.cause());
  }

  void maybe_forward(net::PhaseContext& ctx, State& st) {
    if (st.pending != 0 || st.sent) return;
    const PeerId p = ctx.self();
    if (p == hierarchy_.root()) {
      complete_.store(true, std::memory_order_relaxed);
      if (on_complete_) on_complete_(ctx, *st.acc);
      return;
    }
    st.sent = true;
    st.sent_bytes = wire_bytes_(*st.acc);
    if (obs_ != nullptr) {
      obs_->registry.histogram("convergecast/msg_bytes")
          .observe(st.sent_bytes);
    }
    // The merged message descends from every contribution it carries.
    this->send(ctx, hierarchy_.upstream(p), category_, st.sent_bytes,
               std::move(*st.acc),
               std::span<const obs::LineageId>(st.parents));
    st.acc.reset();
    st.parents.clear();
    st.parents.shrink_to_fit();
  }

  const Hierarchy& hierarchy_;
  net::TrafficCategory category_;
  LocalFn local_;
  MergeFn merge_;
  WireBytesFn wire_bytes_;
  obs::Context* obs_;
  CompleteFn on_complete_;
  PeerArena<State> state_;
  std::atomic<bool> complete_{false};
};

}  // namespace nf::agg
