// Top-down dissemination over a hierarchy (paper Algorithm 2, line 1).
//
// The root propagates a payload down the hierarchy: each member forwards a
// copy to every downstream neighbor and invokes a per-peer handler. Used to
// disseminate the heavy item-group identifiers before candidate
// verification; the charged size is the modelled wire size of the payload
// (sg bytes per heavy group id), not the in-memory size.
//
// MulticastPhase is a session-runtime component (net/session.h). Its
// payload may be set mid-run — the pipelined netFilter only knows the heavy
// set when the filtering convergecast completes at the root — and each
// peer's handler fires the moment the copy reaches it, which is exactly the
// per-peer trigger that lets the next phase start there without a global
// barrier. To run one alone, set the payload up front and pass it to
// net::run_phase with net::kStandaloneBroadcast.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
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

/// Shard-safe: per-peer receipt flags live in a byte arena and the reach
/// count is a commutative atomic. Typed messages (net::TypedPhase<T>): a
/// payload type error fails at compile time.
template <typename T>
// Legacy object-payload path; flat counterpart: FlatMulticastPhase
// (agg/flat_phases.h).
class MulticastPhase final : public net::TypedPhase<T> {  // nf-lint: nf-flat-payload-ok
 public:
  /// Runs at every member (including the root) exactly once, when the
  /// payload reaches that peer.
  using ReceiveFn = std::function<void(net::PhaseContext&, const T&)>;

  MulticastPhase(const Hierarchy& hierarchy, net::TrafficCategory category,
                 ReceiveFn on_receive, obs::Context* obs = nullptr)
      : hierarchy_(hierarchy),
        category_(category),
        on_receive_(std::move(on_receive)),
        obs_(obs),
        received_(hierarchy.num_peers(), false) {}

  /// Installs the payload and its modelled wire size. Must happen before
  /// the phase opens at the root — either up front, or from an earlier
  /// phase's callback (the root's shard) right before open_phase().
  void set_payload(T payload, std::uint64_t wire_bytes) {
    payload_ = std::move(payload);
    wire_bytes_ = wire_bytes;
    has_payload_ = true;
  }

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != hierarchy_.root()) return;
    ensure(has_payload_, "multicast opened at root without a payload");
    deliver(ctx, payload_);
  }

  [[nodiscard]] bool done() const override {
    return num_received() >= hierarchy_.num_members();
  }

  [[nodiscard]] bool complete() const { return done(); }

  /// Number of members that have received the payload so far.
  [[nodiscard]] std::uint32_t num_received() const {
    return num_received_.load(std::memory_order_relaxed);
  }

 protected:
  void on_payload(net::PhaseContext& ctx, T&& msg, PeerId /*from*/) override {
    ensure(!received_[ctx.self().value()], "duplicate multicast delivery");
    deliver(ctx, msg);
  }

 private:
  void deliver(net::PhaseContext& ctx, const T& payload) {
    const PeerId p = ctx.self();
    received_[p.value()] = true;
    num_received_.fetch_add(1, std::memory_order_relaxed);
    on_receive_(ctx, payload);
    const auto& downstream = hierarchy_.downstream(p);
    if (obs_ != nullptr && !downstream.empty()) {
      obs_->registry.counter("multicast/forwards").add(downstream.size());
      obs_->tracer.record(obs::EventKind::kFanout, "multicast.fanout",
                          p.value(), downstream.size());
    }
    // Each forwarded copy descends from the arrival (or root trigger) that
    // reached this peer; ctx.cause() is that lineage id.
    const obs::LineageId parent = ctx.cause();
    for (PeerId child : downstream) {
      this->send(ctx, child, category_, wire_bytes_, T(payload),
                 std::span<const obs::LineageId>(&parent, 1));
    }
  }

  const Hierarchy& hierarchy_;
  net::TrafficCategory category_;
  ReceiveFn on_receive_;
  obs::Context* obs_;
  T payload_{};
  std::uint64_t wire_bytes_ = 0;
  bool has_payload_ = false;
  PeerArena<bool> received_;
  std::atomic<std::uint32_t> num_received_{0};
};

}  // namespace nf::agg
