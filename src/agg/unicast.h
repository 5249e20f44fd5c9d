// Source-routed request/reply along the hierarchy.
//
// §III-A.1: "requests from different peers are first forwarded to the root
// node ... [which] forwards [the result] to the corresponding peer". A
// request travels up the parent chain recording its route; the root's
// reply retraces the recorded route back to the requester — no peer needs
// global knowledge, only its own upstream link and the route carried in
// the message.
//
// RequestPhase and ReplyPhase are session-runtime components
// (net/session.h), one pair per query. QueryService::serve runs every
// request's RequestPhase in one engine run and every ReplyPhase in a second
// one; serve_concurrent chains the pair around a full IFI session. Both
// replies are frequent-item maps. Control plane, off the hot path: the
// messages are typed objects, not flat slab payloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "agg/hierarchy.h"
#include "common/error.h"
#include "common/ids.h"
#include "common/item_source.h"
#include "net/session.h"

namespace nf::agg {

/// A request walking up the parent chain. The query parameters are
/// registered at the root per session, so the body is just the route the
/// reply retraces; the byte charge models the theta it stands for.
struct RequestMsg {
  std::vector<PeerId> route;  ///< hops walked so far, excluding the root
};

/// A reply retracing the recorded route back to the requester.
struct ReplyMsg {
  std::vector<PeerId> route;  ///< remaining hops; requester first
  ValueMap<ItemId, Value> frequent;
};

/// The requester originates when the phase opens at it; each hop forwards
/// upstream, recording the route. done() once the root has the request.
/// Shard-safe: `arrived_` has a single writer (the root's shard).
class RequestPhase final  // control plane, not hot path
    : public net::TypedPhase<RequestMsg> {  // nf-lint: nf-flat-payload-ok
 public:
  /// Runs at the root, once, with the recorded route.
  using ArrivedFn = std::function<void(net::PhaseContext&, RequestMsg&&)>;

  /// `request_bytes` is charged per hop.
  RequestPhase(const Hierarchy& hierarchy, PeerId requester,
               std::uint64_t request_bytes, ArrivedFn on_arrived)
      : hierarchy_(hierarchy),
        requester_(requester),
        request_bytes_(request_bytes),
        on_arrived_(std::move(on_arrived)) {
    require(hierarchy.is_member(requester),
            "requester must be a hierarchy member");
  }

  void on_start(net::PhaseContext& ctx) override {
    if (ctx.self() != requester_) return;
    forward(ctx, RequestMsg{});
  }

  [[nodiscard]] bool done() const override {
    return arrived_.load(std::memory_order_relaxed);
  }

 protected:
  void on_payload(net::PhaseContext& ctx, RequestMsg&& msg,
                  PeerId /*from*/) override {
    forward(ctx, std::move(msg));
  }

 private:
  void forward(net::PhaseContext& ctx, RequestMsg&& msg) {
    const PeerId self = ctx.self();
    if (self == hierarchy_.root()) {
      arrived_.store(true, std::memory_order_relaxed);
      on_arrived_(ctx, std::move(msg));
      return;
    }
    msg.route.push_back(self);
    this->send(ctx, hierarchy_.upstream(self), net::TrafficCategory::kControl,
               request_bytes_, std::move(msg));
  }

  const Hierarchy& hierarchy_;
  PeerId requester_;
  std::uint64_t request_bytes_;
  ArrivedFn on_arrived_;
  std::atomic<bool> arrived_{false};
};

/// The root dispatches the answer along the recorded route when the phase
/// opens there; relays forward it. done() when it lands at the requester.
/// Shard-safe: `delivered_` has a single writer (the requester's shard).
class ReplyPhase final  // control plane, not hot path
    : public net::TypedPhase<ReplyMsg> {  // nf-lint: nf-flat-payload-ok
 public:
  /// Runs at the requester, once, with the delivered frequent items.
  using DeliveredFn =
      std::function<void(net::PhaseContext&, ValueMap<ItemId, Value>&&)>;

  /// `pair_bytes` is charged per hop for each <item, value> pair carried.
  ReplyPhase(const Hierarchy& hierarchy, PeerId requester,
             std::uint64_t pair_bytes, DeliveredFn on_delivered)
      : hierarchy_(hierarchy),
        requester_(requester),
        pair_bytes_(pair_bytes),
        on_delivered_(std::move(on_delivered)) {}

  /// Installs the reply and its route. Must happen before the phase opens
  /// at the root — either up front, or from an earlier phase's callback
  /// (the root's shard) right before open_phase().
  void set_payload(ReplyMsg msg) {
    outbox_ = std::move(msg);
    has_payload_ = true;
  }

  void on_start(net::PhaseContext& ctx) override {
    // Relays and the requester open on message arrival: nothing to send.
    if (ctx.self() != hierarchy_.root()) return;
    ensure(has_payload_, "reply opened at root without a payload");
    has_payload_ = false;
    dispatch(ctx, std::move(outbox_));
  }

  [[nodiscard]] bool done() const override {
    return delivered_.load(std::memory_order_relaxed);
  }

 protected:
  void on_payload(net::PhaseContext& ctx, ReplyMsg&& msg,
                  PeerId /*from*/) override {
    dispatch(ctx, std::move(msg));
  }

 private:
  void dispatch(net::PhaseContext& ctx, ReplyMsg&& msg) {
    if (msg.route.empty()) {
      ensure(ctx.self() == requester_, "reply misrouted");
      delivered_.store(true, std::memory_order_relaxed);
      on_delivered_(ctx, std::move(msg.frequent));
      return;
    }
    const PeerId next = msg.route.back();
    msg.route.pop_back();
    const std::uint64_t bytes = msg.frequent.size() * pair_bytes_;
    this->send(ctx, next, net::TrafficCategory::kControl, bytes,
               std::move(msg));
  }

  const Hierarchy& hierarchy_;
  PeerId requester_;
  std::uint64_t pair_bytes_;
  DeliveredFn on_delivered_;
  ReplyMsg outbox_;
  bool has_payload_ = false;
  std::atomic<bool> delivered_{false};
};

}  // namespace nf::agg
