// One IFI query as a session of composable phases (DESIGN.md §6d).
//
// Wires the three netFilter phases — filtering convergecast, heavy-group
// multicast, aggregation convergecast — onto a net::SessionMux so they run
// pipelined inside a single engine run: the root flips from filtering to
// dissemination inside the delivery callback that completes the global
// aggregate, and every other peer opens its aggregation phase the moment
// the heavy multicast reaches it. No global barrier anywhere, yet the
// result is the exact IFI answer: a peer's phase-2 contribution depends
// only on the heavy set (which it has) and its subtree's contributions
// (which the mux buffers if they somehow arrive first — on a tree they
// cannot, since the heavy set reaches a parent strictly before any child
// can respond through it).
//
// Used by NetFilter::run for the pipelined single-query path and by
// QueryService::serve_concurrent to multiplex N independent queries with
// distinct thresholds/filters over one engine run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "agg/flat_phases.h"
#include "agg/hierarchy.h"
#include "common/item_source.h"
#include "core/netfilter.h"
#include "net/session.h"

namespace nf::core {

class IfiSessionPhases {
 public:
  /// Fires at the root, inside the engine run, the moment this query's
  /// exact answer exists — the hook a reply phase chains from.
  using CompleteFn = std::function<void(net::PhaseContext&)>;

  /// `netfilter`, `items` and `hierarchy` must outlive the engine run.
  IfiSessionPhases(const NetFilter& netfilter, const ItemSource& items,
                   const agg::Hierarchy& hierarchy, Value threshold);

  /// Registers filtering -> dissemination -> aggregation on `mux` under
  /// `session` and returns the filtering PhaseId (the session's entry).
  /// kAllPeers starts filtering everywhere on the first tick (single-query
  /// runs); kOnDemand leaves it to an announcement phase's open_phase()
  /// (multiplexed queries).
  net::PhaseId register_phases(net::SessionMux& mux, net::SessionId session,
                               net::PhaseStart filtering_start);

  void set_on_complete(CompleteFn fn) { on_complete_ = std::move(fn); }

  /// True once the root holds the exact answer.
  [[nodiscard]] bool complete() const {
    return result_ready_.load(std::memory_order_relaxed);
  }

  /// Rounds until the filtering convergecast completed at the root.
  [[nodiscard]] std::uint64_t filtering_rounds() const {
    return filtering_rounds_;
  }

  [[nodiscard]] const HeavyGroupSet& heavy() const { return heavy_; }

  /// The result in place — the exact frequent set plus the counting stats
  /// fields (threshold, heavy groups, candidates, frequent, false
  /// positives). Readable from the root's shard inside on-complete hooks.
  [[nodiscard]] const NetFilterResult& result() const {
    require(complete(), "IFI session not complete");
    return result_;
  }

  /// Moves the result out. Rounds and byte costs are the orchestrator's to
  /// fill — only it knows which engine run and which traffic tally this
  /// session rode on. Call once, after the run.
  [[nodiscard]] NetFilterResult take_result();

 private:
  void finish_filtering(net::PhaseContext& ctx,
                        std::span<const Value> global);
  void on_heavy_received(net::PhaseContext& ctx,
                         std::span<const std::uint8_t> encoded);
  void finish_aggregation(net::PhaseContext& ctx, const LocalItems& candidates);

  const NetFilter& netfilter_;
  const ItemSource& items_;
  const agg::Hierarchy& hierarchy_;
  Value threshold_;
  obs::Context* obs_;

  // Flat slab-backed phases (agg/flat_phases.h): group sums ride the wire
  // as varint vectors, held undecoded until a member's last child reports
  // and then merged once in the shard's scratch row; the heavy set travels
  // as one delta-coded id list, decoded once at the root for every peer
  // that receives those bytes.
  agg::FlatAggregateConvergecastPhase filtering_;
  agg::FlatMulticastPhase dissemination_;
  agg::FlatPairsConvergecastPhase aggregation_;
  net::PhaseId dissemination_pid_ = 0;
  net::PhaseId aggregation_pid_ = 0;

  // Which heavy set reached each peer: written from the receiving peer's
  // shard, read by the same peer's aggregation on_start, which materializes
  // the candidates straight into its accumulator.
  HeavySetReceipts received_;

  // Root-shard writes, published by the round barrier / read after the run.
  HeavyGroupSet heavy_;
  std::uint64_t filtering_rounds_ = 0;
  NetFilterResult result_;
  std::atomic<bool> result_ready_{false};
  CompleteFn on_complete_;
};

}  // namespace nf::core
