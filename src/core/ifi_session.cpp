#include "core/ifi_session.h"

#include <utility>

#include "common/error.h"
#include "net/codec.h"
#include "obs/context.h"

namespace nf::core {

IfiSessionPhases::IfiSessionPhases(const NetFilter& netfilter,
                                   const ItemSource& items,
                                   const agg::Hierarchy& hierarchy,
                                   Value threshold)
    : netfilter_(netfilter),
      items_(items),
      hierarchy_(hierarchy),
      threshold_(threshold),
      obs_(netfilter.config().obs),
      filtering_(
          hierarchy, net::TrafficCategory::kFiltering,
          /*width=*/netfilter.config().num_filters *
              netfilter.config().num_groups,
          /*local=*/
          [this](PeerId p, std::span<std::uint64_t> out) {
            netfilter_.local_group_aggregates_into(items_.local_items(p),
                                                   out);
          },
          // The paper's model charges sa bytes per item group per filter
          // (§IV-A) regardless of sparsity; kVarintDelta prices the actual
          // varint encoding — the slab length, i.e. flat_bytes = 0.
          /*flat_bytes=*/
          netfilter.config().wire_model == WireModel::kFlatFields
              ? std::uint64_t{netfilter.config().wire.aggregate_bytes} *
                    netfilter.config().num_filters *
                    netfilter.config().num_groups
              : 0,
          netfilter.config().obs),
      dissemination_(
          hierarchy, net::TrafficCategory::kDissemination,
          /*on_receive=*/
          [this](net::PhaseContext& ctx,
                 std::span<const std::uint8_t> encoded) {
            on_heavy_received(ctx, encoded);
          },
          netfilter.config().obs),
      aggregation_(
          hierarchy, net::TrafficCategory::kAggregation,
          /*local=*/
          [this](PeerId p) {
            return netfilter_.materialize_candidates(items_.local_items(p),
                                                     received_.of(p));
          },
          /*wire_bytes=*/
          netfilter.config().wire_model == WireModel::kFlatFields
              ? agg::FlatPairsConvergecastPhase::WireBytesFn(
                    [this](const LocalItems& m) -> std::uint64_t {
                      return m.size() *
                             netfilter_.config().wire.item_value_pair();
                    })
              : agg::FlatPairsConvergecastPhase::WireBytesFn(),
          netfilter.config().obs),
      received_(hierarchy.num_peers(), netfilter.config().num_filters,
                netfilter.config().num_groups) {
  require(threshold >= 1, "threshold must be >= 1");
  filtering_.set_on_complete(
      [this](net::PhaseContext& ctx, std::span<const Value> global) {
        finish_filtering(ctx, global);
      });
  aggregation_.set_on_complete(
      [this](net::PhaseContext& ctx, const LocalItems& candidates) {
        finish_aggregation(ctx, candidates);
      });
}

net::PhaseId IfiSessionPhases::register_phases(
    net::SessionMux& mux, net::SessionId session,
    net::PhaseStart filtering_start) {
  net::PhaseOptions fopts;
  fopts.start = filtering_start;
  // Children's aggregates must merge into an initialized accumulator;
  // buffering is the safety net (on a tree a parent always starts before
  // its children can reach it).
  fopts.open_on_message = false;
  fopts.name = "filtering";
  const net::PhaseId fid = mux.add_phase(session, filtering_, fopts);

  net::PhaseOptions dopts;  // receipt of the heavy set IS the trigger
  dopts.name = "dissemination";
  dissemination_pid_ = mux.add_phase(session, dissemination_, dopts);

  net::PhaseOptions aopts;
  aopts.open_on_message = false;  // materialize before merging children
  aopts.name = "aggregation";
  aggregation_pid_ = mux.add_phase(session, aggregation_, aopts);
  return fid;
}

// Runs at the root, inside the delivery that completed the global group
// aggregates: threshold the groups, hand the heavy set to the multicast and
// open it here — the per-peer phase-2 wave starts this very round.
void IfiSessionPhases::finish_filtering(net::PhaseContext& ctx,
                                        std::span<const Value> global) {
  const NetFilterConfig& cfg = netfilter_.config();
  heavy_ = HeavyGroupSet(global, cfg.num_filters, cfg.num_groups, threshold_);
  filtering_rounds_ = ctx.round() + 1;
  obs::add_counter(obs_, "netfilter/heavy_groups", heavy_.total());

  // The wire always carries the delta-coded heavy id list; the flat model
  // charges sg per heavy group id, kVarintDelta the encoded length itself
  // (Algorithm 2, line 1). Encoded once here at the root — every forward
  // down the tree is a span copy — and decoded once, before it leaves the
  // root, for every peer that receives these bytes.
  const net::Bytes encoded = encode_heavy_groups(heavy_);
  received_.install(encoded);
  const std::uint64_t dissemination_bytes =
      cfg.wire_model == WireModel::kFlatFields
          ? heavy_.total() * cfg.wire.group_id_bytes
          : encoded.size();
  dissemination_.set_payload(encoded, dissemination_bytes);
  ctx.open_phase(dissemination_pid_);
}

// Runs at every member when the heavy set reaches it: record the set these
// bytes decode to and enter aggregation immediately, whose on_start
// materializes the local candidates (Algorithm 2, line 2) — this peer's
// subtree proceeds without waiting for the multicast to finish elsewhere.
void IfiSessionPhases::on_heavy_received(
    net::PhaseContext& ctx, std::span<const std::uint8_t> encoded) {
  received_.receive(ctx.self(), encoded);
  ctx.open_phase(aggregation_pid_);
}

void IfiSessionPhases::finish_aggregation(net::PhaseContext& ctx,
                                          const LocalItems& candidates) {
  NetFilterStats& s = result_.stats;
  s.threshold = threshold_;
  s.heavy_groups_total = heavy_.total();
  s.num_candidates = candidates.size();
  result_.frequent = candidates;
  result_.frequent.retain(
      [&](ItemId, Value v) { return v >= threshold_; });
  s.num_frequent = result_.frequent.size();
  s.num_false_positives = s.num_candidates - s.num_frequent;
  obs::add_counter(obs_, "netfilter/candidates", s.num_candidates);
  obs::add_counter(obs_, "netfilter/frequent", s.num_frequent);
  result_ready_.store(true, std::memory_order_relaxed);
  if (on_complete_) on_complete_(ctx);
}

NetFilterResult IfiSessionPhases::take_result() {
  require(complete(), "IFI session not complete");
  return std::move(result_);
}

}  // namespace nf::core
