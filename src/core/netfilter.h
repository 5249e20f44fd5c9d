// netFilter — exact identification of frequent items in P2P systems
// (paper §III).
//
// Phase 1, candidate filtering: every peer folds its local item set into
// f×g item-group aggregates (one g-sized vector per hash filter) and the
// vectors are summed up the hierarchy. Item groups whose aggregate is below
// the threshold are light; an item survives as a candidate only if all f of
// its groups are heavy.
//
// Phase 2, candidate verification: the root multicasts the heavy group ids
// down the hierarchy; each peer materializes the candidates visible in its
// local set (Algorithm 2) and exact <id, value> pairs are merged bottom-up.
// Candidates whose exact global value clears the threshold are the answer —
// no false positives, no false negatives, exact values.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "agg/hierarchy.h"
#include "common/arena.h"
#include "common/hashing.h"
#include "common/item_source.h"
#include "core/config.h"
#include "net/codec.h"
#include "net/engine.h"

namespace nf::core {

/// The heavy item groups that survive phase 1, packed into one bitmap: f
/// rows of ⌈g/64⌉ words in a single vector, filter-major, so group j of
/// filter i is bit j % 64 of word i·⌈g/64⌉ + j / 64. The bits past g in a
/// row's last word are always zero, so total() and the wire encoding read
/// whole words. A default-constructed set is 0×0 and matches no bank.
class HeavyGroupSet {
 public:
  HeavyGroupSet() = default;

  /// An f×g set with every group light.
  HeavyGroupSet(std::uint32_t num_filters, std::uint32_t num_groups);

  /// Phase 1's thresholding: group j of filter i is heavy iff its global
  /// aggregate global[i*g + j] is >= threshold. Throws InvalidArgument if
  /// `global` is not f*g wide.
  HeavyGroupSet(std::span<const Value> global, std::uint32_t num_filters,
                std::uint32_t num_groups, Value threshold);

  [[nodiscard]] std::uint32_t num_filters() const { return num_filters_; }
  [[nodiscard]] std::uint32_t num_groups() const { return num_groups_; }

  /// Unchecked: requires filter < num_filters() and group < num_groups().
  [[nodiscard]] bool is_heavy(std::uint32_t filter,
                              std::uint32_t group) const {
    const std::uint64_t word =
        words_[std::size_t{filter} * words_per_row_ + group / 64];
    return ((word >> (group % 64)) & 1U) != 0;
  }

  /// Marks a group heavy. Throws InvalidArgument if it is out of range.
  void set(std::uint32_t filter, std::uint32_t group);

  /// Σ_f w_f — total heavy groups across filters (what Fig 5(a)/6(a) plot).
  [[nodiscard]] std::uint64_t total() const;

  /// True iff the set is f×g for the f and g of `bank`: the shape passes()
  /// reads.
  [[nodiscard]] bool matches(const FilterBank& bank) const {
    return num_filters_ == bank.num_filters() &&
           num_groups_ == bank.num_groups();
  }

  /// True iff every one of the item's f groups is heavy. Requires
  /// matches(bank), which callers check once per item set, not per item.
  [[nodiscard]] bool passes(ItemId item, const FilterBank& bank) const {
    std::uint32_t i = 0;
    for (const GroupHash& filter : bank.filters()) {
      if (!is_heavy(i++, filter.group_of(item).value())) return false;
    }
    return true;
  }

  friend bool operator==(const HeavyGroupSet&, const HeavyGroupSet&) = default;

 private:
  friend net::Bytes encode_heavy_groups(const HeavyGroupSet& heavy);
  friend HeavyGroupSet decode_heavy_groups(std::span<const std::uint8_t> in,
                                           std::uint32_t num_filters,
                                           std::uint32_t num_groups);

  std::uint32_t num_filters_ = 0;
  std::uint32_t num_groups_ = 0;
  std::uint32_t words_per_row_ = 0;  ///< ⌈g/64⌉
  std::vector<std::uint64_t> words_;  ///< f rows of words_per_row_ words
};

/// Which heavy set each peer received in phase 2 (Algorithm 2, line 2),
/// decoded once per distinct payload. install() decodes the payload the
/// root multicasts; a peer whose received bytes equal it (one memcmp)
/// records a pointer to that one decoded set. Any other bytes are decoded
/// and validated on receipt into the receiving peer's own slot, so every
/// peer acts only on what reached it and no ProtocolError check is skipped.
///
/// Shard safety: install() runs before the payload can reach any peer — on
/// the engine thread, or in the root's shard right before the multicast
/// opens there — and publishes the set through an atomic flag, so a shard
/// that sees it installed also sees its contents; receive() and of() write
/// and read only p's slots.
class HeavySetReceipts {
 public:
  HeavySetReceipts(std::uint32_t num_peers, std::uint32_t num_filters,
                   std::uint32_t num_groups);

  /// Decodes `encoded` as the payload every peer is expected to receive.
  /// Throws ProtocolError if it does not decode. At most once per query.
  void install(std::span<const std::uint8_t> encoded);

  /// Records the set `encoded` decodes to as the one p received. Throws
  /// ProtocolError if it does not decode to an f×g set.
  void receive(PeerId p, std::span<const std::uint8_t> encoded);

  /// The set p received; ProtocolError if nothing reached p.
  [[nodiscard]] const HeavyGroupSet& of(PeerId p) const;

 private:
  std::uint32_t num_filters_;
  std::uint32_t num_groups_;
  std::vector<std::uint8_t> installed_bytes_;
  HeavyGroupSet installed_;
  std::atomic<bool> has_installed_{false};
  PeerArena<const HeavyGroupSet*> received_;
  /// Sets decoded from bytes other than the installed payload.
  PeerArena<std::unique_ptr<const HeavyGroupSet>> own_;
};

struct NetFilterStats {
  std::uint64_t threshold = 0;             ///< t actually used
  std::uint64_t heavy_groups_total = 0;    ///< Σ_f w_f
  std::uint64_t num_candidates = 0;        ///< |candidate set| at the root
  std::uint64_t num_frequent = 0;          ///< true frequent items reported
  std::uint64_t num_false_positives = 0;   ///< candidates - frequent (fp)
  double candidates_per_peer = 0.0;        ///< avg <id,value> pairs sent/peer
  std::uint64_t rounds_filtering = 0;
  std::uint64_t rounds_verification = 0;
  /// Engine rounds for the whole query (set by NetFilter::run). The query
  /// is one pipelined session, so rounds_filtering counts until the root
  /// completed filtering and rounds_verification is the remainder (phase 2
  /// already ran at the leaves during it). Running filter_candidates then
  /// verify_candidates instead pays the phases back to back with global
  /// barriers between them; they leave rounds_total at 0, and their
  /// rounds_filtering + rounds_verification is strictly larger than a
  /// pipelined rounds_total — the win the fig5 bench reports.
  std::uint64_t rounds_total = 0;

  // Per-peer average communication cost in bytes (the paper's metric),
  // split the way Figures 5(b)/6(b) plot it.
  double filtering_cost = 0.0;
  double dissemination_cost = 0.0;
  double aggregation_cost = 0.0;
  double host_report_cost = 0.0;

  /// The paper's "total cost": the lumped sum of the three phase costs.
  [[nodiscard]] double total_cost() const {
    return filtering_cost + dissemination_cost + aggregation_cost;
  }
};

struct NetFilterResult {
  /// IFI(A, t): exact item ids and exact global values.
  ValueMap<ItemId, Value> frequent;
  NetFilterStats stats;
};

class NetFilter {
 public:
  explicit NetFilter(NetFilterConfig config);

  /// Runs both phases over `hierarchy` as one pipelined session on one
  /// engine run and returns the exact frequent-item set. `items` must cover
  /// every peer of the overlay; traffic is charged to `meter`. `threshold`
  /// must be >= 1.
  [[nodiscard]] NetFilterResult run(const ItemSource& items,
                                    const agg::Hierarchy& hierarchy,
                                    net::Overlay& overlay,
                                    net::TrafficMeter& meter,
                                    Value threshold) const;

  /// Phase 1 only, on its own engine run (exposed for tests, benches and
  /// extensions): returns the heavy group bitmap and fills the filtering
  /// stats fields. Followed by verify_candidates, this is the barriered
  /// schedule: three engine runs with a global barrier between phases.
  /// Neither function folds in host reports; pass an EffectiveItems view
  /// (core/host_report.h) to match what run() computes.
  [[nodiscard]] HeavyGroupSet filter_candidates(const ItemSource& items,
                                                const agg::Hierarchy& hierarchy,
                                                net::Overlay& overlay,
                                                net::TrafficMeter& meter,
                                                Value threshold,
                                                NetFilterStats* stats) const;

  /// Phase 2 only, on two engine runs (dissemination, then aggregation):
  /// candidate materialization + verification given the heavy group bitmap.
  [[nodiscard]] NetFilterResult verify_candidates(
      const ItemSource& items, const agg::Hierarchy& hierarchy,
      net::Overlay& overlay, net::TrafficMeter& meter, Value threshold,
      const HeavyGroupSet& heavy, NetFilterStats stats) const;

  /// The f×g group aggregates of one local item set — what each peer
  /// contributes in phase 1. Layout: filter-major, aggregates[i*g + group].
  [[nodiscard]] std::vector<Value> local_group_aggregates(
      const LocalItems& items) const;

  /// Zero-allocation variant: accumulates the aggregates into `out`
  /// (zero-filled first), which must have size f*g. This is what the flat
  /// filtering convergecast folds straight into its SoA row.
  void local_group_aggregates_into(const LocalItems& items,
                                   std::span<Value> out) const;

  /// The candidates visible in one local item set given the heavy bitmap —
  /// what each peer materializes in phase 2 (Algorithm 2, line 2): exactly
  /// the pairs that passes() keeps, in the local set's sorted order. Both
  /// phase-2 paths build each peer's aggregation accumulator with it. A
  /// branch-free cascade: filter 0 tests every item, each later filter only
  /// the survivors of the one before (see DESIGN.md §6f). Throws
  /// InvalidArgument if `heavy` does not match the bank's f×g shape.
  [[nodiscard]] LocalItems materialize_candidates(
      const LocalItems& items, const HeavyGroupSet& heavy) const;

  [[nodiscard]] const FilterBank& bank() const { return bank_; }
  [[nodiscard]] const NetFilterConfig& config() const { return config_; }

 private:
  /// One session on one engine run: a peer enters phase 2 the moment the
  /// heavy multicast reaches it — the same result as filter_candidates +
  /// verify_candidates in strictly fewer engine rounds (see
  /// core/ifi_session.h). `items` is the effective (host-report-folded)
  /// source.
  [[nodiscard]] NetFilterResult run_pipelined(const ItemSource& items,
                                              const agg::Hierarchy& hierarchy,
                                              net::Overlay& overlay,
                                              net::TrafficMeter& meter,
                                              Value threshold) const;

  NetFilterConfig config_;
  FilterBank bank_;
};

/// Wire form of a heavy-group bitmap: the set bits flattened to sorted ids
/// (filter-major, i*g + group) and delta-coded (net::encode_sorted_ids).
/// This is what the flat dissemination multicast ships; the flat-field cost
/// model still charges total() * group_id_bytes per message. Both directions
/// walk the packed words directly. Decoding throws ProtocolError on bytes
/// that are not a valid id list or that name an id past f*g.
[[nodiscard]] net::Bytes encode_heavy_groups(const HeavyGroupSet& heavy);
[[nodiscard]] HeavyGroupSet decode_heavy_groups(
    std::span<const std::uint8_t> in, std::uint32_t num_filters,
    std::uint32_t num_groups);

/// Records one Formula-1 conformance run into config.obs (no-op when null):
/// predicted per-peer phase costs from the analytic model vs the costs in
/// `stats`. Only configurations the closed-form model prices are judged —
/// flat wire fields on a loss-free network. Public so QueryService can
/// record one run per multiplexed session from per-session traffic tallies.
/// Round counts are not judged: the session overlaps the phases, so the
/// per-phase wave model (cost_model::phase_rounds) does not apply.
void record_netfilter_conformance(const NetFilterConfig& config,
                                  const NetFilterStats& stats,
                                  std::uint32_t num_peers);

}  // namespace nf::core
