// Gossip-based netFilter — the paper's future-work direction (§VI)
// implemented: "investigate a fault-tolerant gossip aggregation ... and
// extend the solutions proposed in this study on gossip aggregation".
//
// The two-phase structure survives; only the aggregation substrate changes
// from the BFS hierarchy to hierarchy-free primitives, so there is no tree
// to repair under churn:
//
//   Phase 1 (candidate filtering). Push-sum gossip estimates the f×g item-
//   group aggregates. After R1 rounds the initiator prunes groups whose
//   *estimate* falls below t·(1−δ) — the slack δ absorbs the residual
//   gossip error so truly heavy groups are not lost (no false negatives,
//   with high probability).
//
//   Dissemination. The surviving heavy-group bitmap is flooded over the
//   overlay (net::FlatFloodPhase) so every peer materializes its partial
//   candidate set against the SAME bitmap.
//
//   Phase 2 (candidate verification). A second push-sum runs over the
//   sparse candidate maps — push-sum is linear, so <id, value> maps gossip
//   exactly like vectors, with the support union emerging along the way.
//   The initiator reports candidates whose estimated global value reaches
//   t·(1−δ).
//
// Unlike hierarchical netFilter the result is approximate: reported values
// carry the gossip estimation error, and the δ slack admits borderline
// false positives. bench/ablation_gossip_netfilter measures both against
// the exact oracle, alongside the cost of hierarchy-freedom.
#pragma once

#include <cstdint>

#include "common/hashing.h"
#include "common/item_source.h"
#include "core/config.h"
#include "net/engine.h"

namespace nf::core {

/// Engine settings come from the base; each stage's engine takes the whole
/// config. Under loss the reliability layer keeps push-sum mass
/// conservation intact; with obs set, each stage also emits a phase span.
struct GossipNetFilterConfig : net::EngineConfig {
  std::uint32_t num_groups = 100;   ///< g
  std::uint32_t num_filters = 3;    ///< f
  std::uint64_t filter_seed = 0xF117E25EEDull;
  WireSizes wire{};
  std::uint32_t phase1_rounds = 60;  ///< push-sum rounds for group sums
  std::uint32_t phase2_rounds = 60;  ///< push-sum rounds for candidates
  /// δ: prune/report slack as a fraction of t. Larger δ tolerates more
  /// gossip error (fewer false negatives) at the price of more candidates
  /// and false positives.
  double slack = 0.15;
  std::uint32_t flood_ttl = 64;
  std::uint64_t seed = 17;

  void validate() const {
    require(num_groups >= 1, "need at least one item group");
    require(num_filters >= 1, "need at least one filter");
    require(slack >= 0.0 && slack < 1.0, "slack must be in [0,1)");
    require(phase1_rounds >= 1 && phase2_rounds >= 1,
            "need at least one gossip round per phase");
    wire.validate();
  }
};

struct GossipNetFilterStats {
  std::uint64_t threshold = 0;
  std::uint64_t heavy_groups_total = 0;
  std::uint64_t num_candidates = 0;  ///< support of the phase-2 map at init
  std::uint64_t num_reported = 0;
  std::uint64_t rounds = 0;
  double phase1_cost = 0.0;  ///< gossip bytes/peer, group aggregates
  double flood_cost = 0.0;   ///< flood bytes/peer, heavy-group bitmap
  double phase2_cost = 0.0;  ///< gossip bytes/peer, candidate maps

  [[nodiscard]] double total_cost() const {
    return phase1_cost + flood_cost + phase2_cost;
  }

  // Versus the exact oracle, when one is provided to run().
  std::uint64_t false_positives = 0;
  std::uint64_t false_negatives = 0;
  double max_value_rel_error = 0.0;  ///< over correctly reported items
};

struct GossipNetFilterResult {
  /// Reported frequent items with *estimated* global values.
  ValueMap<ItemId, Value> reported;
  GossipNetFilterStats stats;
};

class GossipNetFilter {
 public:
  explicit GossipNetFilter(GossipNetFilterConfig config);

  /// Runs the three stages from `initiator`. No hierarchy is used; the
  /// overlay only needs to be connected. If `oracle` is non-null the stats
  /// include false positives/negatives and value error against it.
  [[nodiscard]] GossipNetFilterResult run(
      const ItemSource& items, net::Overlay& overlay, PeerId initiator,
      net::TrafficMeter& meter, Value threshold,
      const ValueMap<ItemId, Value>* oracle = nullptr) const;

  [[nodiscard]] const FilterBank& bank() const { return bank_; }
  [[nodiscard]] const GossipNetFilterConfig& config() const {
    return config_;
  }

 private:
  GossipNetFilterConfig config_;
  FilterBank bank_;
};

}  // namespace nf::core
