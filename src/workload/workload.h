// Synthetic workload generation (paper §V, Table III).
//
// The evaluation generates 10·n instances of n distinct items with
// frequencies following a Zipf(α) distribution and scatters the instances
// uniformly over the N peers; each peer's local value for an item is the
// number of instances it received. The Workload also serves as the
// ground-truth oracle: it knows every item's exact global value, the grand
// total v, and hence the exact frequent-item set for any threshold — which
// is what netFilter's output is checked against.
#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.h"
#include "common/item_source.h"
#include "common/zipf.h"

namespace nf::wl {

struct WorkloadConfig {
  std::uint32_t num_peers = 1000;       ///< N
  std::uint64_t num_items = 100000;     ///< n (distinct item universe)
  double instances_per_item = 10.0;     ///< total instances = this * n
  double alpha = 1.0;                   ///< Zipf skewness (paper's α)
  /// The paper's problem statement says the data set *has* n distinct
  /// items, so by default every item receives one guaranteed instance and
  /// only the remaining (10-1)·n instances are Zipf-sampled. Without the
  /// floor, high skewness collapses the realized distinct-item count and
  /// the naive baseline becomes artificially cheap (see DESIGN.md).
  bool min_one_instance = true;
  std::uint64_t seed = 42;

  void validate() const;
};

class Workload final : public ItemSource {
 public:
  /// Generates the paper's synthetic workload. Each rank's item id is
  /// hashed once and the n ids are radix-sorted once; every drawn instance
  /// is bucketed at its peer as its rank's slot, the id's position in that
  /// ascending order (a u32: 4 transient bytes per instance). A peer's map
  /// is then a radix sort of its slots and a run-length count appended in
  /// slot order, which is id order, so no pair is hashed or sorted again.
  static Workload generate(const WorkloadConfig& config);

  /// Wraps explicit local item sets (application adapters, tests). Ground
  /// truth is one sort of all the peers' pairs.
  static Workload from_local_sets(std::vector<LocalItems> local_sets);

  // ItemSource
  [[nodiscard]] const LocalItems& local_items(PeerId p) const override;
  [[nodiscard]] std::uint32_t num_peers() const override {
    return static_cast<std::uint32_t>(local_.size());
  }

  /// Ground truth: exact global values of every item that occurs.
  [[nodiscard]] const ValueMap<ItemId, Value>& global() const {
    return global_;
  }

  /// v: the grand total of all local values of all items.
  [[nodiscard]] Value total_value() const { return total_; }

  /// t = θ·v rounded up (a value passes iff value >= t).
  [[nodiscard]] Value threshold_for(double theta) const;

  /// Oracle IFI(A, t): exact ids and global values of items with v_x >= t.
  [[nodiscard]] ValueMap<ItemId, Value> frequent_items(Value threshold) const;

  /// Realized number of distinct items (<= configured n: with few instances
  /// some tail ranks never occur).
  [[nodiscard]] std::uint64_t num_distinct() const { return global_.size(); }

  /// Realized o: average distinct items per peer.
  [[nodiscard]] double avg_local_distinct() const;

  /// Average global value v̄ over occurring items.
  [[nodiscard]] double avg_global_value() const;

  /// Average global value over light items (global value < threshold).
  [[nodiscard]] double avg_light_value(Value threshold) const;

 private:
  std::vector<LocalItems> local_;
  ValueMap<ItemId, Value> global_;
  Value total_{0};
};

/// The deterministic rank -> ItemId mapping used by `generate`: ids are
/// scattered over the full 64-bit space, as hashed application keys would
/// be.
[[nodiscard]] ItemId item_id_for_rank(std::uint64_t rank, std::uint64_t seed);

}  // namespace nf::wl
