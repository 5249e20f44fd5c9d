// The naive approach (paper §I, §IV-B): every peer forwards its full local
// item set up the hierarchy; <id, value> pairs for equal items merge along
// the way, and the root ends up with the exact global value of every item
// in the system, from which it reads off the frequent ones.
//
// This is the exact-result baseline netFilter is compared against in
// Figures 7 and 8. Its cost per peer is (sa+si)·o ≤ C_naive ≤
// (sa+si)·o·(h−1) (Formula 2): a peer propagates the union of its own
// items and everything its subtree sent, which is why the realized cost
// sits well below the intuitive O(n·N).
//
// Members read their own items in place: a member's aggregate is a view of
// its EffectiveItems entry until the first child merges in, so a leaf's
// upward message carries no copy of its item set. The returned `frequent`
// map owns its entries and holds no reference into the item source.
#pragma once

#include "agg/hierarchy.h"
#include "common/item_source.h"
#include "common/wire.h"
#include "net/engine.h"

namespace nf::core {

struct NaiveStats {
  double cost_per_peer = 0.0;         ///< bytes propagated per peer (kNaive)
  double items_per_peer = 0.0;        ///< <id,value> pairs propagated per peer
  std::uint64_t rounds = 0;
  std::uint64_t num_frequent = 0;
};

struct NaiveResult {
  ValueMap<ItemId, Value> frequent;
  NaiveStats stats;
};

class NaiveCollector {
 public:
  explicit NaiveCollector(WireSizes wire, net::LinkFaultModel fault = {})
      : wire_(wire), fault_(fault) {
    wire_.validate();
  }

  [[nodiscard]] NaiveResult run(const ItemSource& items,
                                const agg::Hierarchy& hierarchy,
                                net::Overlay& overlay,
                                net::TrafficMeter& meter,
                                Value threshold) const;

 private:
  WireSizes wire_;
  net::LinkFaultModel fault_;
};

}  // namespace nf::core
