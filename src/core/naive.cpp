#include "core/naive.h"

#include "agg/convergecast.h"
#include "common/error.h"
#include "core/host_report.h"
#include "net/session.h"

namespace nf::core {
namespace {

// A member's running aggregate. Until the first child merges in it is a
// view of the member's own items (they outlive the run); from then on it
// owns the merge of everything so far. Copies (retransmissions copy the
// payload) stay valid either way.
struct Aggregate {
  const LocalItems* borrowed = nullptr;
  LocalItems owned;

  [[nodiscard]] const LocalItems& items() const {
    return borrowed != nullptr ? *borrowed : owned;
  }
};

}  // namespace

NaiveResult NaiveCollector::run(const ItemSource& items,
                                const agg::Hierarchy& hierarchy,
                                net::Overlay& overlay,
                                net::TrafficMeter& meter,
                                Value threshold) const {
  require(threshold >= 1, "threshold must be >= 1");
  const std::uint64_t before = meter.total(net::TrafficCategory::kNaive);
  const EffectiveItems effective(items, hierarchy, overlay, wire_, &meter);

  agg::ConvergecastPhase<Aggregate> cast(
      hierarchy, net::TrafficCategory::kNaive,
      /*local=*/
      [&](PeerId p) { return Aggregate{&effective.local_items(p), {}}; },
      /*merge=*/
      [](Aggregate& acc, Aggregate&& child) {
        acc.owned = LocalItems::merged(acc.items(), child.items());
        acc.borrowed = nullptr;
      },
      /*wire_bytes=*/
      [this](const Aggregate& m) {
        return m.items().size() * wire_.item_value_pair();
      });

  net::Engine engine(overlay, meter, {.fault = fault_});
  const std::uint64_t rounds =
      net::run_phase(engine, cast, net::kStandaloneConvergecast, 100000);
  ensure(cast.complete(), "naive aggregation did not complete");

  // Ascending ids, so each add appends; the result owns its entries.
  NaiveResult result;
  for (const auto& [id, v] : cast.result().items()) {
    if (v >= threshold) result.frequent.add(id, v);
  }

  const std::uint64_t bytes =
      meter.total(net::TrafficCategory::kNaive) - before;
  result.stats.cost_per_peer =
      static_cast<double>(bytes) / static_cast<double>(overlay.num_peers());
  result.stats.items_per_peer =
      static_cast<double>(bytes) /
      static_cast<double>(wire_.item_value_pair()) /
      static_cast<double>(overlay.num_peers());
  result.stats.rounds = rounds;
  result.stats.num_frequent = result.frequent.size();
  return result;
}

}  // namespace nf::core
