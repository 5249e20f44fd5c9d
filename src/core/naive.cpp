#include "core/naive.h"

#include "agg/convergecast.h"
#include "common/error.h"
#include "core/host_report.h"
#include "net/session.h"

namespace nf::core {

NaiveResult NaiveCollector::run(const ItemSource& items,
                                const agg::Hierarchy& hierarchy,
                                net::Overlay& overlay,
                                net::TrafficMeter& meter,
                                Value threshold) const {
  require(threshold >= 1, "threshold must be >= 1");
  const std::uint64_t before = meter.total(net::TrafficCategory::kNaive);
  const EffectiveItems effective(items, hierarchy, overlay, wire_, &meter);

  agg::ConvergecastPhase<LocalItems> cast(
      hierarchy, net::TrafficCategory::kNaive,
      /*local=*/[&](PeerId p) { return effective.local_items(p); },
      /*merge=*/
      [](LocalItems& acc, LocalItems&& child) { acc.merge_add(child); },
      /*wire_bytes=*/
      [this](const LocalItems& m) {
        return m.size() * wire_.item_value_pair();
      });

  net::Engine engine(overlay, meter, {.fault = fault_});
  const std::uint64_t rounds =
      net::run_phase(engine, cast, net::kStandaloneConvergecast, 100000);
  ensure(cast.complete(), "naive aggregation did not complete");

  NaiveResult result;
  result.frequent = cast.result();
  result.frequent.retain([&](ItemId, Value v) { return v >= threshold; });

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
