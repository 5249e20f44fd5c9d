// Bootstrap aggregates: v and N (paper §IV).
//
// "We assume that we have the values of v and N through simple aggregate
// computation. To obtain v, each peer contributes a single value ... to
// obtain N, each peer contributes the single value of 1." Both ride one
// convergecast — two aggregate fields per non-root member.
#pragma once

#include <cstdint>
#include <utility>

#include "agg/convergecast.h"
#include "agg/hierarchy.h"
#include "common/item_source.h"
#include "common/wire.h"
#include "net/engine.h"
#include "net/session.h"

namespace nf::agg {

struct BootstrapTotals {
  Value v_total = 0;           ///< Σ over members of local totals
  std::uint64_t num_members = 0;  ///< the paper's N
  std::uint64_t rounds = 0;
};

/// Runs the v/N convergecast over `hierarchy`, charging 2·sa bytes per
/// non-root member under `category`.
[[nodiscard]] inline BootstrapTotals bootstrap_totals(
    const ItemSource& items, const Hierarchy& hierarchy,
    net::Overlay& overlay, net::TrafficMeter& meter, const WireSizes& wire,
    net::TrafficCategory category = net::TrafficCategory::kSampling) {
  using Pair = std::pair<Value, std::uint64_t>;
  ConvergecastPhase<Pair> cast(
      hierarchy, category,
      /*local=*/
      [&](PeerId p) {
        return Pair{items.local_items(p).total(), 1};
      },
      /*merge=*/
      [](Pair& a, Pair&& b) {
        a.first += b.first;
        a.second += b.second;
      },
      /*wire_bytes=*/
      [&wire](const Pair&) { return std::uint64_t{2} * wire.aggregate_bytes; });
  net::Engine engine(overlay, meter, {});
  BootstrapTotals out;
  out.rounds =
      net::run_phase(engine, cast, net::kStandaloneConvergecast, 100000);
  ensure(cast.complete(), "bootstrap aggregate did not complete");
  out.v_total = cast.result().first;
  out.num_members = cast.result().second;
  return out;
}

}  // namespace nf::agg
