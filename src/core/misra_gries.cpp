#include "core/misra_gries.h"

#include <algorithm>
#include <cmath>

#include "agg/convergecast.h"
#include "common/error.h"
#include "net/session.h"

namespace nf::core {

MisraGries::MisraGries(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "Misra-Gries needs at least one counter");
}

void MisraGries::add(ItemId item, Value weight) {
  counters_.add(item, weight);
  if (counters_.size() > capacity_) shrink();
}

void MisraGries::merge(const MisraGries& other) {
  require(capacity_ == other.capacity_, "capacity mismatch");
  counters_.merge_add(other.counters_);
  decremented_ += other.decremented_;
  if (counters_.size() > capacity_) shrink();
}

void MisraGries::shrink() {
  // Subtract the (capacity+1)-th largest count from everything and drop the
  // non-positive remainder; at most `capacity` counters survive.
  std::vector<Value> counts;
  counts.reserve(counters_.size());
  for (const auto& [id, v] : counters_) counts.push_back(v);
  // nth_element for the (capacity+1)-th largest == index capacity_ in
  // descending order.
  std::nth_element(counts.begin(),
                   counts.begin() + static_cast<std::ptrdiff_t>(capacity_),
                   counts.end(), std::greater<>());
  const Value cut = counts[capacity_];
  decremented_ += cut;
  ValueMap<ItemId, Value> kept;
  kept.reserve(capacity_);
  std::vector<std::pair<ItemId, Value>> pairs;
  pairs.reserve(counters_.size());
  for (const auto& [id, v] : counters_) {
    if (v > cut) pairs.emplace_back(id, v - cut);
  }
  counters_ = ValueMap<ItemId, Value>::from_unsorted(std::move(pairs));
  ensure(counters_.size() <= capacity_, "shrink failed to enforce capacity");
}

Value MisraGries::estimate(ItemId item) const {
  return counters_.value_of(item);
}

ApproxCollector::ApproxCollector(WireSizes wire, double epsilon)
    : wire_(wire) {
  require(epsilon > 0.0 && epsilon <= 1.0, "epsilon must be in (0,1]");
  capacity_ = static_cast<std::size_t>(std::ceil(1.0 / epsilon));
}

ApproxResult ApproxCollector::run(const ItemSource& items,
                                  const agg::Hierarchy& hierarchy,
                                  net::Overlay& overlay,
                                  net::TrafficMeter& meter, Value threshold,
                                  const ValueMap<ItemId, Value>* oracle) const {
  require(threshold >= 1, "threshold must be >= 1");
  const std::uint64_t before = meter.total(net::TrafficCategory::kApprox);

  agg::ConvergecastPhase<MisraGries> cast(
      hierarchy, net::TrafficCategory::kApprox,
      /*local=*/
      [&](PeerId p) {
        MisraGries sketch(capacity_);
        for (const auto& [id, v] : items.local_items(p)) sketch.add(id, v);
        return sketch;
      },
      /*merge=*/
      [](MisraGries& acc, MisraGries&& child) { acc.merge(child); },
      /*wire_bytes=*/
      [this](const MisraGries& s) { return s.wire_bytes(wire_); });

  net::Engine engine(overlay, meter, {});
  const std::uint64_t rounds =
      net::run_phase(engine, cast, net::kStandaloneConvergecast, 100000);
  ensure(cast.complete(), "sketch aggregation did not complete");

  const MisraGries& merged = cast.result();
  ApproxResult result;
  // Report every item whose upper bound reaches the threshold.
  const Value slack = merged.error_bound();
  for (const auto& [id, v] : merged.counters()) {
    if (v + slack >= threshold) result.reported.add(id, v);
  }

  result.stats.rounds = rounds;
  result.stats.num_reported = result.reported.size();
  result.stats.cost_per_peer =
      static_cast<double>(meter.total(net::TrafficCategory::kApprox) -
                          before) /
      static_cast<double>(overlay.num_peers());

  if (oracle != nullptr) {
    for (const auto& [id, v] : result.reported) {
      if (!oracle->contains(id)) {
        ++result.stats.false_positives;
      } else {
        const double err = std::abs(static_cast<double>(oracle->value_of(id)) -
                                    static_cast<double>(v));
        result.stats.max_value_error =
            std::max(result.stats.max_value_error, err);
      }
    }
    for (const auto& [id, v] : *oracle) {
      if (!result.reported.contains(id)) ++result.stats.false_negatives;
    }
  }
  return result;
}

}  // namespace nf::core
