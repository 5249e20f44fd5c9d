#include "core/tuner.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "core/cost_model.h"

namespace nf::core {

namespace {

/// Predicted (barriered rounds, per-peer bytes) for one (g, f) candidate
/// under a bottleneck link of `capacity` bytes/round and tree depth
/// `depth`. Messages per phase hop: sa·f·g filtering, sg·f·r̂
/// dissemination (Σ_f w_f ≈ f·r̂ heavy ids), (sa+si)·(r̂+fp2) aggregation.
struct PredictedCost {
  double rounds;
  double bytes;
};

PredictedCost predict(const WireSizes& wire, double g, double f, double n_hat,
                      double r_hat, double depth, double capacity) {
  const double fp2 = cost_model::expected_fp2(n_hat, r_hat, g, f);
  const double bytes =
      cost_model::netfilter_cost(wire, f, g, r_hat, r_hat, fp2);
  const double rounds =
      cost_model::phase_rounds(wire.aggregate_bytes * f * g, depth,
                               capacity) +
      cost_model::phase_rounds(wire.group_id_bytes * f * r_hat, depth,
                               capacity) +
      cost_model::phase_rounds(
          static_cast<double>(wire.item_value_pair()) * (r_hat + fp2), depth,
          capacity);
  return {rounds, bytes};
}

}  // namespace

TunedSetting tune(const ItemSource& items, const agg::Hierarchy& hierarchy,
                  double theta, const TunerConfig& config,
                  net::TrafficMeter* meter) {
  require(theta > 0.0 && theta <= 1.0, "theta must be in (0,1]");

  // Bootstrap aggregates for v (and N, which the hierarchy already knows):
  // each peer contributes a single value (paper §IV). The sum is taken
  // directly and charged one aggregate field per non-root member, the cost
  // of one value riding a convergecast up the hierarchy.
  TunedSetting out;
  for (std::uint32_t p = 0; p < items.num_peers(); ++p) {
    const PeerId id(p);
    if (!hierarchy.is_member(id)) continue;
    out.v_total += items.local_items(id).total();
    if (meter != nullptr && id != hierarchy.root()) {
      meter->record(id, net::TrafficCategory::kSampling,
                    config.wire.aggregate_bytes);
    }
  }
  require(out.v_total > 0, "system holds no items");
  out.threshold = static_cast<Value>(
      std::ceil(theta * static_cast<double>(out.v_total)));

  out.estimates = agg::sample_estimates(hierarchy, items, out.v_total,
                                        out.threshold, config.sampling, meter);

  // Formula 3. If the sample saw no light items (tiny universe or huge
  // sample), fall back to v̄ itself — every group then holds ~1/θ of the
  // mass budget.
  const double v_bar = std::max(out.estimates.v_bar, 1e-9);
  const double v_light =
      out.estimates.v_bar_light > 0.0 ? out.estimates.v_bar_light : v_bar;
  const double g_opt = cost_model::optimal_num_groups(
      v_light, theta, v_bar, config.g_constant);
  out.num_groups = std::clamp(
      static_cast<std::uint32_t>(std::lround(g_opt)), config.min_groups,
      config.max_groups);

  // Formula 6 wants n and r.
  const double n_hat = std::max(out.estimates.n_hat, 1.0);
  const double r_hat = std::clamp(out.estimates.r_hat, 1.0, n_hat);
  out.num_filters = std::min(
      config.max_filters,
      cost_model::optimal_num_filters(config.wire, n_hat, r_hat,
                                      out.num_groups));

  const double depth =
      hierarchy.height() > 0 ? hierarchy.height() - 1.0 : 0.0;
  if (!config.link.capacity_limited()) {
    // Infinite capacity: Formulae 3/6 are the byte optimum and every
    // configuration takes the same 3-wave round count — keep the paper's
    // closed-form choice and just record its predictions.
    const PredictedCost p =
        predict(config.wire, out.num_groups, out.num_filters, n_hat, r_hat,
                depth, static_cast<double>(net::kInfiniteCapacity));
    out.predicted_rounds = p.rounds;
    out.predicted_bytes = p.bytes;
    return out;
  }

  // Congestion-aware selection: under a finite bottleneck the filtering
  // wave pays ceil(sa·f·g / c) rounds per level, so the byte-optimal (g, f)
  // can be strictly dominated by a smaller filter that fits the link. Grid
  // over geometric g steps (plus the Formula-3 point) and every f, and take
  // the lexicographic (rounds, bytes) minimum; first-wins ties keep the
  // choice deterministic.
  double bottleneck = static_cast<double>(net::kInfiniteCapacity);
  for (std::uint32_t p = 0; p < items.num_peers(); ++p) {
    const PeerId id(p);
    if (!hierarchy.is_member(id) || id == hierarchy.root()) continue;
    const auto cap = static_cast<double>(
        config.link.capacity(id, hierarchy.upstream(id)));
    if (cap < bottleneck) bottleneck = cap;
  }
  std::vector<std::uint32_t> grid;
  for (std::uint64_t g64 = config.min_groups; g64 <= config.max_groups;
       g64 *= 2) {
    grid.push_back(static_cast<std::uint32_t>(g64));
  }
  grid.push_back(out.num_groups);
  std::sort(grid.begin(), grid.end());
  grid.erase(std::unique(grid.begin(), grid.end()), grid.end());

  std::uint32_t best_g = out.num_groups;
  std::uint32_t best_f = out.num_filters;
  PredictedCost best = predict(config.wire, best_g, best_f, n_hat, r_hat,
                               depth, bottleneck);
  for (const std::uint32_t g_cand : grid) {
    for (std::uint32_t f_cand = 1; f_cand <= config.max_filters; ++f_cand) {
      const PredictedCost p = predict(config.wire, g_cand, f_cand, n_hat,
                                      r_hat, depth, bottleneck);
      if (p.rounds < best.rounds ||
          (p.rounds == best.rounds && p.bytes < best.bytes)) {
        best = p;
        best_g = g_cand;
        best_f = f_cand;
      }
    }
  }
  out.num_groups = best_g;
  out.num_filters = best_f;
  out.predicted_rounds = best.rounds;
  out.predicted_bytes = best.bytes;
  return out;
}

}  // namespace nf::core
