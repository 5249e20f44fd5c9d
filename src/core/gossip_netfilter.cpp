#include "core/gossip_netfilter.h"

#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "agg/gossip.h"
#include "common/arena.h"
#include "common/error.h"
#include "core/netfilter.h"
#include "net/flood.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::core {

namespace {

/// Push-sum over sparse <item, mass> maps. Push-sum only needs a vector
/// space — halving and adding — which ValueMap<ItemId, double> provides;
/// the support union emerges as shares mix. The hidden `count` coordinate
/// (1 at the initiator) turns averages into sums, as in agg::PushSumGossip.
/// Shard-safe the same way: per-peer arenas, round counting on the engine
/// thread via on_round_begin.
class MapPushSum final : public net::Protocol {
 public:
  using Map = ValueMap<ItemId, double>;

  MapPushSum(std::vector<Map> initial, PeerId initiator,
             const WireSizes& wire, std::uint32_t rounds, std::uint64_t seed,
             obs::Context* obs = nullptr)
      : x_(std::move(initial)),
        wire_(wire),
        obs_(obs),
        rounds_(rounds),
        num_peers_(x_.size()) {
    count_.assign(num_peers_, 0.0);
    count_[initiator.value()] = 1.0;
    w_.assign(num_peers_, 1.0);
    rng_ = fork_streams(seed, num_peers_);
    pending_parents_.assign(num_peers_, {});
  }

  void on_round_begin(std::uint64_t /*round*/) override {
    ++rounds_done_;
    if (obs_ != nullptr) {
      obs_->tracer.record(obs::EventKind::kGossipRound, "gossip.round",
                          obs::kNoPeer, rounds_done_);
    }
  }

  void on_round(net::Context& ctx) override {
    ctx.wake_next_round();  // every peer shares once per round
    const PeerId self = ctx.self();
    if (rounds_done_ > rounds_) return;

    const auto targets = ctx.overlay().alive_neighbors(self);
    if (targets.empty()) return;
    const PeerId to = targets[rng_[self.value()].below(targets.size())];

    Share out;
    Map& x = x_[self.value()];
    // Halve into the outgoing share, then keep the other half. The pairs
    // come out in x's id order, so neither map needs a sort.
    std::vector<std::pair<ItemId, double>> pairs;
    pairs.reserve(x.size());
    for (const auto& [id, v] : x) pairs.emplace_back(id, v * 0.5);
    out.x = Map::from_sorted(pairs);
    x = out.x;
    out.count = count_[self.value()] * 0.5;
    count_[self.value()] *= 0.5;
    out.w = w_[self.value()] * 0.5;
    w_[self.value()] *= 0.5;

    const std::uint64_t bytes =
        out.x.size() * wire_.item_value_pair() + 2 * wire_.aggregate_bytes;
    if (obs_ != nullptr) {
      obs_->registry.counter("gossip/shares").add(1);
      obs_->registry.histogram("gossip/share_bytes").observe(bytes);
    }
    // Shares merged since the last send are causal parents of this one.
    std::vector<obs::LineageId>& parents = pending_parents_[self.value()];
    ctx.send(to, net::TrafficCategory::kGossip, bytes,
             std::any(std::move(out)),
             std::span<const obs::LineageId>(parents));
    parents.clear();
  }

  void on_message(net::Context& ctx, net::Envelope&& env) override {
    auto* share = std::any_cast<Share>(&env.payload);
    ensure(share != nullptr, "map push-sum payload type mismatch");
    const PeerId self = ctx.self();
    pending_parents_[self.value()].push_back(ctx.cause());
    x_[self.value()].merge_add(share->x);
    count_[self.value()] += share->count;
    w_[self.value()] += share->w;
  }

  [[nodiscard]] bool active() const override {
    return rounds_done_ < rounds_;
  }

  /// Estimated global <id, value> sums at `p`.
  [[nodiscard]] ValueMap<ItemId, double> estimates(PeerId p) const {
    ValueMap<ItemId, double> out;
    const double cnt = count_[p.value()];
    if (cnt <= 0.0) return out;
    for (const auto& [id, v] : x_[p.value()]) {
      out.add(id, v / cnt);
    }
    return out;
  }

 private:
  struct Share {
    Map x;
    double count;
    double w;
  };

  PeerArena<Map> x_;
  PeerArena<double> count_;
  PeerArena<double> w_;
  PeerArena<Rng> rng_;
  PeerArena<std::vector<obs::LineageId>> pending_parents_;
  WireSizes wire_;
  obs::Context* obs_ = nullptr;
  std::uint32_t rounds_;
  std::uint32_t num_peers_;
  std::uint32_t rounds_done_{0};
};

}  // namespace

GossipNetFilter::GossipNetFilter(GossipNetFilterConfig config)
    : config_(config),
      bank_(config.filter_seed, config.num_filters, config.num_groups) {
  config_.validate();
}

GossipNetFilterResult GossipNetFilter::run(
    const ItemSource& items, net::Overlay& overlay, PeerId initiator,
    net::TrafficMeter& meter, Value threshold,
    const ValueMap<ItemId, Value>* oracle) const {
  require(threshold >= 1, "threshold must be >= 1");
  require(overlay.is_alive(initiator), "initiator must be alive");
  const std::uint32_t g = config_.num_groups;
  const std::uint32_t f = config_.num_filters;
  const auto num_peers = overlay.num_peers();
  GossipNetFilterResult result;
  result.stats.threshold = threshold;

  const double prune_bar =
      static_cast<double>(threshold) * (1.0 - config_.slack);

  // ---- Phase 1: push-sum over the f×g group aggregates. ----
  std::vector<std::vector<double>> initial;
  initial.reserve(num_peers);
  for (std::uint32_t p = 0; p < num_peers; ++p) {
    std::vector<double> x(static_cast<std::size_t>(f) * g, 0.0);
    if (overlay.is_alive(PeerId(p))) {
      for (const auto& [id, value] : items.local_items(PeerId(p))) {
        for (std::uint32_t i = 0; i < f; ++i) {
          x[static_cast<std::size_t>(i) * g +
            bank_.filter(i).group_of(id).value()] +=
              static_cast<double>(value);
        }
      }
    }
    initial.push_back(std::move(x));
  }
  const std::uint64_t gossip_before =
      meter.total(net::TrafficCategory::kGossip);
  agg::PushSumGossip::Config p1;
  p1.rounds = config_.phase1_rounds;
  p1.seed = config_.seed;
  p1.bytes_per_coordinate = config_.wire.aggregate_bytes;
  p1.weight_bytes = config_.wire.aggregate_bytes;
  p1.obs = config_.obs;
  agg::PushSumGossip phase1(std::move(initial), p1);
  {
    // Each stage gets its own engine: leftover in-flight shares (or, under
    // the fault model, pending retransmissions) must never be delivered
    // into the next stage's protocol.
    obs::ScopedPhase span(config_.obs, "gossip.phase1");
    net::Engine engine(overlay, meter, config_);
    result.stats.rounds +=
        engine.run(phase1, std::uint64_t{p1.rounds} * 4 + 10);
  }
  result.stats.phase1_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kGossip) -
                          gossip_before) /
      num_peers;

  // The initiator prunes with slack against its own estimates.
  HeavyGroupSet heavy;
  heavy.heavy.assign(f, std::vector<bool>(g, false));
  for (std::uint32_t i = 0; i < f; ++i) {
    for (std::uint32_t j = 0; j < g; ++j) {
      const double est = phase1.estimate_sum(
          initiator, static_cast<std::size_t>(i) * g + j);
      heavy.heavy[i][j] = est >= prune_bar;
    }
  }
  const std::uint64_t heavy_total = heavy.total();
  result.stats.heavy_groups_total = heavy_total;

  // ---- Dissemination: flood the heavy bitmap. ----
  const std::uint64_t flood_before =
      meter.total(net::TrafficCategory::kDissemination);
  std::vector<ValueMap<ItemId, double>> partial(num_peers);
  const net::Bytes heavy_encoded = encode_heavy_groups(heavy);
  HeavySetReceipts receipts(num_peers, f, g);
  receipts.install(heavy_encoded);
  net::FlatFloodPhase flood(
      initiator, heavy_encoded, heavy_total * config_.wire.group_id_bytes,
      net::TrafficCategory::kDissemination, config_.flood_ttl,
      [&](net::PhaseContext& ctx, std::span<const std::uint8_t> body) {
        const PeerId p = ctx.self();
        if (!overlay.is_alive(p)) return;
        receipts.receive(p, body);
        const HeavyGroupSet& received = receipts.of(p);
        for (const auto& [id, value] : items.local_items(p)) {
          if (received.passes(id, bank_)) {
            partial[p.value()].add(id, static_cast<double>(value));
          }
        }
      });
  {
    obs::ScopedPhase span(config_.obs, "gossip.flood");
    net::Engine engine(overlay, meter, config_);
    result.stats.rounds +=
        net::run_phase(engine, flood, net::kStandaloneBroadcast,
                       std::uint64_t{config_.flood_ttl} * 4 + 10);
  }
  result.stats.flood_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kDissemination) -
                          flood_before) /
      num_peers;

  // ---- Phase 2: push-sum over the sparse candidate maps. ----
  const std::uint64_t phase2_before =
      meter.total(net::TrafficCategory::kGossip);
  MapPushSum phase2(std::move(partial), initiator, config_.wire,
                    config_.phase2_rounds, config_.seed ^ 0xABCDEFull,
                    config_.obs);
  {
    obs::ScopedPhase span(config_.obs, "gossip.phase2");
    net::Engine engine(overlay, meter, config_);
    result.stats.rounds +=
        engine.run(phase2, std::uint64_t{config_.phase2_rounds} * 4 + 10);
  }
  result.stats.phase2_cost =
      static_cast<double>(meter.total(net::TrafficCategory::kGossip) -
                          phase2_before) /
      num_peers;

  const auto estimates = phase2.estimates(initiator);
  result.stats.num_candidates = estimates.size();
  for (const auto& [id, est] : estimates) {
    if (est >= prune_bar) {
      result.reported.add(
          id, static_cast<Value>(std::llround(std::max(est, 0.0))));
    }
  }
  result.stats.num_reported = result.reported.size();

  if (oracle != nullptr) {
    for (const auto& [id, v] : result.reported) {
      if (!oracle->contains(id)) {
        ++result.stats.false_positives;
      } else {
        const auto truth = static_cast<double>(oracle->value_of(id));
        result.stats.max_value_rel_error =
            std::max(result.stats.max_value_rel_error,
                     std::abs(static_cast<double>(v) - truth) / truth);
      }
    }
    for (const auto& [id, v] : *oracle) {
      if (!result.reported.contains(id)) ++result.stats.false_negatives;
    }
  }
  return result;
}

}  // namespace nf::core
