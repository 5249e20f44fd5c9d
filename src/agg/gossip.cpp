#include "agg/gossip.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.h"

namespace nf::agg {

PushSumGossip::PushSumGossip(std::vector<std::vector<double>> initial,
                             Config config)
    : config_(config), x_(std::move(initial)) {
  require(!x_.empty(), "push-sum needs at least one peer");
  dimension_ = x_[0u].size();
  for (const auto& v : x_) {
    require(v.size() == dimension_, "all initial vectors must share one size");
  }
  num_peers_ = x_.size();
  count_.assign(num_peers_, 0.0);
  count_[0u] = 1.0;
  w_.assign(num_peers_, 1.0);
  rng_ = fork_streams(config_.seed, num_peers_);
  pending_parents_.assign(num_peers_, {});
}

void PushSumGossip::on_round_begin(std::uint64_t /*round*/) {
  ++rounds_done_;
  if (config_.obs != nullptr) {
    config_.obs->tracer.record(obs::EventKind::kGossipRound, "gossip.round",
                               obs::kNoPeer, rounds_done_);
  }
}

void PushSumGossip::on_round(net::Context& ctx) {
  ctx.wake_next_round();  // every peer shares once per round
  const PeerId self = ctx.self();
  if (rounds_done_ > config_.rounds) return;

  auto& x = x_[self.value()];
  auto& cnt = count_[self.value()];
  auto& w = w_[self.value()];

  const auto targets = ctx.overlay().alive_neighbors(self);
  if (targets.empty()) return;
  const PeerId to =
      targets[rng_[self.value()].below(targets.size())];

  Share out;
  out.x.resize(dimension_);
  for (std::size_t i = 0; i < dimension_; ++i) {
    out.x[i] = x[i] * 0.5;
    x[i] *= 0.5;
  }
  out.count = cnt * 0.5;
  cnt *= 0.5;
  out.w = w * 0.5;
  w *= 0.5;

  const std::uint64_t bytes =
      static_cast<std::uint64_t>(dimension_ + 1) *
          config_.bytes_per_coordinate +
      config_.weight_bytes;
  if (config_.obs != nullptr) {
    config_.obs->registry.counter("gossip/shares").add(1);
    config_.obs->registry.histogram("gossip/share_bytes").observe(bytes);
  }
  // The outgoing share carries half of everything merged so far; every
  // share received since the last send is a causal parent.
  std::vector<obs::LineageId>& parents = pending_parents_[self.value()];
  ctx.send(to, net::TrafficCategory::kGossip, bytes, std::any(std::move(out)),
           std::span<const obs::LineageId>(parents));
  parents.clear();
}

void PushSumGossip::on_message(net::Context& ctx, net::Envelope&& env) {
  const Share* share = std::any_cast<Share>(&env.payload);
  ensure(share != nullptr, "gossip payload type mismatch");
  const PeerId self = ctx.self();
  pending_parents_[self.value()].push_back(ctx.cause());
  auto& x = x_[self.value()];
  for (std::size_t i = 0; i < dimension_; ++i) x[i] += share->x[i];
  count_[self.value()] += share->count;
  w_[self.value()] += share->w;
}

double PushSumGossip::estimate_sum(PeerId p, std::size_t i) const {
  require(i < dimension_, "coordinate out of range");
  const double cnt = count_[p.value()];
  // x/w is the average estimate; count/w estimates 1/N; their ratio is the
  // sum. Peers that have not yet mixed with peer 0 have count == 0.
  if (cnt <= 0.0) return 0.0;
  return x_[p.value()][i] / cnt;
}

double PushSumGossip::total_mass(std::size_t i) const {
  require(i < dimension_, "coordinate out of range");
  double sum = 0.0;
  for (std::uint32_t p = 0; p < num_peers_; ++p) sum += x_[p][i];
  return sum;
}

double PushSumGossip::relative_spread(std::size_t i) const {
  require(i < dimension_, "coordinate out of range");
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (std::uint32_t p = 0; p < num_peers_; ++p) {
    const double e = estimate_sum(PeerId(p), i);
    lo = std::min(lo, e);
    hi = std::max(hi, e);
  }
  if (hi == 0.0 && lo == 0.0) return 0.0;
  const double mid = 0.5 * (hi + lo);
  return mid != 0.0 ? (hi - lo) / std::abs(mid)
                    : std::numeric_limits<double>::infinity();
}

}  // namespace nf::agg
