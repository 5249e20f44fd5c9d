#include "core/netfilter.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <utility>

#include "agg/flat_phases.h"
#include "common/arena.h"
#include "common/error.h"
#include "core/cost_model.h"
#include "core/host_report.h"
#include "core/ifi_session.h"
#include "net/codec.h"
#include "net/session.h"
#include "obs/context.h"

namespace nf::core {

namespace {

/// Items per stack chunk of materialize_candidates: perfbench's ~192 and
/// fig7's ~100 local items take one chunk.
constexpr std::size_t kMaterializeChunk = 1024;

/// Items per stack block of local_group_aggregates_into: perfbench's ~192
/// local items take one block, and one filter's indices stay in L1 until
/// they are scattered.
constexpr std::size_t kAggregateBlock = 256;

double per_peer(std::uint64_t bytes, std::uint32_t num_peers) {
  return static_cast<double>(bytes) / static_cast<double>(num_peers);
}

}  // namespace

// Predicted per-peer phase costs from the analytic model vs what the
// TrafficMeter (or a session tally) actually charged; varint or lossy runs
// are skipped (their bytes are legitimately different from the formula).
//
// Gated vs advisory: filtering and dissemination are exact by construction
// (modulo the root, which receives but never sends — hence the (n-1)/n
// factor), so they gate. Aggregation is the paper's upper bound — a
// candidate pair travels once per tree edge on its path, not once total —
// so it and the lumped F1 total are advisory.
void record_netfilter_conformance(const NetFilterConfig& config,
                                  const NetFilterStats& s,
                                  std::uint32_t num_peers) {
  obs::Context* obs = config.obs;
  if (obs == nullptr) return;
  if (config.wire_model != WireModel::kFlatFields) return;
  if (config.fault.loss_probability > 0.0) return;

  const double n = num_peers;
  const double non_root = (n - 1.0) / n;
  const double f = config.num_filters;
  const double g = config.num_groups;
  const double w_total = static_cast<double>(s.heavy_groups_total);
  const double r = static_cast<double>(s.num_frequent);
  const double fp = static_cast<double>(s.num_false_positives);

  obs::ConformanceReport& report = obs->conformance;
  report.begin_run();
  report.set_param("num_peers", n);
  report.set_param("num_filters", f);
  report.set_param("num_groups", g);
  report.set_param("threshold", static_cast<double>(s.threshold));
  report.set_param("heavy_groups_total", w_total);
  report.set_param("num_candidates", static_cast<double>(s.num_candidates));
  report.set_param("num_frequent", r);
  report.set_param("num_false_positives", fp);

  report.add_check("F1.filtering",
                   cost_model::filtering_term(config.wire, f, g) * non_root,
                   s.filtering_cost, /*gated=*/true);
  // dissemination_term is sg·f·w with w per filter; Σ_f w_f is already the
  // total, so f drops out.
  report.add_check(
      "F1.dissemination",
      cost_model::dissemination_term(config.wire, 1.0, w_total) * non_root,
      s.dissemination_cost, /*gated=*/true);
  report.add_check(
      "F1.aggregation_ub",
      cost_model::aggregation_term(config.wire, r, fp) * non_root,
      s.aggregation_cost, /*gated=*/false);
  report.add_check("F1.total",
                   cost_model::netfilter_cost(config.wire, f, g,
                                              f > 0.0 ? w_total / f : 0.0, r,
                                              fp) *
                       non_root,
                   s.total_cost(), /*gated=*/false);

  // Per-level split of the two exact terms, accumulated into the link_stats
  // predictions (schema v6): each member at depth d pushes one sa·f·g
  // filtering message up its level-d link and receives one sg·W
  // dissemination copy over it, so the level terms are member counts times
  // the per-peer terms — `nf-inspect levels` reconciles the charged
  // per-level bytes against these to <1%. Accumulating (+=) per run keeps
  // predictions in lockstep with the observed matrix across a sweep.
  // nf-lint: nf-obs-context-ok (null-checked at function entry)
  obs::LinkStats& ls = obs->link_stats;
  for (std::uint32_t d = 1; d < ls.num_levels(); ++d) {
    const auto members = static_cast<double>(ls.level_peers(d));
    ls.add_prediction(
        d, static_cast<std::size_t>(net::TrafficCategory::kFiltering),
        cost_model::filtering_level_bytes(config.wire, f, g, members));
    ls.add_prediction(
        d, static_cast<std::size_t>(net::TrafficCategory::kDissemination),
        cost_model::dissemination_level_bytes(config.wire, w_total, members));
  }
}

HeavyGroupSet::HeavyGroupSet(std::uint32_t num_filters,
                             std::uint32_t num_groups)
    : num_filters_(num_filters),
      num_groups_(num_groups),
      words_per_row_((num_groups + 63) / 64),
      words_(std::size_t{num_filters} * words_per_row_, 0) {}

HeavyGroupSet::HeavyGroupSet(std::span<const Value> global,
                             std::uint32_t num_filters,
                             std::uint32_t num_groups, Value threshold)
    : HeavyGroupSet(num_filters, num_groups) {
  require(global.size() == std::size_t{num_filters} * num_groups,
          "global aggregates are not f*g wide");
  for (std::uint32_t i = 0; i < num_filters; ++i) {
    const Value* row = global.data() + std::size_t{i} * num_groups;
    std::uint64_t* bits = words_.data() + std::size_t{i} * words_per_row_;
    for (std::uint32_t j = 0; j < num_groups; ++j) {
      bits[j / 64] |= std::uint64_t{row[j] >= threshold} << (j % 64);
    }
  }
}

void HeavyGroupSet::set(std::uint32_t filter, std::uint32_t group) {
  require(filter < num_filters_ && group < num_groups_,
          "heavy group out of range");
  words_[std::size_t{filter} * words_per_row_ + group / 64] |=
      std::uint64_t{1} << (group % 64);
}

std::uint64_t HeavyGroupSet::total() const {
  std::uint64_t t = 0;
  for (const std::uint64_t word : words_) {
    t += static_cast<std::uint64_t>(std::popcount(word));
  }
  return t;
}

net::Bytes encode_heavy_groups(const HeavyGroupSet& heavy) {
  std::vector<std::uint64_t> ids;
  ids.reserve(heavy.total());
  const std::uint32_t g = heavy.num_groups_;
  const std::uint32_t words = heavy.words_per_row_;
  for (std::uint32_t i = 0; i < heavy.num_filters_; ++i) {
    for (std::uint32_t w = 0; w < words; ++w) {
      const std::uint64_t base = std::uint64_t{i} * g + std::uint64_t{w} * 64;
      for (std::uint64_t word = heavy.words_[std::size_t{i} * words + w];
           word != 0; word &= word - 1) {
        ids.push_back(base +
                      static_cast<std::uint64_t>(std::countr_zero(word)));
      }
    }
  }
  return net::encode_sorted_ids(ids);
}

HeavyGroupSet decode_heavy_groups(std::span<const std::uint8_t> in,
                                  std::uint32_t num_filters,
                                  std::uint32_t num_groups) {
  HeavyGroupSet out(num_filters, num_groups);
  const std::uint64_t num_ids = std::uint64_t{num_filters} * num_groups;
  for (const std::uint64_t id : net::decode_sorted_ids(in)) {
    ensure(id < num_ids, "heavy group id out of filter range");
    const std::uint64_t i = id / num_groups;
    const std::uint64_t j = id % num_groups;
    out.words_[static_cast<std::size_t>(i * out.words_per_row_ + j / 64)] |=
        std::uint64_t{1} << (j % 64);
  }
  return out;
}

HeavySetReceipts::HeavySetReceipts(std::uint32_t num_peers,
                                   std::uint32_t num_filters,
                                   std::uint32_t num_groups)
    : num_filters_(num_filters),
      num_groups_(num_groups),
      received_(num_peers, nullptr),
      own_(num_peers) {}

void HeavySetReceipts::install(std::span<const std::uint8_t> encoded) {
  ensure(!has_installed_.load(), "heavy set payload installed twice");
  installed_ = decode_heavy_groups(encoded, num_filters_, num_groups_);
  installed_bytes_.assign(encoded.begin(), encoded.end());
  has_installed_.store(true);
}

void HeavySetReceipts::receive(PeerId p,
                               std::span<const std::uint8_t> encoded) {
  if (has_installed_.load() && encoded.size() == installed_bytes_.size() &&
      std::equal(encoded.begin(), encoded.end(), installed_bytes_.begin())) {
    received_[p] = &installed_;
    return;
  }
  own_[p] = std::make_unique<const HeavyGroupSet>(
      decode_heavy_groups(encoded, num_filters_, num_groups_));
  received_[p] = own_[p].get();
}

const HeavyGroupSet& HeavySetReceipts::of(PeerId p) const {
  const HeavyGroupSet* set = received_[p];
  ensure(set != nullptr, "peer aggregating before the heavy set reached it");
  return *set;
}

NetFilter::NetFilter(NetFilterConfig config)
    : config_(config),
      bank_(config.filter_seed, config.num_filters, config.num_groups) {
  config_.validate();
}

std::vector<Value> NetFilter::local_group_aggregates(
    const LocalItems& items) const {
  std::vector<Value> agg(
      static_cast<std::size_t>(config_.num_filters) * config_.num_groups, 0);
  local_group_aggregates_into(items, agg);
  return agg;
}

void NetFilter::local_group_aggregates_into(const LocalItems& items,
                                            std::span<Value> out) const {
  const std::uint32_t g = config_.num_groups;
  const std::uint32_t f = config_.num_filters;
  ensure(out.size() == static_cast<std::size_t>(f) * g,
         "aggregate span size mismatch");
  std::fill(out.begin(), out.end(), 0);
  // Block by block: the block's ids are hashed under each filter into one
  // index block, whose sums are then scattered into that filter's g-wide
  // row; the size check above bounds every index.
  const std::span<const LocalItems::value_type> pairs(items.begin(),
                                                      items.end());
  const std::span<const GroupHash> filters = bank_.filters();
  std::array<std::uint64_t, kAggregateBlock> ids;  // written before read
  std::array<std::uint32_t, kAggregateBlock> index;  // written before read
  for (std::size_t base = 0; base < pairs.size(); base += ids.size()) {
    const std::span<const LocalItems::value_type> block = pairs.subspan(
        base, std::min(ids.size(), pairs.size() - base));
    for (std::size_t k = 0; k < block.size(); ++k) {
      ids[k] = block[k].first.value();
    }
    Value* row = out.data();
    for (const GroupHash& filter : filters) {
      filter.group_block(std::span(ids).first(block.size()), index);
      for (std::size_t k = 0; k < block.size(); ++k) {
        row[index[k]] += block[k].second;
      }
      row += g;
    }
  }
}

// A branch-free cascade, chunk by chunk so the survivors' offsets fit one
// stack buffer. The batch kernel hashes the whole chunk under filter 0,
// then only the survivors of the filter before under each later one. Each
// filter's pass writes every survivor's offset and advances the cursor by
// its heavy bit, so no per-item branch can mispredict; most items fail
// early (70-95 % fail filter 0 on perfbench's data). The survivors keep
// the local set's order, so the result is built by appending them, with no
// sort. The first chunk reserves the map exactly; up to kMaterializeChunk
// local items it is the only one.
LocalItems NetFilter::materialize_candidates(const LocalItems& items,
                                             const HeavyGroupSet& heavy) const {
  require(heavy.matches(bank_), "heavy group set does not match the bank");
  const std::span<const LocalItems::value_type> pairs(items.begin(),
                                                      items.end());
  const std::span<const GroupHash> filters = bank_.filters();
  LocalItems out;
  // All three are written before they are read.
  std::array<std::uint64_t, kMaterializeChunk> ids;
  std::array<std::uint32_t, kMaterializeChunk> group;
  std::array<std::uint32_t, kMaterializeChunk> keep;
  for (std::size_t base = 0; base < pairs.size(); base += keep.size()) {
    const std::span<const LocalItems::value_type> chunk = pairs.subspan(
        base, std::min(keep.size(), pairs.size() - base));
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      ids[k] = chunk[k].first.value();
    }
    filters[0].group_block(std::span(ids).first(chunk.size()), group);
    std::size_t n = 0;
    for (std::size_t k = 0; k < chunk.size(); ++k) {
      keep[n] = static_cast<std::uint32_t>(k);
      n += heavy.is_heavy(0, group[k]);
    }
    for (std::uint32_t i = 1; i < filters.size() && n > 0; ++i) {
      for (std::size_t s = 0; s < n; ++s) {
        ids[s] = chunk[keep[s]].first.value();
      }
      filters[i].group_block(std::span(ids).first(n), group);
      std::size_t m = 0;
      for (std::size_t s = 0; s < n; ++s) {
        keep[m] = keep[s];
        m += heavy.is_heavy(i, group[s]);
      }
      n = m;
    }
    if (base == 0) out.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
      out.add(chunk[keep[s]].first, chunk[keep[s]].second);  // ascending
    }
  }
  return out;
}

HeavyGroupSet NetFilter::filter_candidates(const ItemSource& items,
                                           const agg::Hierarchy& hierarchy,
                                           net::Overlay& overlay,
                                           net::TrafficMeter& meter,
                                           Value threshold,
                                           NetFilterStats* stats) const {
  require(threshold >= 1, "threshold must be >= 1");
  obs::ScopedPhase phase(config_.obs, "filtering");
  const std::uint32_t g = config_.num_groups;
  const std::uint32_t f = config_.num_filters;
  const std::uint64_t before = meter.total(net::TrafficCategory::kFiltering);

  // Under the paper's model every peer propagates sa bytes per item group
  // per filter (§IV-A: candidate filtering cost = sa·f·g), regardless of
  // sparsity; under kVarintDelta the actual varint encoding is priced —
  // which is exactly the encoded slab length, so flat_bytes=0 (charge the
  // wire length) reproduces the legacy byte tallies bit for bit.
  const std::uint64_t flat_bytes =
      config_.wire_model == WireModel::kFlatFields
          ? std::uint64_t{config_.wire.aggregate_bytes} * f * g
          : 0;

  agg::FlatAggregateConvergecastPhase cast(
      hierarchy, net::TrafficCategory::kFiltering, /*width=*/f * g,
      /*local=*/
      [&](PeerId p, std::span<std::uint64_t> out) {
        local_group_aggregates_into(items.local_items(p), out);
      },
      flat_bytes, config_.obs);

  net::Engine engine(overlay, meter, config_);
  const std::uint64_t rounds =
      net::run_phase(engine, cast, net::kStandaloneConvergecast,
                     config_.max_rounds_per_phase, config_.obs);
  ensure(cast.complete(), "candidate filtering did not complete");

  const HeavyGroupSet heavy(cast.result(), f, g, threshold);

  if (stats != nullptr) {
    stats->threshold = threshold;
    stats->heavy_groups_total = heavy.total();
    stats->rounds_filtering = rounds;
    stats->filtering_cost =
        per_peer(meter.total(net::TrafficCategory::kFiltering) - before,
                 overlay.num_peers());
  }
  obs::add_counter(config_.obs, "netfilter/heavy_groups", heavy.total());
  return heavy;
}

NetFilterResult NetFilter::verify_candidates(
    const ItemSource& items, const agg::Hierarchy& hierarchy,
    net::Overlay& overlay, net::TrafficMeter& meter, Value threshold,
    const HeavyGroupSet& heavy, NetFilterStats stats) const {
  const std::uint64_t dissemination_before =
      meter.total(net::TrafficCategory::kDissemination);
  const std::uint64_t aggregation_before =
      meter.total(net::TrafficCategory::kAggregation);

  // Phase 2a: the root propagates the heavy group identifiers downwards
  // (Algorithm 2, line 1). The wire always carries the delta-coded id list;
  // the flat model charges sg per heavy group id, kVarintDelta charges the
  // encoded length itself.
  const net::Bytes heavy_encoded = encode_heavy_groups(heavy);
  const std::uint64_t dissemination_bytes =
      config_.wire_model == WireModel::kFlatFields
          ? heavy.total() * config_.wire.group_id_bytes
          : heavy_encoded.size();

  // Phase 2b: each peer records the heavy set that reached it and
  // materializes its candidates (Algorithm 2, line 2) when its aggregation
  // opens; the <id, value> pairs merge bottom-up (lines 3-4). The downward
  // wave strictly precedes the upward one — no peer can contribute before
  // it has the heavy list — so the two protocols run back to back.
  HeavySetReceipts receipts(overlay.num_peers(), config_.num_filters,
                            config_.num_groups);
  receipts.install(heavy_encoded);

  agg::FlatMulticastPhase down(
      hierarchy, net::TrafficCategory::kDissemination,
      /*on_receive=*/
      [&](net::PhaseContext& ctx, std::span<const std::uint8_t> body) {
        receipts.receive(ctx.self(), body);
      },
      config_.obs);
  down.set_payload(heavy_encoded, dissemination_bytes);

  net::Engine engine(overlay, meter, config_);
  std::uint64_t down_rounds = 0;
  {
    obs::ScopedPhase phase(config_.obs, "dissemination");
    down_rounds = net::run_phase(engine, down, net::kStandaloneBroadcast,
                                 config_.max_rounds_per_phase, config_.obs);
  }
  ensure(down.complete(), "dissemination did not complete");

  // kVarintDelta charges the encoded pair list — the slab bytes themselves —
  // so an empty WireBytesFn (charge the wire length) is the exact model.
  agg::FlatPairsConvergecastPhase::WireBytesFn pair_bytes;
  if (config_.wire_model == WireModel::kFlatFields) {
    pair_bytes = [this](const LocalItems& m) {
      return m.size() * config_.wire.item_value_pair();
    };
  }
  agg::FlatPairsConvergecastPhase up(
      hierarchy, net::TrafficCategory::kAggregation,
      /*local=*/
      [&](PeerId p) {
        return materialize_candidates(items.local_items(p), receipts.of(p));
      },
      std::move(pair_bytes), config_.obs);
  std::uint64_t up_rounds = 0;
  {
    obs::ScopedPhase phase(config_.obs, "aggregation");
    up_rounds = net::run_phase(engine, up, net::kStandaloneConvergecast,
                               config_.max_rounds_per_phase, config_.obs);
  }
  ensure(up.complete(), "candidate aggregation did not complete");

  NetFilterResult result;
  const LocalItems& candidates = up.result();
  stats.num_candidates = candidates.size();
  result.frequent = candidates;
  result.frequent.retain(
      [&](ItemId, Value v) { return v >= threshold; });
  stats.num_frequent = result.frequent.size();
  stats.num_false_positives = stats.num_candidates - stats.num_frequent;
  stats.rounds_verification = down_rounds + up_rounds;
  obs::add_counter(config_.obs, "netfilter/candidates", stats.num_candidates);
  obs::add_counter(config_.obs, "netfilter/frequent", stats.num_frequent);

  const std::uint64_t aggregation_bytes =
      meter.total(net::TrafficCategory::kAggregation) - aggregation_before;
  stats.dissemination_cost = per_peer(
      meter.total(net::TrafficCategory::kDissemination) - dissemination_before,
      overlay.num_peers());
  stats.aggregation_cost = per_peer(aggregation_bytes, overlay.num_peers());
  stats.candidates_per_peer =
      static_cast<double>(aggregation_bytes) /
      static_cast<double>(config_.wire.item_value_pair()) /
      static_cast<double>(overlay.num_peers());

  result.stats = stats;
  return result;
}

NetFilterResult NetFilter::run_pipelined(const ItemSource& items,
                                         const agg::Hierarchy& hierarchy,
                                         net::Overlay& overlay,
                                         net::TrafficMeter& meter,
                                         Value threshold) const {
  require(threshold >= 1, "threshold must be >= 1");
  const std::uint32_t n = overlay.num_peers();
  const std::uint64_t filtering_before =
      meter.total(net::TrafficCategory::kFiltering);
  const std::uint64_t dissemination_before =
      meter.total(net::TrafficCategory::kDissemination);
  const std::uint64_t aggregation_before =
      meter.total(net::TrafficCategory::kAggregation);

  net::SessionMux mux(config_.obs);
  // Unnamed single session: phase spans keep the classic bare names
  // ("filtering", ...), the same span set filter_candidates and
  // verify_candidates record when run one after the other.
  const net::SessionId sid = mux.add_session();
  IfiSessionPhases ifi(*this, items, hierarchy, threshold);
  (void)ifi.register_phases(mux, sid, net::PhaseStart::kAllPeers);

  net::Engine engine(overlay, meter, config_);
  const std::uint64_t rounds_total =
      engine.run(mux, config_.max_rounds_per_phase);
  ensure(ifi.complete(), "pipelined netfilter did not complete");

  NetFilterResult result = ifi.take_result();
  NetFilterStats& s = result.stats;
  s.rounds_total = rounds_total;
  s.rounds_filtering = ifi.filtering_rounds();
  s.rounds_verification = rounds_total - s.rounds_filtering;
  const std::uint64_t aggregation_bytes =
      meter.total(net::TrafficCategory::kAggregation) - aggregation_before;
  s.filtering_cost = per_peer(
      meter.total(net::TrafficCategory::kFiltering) - filtering_before, n);
  s.dissemination_cost = per_peer(
      meter.total(net::TrafficCategory::kDissemination) - dissemination_before,
      n);
  s.aggregation_cost = per_peer(aggregation_bytes, n);
  s.candidates_per_peer =
      static_cast<double>(aggregation_bytes) /
      static_cast<double>(config_.wire.item_value_pair()) /
      static_cast<double>(n);
  return result;
}

NetFilterResult NetFilter::run(const ItemSource& items,
                               const agg::Hierarchy& hierarchy,
                               net::Overlay& overlay, net::TrafficMeter& meter,
                               Value threshold) const {
  require(items.num_peers() == overlay.num_peers(),
          "item source and overlay disagree on peer count");
  obs::ScopedPhase whole(config_.obs, "netfilter");
  // Install the level geometry for the topology telemetry plane before any
  // engine runs: every envelope the phases below admit is charged per level
  // at the merge barrier. configure_levels is a no-op when the geometry is
  // unchanged, so an alpha sweep over one shared context keeps its matrix
  // accumulating; bind_series re-binds (and re-baselines) the per-level
  // series columns, like the engine's own columns.
  if (config_.obs != nullptr) {
    obs::LinkStats& ls = config_.obs->link_stats;
    std::vector<std::uint32_t> depths(overlay.num_peers(),
                                      obs::LinkStats::kNoLevel);
    for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
      if (hierarchy.is_member(PeerId(p))) {
        depths[p] = hierarchy.depth(PeerId(p));
      }
    }
    ls.configure_levels(depths, hierarchy.height());
    ls.bind_series(config_.obs->registry, config_.obs->series);
    // Static level capacities — the utilization denominator for
    // `nf-inspect congestion`. A level's directed capacity is the sum over
    // its parent links of both directions (up-convergecast and
    // down-multicast cross the same edge).
    if (config_.link.capacity_limited()) {
      std::vector<std::uint64_t> level_cap(hierarchy.height(), 0);
      for (std::uint32_t p = 0; p < overlay.num_peers(); ++p) {
        const PeerId id(p);
        if (!hierarchy.is_member(id) || id == hierarchy.root()) continue;
        const std::uint64_t cap =
            config_.link.capacity(id, hierarchy.upstream(id));
        // Uncapped links (possible under partial level overrides) never
        // queue; leave them out of the finite denominator.
        if (cap == net::kInfiniteCapacity) continue;
        level_cap[hierarchy.depth(id)] += 2 * cap;
      }
      for (std::uint32_t d = 0; d < hierarchy.height(); ++d) {
        ls.set_level_capacity(d, level_cap[d]);
      }
    }
  }
  const std::uint64_t host_before =
      meter.total(net::TrafficCategory::kHostReport);
  const EffectiveItems effective = [&] {
    obs::ScopedPhase phase(config_.obs, "host-report");
    return EffectiveItems(items, hierarchy, overlay, config_.wire, &meter);
  }();
  const double host_report_cost =
      per_peer(meter.total(net::TrafficCategory::kHostReport) - host_before,
               overlay.num_peers());

  NetFilterResult result =
      run_pipelined(effective, hierarchy, overlay, meter, threshold);
  result.stats.host_report_cost = host_report_cost;
  record_netfilter_conformance(config_, result.stats, overlay.num_peers());
  return result;
}

}  // namespace nf::core
