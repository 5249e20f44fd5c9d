// Topology-resolved telemetry: per-hierarchy-level traffic accounting,
// bounded heavy-hitter link tracking, and congestion telemetry — level
// capacities, per-level backlog gauges, and a spill summary over queued
// bytes (docs/OBSERVABILITY.md "Link stats", schema v7 `link_stats`
// section).
//
// The TrafficMeter answers "how many bytes, per category"; nothing below it
// answers *where* those bytes flow. LinkStats adds the spatial axis: every
// envelope the engine admits is charged to (a) its hierarchy level — the
// deeper endpoint's BFS depth, so a child→parent push and the parent's
// reply land on the same level — and (b) a bounded Misra-Gries summary over
// directed (src, dst) pairs that surfaces the hottest links without exact
// per-link counters, which would be O(E) at N = 10^6 peers. This dogfoods
// the paper's own idea: heavy-hitter identification applied to the
// simulator's own traffic stream (P2PTFHH applies the same mergeable-sketch
// construction to distributed monitoring).
//
// Charging happens exclusively on the engine thread, inside the canonical
// (major, minor)-ordered merge at the round barrier (Engine::
// merge_and_finalize) — never from shard callbacks. A Misra-Gries summary
// is merge-order sensitive, so per-shard summaries folded in shard order
// would break the bit-identical-across---threads contract; the barrier
// already sees every send in the serial order, so one summary fed there is
// deterministic for any shard count. nf-lint's nf-obs-context check flags
// LinkStats::charge calls outside net/engine.cpp.
//
// Header-only, like obs/metrics.h: the engine (nf_net) charges link stats
// but nf_obs links against nf_net, so engine-facing obs types must not need
// the nf_obs archive.
//
// Zero-allocation contract: after configure_levels()/bind_series()/
// set_link_capacity() (all warm-up calls), charge() touches only
// preallocated storage — tests/steady_alloc_test.cpp gates this with the
// alloc hook, and `engine/steady_allocs` stays 0 with telemetry attached.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/capability.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace nf::obs {

/// Canonical directed-link key: (from << 32) | to. Dense peer ids are
/// 32-bit by construction (num_peers is a u32), so the packing is lossless.
[[nodiscard]] constexpr std::uint64_t link_key(std::uint32_t from,
                                               std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}
[[nodiscard]] constexpr std::uint32_t link_src(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}
[[nodiscard]] constexpr std::uint32_t link_dst(std::uint64_t key) {
  return static_cast<std::uint32_t>(key & 0xFFFFFFFFull);
}

/// Bounded weighted heavy-hitter summary over u64 link keys: the weighted
/// Misra-Gries summary (Misra & Gries 1982), mergeable in the sense of
/// Agarwal et al. ("Mergeable summaries", PODS 2012), built for the
/// telemetry hot path: open-addressed preallocated storage (no allocation
/// per add), a global offset in place of decrement-all (one subtraction
/// instead of an O(k) sweep), and lazy reclamation of entries whose
/// estimate has decayed to zero.
///
/// Guarantees (for total added weight V, capacity k):
///   estimate(x) <= true_weight(x) <= estimate(x) + error_bound()
/// with error_bound() == 0 while the number of distinct keys stays within
/// capacity — the fig7 N=1000 runs (≈2·(N-1) directed tree links) are
/// exact under the default capacity; the 10^5/10^6-peer runs degrade to a
/// genuine sketch. Estimates only ever under-count, so the top of ranked()
/// is trustworthy: a link reported hot really carried at least that much.
///
/// Determinism: state depends only on the sequence of add() calls, and the
/// engine feeds it in canonical merge order; ranked() orders by (estimate
/// desc, key asc), so exports are bit-identical across shard counts.
class LinkSummary {
 public:
  /// Reserved empty-slot marker; key_of(from, to) never produces it for
  /// dense peer ids (both endpoints would need to be 2^32-1).
  static constexpr std::uint64_t kEmptyKey = ~0ull;

  explicit LinkSummary(std::size_t capacity = 4096) {
    set_capacity(capacity);
  }

  /// Re-sizes the summary, dropping all contents. Allocation happens here
  /// (warm-up), never in add().
  void set_capacity(std::size_t capacity) {
    capacity_ = std::max<std::size_t>(1, capacity);
    std::size_t slots = 4;
    while (slots < capacity_ * 4) slots <<= 1;
    slots_.assign(slots, Slot{kEmptyKey, 0});
    scratch_.assign(slots, Slot{kEmptyKey, 0});
    mask_ = slots - 1;
    occupied_ = 0;
    base_ = 0;
    carried_error_ = 0;
    total_weight_ = 0;
    overflow_since_compact_ = 0;
  }

  /// Zeroes the summary, keeping its storage.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{kEmptyKey, 0});
    occupied_ = 0;
    base_ = 0;
    carried_error_ = 0;
    total_weight_ = 0;
    overflow_since_compact_ = 0;
  }

  void add(std::uint64_t key, std::uint64_t weight) {
    total_weight_ += weight;
    std::size_t i = hash(key) & mask_;
    std::size_t dead = slots_.size();  // first decayed slot on the probe path
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) {
        // Revive-if-decayed: a dead entry's estimate is 0, so the refreshed
        // weight restarts from the offset (its pre-decay remainder was
        // already paid for by base_).
        slots_[i].weight = std::max(slots_[i].weight, base_) + weight;
        return;
      }
      if (dead == slots_.size() && slots_[i].weight <= base_) dead = i;
      i = (i + 1) & mask_;
    }
    if (occupied_ < capacity_) {
      slots_[i] = Slot{key, base_ + weight};
      ++occupied_;
      return;
    }
    if (dead != slots_.size()) {
      // Reuse a decayed slot in place. The slot stays non-empty, so other
      // keys' probe chains are unaffected.
      slots_[dead] = Slot{key, base_ + weight};
      return;
    }
    // Summary full, no reusable slot on the probe path: the Misra-Gries
    // decrement-all, applied as one offset bump. Every live estimate drops
    // by `weight` (clamping at zero via the estimate() comparison) and the
    // new key is not admitted — its weight is the error the bound reports.
    base_ += weight;
    // Lazy reclamation alone degrades on high-churn streams: once every
    // entry has decayed, bumps destroy no live mass and the error bound
    // grows linearly with traffic instead of ~V/(k+1). Periodically rebuild
    // the table with only live entries so decayed slots become admissible
    // again — amortized O(1) per add, preallocated scratch, and a pure
    // function of the add sequence (determinism holds).
    if (++overflow_since_compact_ >= std::max<std::size_t>(64, capacity_ / 4)) {
      compact();
    }
  }

  /// Lower-bound estimate of the total weight added under `key`.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const {
    std::size_t i = hash(key) & mask_;
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) {
        return slots_[i].weight > base_ ? slots_[i].weight - base_ : 0;
      }
      i = (i + 1) & mask_;
    }
    return 0;
  }

  /// Maximum under-count of any estimate (0 while within capacity).
  [[nodiscard]] std::uint64_t error_bound() const {
    return base_ + carried_error_;
  }

  /// Total weight ever added (exact; unaffected by decrements).
  [[nodiscard]] std::uint64_t total_weight() const { return total_weight_; }

  /// Live entries (estimate > 0).
  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey && s.weight > base_) ++n;
    }
    return n;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  struct Entry {
    std::uint64_t key;
    std::uint64_t weight;  ///< estimate (lower bound)
  };

  /// Live entries ordered by (estimate desc, key asc) — a total order, so
  /// the export is deterministic. Allocates; cold path only.
  [[nodiscard]] std::vector<Entry> ranked() const {
    std::vector<Entry> out;
    out.reserve(std::min(occupied_, capacity_));
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey && s.weight > base_) {
        out.push_back(Entry{s.key, s.weight - base_});
      }
    }
    std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
      return a.weight != b.weight ? a.weight > b.weight : a.key < b.key;
    });
    return out;
  }

  /// Folds `other` into this summary (Agarwal et al.: merging summaries of
  /// two streams yields a valid summary of the concatenated stream). Each
  /// of other's estimates is replayed as an add — overflow decrements feed
  /// base_ as usual — and other's own error carries into error_bound().
  /// Deterministic: entries fold in ranked() order. Cold path (allocates
  /// via ranked()); the engine itself never merges — it charges one summary
  /// in canonical order at the barrier.
  void merge(const LinkSummary& other) {
    for (const Entry& e : other.ranked()) add(e.key, e.weight);
    carried_error_ += other.error_bound();
    total_weight_ += other.total_weight() - other.ranked_weight();
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::uint64_t weight;  ///< absolute (offset by base_)
  };

  /// splitmix64 finalizer — full-avalanche mix of the packed key.
  [[nodiscard]] static std::uint64_t hash(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Rebuilds the table from its live entries, folding base_ into the
  /// carried error (estimates and error_bound() are unchanged; decayed
  /// slots are freed for re-admission).
  void compact() {
    std::size_t n = 0;
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey && s.weight > base_) {
        scratch_[n++] = Slot{s.key, s.weight - base_};
      }
    }
    std::fill(slots_.begin(), slots_.end(), Slot{kEmptyKey, 0});
    carried_error_ += base_;
    base_ = 0;
    occupied_ = n;
    overflow_since_compact_ = 0;
    for (std::size_t k = 0; k < n; ++k) {
      std::size_t i = hash(scratch_[k].key) & mask_;
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = scratch_[k];
    }
  }

  /// Sum of live estimates (what merge() replays; the remainder of other's
  /// total_weight is decayed history, still counted in the merged total).
  [[nodiscard]] std::uint64_t ranked_weight() const {
    std::uint64_t sum = 0;
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey && s.weight > base_) sum += s.weight - base_;
    }
    return sum;
  }

  std::vector<Slot> slots_;
  std::vector<Slot> scratch_;  ///< compact() staging; sized with slots_
  std::size_t mask_ = 0;
  std::size_t capacity_ = 0;
  std::size_t occupied_ = 0;       ///< non-empty slots (live or decayed)
  std::size_t overflow_since_compact_ = 0;  ///< base_ bumps since compact()
  std::uint64_t base_ = 0;         ///< global decrement offset
  std::uint64_t carried_error_ = 0;  ///< error bounds from merge()/compact()
  std::uint64_t total_weight_ = 0;
};

/// Per-hierarchy-level × per-category traffic matrix plus the heavy-hitter
/// link summary — the engine-facing face of the topology telemetry plane.
///
/// A link's level is max(depth(from), depth(to)) under the BFS hierarchy
/// (root depth 0), so level d holds exactly the links between depth d-1
/// parents and their depth-d children: a peer's filtering push and the
/// dissemination copy it receives land on the same level, which is what
/// makes the per-level totals reconcile against the cost model's per-level
/// terms (core::cost_model::*_level_bytes). Traffic touching a peer outside
/// the hierarchy (churned out / never assigned a depth) lands in a separate
/// off-hierarchy bucket.
class LinkStats {
 public:
  /// Category axis width. net::kNumTrafficCategories (9) must fit; a
  /// static_assert in net/engine.cpp keeps the two in sync without this
  /// header depending on nf_net headers.
  static constexpr std::size_t kMaxCategories = 16;
  /// Depth marker for peers outside the hierarchy.
  static constexpr std::uint32_t kNoLevel = ~0u;
  static constexpr std::size_t kDefaultLinkCapacity = 4096;

  LinkStats() : links_(kDefaultLinkCapacity) {
    // Unconfigured stats must still accept charge(): engines run with obs
    // attached but no hierarchy (raw engine tests, naive flood). One row —
    // the off-hierarchy bucket, since num_levels_ == 0 — absorbs it all.
    bytes_.assign(kMaxCategories, 0);
    msgs_.assign(kMaxCategories, 0);
    predicted_.assign(kMaxCategories, 0.0);
    level_peers_.assign(1, 0);
  }

  /// Re-sizes the heavy-hitter summary (drops its contents). Warm-up only.
  void set_link_capacity(std::size_t capacity) {
    links_.set_capacity(capacity);
  }

  /// Installs the level geometry: `peer_level[p]` is peer p's BFS depth
  /// (kNoLevel for non-members), `num_levels` the hierarchy height.
  /// Re-configuring with identical geometry keeps accumulated counts (an
  /// alpha sweep re-runs over one shared context and hierarchy); a changed
  /// geometry resets the matrix — mixed-geometry accumulation would be
  /// meaningless.
  NF_ENGINE_THREAD void configure_levels(
      const std::vector<std::uint32_t>& peer_level, std::uint32_t num_levels) {
    if (peer_level == peer_level_ && num_levels == num_levels_) return;
    peer_level_ = peer_level;
    num_levels_ = num_levels;
    const std::size_t rows = static_cast<std::size_t>(num_levels_) + 1;
    bytes_.assign(rows * kMaxCategories, 0);
    msgs_.assign(rows * kMaxCategories, 0);
    predicted_.assign(rows * kMaxCategories, 0.0);
    level_peers_.assign(rows, 0);
    for (const std::uint32_t d : peer_level_) {
      if (d != kNoLevel && d < num_levels_) ++level_peers_[d];
    }
    level_counters_.assign(num_levels_, nullptr);
  }

  /// Creates (or rebinds) one `link/level<d>/bytes` counter and one
  /// `link/level<d>/backlog_bytes` gauge per level in `registry` and tracks
  /// them as series columns, so per-level utilization and queue depth land
  /// in the TimeSeries ring and — via the trace-event exporter — as Perfetto
  /// counter tracks per level. Call after configure_levels(); allocation
  /// happens here, never in charge()/set_backlog().
  NF_ENGINE_THREAD void bind_series(MetricsRegistry& registry,
                                    TimeSeries& series) {
    backlog_gauges_.assign(num_levels_, nullptr);
    for (std::uint32_t d = 0; d < num_levels_; ++d) {
      const std::string name = "link/level" + std::to_string(d) + "/bytes";
      Counter* c = &registry.counter(name);
      series.track_counter(name, c);
      level_counters_[d] = c;
      const std::string backlog =
          "link/level" + std::to_string(d) + "/backlog_bytes";
      Gauge* g = &registry.gauge(backlog);
      series.track_gauge(backlog, g);
      backlog_gauges_[d] = g;
    }
  }

  /// Installs the static directed link capacity (bytes/round) of one level
  /// — the utilization denominator `nf-inspect congestion` divides observed
  /// level bytes by. Computed by the run harness from the hierarchy and the
  /// LinkClassModel (sum over both directions of every parent<->child link
  /// at the level); purely observational. Warm-up only.
  void set_level_capacity(std::uint32_t level, std::uint64_t bytes_per_round) {
    if (level_capacity_.size() < num_levels_) {
      level_capacity_.assign(num_levels_, 0);
    }
    if (level < level_capacity_.size()) {
      level_capacity_[level] = bytes_per_round;
    }
  }

  [[nodiscard]] std::uint64_t level_capacity(std::uint32_t level) const {
    return level < level_capacity_.size() ? level_capacity_[level] : 0;
  }

  /// Charges one admitted envelope. Engine thread only, canonical merge
  /// order only (enforced by nf-lint outside net/engine.cpp). Zero
  /// allocation after warm-up.
  NF_ENGINE_THREAD void charge(std::uint32_t from, std::uint32_t to,
                               std::size_t category, std::uint64_t bytes) {
    const std::size_t row = level_of_link(from, to);
    if (category >= kMaxCategories) category = kMaxCategories - 1;
    bytes_[row * kMaxCategories + category] += bytes;
    ++msgs_[row * kMaxCategories + category];
    if (row < level_counters_.size() && level_counters_[row] != nullptr) {
      level_counters_[row]->add(bytes);
    }
    links_.add(link_key(from, to), bytes);
  }

  /// Charges one queued admission to the congestion summary: `bytes` of a
  /// message that could not clear link (from, to) in its propagation-delay
  /// round and spilled into the per-link backlog. Same discipline as
  /// charge(): engine thread only, canonical admission order only (nf-lint's
  /// nf-link-model check flags calls outside net/engine.cpp). Zero
  /// allocation after warm-up.
  NF_ENGINE_THREAD void charge_spill(std::uint32_t from, std::uint32_t to,
                                     std::uint64_t bytes) {
    spill_.add(link_key(from, to), bytes);
  }

  /// Publishes one level's end-of-round backlog depth (bytes still queued
  /// on the level's links after the round's capacity drained). Engine
  /// thread only; no-op for rows without a bound gauge (off-hierarchy,
  /// detached series).
  NF_ENGINE_THREAD void set_backlog(std::size_t row, std::uint64_t bytes) {
    if (row < backlog_gauges_.size() && backlog_gauges_[row] != nullptr) {
      backlog_gauges_[row]->set(static_cast<double>(bytes));
    }
  }

  /// Accumulates a cost-model prediction for (level, category) — called
  /// once per conformance-eligible run, so predictions grow in lockstep
  /// with the observed matrix across a sweep.
  void add_prediction(std::uint32_t level, std::size_t category,
                      double bytes) {
    if (level > num_levels_ || category >= kMaxCategories) return;
    predicted_[static_cast<std::size_t>(level) * kMaxCategories + category] +=
        bytes;
  }

  /// Row index for a link: max endpoint depth, or the off-hierarchy bucket
  /// (row num_levels()) when either endpoint has no depth. Unconfigured
  /// stats (num_levels() == 0) put everything in the bucket.
  [[nodiscard]] std::size_t level_of_link(std::uint32_t from,
                                          std::uint32_t to) const {
    const std::uint32_t df =
        from < peer_level_.size() ? peer_level_[from] : kNoLevel;
    const std::uint32_t dt =
        to < peer_level_.size() ? peer_level_[to] : kNoLevel;
    if (df == kNoLevel || dt == kNoLevel) return num_levels_;
    const std::uint32_t d = std::max(df, dt);
    return d < num_levels_ ? d : num_levels_;
  }

  [[nodiscard]] bool configured() const { return num_levels_ != 0; }
  [[nodiscard]] std::uint32_t num_levels() const { return num_levels_; }

  /// Members at depth `level` (the cost model's per-level multiplier).
  [[nodiscard]] std::uint64_t level_peers(std::uint32_t level) const {
    return level < level_peers_.size() ? level_peers_[level] : 0;
  }

  /// Row `num_levels()` is the off-hierarchy bucket.
  [[nodiscard]] std::uint64_t level_bytes(std::size_t row,
                                          std::size_t category) const {
    return cell(bytes_, row, category);
  }
  [[nodiscard]] std::uint64_t level_msgs(std::size_t row,
                                         std::size_t category) const {
    return cell(msgs_, row, category);
  }
  [[nodiscard]] double level_predicted(std::size_t row,
                                       std::size_t category) const {
    const std::size_t i = row * kMaxCategories + category;
    return i < predicted_.size() ? predicted_[i] : 0.0;
  }
  [[nodiscard]] std::uint64_t level_total_bytes(std::size_t row) const {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kMaxCategories; ++c) {
      sum += cell(bytes_, row, c);
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t level_total_msgs(std::size_t row) const {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kMaxCategories; ++c) {
      sum += cell(msgs_, row, c);
    }
    return sum;
  }

  [[nodiscard]] const LinkSummary& links() const { return links_; }
  [[nodiscard]] LinkSummary& links() { return links_; }

  /// Heavy-hitter summary over *spilled* (queued) bytes per directed link —
  /// which links the congestion actually gates on. Same Misra-Gries bounds
  /// as links().
  [[nodiscard]] const LinkSummary& spill() const { return spill_; }
  [[nodiscard]] LinkSummary& spill() { return spill_; }

 private:
  template <typename V>
  [[nodiscard]] static typename V::value_type cell(const V& m,
                                                   std::size_t row,
                                                   std::size_t category) {
    const std::size_t i = row * kMaxCategories + category;
    return i < m.size() ? m[i] : 0;
  }

  std::vector<std::uint32_t> peer_level_;
  std::uint32_t num_levels_ = 0;
  std::vector<std::uint64_t> bytes_;      ///< (num_levels+1) × kMaxCategories
  std::vector<std::uint64_t> msgs_;
  std::vector<double> predicted_;
  std::vector<std::uint64_t> level_peers_;
  std::vector<Counter*> level_counters_;  ///< one per level; bind_series()
  std::vector<Gauge*> backlog_gauges_;    ///< one per level; bind_series()
  std::vector<std::uint64_t> level_capacity_;  ///< bytes/round per level
  LinkSummary links_;
  LinkSummary spill_;  ///< queued bytes per link (congestion hot list)
};

}  // namespace nf::obs
