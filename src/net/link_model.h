// Link capacity and contention model (ROADMAP item 4).
//
// The round engine historically charged bytes but delivered everything
// queued on a link in one round — infinite capacity. This header adds the
// bandwidth half of the network model:
//
//  * `LinkClassModel` assigns every peer a bytes-per-round uplink class
//    (modem / DSL / fiber presets, a uniform cap, or a deterministic
//    heterogeneous mix drawn from a seeded hash), with optional per-
//    hierarchy-level overrides. A directed link's capacity is the min of
//    its endpoint classes — the narrow end gates the flow.
//  * `LinkModel`: per-link propagation delay (a seeded per-link draw from
//    [min_delay, max_delay]) plus per-link capacity and a bounded backlog
//    horizon. The default is the infinite-capacity special case, which
//    reproduces the historical engine byte-for-byte.
//  * `LinkQueueTable` is the engine-internal per-link backlog ledger the
//    scheduler in `Engine::admit()` runs against. All mutation happens on
//    the engine thread in canonical admission order (nf-lint enforces
//    this), which is what keeps congested runs bit-identical for any
//    shard count.
//
// Scheduling model (fluid queue, one draw per admission): a message of s
// bytes admitted to a link with capacity c and backlog q is delivered
// after its propagation delay plus ceil((q+s)/c) transfer rounds; the
// backlog then grows by s and drains c bytes per round at the round
// barrier. The backlog is clamped to c * max_backlog_rounds so a
// persistently oversubscribed link delays messages by a bounded horizon
// instead of unboundedly (clamped bytes are surfaced as a diagnostic
// counter, never dropped — protocols stay exactly-once and live).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/capability.h"
#include "common/error.h"
#include "common/hashing.h"
#include "common/ids.h"

namespace nf::net {

/// Sentinel: a link with this capacity never queues.
inline constexpr std::uint64_t kInfiniteCapacity = ~0ull;

/// Peer uplink classes, coarse but recognizable. Capacities are bytes per
/// round under the convention of ~1 s rounds.
enum class LinkClass : std::uint8_t { kModem = 0, kDsl = 1, kFiber = 2 };
inline constexpr std::size_t kNumLinkClasses = 3;

/// Preset bytes/round per class: 56 kbit modem, 2 Mbit DSL, 100 Mbit fiber.
[[nodiscard]] constexpr std::uint64_t link_class_capacity(LinkClass c) {
  switch (c) {
    case LinkClass::kModem: return 7'000;
    case LinkClass::kDsl: return 256'000;
    case LinkClass::kFiber: return 12'500'000;
  }
  return kInfiniteCapacity;
}

[[nodiscard]] constexpr const char* link_class_name(LinkClass c) {
  switch (c) {
    case LinkClass::kModem: return "modem";
    case LinkClass::kDsl: return "dsl";
    case LinkClass::kFiber: return "fiber";
  }
  return "?";
}

/// Per-peer capacity classes plus per-hierarchy-level overrides.
///
/// Copyable value type; two models built from the same inputs agree on
/// every capacity on every peer, with no shared tables — the same property
/// that makes `GroupHash` broadcastable. The default-constructed model is
/// the infinite-capacity network.
class LinkClassModel {
 public:
  LinkClassModel() = default;

  /// Every link capped at `bytes_per_round` (kInfiniteCapacity = off).
  [[nodiscard]] static LinkClassModel uniform(std::uint64_t bytes_per_round);

  /// Every peer in one preset class.
  [[nodiscard]] static LinkClassModel uniform_class(LinkClass c);

  /// Deterministic heterogeneous mix: peer p's class is drawn from
  /// hash_uniform(p, seed) against the cumulative (modem, dsl, rest=fiber)
  /// fractions — stateless, so every participant derives the same
  /// assignment from three numbers.
  [[nodiscard]] static LinkClassModel mixed(double modem_fraction,
                                            double dsl_fraction,
                                            std::uint64_t seed);

  /// Overrides the capacity of every link at hierarchy level `level`
  /// (a link's level is its deeper endpoint's depth, matching the
  /// obs::LinkStats convention). The model carries its own copy of the
  /// depth vector: link capacities are protocol behaviour and must never
  /// depend on whether an observability context is attached.
  void set_level_override(std::span<const std::uint32_t> depths,
                          std::uint32_t level, std::uint64_t bytes_per_round);

  /// The peer's uplink class (meaningful for mixed models; uniform models
  /// report fiber-or-better as kFiber).
  [[nodiscard]] LinkClass peer_class(PeerId p) const {
    if (mode_ != Mode::kMixed) return LinkClass::kFiber;
    const double u = hash_uniform(p.value(), seed_);
    if (u < modem_fraction_) return LinkClass::kModem;
    if (u < modem_fraction_ + dsl_fraction_) return LinkClass::kDsl;
    return LinkClass::kFiber;
  }

  [[nodiscard]] std::uint64_t peer_capacity(PeerId p) const {
    switch (mode_) {
      case Mode::kInfinite: return kInfiniteCapacity;
      case Mode::kUniform: return uniform_bytes_;
      case Mode::kMixed: return link_class_capacity(peer_class(p));
    }
    return kInfiniteCapacity;
  }

  /// Directed link capacity: min of the endpoint classes, then any level
  /// override replaces it. Symmetric in (a, b).
  [[nodiscard]] std::uint64_t link_capacity(PeerId a, PeerId b) const {
    if (!depths_.empty()) {
      const std::uint32_t level = level_of(a, b);
      if (level < level_caps_.size() && level_caps_[level] != 0) {
        return level_caps_[level];
      }
    }
    const std::uint64_t ca = peer_capacity(a);
    const std::uint64_t cb = peer_capacity(b);
    return ca < cb ? ca : cb;
  }

  /// True when any link can actually queue (the engine skips the whole
  /// scheduler otherwise).
  [[nodiscard]] bool capacity_limited() const {
    if (mode_ != Mode::kInfinite) return true;
    for (const std::uint64_t c : level_caps_) {
      if (c != 0 && c != kInfiniteCapacity) return true;
    }
    return false;
  }

  friend bool operator==(const LinkClassModel&,
                         const LinkClassModel&) = default;

 private:
  enum class Mode : std::uint8_t { kInfinite, kUniform, kMixed };

  [[nodiscard]] std::uint32_t level_of(PeerId a, PeerId b) const {
    const std::uint32_t da =
        a.value() < depths_.size() ? depths_[a.value()] : ~0u;
    const std::uint32_t db =
        b.value() < depths_.size() ? depths_[b.value()] : ~0u;
    return da > db ? da : db;
  }

  Mode mode_ = Mode::kInfinite;
  std::uint64_t uniform_bytes_ = kInfiniteCapacity;
  double modem_fraction_ = 0.0;
  double dsl_fraction_ = 0.0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint32_t> depths_;     // per-peer hierarchy depth
  std::vector<std::uint64_t> level_caps_;  // 0 = no override at that level
};

/// The full link model: propagation delay plus capacity classes and the
/// backlog horizon. Each (unordered) overlay link gets a fixed delay drawn
/// uniformly from [min_delay, max_delay] rounds, deterministic in (seed,
/// endpoints); protocols need no changes, but completion times stretch to
/// the slowest path. The default is the infinite-capacity synchronous
/// network, which reproduces the historical engine exactly.
struct LinkModel {
  std::uint32_t min_delay = 1;
  std::uint32_t max_delay = 1;
  std::uint64_t seed = 0x1A7E9C1ull;
  LinkClassModel classes{};
  /// Backlog horizon: a link's queue never exceeds capacity * this many
  /// rounds, bounding both delay and transit-ring size.
  std::uint32_t max_backlog_rounds = 64;

  [[nodiscard]] std::uint32_t delay(PeerId a, PeerId b) const {
    if (min_delay == max_delay) return min_delay;
    const std::uint64_t h = link_hash(seed, a, b);
    return min_delay +
           static_cast<std::uint32_t>(h % (max_delay - min_delay + 1));
  }

  [[nodiscard]] std::uint64_t capacity(PeerId a, PeerId b) const {
    return classes.link_capacity(a, b);
  }

  [[nodiscard]] bool capacity_limited() const {
    return classes.capacity_limited();
  }
};

/// Per-link backlog ledger, engine-internal. Open-addressed, preallocated
/// at `configure()` so the steady state never rehashes at typical loads;
/// the active list keeps the round-barrier drain proportional to the
/// number of congested links, not the table size. Mutation (`schedule`,
/// `drain_round`) is engine-thread-only in canonical admission order —
/// nf-lint's nf-link-model check flags calls outside net/engine.cpp.
class LinkQueueTable {
 public:
  /// Outcome of scheduling one message on one link.
  struct Scheduled {
    std::uint64_t queue_rounds;   // >= 1; 1 = no queueing delay
    std::uint64_t clamped_bytes;  // backlog bytes beyond the horizon
  };

  LinkQueueTable() = default;

  /// Sizes the table for a topology of `num_peers` peers (trees and
  /// near-tree overlays: ~2N directed links, kept under 50% load). The
  /// table still grows if an unusually dense overlay overflows it.
  void configure(std::uint64_t num_peers);

  /// Admits `bytes` onto link (from, to) with capacity `capacity`:
  /// returns the transfer rounds the message spends behind the backlog
  /// (clamped to `max_backlog_rounds`) and grows the backlog. `level` is
  /// cached on the slot for the drain's per-level telemetry only (~0u when
  /// no observability is attached — it never affects scheduling). Engine
  /// thread only, canonical order.
  NF_ENGINE_THREAD Scheduled schedule(PeerId from, PeerId to,
                                      std::uint64_t capacity,
                                      std::uint64_t bytes,
                                      std::uint32_t max_backlog_rounds,
                                      std::uint32_t level);

  /// Round-barrier drain: every backlogged link clears up to its capacity.
  /// Calls `level_cb(level, remaining_bytes)` for each link still
  /// backlogged after the drain (level as cached by `set_level`, ~0u when
  /// never set). Returns total remaining backlog bytes. Engine thread
  /// only.
  template <typename LevelCb>
  NF_ENGINE_THREAD std::uint64_t drain_round(LevelCb&& level_cb) {
    std::uint64_t total = 0;
    std::size_t i = 0;
    while (i < active_.size()) {
      Slot& s = slots_[active_[i]];
      const std::uint64_t cleared = s.backlog < s.capacity ? s.backlog
                                                           : s.capacity;
      s.backlog -= cleared;
      if (s.backlog == 0) {
        // Swap-remove: order within the active list does not affect any
        // protocol-visible state, and the walk itself is engine-thread
        // sequential, so this stays deterministic.
        active_[i] = active_.back();
        active_.pop_back();
        continue;
      }
      total += s.backlog;
      level_cb(s.level, s.backlog);
      ++i;
    }
    return total;
  }

  [[nodiscard]] std::size_t backlogged_links() const {
    return active_.size();
  }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    std::uint64_t backlog = 0;
    std::uint64_t capacity = 0;
    std::uint32_t level = ~0u;
  };

  static constexpr std::uint64_t kEmptyKey = ~0ull;

  [[nodiscard]] static std::uint64_t key_of(PeerId from, PeerId to) {
    return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
  }

  [[nodiscard]] std::size_t slot_of(std::uint64_t key);
  void grow();

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> active_;  // indices of slots with backlog > 0
  std::size_t used_ = 0;
};

}  // namespace nf::net
