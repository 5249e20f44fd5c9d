// Structured protocol tracer (docs/OBSERVABILITY.md).
//
// Records span-style events — phase begin/end, engine round boundaries,
// per-level convergecast merges, multicast fan-out — into a
// bounded in-memory ring. Each event carries a global sequence number
// (monotonic even after the ring wraps, so consumers can detect gaps) and a
// logical timestamp: the engine advances the tracer clock once per
// simulated round, so `clock` orders events across protocol phases the way
// rounds order messages.
//
// Event names must be string literals (or otherwise outlive the tracer);
// the ring stores the pointer, never a copy. Dynamically built names (e.g.
// per-session trace tracks like "q3/filtering") go through intern(), which
// copies the string into tracer-owned storage and hands back a pointer with
// tracer lifetime.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace nf::obs {

/// Sentinel peer for events not attributable to a single peer.
inline constexpr std::uint32_t kNoPeer = 0xFFFFFFFFu;

enum class EventKind : std::uint8_t {
  kPhaseBegin,  ///< protocol phase opened (value unused)
  kPhaseEnd,    ///< protocol phase closed (value = wall microseconds)
  kRound,       ///< engine round boundary (value = messages delivered)
  kMerge,       ///< convergecast child merged (value = message bytes)
  kFanout,      ///< multicast forward (value = downstream copies)
  kMark,        ///< free-form point event
};

[[nodiscard]] constexpr std::string_view to_string(EventKind k) {
  switch (k) {
    case EventKind::kPhaseBegin: return "phase_begin";
    case EventKind::kPhaseEnd: return "phase_end";
    case EventKind::kRound: return "round";
    case EventKind::kMerge: return "merge";
    case EventKind::kFanout: return "fanout";
    case EventKind::kMark: return "mark";
  }
  return "?";
}

struct TraceEvent {
  std::uint64_t seq = 0;    ///< global event index, monotonic across wraps
  std::uint64_t clock = 0;  ///< logical timestamp (engine rounds so far)
  std::uint64_t value = 0;  ///< kind-specific payload (see EventKind)
  const char* name = "";    ///< static string; the ring never owns it
  std::uint32_t peer = kNoPeer;
  EventKind kind = EventKind::kMark;
};

/// Thread safety: record() may be called concurrently from the sharded
/// engine's workers; a mutex serializes ring writes, so seq numbers stay
/// gap-free (events from concurrently executing shards interleave in lock
/// acquisition order, which can differ run to run — metrics and protocol
/// results stay deterministic, trace interleaving is diagnostic only).
class ProtocolTracer {
 public:
  explicit ProtocolTracer(std::size_t capacity = 4096)
      : capacity_(capacity == 0 ? 1 : capacity) {
    ring_.reserve(capacity_);
  }

  void record(EventKind kind, const char* name, std::uint32_t peer = kNoPeer,
              std::uint64_t value = 0) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const TraceEvent e{total_, clock_, value, name, peer, kind};
    if (ring_.size() < capacity_) {
      ring_.push_back(e);
    } else {
      // Events fill slots in seq order, so seq % capacity is always the
      // oldest slot once the ring is full.
      ring_[static_cast<std::size_t>(total_ % capacity_)] = e;
    }
    ++total_;
  }

  /// Copies `name` into tracer-owned storage and returns a pointer that
  /// stays valid for the tracer's lifetime — the way runtime-built event
  /// names (per-session trace tracks) satisfy the static-name contract.
  /// Interned strings survive clear(): a snapshot taken before the clear
  /// may still reference them.
  [[nodiscard]] const char* intern(std::string_view name) {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const std::string& s : interned_) {
      if (s == name) return s.c_str();
    }
    return interned_.emplace_back(name).c_str();
  }

  /// Advances the logical clock; the engine calls this once per round.
  void advance_clock(std::uint64_t delta = 1) {
    const std::lock_guard<std::mutex> lock(mutex_);
    clock_ += delta;
  }
  [[nodiscard]] std::uint64_t clock() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return clock_;
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Events currently held (<= capacity).
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return ring_.size();
  }
  /// Events ever recorded, including those the ring has since overwritten.
  [[nodiscard]] std::uint64_t total_recorded() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_;
  }
  /// Events lost to wraparound.
  [[nodiscard]] std::uint64_t dropped() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return total_ - ring_.size();
  }

  /// Retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<TraceEvent> out;
    out.reserve(ring_.size());
    for (std::uint64_t s = total_ - ring_.size(); s < total_; ++s) {
      out.push_back(ring_[static_cast<std::size_t>(s % capacity_)]);
    }
    return out;
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    ring_.clear();
    total_ = 0;
    clock_ = 0;
  }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  // Deque: growth never moves existing strings, so interned pointers stay
  // stable.
  std::deque<std::string> interned_;
  std::vector<TraceEvent> ring_;
  std::uint64_t total_{0};
  std::uint64_t clock_{0};
};

}  // namespace nf::obs
