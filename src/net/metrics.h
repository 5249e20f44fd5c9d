// Traffic accounting.
//
// The paper's performance metric is "the average number of bytes propagated
// per peer" (§IV), decomposed into candidate filtering cost, candidate
// dissemination cost and candidate aggregation cost. The meter charges every
// message to its *sender* (bytes propagated) under a category, so each bench
// can print exactly the series the paper plots.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/ids.h"

namespace nf::net {

enum class TrafficCategory : std::uint8_t {
  kFiltering = 0,      ///< group aggregates flowing up (phase 1)
  kDissemination = 1,  ///< heavy group ids flowing down (phase 2a)
  kAggregation = 2,    ///< candidate <id,value> pairs flowing up (phase 2b)
  kNaive = 3,          ///< naive approach: full item sets flowing up
  kGossip = 4,         ///< gossip traffic (no sender; a stable report key)
  kSampling = 5,       ///< parameter-estimation sampling traffic
  kControl = 6,        ///< heartbeats, hierarchy formation/repair
  kHostReport = 7,     ///< non-participating peers reporting local sets
  kApprox = 8,         ///< approximate baseline (no sender; stable report key)
};
inline constexpr std::size_t kNumTrafficCategories = 9;

[[nodiscard]] constexpr std::string_view to_string(TrafficCategory c) {
  switch (c) {
    case TrafficCategory::kFiltering: return "filtering";
    case TrafficCategory::kDissemination: return "dissemination";
    case TrafficCategory::kAggregation: return "aggregation";
    case TrafficCategory::kNaive: return "naive";
    case TrafficCategory::kGossip: return "gossip";
    case TrafficCategory::kSampling: return "sampling";
    case TrafficCategory::kControl: return "control";
    case TrafficCategory::kHostReport: return "host-report";
    case TrafficCategory::kApprox: return "approx";
  }
  return "?";
}

class TrafficMeter {
 public:
  /// Per-category byte counts for one peer, indexed by TrafficCategory.
  using CategoryArray = std::array<std::uint64_t, kNumTrafficCategories>;

  explicit TrafficMeter(std::uint32_t num_peers);

  void record(PeerId sender, TrafficCategory category, std::uint64_t bytes);

  /// Charges `num_messages` messages totalling `bytes` in one update — the
  /// engine's barrier merge coalesces each (sender, category) run of the
  /// round's send stream into a single call.
  void record_batch(PeerId sender, TrafficCategory category,
                    std::uint64_t bytes, std::uint64_t num_messages);

  /// Total bytes sent across all peers in one category.
  [[nodiscard]] std::uint64_t total(TrafficCategory category) const;

  /// Total bytes sent across all peers, all categories.
  [[nodiscard]] std::uint64_t total() const;

  /// The paper's metric: average bytes propagated per peer, one category.
  [[nodiscard]] double per_peer(TrafficCategory category) const;

  /// The paper's metric over all categories.
  [[nodiscard]] double per_peer() const;

  /// Bytes sent by one peer, all categories.
  [[nodiscard]] std::uint64_t peer_total(PeerId p) const;

  /// Maximum bytes sent by any single peer (bottleneck check, §IV-A).
  [[nodiscard]] std::uint64_t max_peer_total() const;

  [[nodiscard]] std::uint32_t num_peers() const {
    return static_cast<std::uint32_t>(per_peer_.size());
  }

  /// Number of messages recorded (diagnostics).
  [[nodiscard]] std::uint64_t num_messages() const { return num_messages_; }

  /// Bytes sent by peer `p`, broken down by category (indexed by
  /// TrafficCategory).
  [[nodiscard]] const CategoryArray& per_peer_breakdown(PeerId p) const;

  /// Writes the full breakdown as CSV: a header row of category names,
  /// then one `peer,<bytes per category>,total` row per peer, then a
  /// `total,...` footer matching total(category)/total().
  void write_csv(std::ostream& os) const;

  void reset();

 private:
  std::vector<CategoryArray> per_peer_;
  CategoryArray totals_{};
  std::uint64_t num_messages_{0};
};

}  // namespace nf::net
