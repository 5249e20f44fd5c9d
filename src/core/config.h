// netFilter configuration.
#pragma once

#include <cstdint>

#include "common/error.h"
#include "common/wire.h"
#include "net/engine.h"

namespace nf::core {

/// How message bytes are charged to the traffic meter.
enum class WireModel : std::uint8_t {
  /// The paper's model: flat sa/sg/si bytes per field (Table III).
  kFlatFields,
  /// Realistic serialization: varint aggregates, delta-coded sorted id
  /// lists (net/codec.h) — what a deployment would actually send.
  kVarintDelta,
};

/// The engine settings (threads, fault, link, obs) come from the base, and
/// every engine a run builds takes the whole config. With obs set, the run
/// also emits phase spans and per-protocol counters; with it null the
/// instrumentation costs one branch.
struct NetFilterConfig : net::EngineConfig {
  /// g — the filter size: item groups per filter (paper §III-B.1).
  std::uint32_t num_groups = 100;
  /// f — the number of independent hash filters (paper §III-B.2).
  std::uint32_t num_filters = 3;
  /// Master seed the f filter hash functions are derived from. Broadcast by
  /// the root together with (f, g); all peers derive identical filters.
  std::uint64_t filter_seed = 0xF117E25EEDull;
  /// Field sizes (sa, sg, si) used to charge communication cost.
  WireSizes wire{};
  /// Byte-accounting scheme; kFlatFields reproduces the paper.
  WireModel wire_model = WireModel::kFlatFields;
  /// Engine round budget per protocol phase (safety net, not a tuning knob).
  std::uint64_t max_rounds_per_phase = 100000;

  void validate() const {
    require(num_groups >= 1, "need at least one item group");
    require(num_filters >= 1, "need at least one filter");
    wire.validate();
  }
};

}  // namespace nf::core
