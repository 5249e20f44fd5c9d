// netFilter configuration.
#pragma once

#include <cstdint>

#include "common/error.h"
#include "common/wire.h"
#include "net/engine.h"
#include "obs/context.h"

namespace nf::core {

/// How message bytes are charged to the traffic meter.
enum class WireModel : std::uint8_t {
  /// The paper's model: flat sa/sg/si bytes per field (Table III).
  kFlatFields,
  /// Realistic serialization: varint aggregates, delta-coded sorted id
  /// lists (net/codec.h) — what a deployment would actually send.
  kVarintDelta,
};

struct NetFilterConfig {
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
  /// Link fault model; loss 0 (the default) reproduces the paper's
  /// loss-free simulation. With loss > 0 the engine's reliability layer
  /// keeps the result exact and the meter shows the price.
  net::LinkFaultModel fault{};
  /// Link delay/capacity model. The default (delay 1, infinite capacity)
  /// reproduces the paper's synchronous network bit-for-bit; a
  /// capacity-limited model makes heavy phases queue on narrow links and
  /// the per-phase round counts grow accordingly (net/link_model.h).
  net::LinkModel link{};
  /// Engine round budget per protocol phase (safety net, not a tuning knob).
  std::uint64_t max_rounds_per_phase = 100000;
  /// Shards/threads for the engines driving each phase (1 = serial). Any
  /// value yields bit-identical results — see net/engine.h.
  std::uint32_t threads = 1;
  /// Optional observability sink (not owned; may be null). When set, the
  /// run emits phase spans, per-protocol counters and engine traffic
  /// metrics into it; when null the instrumentation costs one branch.
  obs::Context* obs = nullptr;

  void validate() const {
    require(num_groups >= 1, "need at least one item group");
    require(num_filters >= 1, "need at least one filter");
    wire.validate();
  }
};

}  // namespace nf::core
