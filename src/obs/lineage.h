// Causal message lineage: the happened-before DAG of an engine run
// (docs/OBSERVABILITY.md "Causal lineage").
//
// Every non-ACK message the engine admits gets a compact LineageId, assigned
// by a monotonic counter walked in the canonical (major, minor) merge order
// — the same total order that makes K-shard runs bit-identical — so lineage
// ids are deterministic for any --threads=K. The id rides the Envelope;
// protocol components tag each send with the id of the message whose arrival
// triggered it (its causal parent), or nothing when a local round tick
// originated it. Components never mint or rewrite ids themselves (nf-lint's
// nf-envelope-discipline check enforces this): the primary parent flows
// automatically from the delivery context, and multi-parent components
// (convergecast merges) pass the full parent set to the send call.
//
// The LineageRecorder stores the DAG in a bounded columnar ring (SoA): node
// columns are overwritten FIFO once `capacity` admissions have happened, and
// extra edges beyond the first parent go through reservoir sampling keyed by
// a counter-seeded hash stream, so million-peer runs keep O(capacity)
// memory and remain deterministic. All recorder writes happen on the engine
// thread (admission, delivery, run marks) or before the run (names), so the
// recorder is lock-free by design — shard workers only copy ids into
// KeyedSends.
//
// Analysis (critical paths, per-phase slack, JSON export) lives in
// lineage.cpp / export.h: this header stays dependency-light so the net
// layer, which does not link nf_obs, can use the recorder header-only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/capability.h"
#include "common/hashing.h"
#include "common/ids.h"

namespace nf::obs {

/// Compact happened-before node id; 0 means "no lineage" (ACKs, round
/// ticks, runs without an obs context).
using LineageId = std::uint64_t;
inline constexpr LineageId kNoLineage = 0;

/// A sampled extra edge (parents beyond the first) of the lineage DAG.
struct LineageEdge {
  LineageId parent = kNoLineage;
  LineageId child = kNoLineage;
};

class LineageRecorder {
 public:
  /// Default node-ring capacity: a --quick multiquery run admits ~20k
  /// messages, so the default keeps full DAGs for every committed bench
  /// while staying ~3 MiB.
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;
  static constexpr std::size_t kDefaultEdgeCapacity = 4096;
  /// "Round not recorded" sentinel for done-round queries.
  static constexpr std::uint64_t kNoRound =
      std::numeric_limits<std::uint64_t>::max();
  /// Mirrors net::kNoSession without depending on the net layer.
  static constexpr std::uint32_t kNoSessionTag = 0xFFFFFFFFu;

  /// Start clock + first node id of one Engine::run; analysis and export
  /// window on the most recent mark (matching the traffic section's "most
  /// recent captured run" convention).
  struct RunMark {
    std::uint64_t clock = 0;
    LineageId first_id = 1;
  };

  /// Everything recorded about one node, reassembled from the columns.
  struct NodeView {
    LineageId id = kNoLineage;
    LineageId parent = kNoLineage;
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint32_t session = kNoSessionTag;
    std::uint32_t phase = 0;
    std::uint64_t bytes = 0;
    std::uint64_t send_clock = 0;
    /// 0 = never delivered (lost, dead destination, duplicate-suppressed).
    std::uint64_t deliver_clock = 0;
  };

  explicit LineageRecorder(std::size_t capacity = kDefaultCapacity,
                           std::size_t edge_capacity = kDefaultEdgeCapacity)
      : capacity_(capacity == 0 ? 1 : capacity),
        edge_capacity_(edge_capacity) {}

  // --- Engine-side hooks. Engine thread only; columns allocate lazily so
  // --- an attached-but-idle recorder costs nothing.

  /// Assigns the next id (canonical admission order) and records the node.
  NF_ENGINE_THREAD LineageId admit(LineageId parent, PeerId from, PeerId to,
                                   std::uint32_t session, std::uint32_t phase,
                                   std::uint64_t bytes,
                                   std::uint64_t send_clock) {
    if (parent_.empty()) allocate();
    const LineageId id = ++total_;
    if (id > capacity_) ++dropped_nodes_;  // the slot's previous occupant
    const std::size_t s = slot(id);
    parent_[s] = parent;
    from_[s] = from.value();
    to_[s] = to.value();
    session_[s] = session;
    phase_[s] = phase;
    bytes_[s] = bytes;
    send_clock_[s] = send_clock;
    deliver_clock_[s] = 0;
    return id;
  }

  /// Records an extra parent (beyond the envelope's primary) via reservoir
  /// sampling; zero ids are ignored so components can push causes
  /// unconditionally.
  NF_ENGINE_THREAD void link(LineageId child, LineageId parent) {
    if (parent == kNoLineage || child == kNoLineage) return;
    if (edge_capacity_ == 0) return;
    const std::uint64_t n = edges_seen_++;
    if (edges_.size() < edge_capacity_) {
      edges_.push_back(LineageEdge{parent, child});
      return;
    }
    // Algorithm R with a counter-keyed hash draw: deterministic for any
    // shard count because edges arrive in canonical admission order.
    const auto j = static_cast<std::uint64_t>(
        hash_uniform(n, kReservoirSeed) * static_cast<double>(n + 1));
    if (j < edge_capacity_) edges_[static_cast<std::size_t>(j)] =
        LineageEdge{parent, child};
  }

  /// Marks a successful delivery; undelivered nodes (loss, churn, duplicate
  /// suppression) keep deliver_clock 0 and never enter critical paths.
  NF_ENGINE_THREAD void delivered(LineageId id, std::uint64_t deliver_clock) {
    if (retained(id)) deliver_clock_[slot(id)] = deliver_clock;
  }

  /// Called at each Engine::run entry with the tracer clock; windows the
  /// analysis to the most recent run.
  NF_ENGINE_THREAD void mark_run_start(std::uint64_t clock) {
    runs_.push_back(RunMark{clock, total_ + 1});
  }

  // --- Session metadata, registered by the session runtime.

  NF_ENGINE_THREAD void set_session_name(std::uint32_t session,
                                         std::string_view name) {
    if (session == kNoSessionTag) return;
    if (session_names_.size() <= session) session_names_.resize(session + 1);
    session_names_[session] = std::string(name);
  }

  NF_ENGINE_THREAD void set_phase_name(std::uint32_t session,
                                       std::uint32_t phase,
                                       std::string_view name) {
    if (session == kNoSessionTag) return;
    if (phase_names_.size() <= session) phase_names_.resize(session + 1);
    auto& phases = phase_names_[session];
    if (phases.size() <= phase) phases.resize(phase + 1);
    phases[phase] = std::string(name);
  }

  /// Records the run-relative round at which `session` completed (all its
  /// phases done()); critical paths terminate at or before this round.
  NF_ENGINE_THREAD void set_session_done(std::uint32_t session,
                                         std::uint64_t round) {
    if (session == kNoSessionTag) return;
    if (done_round_.size() <= session) {
      done_round_.resize(session + 1, kNoRound);
    }
    done_round_[session] = round;
  }

  // --- Read side (analysis, export, tests).

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t edge_capacity() const { return edge_capacity_; }
  [[nodiscard]] LineageId total() const { return total_; }
  [[nodiscard]] std::uint64_t dropped_nodes() const { return dropped_nodes_; }
  [[nodiscard]] std::uint64_t edges_seen() const { return edges_seen_; }
  [[nodiscard]] const std::vector<LineageEdge>& extra_edges() const {
    return edges_;
  }
  [[nodiscard]] const std::vector<RunMark>& runs() const { return runs_; }

  /// Oldest node id still in the ring (1 until the ring wraps).
  [[nodiscard]] LineageId first_retained_id() const {
    return total_ > capacity_ ? total_ - capacity_ + 1 : 1;
  }

  [[nodiscard]] bool retained(LineageId id) const {
    return id != kNoLineage && id <= total_ && id >= first_retained_id();
  }

  [[nodiscard]] bool was_delivered(LineageId id) const {
    return retained(id) && deliver_clock_[slot(id)] != 0;
  }

  /// Precondition: retained(id).
  [[nodiscard]] NodeView node(LineageId id) const {
    const std::size_t s = slot(id);
    return NodeView{id,          parent_[s], from_[s],
                    to_[s],      session_[s], phase_[s],
                    bytes_[s],   send_clock_[s], deliver_clock_[s]};
  }

  [[nodiscard]] std::string_view session_name(std::uint32_t session) const {
    return session < session_names_.size() ? session_names_[session]
                                           : std::string_view{};
  }

  [[nodiscard]] std::string_view phase_name(std::uint32_t session,
                                            std::uint32_t phase) const {
    if (session >= phase_names_.size()) return {};
    const auto& phases = phase_names_[session];
    return phase < phases.size() ? std::string_view(phases[phase])
                                 : std::string_view{};
  }

  [[nodiscard]] std::size_t num_named_sessions() const {
    return session_names_.size();
  }

  [[nodiscard]] std::size_t num_named_phases(std::uint32_t session) const {
    return session < phase_names_.size() ? phase_names_[session].size() : 0;
  }

  [[nodiscard]] std::uint64_t done_round(std::uint32_t session) const {
    return session < done_round_.size() ? done_round_[session] : kNoRound;
  }

 private:
  static constexpr std::uint64_t kReservoirSeed = 0x11EA6EED5EEDull;

  [[nodiscard]] std::size_t slot(LineageId id) const {
    return static_cast<std::size_t>((id - 1) % capacity_);
  }

  void allocate() {
    // The edge reservoir fills to edge_capacity_ and then overwrites in
    // place; reserving here keeps link() heap-free after this warm-up.
    edges_.reserve(edge_capacity_);
    parent_.assign(capacity_, kNoLineage);
    from_.assign(capacity_, 0);
    to_.assign(capacity_, 0);
    session_.assign(capacity_, kNoSessionTag);
    phase_.assign(capacity_, 0);
    bytes_.assign(capacity_, 0);
    send_clock_.assign(capacity_, 0);
    deliver_clock_.assign(capacity_, 0);
  }

  std::size_t capacity_;
  std::size_t edge_capacity_;
  LineageId total_ = 0;
  std::uint64_t dropped_nodes_ = 0;

  // Node columns (SoA ring indexed by (id - 1) % capacity_).
  std::vector<LineageId> parent_;
  std::vector<std::uint32_t> from_;
  std::vector<std::uint32_t> to_;
  std::vector<std::uint32_t> session_;
  std::vector<std::uint32_t> phase_;
  std::vector<std::uint64_t> bytes_;
  std::vector<std::uint64_t> send_clock_;
  std::vector<std::uint64_t> deliver_clock_;

  // Extra-parent reservoir.
  std::vector<LineageEdge> edges_;
  std::uint64_t edges_seen_ = 0;

  std::vector<RunMark> runs_;
  std::vector<std::string> session_names_;
  std::vector<std::vector<std::string>> phase_names_;
  std::vector<std::uint64_t> done_round_;
};

/// One hop of an extracted critical path. Rounds are relative to the run's
/// start clock; `phase_name` is the composed display name ("q0/filtering",
/// bare for unnamed sessions, empty for non-session traffic).
struct CriticalHop {
  LineageId id = kNoLineage;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint32_t session = LineageRecorder::kNoSessionTag;
  std::uint32_t phase = 0;
  std::string phase_name;
  std::uint64_t bytes = 0;
  std::uint64_t send_round = 0;
  std::uint64_t deliver_round = 0;
};

/// Per-phase slack: rounds between a phase's last delivery and session
/// completion — how far that phase could slip without delaying done().
struct PhaseSlack {
  std::uint32_t phase = 0;
  std::string name;
  std::uint64_t last_deliver_round = 0;
  std::uint64_t slack_rounds = 0;
};

/// The gating chain of one session in the most recent run: the chain with
/// the most hop-rounds (ties: bytes, then id) among those ending at the last
/// delivery at or before the session's done() round.
struct CriticalPath {
  std::uint32_t session = LineageRecorder::kNoSessionTag;
  std::string session_name;
  std::uint64_t done_round = LineageRecorder::kNoRound;
  std::uint64_t rounds = 0;  ///< sum of hop rounds along the chain
  std::uint64_t bytes = 0;   ///< sum of hop bytes along the chain
  std::vector<CriticalHop> hops;
  std::vector<PhaseSlack> slack;
};

/// Extracts one critical path per session seen in the most recent run
/// (sessions ordered by id). Deterministic for any shard count: ids,
/// weights and tie-breaks all derive from canonical admission order.
[[nodiscard]] std::vector<CriticalPath> critical_paths(
    const LineageRecorder& recorder);

}  // namespace nf::obs
