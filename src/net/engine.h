// Round-based message-passing engine with a sharded, parallel-ready core.
//
// The simulator advances in synchronous rounds, the standard model for
// evaluating P2P aggregation protocols: a message sent in round r is
// delivered at the start of round r+1 (or later under the latency model) if
// its destination is then alive. Protocols are state machines over peers:
// the engine calls `on_message(ctx, env)` for each delivered envelope and
// `on_round(ctx)` only for peers with work — the tick rule below — so a
// round costs what its active peers do, not N. A run drives exactly
// one protocol; components that must run side by side (several queries, or
// the phases of one) are multiplexed as phases of one SessionMux
// (net/session.h), which routes envelopes by their (session, phase) tags.
//
// Execution model (serial and sharded runs share one code path):
//   1. churn + round bookkeeping              (engine thread)
//   2. predispatch: drops, loss, ACK/dup
//      bookkeeping; route deliveries to the
//      destination peer's shard               (engine thread)
//   3. deliver + tick each shard's peers      (worker pool, K shards)
//   4. barrier merge: merge the ACK run and
//      the K shard outboxes (each already in
//      canonical key order), then charge the
//      meter and admit every send             (engine thread)
//   5. retransmit what falls due this round   (engine thread)
//
// Tick rule: in round r an alive peer gets on_round iff r is the run's
// first round, or the peer called Context::wake_next_round() in round r-1,
// or the ChurnSchedule revived it at r. Each shard keeps one wake list,
// sorted by peer before its ticks run, so ticks still go in peer order with
// major key `inbox size + peer`. A protocol that polls re-arms with one
// wake_next_round() call at the top of its on_round.
//
// Determinism contract: a K-shard run is bit-identical to the serial run —
// same envelope stream, same meter totals, same protocol results. The
// engine guarantees its half by (a) sharding peers into contiguous id
// ranges, (b) tagging every send with a canonical (major, minor) key —
// delivery index, or inbox size + peer id for a tick, plus per-callback
// sequence — and merging shard outboxes in key order at the barrier (a
// shard handles its deliveries in inbox order, then its ticks in peer
// order, so its outbox is one sorted run and the barrier merges runs
// instead of sorting; a run out of order throws), (c)
// keeping all shared bookkeeping (meter, reliability, latency, msg ids) on
// the engine thread, and (d) drawing loss decisions from a stateless
// counter-keyed hash stream instead of a sequential RNG. Protocols supply
// the other half; see DESIGN.md "Execution model" for the rules (per-peer
// state in arenas, commutative shared counters, per-peer RNG streams).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/arena.h"
#include "common/capability.h"
#include "common/ids.h"
#include "common/rng.h"
#include "net/churn.h"
#include "net/envelope.h"
#include "net/link_model.h"
#include "net/metrics.h"
#include "net/overlay.h"
#include "net/shard.h"
#include "obs/context.h"

namespace nf::net {

/// Opt-in unreliable-link model with an automatic reliability layer.
///
/// With `loss_probability > 0` every transmission (data and ACK alike) is
/// dropped independently with that probability. The engine then behaves
/// like a reliable transport: each delivered message is acknowledged
/// (`ack_bytes` charged to the receiver, category kControl), unacked
/// messages are retransmitted after `retransmit_after` rounds (re-charging
/// the sender), and receiver-side duplicate suppression keeps protocols
/// exactly-once — so every protocol in the library runs unmodified over
/// lossy links, paying for the losses in bytes and rounds instead of
/// correctness. `bench/ablation_loss` measures that price.
///
/// Loss draws come from a per-transmission hash stream keyed by (seed,
/// transmission counter), so they are independent of delivery order and
/// identical across serial and sharded runs.
///
/// Bookkeeping costs O(1) per message: reliable msg ids are assigned
/// sequentially at the barrier, so the unacked messages live in one table
/// indexed by msg id (an ACK is one lookup), a `retransmit_after + 1`
/// bucket wheel keyed by due round hands each round exactly the messages
/// due then, and duplicate suppression keeps one delivered bit per msg id.
struct LinkFaultModel {
  double loss_probability = 0.0;
  std::uint32_t ack_bytes = 4;
  std::uint32_t retransmit_after = 2;  ///< rounds without ACK before resend
  std::uint32_t max_retries = 50;      ///< then give up (dest likely dead)
  std::uint64_t seed = 0xACC1DE57ull;
};

/// How an engine runs, fixed at construction. Every default reproduces the
/// paper's network: serial, loss-free, synchronous links, no telemetry.
/// The protocol config (core::NetFilterConfig) inherits it, so a site
/// hands its whole config to the engine and cannot drop one setting.
struct EngineConfig {
  /// Shards/threads for protocol callbacks (1 = serial). Any value yields
  /// bit-identical results; K > 1 spawns K-1 pool workers (the engine
  /// thread drives the remaining shard).
  std::uint32_t threads = 1;
  /// Link fault model; with loss > 0 the reliability layer keeps every
  /// protocol exact and the meter shows the price.
  LinkFaultModel fault{};
  /// Per-link propagation delay plus per-link capacity (bytes/round) with
  /// a bounded backlog. Under a capacity-limited model every admission runs
  /// through the link scheduler: a message of s bytes on a link with
  /// capacity c and backlog q delivers after delay + ceil((q+s)/c) - 1
  /// extra rounds, in canonical admission order, and each link drains c
  /// bytes at every round barrier — all on the engine thread, so congested
  /// runs stay bit-identical for any thread count.
  LinkModel link{};
  /// Observability sink (not owned; null = off). The engine then counts
  /// sends/deliveries/rounds/bytes, histograms message sizes, stamps the
  /// tracer's logical clock at every round boundary, and drives the
  /// context's TimeSeries once per round (per-round deliveries, sends,
  /// bytes, in-flight messages, and per-shard busy wall time — stamped with
  /// the tracer clock so series from successive engines sharing one context
  /// stay strictly ordered). Per-shard busy/idle wall time accumulates into
  /// `engine/shard<k>/busy_us` / `idle_us` gauges so `--threads=K`
  /// imbalance is visible in reports. Metric handles are cached at
  /// construction so the per-message cost is an increment, not a map
  /// lookup.
  obs::Context* obs = nullptr;
};

class Engine;

/// Per-peer view handed to protocol callbacks. Sends are buffered in the
/// executing shard's outbox, then metered and admitted to the network in
/// canonical order at the round barrier.
class Context {
 public:
  NF_REENTRANT [[nodiscard]] PeerId self() const { return self_; }
  /// The shard executing this callback, below the num_shards that
  /// Protocol::on_run_start received. Index per-shard scratch with it:
  /// contents that depend on it break the determinism contract.
  NF_REENTRANT [[nodiscard]] std::uint32_t shard() const { return shard_; }
  NF_REENTRANT [[nodiscard]] std::uint64_t round() const;
  NF_REENTRANT [[nodiscard]] const Overlay& overlay() const;
  NF_REENTRANT [[nodiscard]] const std::vector<PeerId>& neighbors() const;
  NF_REENTRANT [[nodiscard]] bool is_alive(PeerId p) const;

  /// Asks for an on_round tick of this peer in the next round (if it is
  /// still alive then). Callable from any callback; repeated calls in one
  /// round yield one tick. This is how a protocol keeps polling — without
  /// it a peer is ticked only in the run's first round and on revival.
  NF_REENTRANT void wake_next_round();

  /// Lineage id of the delivered message this callback is handling, or
  /// kNoLineage for round ticks (and runs without an obs context). Sends
  /// made from this context inherit it as their causal parent.
  NF_REENTRANT [[nodiscard]] obs::LineageId cause() const { return cause_; }

  /// A writer into the executing shard's outbox slab. Encode the payload,
  /// finish() for the PayloadRef, and pass it to send_flat(). Refs are only
  /// valid to send from this same callback (the slab resets next round).
  NF_REENTRANT [[nodiscard]] PayloadWriter flat_payload();

  /// Resolves a delivered envelope's flat payload to bytes. Empty span when
  /// the envelope carries none.
  NF_REENTRANT [[nodiscard]] std::span<const std::uint8_t> payload_bytes(
      const Envelope& env) const;

  /// Queues a message whose payload is a flat slab ref (net/payload.h). The
  /// engine copies the referenced span into the destination transit-ring
  /// slot at the barrier — no owning object is ever constructed.
  NF_REENTRANT void send_flat(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, PayloadRef flat);
  NF_REENTRANT void send_flat(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, PayloadRef flat,
                              std::span<const obs::LineageId> parents);

  /// Flat send tagged with a (session, phase) pair (see send_tagged()).
  NF_REENTRANT void send_flat_tagged(PeerId to, TrafficCategory category,
                                     std::uint64_t bytes, PayloadRef flat,
                                     SessionId session, PhaseId phase,
                                     std::span<const obs::LineageId> parents);

  /// Queues a message for delivery at the next round (later under the
  /// latency model); its bytes are metered at the round barrier.
  NF_REENTRANT void send(PeerId to, TrafficCategory category,
                         std::uint64_t bytes, std::any payload = {});

  /// As send(), with an explicit causal parent set replacing the implicit
  /// cause() — for components whose sends merge several arrivals (e.g. a
  /// convergecast forward). parents[0] becomes the primary
  /// parent; the rest are recorded as sampled extra edges. Zero ids are
  /// ignored, so callers push causes unconditionally.
  NF_REENTRANT void send(PeerId to, TrafficCategory category,
                         std::uint64_t bytes, std::any payload,
                         std::span<const obs::LineageId> parents);

  /// As send(), tagging the envelope with a (session, phase) pair so a
  /// SessionMux (net/session.h) can route it to the right Phase component.
  NF_REENTRANT void send_tagged(PeerId to, TrafficCategory category,
                                std::uint64_t bytes, std::any payload,
                                SessionId session, PhaseId phase);

  /// Tagged send with an explicit causal parent set (see the untagged
  /// overload). The session runtime uses this to thread the replayed
  /// envelope's own lineage through buffered-phase replays.
  NF_REENTRANT void send_tagged(PeerId to, TrafficCategory category,
                                std::uint64_t bytes, std::any payload,
                                SessionId session, PhaseId phase,
                                std::span<const obs::LineageId> parents);

 private:
  friend class Engine;

  /// A buffered send tagged with its canonical merge key. `major` is the
  /// slot of the callback that produced it (delivery index or tick slot),
  /// `minor` the send's sequence within that callback — together a total
  /// order identical to the serial engine's send order.
  struct KeyedSend {
    std::uint64_t major;
    std::uint32_t minor;
    std::uint32_t is_ack;      // engine-generated ACK (predispatch only)
    std::uint64_t ack_msg_id;  // msg id being acknowledged (ACKs only)
    Envelope envelope;
    /// Primary causal parent; the envelope's own lineage id is assigned at
    /// the merge barrier, in canonical order.
    obs::LineageId parent = obs::kNoLineage;
    /// Parents beyond the first (multi-parent merges); usually empty.
    std::vector<obs::LineageId> extra_parents;
  };

  Context(Engine& engine, PeerId self, std::vector<KeyedSend>* outbox,
          SlabArena* slab, std::uint32_t shard, std::uint64_t major,
          std::uint32_t first_minor, obs::LineageId cause)
      : engine_(engine),
        self_(self),
        outbox_(outbox),
        slab_(slab),
        shard_(shard),
        major_(major),
        next_minor_(first_minor),
        cause_(cause) {}

  NF_REENTRANT void push_send(PeerId to, TrafficCategory category,
                              std::uint64_t bytes, std::any payload,
                              PayloadRef flat, SessionId session,
                              PhaseId phase,
                              std::span<const obs::LineageId> parents);

  Engine& engine_;
  PeerId self_;
  std::vector<KeyedSend>* outbox_;
  SlabArena* slab_;
  std::uint32_t shard_;  ///< executing shard; also its outbox slab's id
  std::uint64_t major_;
  std::uint32_t next_minor_;
  obs::LineageId cause_ = obs::kNoLineage;
};

/// A distributed protocol: one instance drives all peers (per-peer state
/// lives inside the protocol, indexed by the dense peer id).
///
/// Sharded execution: on_round/on_message for peers of different shards run
/// concurrently. A protocol is shard-safe iff callbacks for peer p touch
/// only p's slots in dense per-peer arenas (common/arena.h) plus, at most,
/// commutative atomic accumulators. Every protocol in this library is
/// shard-safe; the full authoring contract is in DESIGN.md.
class Protocol {
 public:
  virtual ~Protocol() = default;

  /// Called once per run() on the engine thread before the first round;
  /// size per-peer arenas here, and per-shard scratch to `num_shards`
  /// slots (Context::shard() indexes them from shard callbacks).
  NF_ENGINE_THREAD virtual void on_run_start(const Overlay& /*overlay*/,
                                             std::uint32_t /*num_shards*/) {}

  /// Called once per round on the engine thread, after churn and before
  /// any delivery or tick — the place for whole-round bookkeeping that
  /// must not live in per-peer callbacks (e.g. a round counter).
  NF_ENGINE_THREAD virtual void on_round_begin(std::uint64_t /*round*/) {}

  /// Called after message delivery for each alive peer the tick rule
  /// selects (see the header comment): every peer in the run's first round,
  /// then only peers that called Context::wake_next_round() the round
  /// before or that churn revived this round.
  NF_SHARD_CONTEXT virtual void on_round(Context& /*ctx*/) {}

  /// Called for each envelope delivered to an alive peer.
  NF_SHARD_CONTEXT virtual void on_message(Context& /*ctx*/,
                                           Envelope&& /*env*/) {}

  /// Called once per run() on the engine thread after the final round —
  /// quiescence or max_rounds. Close out bookkeeping that would otherwise
  /// need one more round boundary (e.g. trace spans for work that finished
  /// in the very last round).
  NF_ENGINE_THREAD virtual void on_run_end() {}

  /// Engine stops when no messages are in flight and the protocol is not
  /// active. Polled on the engine thread, but implementations must be pure
  /// reads.
  NF_REENTRANT [[nodiscard]] virtual bool active() const { return false; }
};

class Engine {
 public:
  /// Throws InvalidArgument on a config no engine can run.
  NF_ENGINE_THREAD Engine(Overlay& overlay, TrafficMeter& meter,
                          const EngineConfig& config);

  /// Runs `protocol` until quiescence (no messages in flight, protocol not
  /// active) or `max_rounds`, whichever first. Returns rounds executed.
  /// Churn events in `schedule` whose round falls inside the run are applied
  /// at the start of the matching round.
  NF_ENGINE_THREAD std::uint64_t run(Protocol& protocol,
                                     std::uint64_t max_rounds,
                                     const ChurnSchedule* schedule = nullptr);

  /// Stable during the parallel phase; safe to read from shard callbacks.
  NF_REENTRANT [[nodiscard]] std::uint64_t round() const { return round_; }
  NF_REENTRANT [[nodiscard]] Overlay& overlay() { return overlay_; }
  NF_REENTRANT [[nodiscard]] const Overlay& overlay() const {
    return overlay_;
  }
  [[nodiscard]] TrafficMeter& meter() { return meter_; }

  /// Messages dropped because the destination was dead on delivery.
  [[nodiscard]] std::uint64_t dropped_messages() const { return dropped_; }

  /// Diagnostics for the link scheduler (0 under infinite capacity).
  /// queue_delay_rounds(): total extra rounds messages spent queued behind
  /// link backlogs; clamped_backlog_bytes(): backlog bytes beyond the
  /// max_backlog_rounds horizon (forgiven, not dropped — a measure of how
  /// far past the model's bound the offered load pushed).
  [[nodiscard]] std::uint64_t queued_messages() const { return queued_msgs_; }
  [[nodiscard]] std::uint64_t queue_delay_rounds() const {
    return queue_delay_rounds_;
  }
  [[nodiscard]] std::uint64_t clamped_backlog_bytes() const {
    return clamped_bytes_;
  }
  /// Current total backlog across all links (end of last round).
  [[nodiscard]] std::uint64_t backlog_bytes() const { return backlog_bytes_; }

  /// Observes every transmission the engine admits to the network (data,
  /// ACKs and retransmissions alike), in canonical order — the hook the
  /// golden determinism tests record envelope streams through. Pass an
  /// empty function to detach.
  NF_ENGINE_THREAD void set_send_probe(
      std::function<void(const Envelope&)> probe);

  /// Resolves a flat payload ref against the engine's slab table. Valid for
  /// shard-slab refs during the round that produced them and for ring-slab
  /// refs until their delivery round completes. Empty span for kNoSlab.
  NF_REENTRANT [[nodiscard]] std::span<const std::uint8_t> resolve(
      const PayloadRef& ref) const;

  /// Marks warm-up as finished: from the next round on, heap allocations
  /// made inside the round loop (observed via common/alloc_hook.h when the
  /// nf_alloc_hook override is linked) accumulate into steady_allocs() and
  /// the `engine/steady_allocs` obs counter. A loss-free flat-payload run
  /// on a warmed engine performs none — tests/steady_alloc_test.cpp is the
  /// gate. Also equalizes transit-ring capacities: a run's heaviest round
  /// warms only the ring slot its parity happens to land on, and the next
  /// run may land it on another.
  NF_ENGINE_THREAD void begin_steady_state();
  [[nodiscard]] std::uint64_t steady_allocs() const { return steady_allocs_; }

  /// Diagnostics for the reliability layer (0 when the model is off).
  [[nodiscard]] std::uint64_t lost_transmissions() const { return lost_; }
  [[nodiscard]] std::uint64_t retransmissions() const {
    return retransmissions_;
  }
  [[nodiscard]] std::uint64_t duplicates_suppressed() const {
    return duplicates_;
  }
  [[nodiscard]] std::uint64_t given_up() const { return given_up_; }

 private:
  friend class Context;

  /// A transmission admitted to the network, waiting for its delivery
  /// round.
  struct Outgoing {
    Envelope envelope;
    std::uint64_t msg_id = 0;  // reliability id; 0 = unreliable or unset
    bool is_ack = false;
    bool lost = false;  // loss drawn at admission, applied at delivery
  };

  /// An unacknowledged reliable message: what a retransmission needs. The
  /// envelope is the one first admitted (its flat ref stale but valid, with
  /// the payload length); the payload bytes themselves sit in a payload
  /// chunk, because slab refs don't outlive their round.
  struct Unacked {
    Envelope envelope;
    std::uint32_t attempts = 0;  // transmissions so far
    std::uint32_t chunk = 0;     // payload_chunks_ index (flat payloads)
    std::uint32_t offset = 0;    // payload offset in that chunk
  };

  /// Payload bytes of unacked messages, appended in msg id order. A chunk
  /// counts its live payloads and returns to the free list when the last
  /// one finishes, so a message that keeps retrying pins one chunk, not
  /// every payload sent after it.
  struct PayloadChunk {
    std::vector<std::uint8_t> bytes;
    std::uint32_t used = 0;
    std::uint32_t live = 0;
  };

  /// A delivery routed to a shard: `index` is the message's position in
  /// this round's inbox — the major key for sends its handler makes.
  struct Delivery {
    std::uint64_t index;
    Outgoing out;
  };

  struct ShardScratch {
    std::vector<Delivery> inq;
    std::vector<Context::KeyedSend> outbox;
    /// Peers to tick next round: wake requests made this round plus churn
    /// revivals (at run start: every peer of the shard). Reserved to the
    /// shard's peer range; the per-peer queued flag keeps it duplicate-free,
    /// so a push never allocates.
    std::vector<PeerId> wake;
    /// This round's ticks: last round's `wake`, swapped in and sorted.
    std::vector<PeerId> ticks;
  };

  NF_ENGINE_THREAD void predispatch(std::vector<Outgoing>& inbox,
                                    const ShardPlan& plan);
  NF_SHARD_CONTEXT void run_shard(Protocol& protocol, std::uint32_t shard,
                                  std::uint64_t tick_base);
  /// Queues `peer` (owned by `shard`) for a tick next round, once.
  NF_REENTRANT void queue_wake(std::uint32_t shard, PeerId peer);
  /// Merges the ACK run and the shard outboxes into `merge_order_`.
  NF_ENGINE_THREAD NF_STEADY_NOALLOC void merge_runs();
  NF_ENGINE_THREAD NF_STEADY_NOALLOC void merge_and_finalize();
  /// `flat_bytes` is the payload span to copy into the destination ring
  /// slot (empty unless out.envelope.flat is valid).
  NF_ENGINE_THREAD NF_STEADY_NOALLOC void admit(
      Outgoing&& out, std::span<const std::uint8_t> flat_bytes);
  NF_ENGINE_THREAD void retransmit_due();
  NF_ENGINE_THREAD void drain_link_queues();
  NF_ENGINE_THREAD void ack_received(PeerId original_sender,
                                     std::uint64_t msg_id);

  // Reliability bookkeeping (lossy runs only).
  /// Assigns the next msg id to a reliable message and registers it for
  /// retransmission; `flat_bytes` is copied into a payload chunk.
  NF_ENGINE_THREAD std::uint64_t register_unacked(
      const Envelope& envelope, std::span<const std::uint8_t> flat_bytes);
  /// The live slot of `msg_id`, or nullptr once it finished.
  NF_ENGINE_THREAD [[nodiscard]] Unacked* find_unacked(std::uint64_t msg_id);
  /// Frees msg_id's slot (acked or given up) and reclaims the front.
  NF_ENGINE_THREAD void finish_unacked(std::uint64_t msg_id);
  NF_ENGINE_THREAD [[nodiscard]] std::span<const std::uint8_t> unacked_payload(
      const Unacked& slot) const;
  /// Copies a payload into the open chunk (or a fresh one) and records
  /// where in `slot`.
  NF_ENGINE_THREAD void stash_payload(std::span<const std::uint8_t> bytes,
                                      Unacked& slot);
  /// Drops one live payload from `chunk`; an emptied chunk is recycled.
  NF_ENGINE_THREAD void release_chunk(std::uint32_t chunk);
  /// Sets msg_id's delivered bit; returns whether it was already set.
  NF_ENGINE_THREAD bool mark_delivered(std::uint64_t msg_id);
  /// Drops the delivered bits of msg ids below `msg_id`.
  NF_ENGINE_THREAD void forget_delivered_below(std::uint64_t msg_id);
  NF_ENGINE_THREAD [[nodiscard]] bool draw_loss();
  NF_ENGINE_THREAD [[nodiscard]] std::vector<Outgoing>& bucket_at(
      std::uint64_t round);
  NF_ENGINE_THREAD [[nodiscard]] SlabArena& ring_slab_at(
      std::uint64_t round);

  Overlay& overlay_;
  TrafficMeter& meter_;
  obs::Context* const obs_;
  obs::Counter* obs_sent_ = nullptr;
  obs::Counter* obs_delivered_ = nullptr;
  obs::Counter* obs_rounds_ = nullptr;
  obs::Counter* obs_sent_bytes_ = nullptr;
  obs::Histogram* obs_msg_bytes_ = nullptr;
  obs::Gauge* obs_in_flight_ = nullptr;
  /// Lineage hooks (nullptr when obs is detached). All recorder writes
  /// happen on the engine thread: id assignment at the merge barrier,
  /// delivery marks in predispatch.
  obs::LineageRecorder* lineage_ = nullptr;
  std::uint64_t lineage_clock_ = 0;  // tracer clock, cached once per round
  /// Topology telemetry (nullptr when obs is detached): the per-level
  /// matrix and heavy-hitter link summary are charged on the engine thread
  /// in canonical merge order only — merge_and_finalize() and
  /// retransmit_due(); nf-lint flags charges anywhere else.
  obs::LinkStats* link_stats_ = nullptr;
  /// Obs self-overhead meter: wall time spent inside the engine's obs-only
  /// blocks (round stamping, shard-gauge fold, link charging, series
  /// sampling), accumulated in nanoseconds and reported as whole
  /// microseconds into `obs/overhead_us`; `engine/round_us` carries the
  /// whole-round wall time as the denominator for the CI overhead budget.
  obs::Counter* obs_overhead_us_ = nullptr;
  obs::Counter* obs_round_us_ = nullptr;
  std::uint64_t round_obs_ns_ = 0;  // this round's obs-block nanoseconds
  std::uint64_t overhead_ns_total_ = 0;
  std::uint64_t overhead_us_reported_ = 0;
  std::uint64_t round_ns_total_ = 0;
  std::uint64_t round_us_reported_ = 0;
  // Per-shard wall-time accounting (obs-only). Each worker writes its own
  // shard's slot during the parallel phase; the engine thread folds the
  // slots into the cumulative busy/idle gauges at the barrier.
  std::vector<obs::Gauge*> obs_shard_busy_;
  std::vector<obs::Gauge*> obs_shard_idle_;
  std::vector<std::uint64_t> shard_busy_us_;
  std::function<void(const Envelope&)> send_probe_;

  // Sharded execution.
  const std::uint32_t threads_;
  std::unique_ptr<ShardPool> pool_;
  std::vector<ShardScratch> shards_;
  std::vector<Context::KeyedSend> engine_sends_;  // ACKs, this round
  /// This round's sends in canonical order (merge_runs()); they point into
  /// engine_sends_ and the shard outboxes.
  std::vector<Context::KeyedSend*> merge_order_;
  /// Merge cursors: [next, end) of each run not yet exhausted.
  struct MergeRun {
    Context::KeyedSend* next;
    Context::KeyedSend* end;
  };
  std::vector<MergeRun> merge_runs_;
  std::uint64_t tick_base_ = 0;  // this round's inbox size, for tick majors
  /// Per peer: already in its shard's wake list. Written only by the
  /// owning shard (and by the engine thread for churn revivals, before the
  /// shards run).
  PeerArena<bool> wake_queued_;

  // Flat-payload slabs (net/payload.h), all high-water-mark reset so the
  // steady state never reallocates. Shard slabs hold payloads written
  // during the parallel phase (id = shard index, reset each predispatch);
  // ring-slot slabs hold in-transit payload spans copied at the merge
  // barrier in canonical order — so slab offsets, like everything else, are
  // bit-identical for any shard count (id = kRingSlabBase + slot, reset
  // when the slot's delivery round completes).
  std::vector<SlabArena> shard_slabs_;
  std::vector<SlabArena> ring_slabs_;

  // Transmissions in transit, bucketed by delivery round modulo the ring
  // size (a dense replacement for a round-keyed hash map; the ring spans
  // the maximum link delay).
  std::vector<std::vector<Outgoing>> transit_ring_;
  std::vector<Outgoing> inbox_scratch_;  // swapped with the drained bucket
  std::uint64_t in_transit_ = 0;

  // Steady-state allocation accounting (begin_steady_state()).
  bool steady_ = false;
  std::uint64_t steady_allocs_ = 0;
  obs::Counter* obs_steady_allocs_ = nullptr;

  // Link model (delay + capacity). link_delay_on_ short-circuits the
  // per-send delay draw when every link is delay 1; link_capacity_on_
  // gates the whole scheduler, so the infinite-capacity default costs
  // nothing and reproduces the historical engine bit-for-bit.
  const LinkModel link_;
  bool link_delay_on_ = false;
  bool link_capacity_on_ = false;
  // Per-link backlog ledger. Engine-thread-only, canonical admission order
  // (schedule in admit(), drain at the round barrier) — nf-lint's
  // nf-link-model check flags mutation outside net/engine.cpp.
  LinkQueueTable link_queues_;
  std::uint64_t queued_msgs_ = 0;
  std::uint64_t queue_delay_rounds_ = 0;
  std::uint64_t clamped_bytes_ = 0;
  std::uint64_t backlog_bytes_ = 0;
  std::vector<std::uint64_t> backlog_by_level_;  // drain scratch, obs only
  obs::Counter* obs_queued_msgs_ = nullptr;
  obs::Counter* obs_queue_delay_ = nullptr;
  obs::Counter* obs_clamped_bytes_ = nullptr;
  obs::Gauge* obs_backlog_bytes_ = nullptr;
  std::uint64_t round_{0};
  std::uint64_t dropped_{0};

  // Reliability layer (active iff fault_.loss_probability > 0). Msg ids are
  // assigned sequentially at the barrier, so the lookups below are rings
  // indexed by msg id (power-of-two sizes) whose live window ends at
  // next_msg_id_ and starts at a front that only moves forward. Nothing
  // here shrinks, so a warmed engine reuses all of it.
  const LinkFaultModel fault_;
  bool lossy_ = false;
  std::uint64_t next_msg_id_ = 1;
  std::uint64_t next_transmission_ = 0;  // loss-stream counter
  /// Unacked table: msg id m in [unacked_front_, next_msg_id_) has slot
  /// unacked_index_[m & (size - 1)] of unacked_slots_, or kNone once
  /// acked or given up. The front is the lowest msg id not yet finished;
  /// it advances as messages finish, so one message that retries to a dead
  /// peer holds the window open for at most max_retries * retransmit_after
  /// rounds — and costs the window 4 bytes per msg id, while slots and
  /// payload bytes are held only by live messages.
  static constexpr std::uint32_t kNone = 0xFFFF'FFFFu;  // no slot / chunk
  std::vector<std::uint32_t> unacked_index_;
  std::uint64_t unacked_front_ = 1;
  std::vector<Unacked> unacked_slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t pending_count_ = 0;  // live slots
  std::vector<PayloadChunk> payload_chunks_;
  std::vector<std::uint32_t> free_chunks_;
  std::uint32_t open_chunk_ = kNone;  // the chunk payloads append to
  /// Retransmit wheel: bucket d % size lists the msg ids due in round d
  /// (size retransmit_after + 1 spans every due round). Finished messages
  /// are skipped, not erased, when their bucket comes up.
  std::vector<std::vector<std::uint64_t>> retry_wheel_;
  /// This round's due messages as (sender << 32 | msg id - front) keys, so
  /// one sort puts them in (sender, msg id) order.
  std::vector<std::uint64_t> due_scratch_;
  /// One delivered bit per msg id (duplicate suppression; a msg id has
  /// exactly one receiver). Word w of the id space is delivered_[w & (size
  /// - 1)] for w >= delivered_base_. Bits are kept while a copy of the
  /// message can still be in transit: round r drops the ids below
  /// unacked_front_ as it stood front_history_.size() rounds earlier —
  /// more than the farthest delivery offset.
  std::vector<std::uint64_t> delivered_;
  std::uint64_t delivered_base_ = 0;  // first kept word
  std::vector<std::uint64_t> front_history_;
  std::uint64_t lost_ = 0;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t given_up_ = 0;
};

}  // namespace nf::net
