#include "net/engine.h"

#include <algorithm>
#include <bit>
#include <string>
#include <utility>

#include "common/alloc_hook.h"
#include "common/error.h"
#include "common/hashing.h"
#include "obs/clock.h"

namespace nf::net {

// LinkStats sizes its category axis without including net headers; make
// sure every TrafficCategory fits it.
static_assert(kNumTrafficCategories <= obs::LinkStats::kMaxCategories,
              "obs::LinkStats::kMaxCategories too small for TrafficCategory");

namespace {

/// Moves the entries of a power-of-two ring indexed by `key & (size - 1)`,
/// for keys in [first, last), into a new ring of `size` entries (a power
/// of two that holds them); every other entry is `fill`.
template <typename T>
void rehome(std::vector<T>& ring, std::size_t size, std::uint64_t first,
            std::uint64_t last, T fill) {
  std::vector<T> grown(size, fill);
  for (std::uint64_t key = first; key < last; ++key) {
    grown[key & (size - 1)] = ring[key & (ring.size() - 1)];
  }
  ring.swap(grown);
}

}  // namespace

std::uint64_t Context::round() const { return engine_.round(); }

const Overlay& Context::overlay() const { return engine_.overlay(); }

const std::vector<PeerId>& Context::neighbors() const {
  return engine_.overlay().neighbors(self_);
}

bool Context::is_alive(PeerId p) const {
  return engine_.overlay().is_alive(p);
}

PayloadWriter Context::flat_payload() {
  ensure(slab_ != nullptr, "no slab bound to this context");
  return PayloadWriter(*slab_, shard_);
}

void Context::wake_next_round() { engine_.queue_wake(shard_, self_); }

std::span<const std::uint8_t> Context::payload_bytes(
    const Envelope& env) const {
  return engine_.resolve(env.flat);
}

void Context::push_send(PeerId to, TrafficCategory category,
                        std::uint64_t bytes, std::any payload, PayloadRef flat,
                        SessionId session, PhaseId phase,
                        std::span<const obs::LineageId> parents) {
  KeyedSend ks{major_,
               next_minor_++,
               /*is_ack=*/0,
               /*ack_msg_id=*/0,
               Envelope{self_, to, category, bytes, std::move(payload), flat,
                        session, phase, obs::kNoLineage},
               obs::kNoLineage,
               {}};
  // First nonzero parent becomes the primary; the rest go to the sampled
  // extra-edge store. Zero ids (round-originated causes) are skipped so
  // callers can push causes unconditionally.
  for (const obs::LineageId p : parents) {
    if (p == obs::kNoLineage) continue;
    if (ks.parent == obs::kNoLineage) {
      ks.parent = p;
    } else if (p != ks.parent) {
      // Only multi-parent merges (convergecast forwards under lineage)
      // reach here; flat steady-state sends carry exactly one parent.
      // nf-lint: nf-cap-noalloc-ok
      ks.extra_parents.push_back(p);
    }
  }
  // The per-shard outbox is cleared at every barrier but never shrunk, so
  // its capacity persists after warm-up (steady_alloc_test is the gate).
  // nf-lint: nf-cap-noalloc-ok
  outbox_->push_back(std::move(ks));
}

void Context::send(PeerId to, TrafficCategory category, std::uint64_t bytes,
                   std::any payload) {
  push_send(to, category, bytes, std::move(payload), PayloadRef{}, kNoSession,
            0, std::span<const obs::LineageId>(&cause_, 1));
}

void Context::send(PeerId to, TrafficCategory category, std::uint64_t bytes,
                   std::any payload,
                   std::span<const obs::LineageId> parents) {
  push_send(to, category, bytes, std::move(payload), PayloadRef{}, kNoSession,
            0, parents);
}

void Context::send_tagged(PeerId to, TrafficCategory category,
                          std::uint64_t bytes, std::any payload,
                          SessionId session, PhaseId phase) {
  push_send(to, category, bytes, std::move(payload), PayloadRef{}, session,
            phase, std::span<const obs::LineageId>(&cause_, 1));
}

void Context::send_tagged(PeerId to, TrafficCategory category,
                          std::uint64_t bytes, std::any payload,
                          SessionId session, PhaseId phase,
                          std::span<const obs::LineageId> parents) {
  push_send(to, category, bytes, std::move(payload), PayloadRef{}, session,
            phase, parents);
}

void Context::send_flat(PeerId to, TrafficCategory category,
                        std::uint64_t bytes, PayloadRef flat) {
  push_send(to, category, bytes, {}, flat, kNoSession, 0,
            std::span<const obs::LineageId>(&cause_, 1));
}

void Context::send_flat(PeerId to, TrafficCategory category,
                        std::uint64_t bytes, PayloadRef flat,
                        std::span<const obs::LineageId> parents) {
  push_send(to, category, bytes, {}, flat, kNoSession, 0, parents);
}

void Context::send_flat_tagged(PeerId to, TrafficCategory category,
                               std::uint64_t bytes, PayloadRef flat,
                               SessionId session, PhaseId phase,
                               std::span<const obs::LineageId> parents) {
  push_send(to, category, bytes, {}, flat, session, phase, parents);
}

Engine::Engine(Overlay& overlay, TrafficMeter& meter,
               const EngineConfig& config)
    : overlay_(overlay),
      meter_(meter),
      obs_(config.obs),
      threads_(config.threads),
      link_(config.link),
      fault_(config.fault) {
  require(meter.num_peers() == overlay.num_peers(),
          "meter and overlay disagree on peer count");
  require(threads_ >= 1, "threads must be >= 1");
  require(link_.min_delay >= 1, "latency must be at least one round");
  require(link_.max_delay >= link_.min_delay,
          "max_delay must be >= min_delay");
  require(link_.max_backlog_rounds >= 1, "max_backlog_rounds must be >= 1");
  require(fault_.loss_probability >= 0.0 && fault_.loss_probability < 1.0,
          "loss probability must be in [0, 1)");
  require(fault_.retransmit_after >= 1, "retransmit_after must be >= 1");
  require(fault_.max_retries >= 1, "max_retries must be >= 1");

  // The engine thread drives one shard itself, so K shards need K-1 workers.
  if (threads_ > 1) pool_ = std::make_unique<ShardPool>(threads_ - 1);
  lossy_ = fault_.loss_probability > 0.0;
  link_delay_on_ = link_.max_delay > 1;
  link_capacity_on_ = link_.capacity_limited();
  // The transit ring must span the farthest admissible delivery offset:
  // max_delay alone for the infinite-capacity path (identical ring
  // geometry to the historical engine — slab offsets and reports stay
  // bit-for-bit), plus the backlog horizon when links can queue. Delay-1
  // traffic needs two slots: drain bucket r, fill r+1.
  const std::size_t span =
      link_capacity_on_
          ? static_cast<std::size_t>(link_.max_delay) +
                link_.max_backlog_rounds
          : static_cast<std::size_t>(link_.max_delay) + 1;
  transit_ring_.resize(std::max<std::size_t>(2, span));
  ring_slabs_.resize(transit_ring_.size());
  if (link_capacity_on_) link_queues_.configure(overlay_.num_peers());
  if (lossy_) {
    retry_wheel_.resize(std::size_t{fault_.retransmit_after} + 1);
    // One round more than the farthest delivery offset (ring size - 1).
    front_history_.assign(transit_ring_.size() + 1, next_msg_id_);
  }

  obs::Context* const obs = config.obs;
  if (obs == nullptr) return;
  lineage_ = &obs->lineage;
  obs_steady_allocs_ = &obs->registry.counter("engine/steady_allocs");
  obs_sent_ = &obs->registry.counter("engine/sent");
  obs_delivered_ = &obs->registry.counter("engine/delivered");
  obs_rounds_ = &obs->registry.counter("engine/rounds");
  obs_sent_bytes_ = &obs->registry.counter("engine/sent_bytes");
  obs_msg_bytes_ = &obs->registry.histogram("engine/msg_bytes");
  obs_in_flight_ = &obs->registry.gauge("engine/in_flight");
  link_stats_ = &obs->link_stats;
  obs_overhead_us_ = &obs->registry.counter("obs/overhead_us");
  obs_round_us_ = &obs->registry.counter("engine/round_us");
  // Link-scheduler telemetry (all zero under infinite capacity).
  obs_queued_msgs_ = &obs->registry.counter("engine/congestion/queued_msgs");
  obs_queue_delay_ =
      &obs->registry.counter("engine/congestion/queue_delay_rounds");
  obs_clamped_bytes_ =
      &obs->registry.counter("engine/congestion/clamped_bytes");
  obs_backlog_bytes_ = &obs->registry.gauge("engine/backlog_bytes");
  // Built-in engine series. Successive engines sharing one context rebind
  // these columns (re-baselining the counters), so deltas keep flowing.
  obs->series.track_counter("engine/sent", obs_sent_);
  obs->series.track_counter("engine/delivered", obs_delivered_);
  obs->series.track_counter("engine/sent_bytes", obs_sent_bytes_);
  obs->series.track_gauge("engine/in_flight", obs_in_flight_);
  obs->series.track_counter("obs/overhead_us", obs_overhead_us_);
  obs->series.track_counter("engine/round_us", obs_round_us_);
  obs->series.track_gauge("engine/backlog_bytes", obs_backlog_bytes_);
  obs->series.track_counter("engine/congestion/queue_delay_rounds",
                            obs_queue_delay_);
}

void Engine::set_send_probe(std::function<void(const Envelope&)> probe) {
  send_probe_ = std::move(probe);
}

std::vector<Engine::Outgoing>& Engine::bucket_at(std::uint64_t round) {
  return transit_ring_[static_cast<std::size_t>(round % transit_ring_.size())];
}

SlabArena& Engine::ring_slab_at(std::uint64_t round) {
  return ring_slabs_[static_cast<std::size_t>(round % ring_slabs_.size())];
}

std::span<const std::uint8_t> Engine::resolve(const PayloadRef& ref) const {
  if (!ref.valid()) return {};
  if (ref.slab >= kRingSlabBase) {
    const std::size_t slot = ref.slab - kRingSlabBase;
    ensure(slot < ring_slabs_.size(), "bad ring slab id");
    return ring_slabs_[slot].view(ref.offset, ref.length);
  }
  ensure(ref.slab < shard_slabs_.size(), "bad shard slab id");
  return shard_slabs_[ref.slab].view(ref.offset, ref.length);
}

void Engine::ack_received(PeerId original_sender, std::uint64_t msg_id) {
  Unacked* const slot = find_unacked(msg_id);
  // No live slot: a duplicate ACK for a message already acknowledged (or
  // given up).
  if (slot == nullptr) return;
  ensure(slot->envelope.from == original_sender,
         "ACK names another sender's message");
  finish_unacked(msg_id);
}

std::uint64_t Engine::register_unacked(
    const Envelope& envelope, std::span<const std::uint8_t> flat_bytes) {
  if (next_msg_id_ - unacked_front_ == unacked_index_.size()) {
    rehome(unacked_index_, std::max<std::size_t>(64, 2 * unacked_index_.size()),
           unacked_front_, next_msg_id_, kNone);
  }
  std::uint32_t s = 0;
  if (free_slots_.empty()) {
    s = static_cast<std::uint32_t>(unacked_slots_.size());
    // Slot and free lists are reserved in begin_steady_state().
    unacked_slots_.emplace_back();
  } else {
    s = free_slots_.back();
    free_slots_.pop_back();
  }
  Unacked& slot = unacked_slots_[s];
  slot.envelope = envelope;
  slot.attempts = 1;
  stash_payload(flat_bytes, slot);
  const std::uint64_t id = next_msg_id_++;
  unacked_index_[id & (unacked_index_.size() - 1)] = s;
  ++pending_count_;
  // Wheel buckets are cleared when due but never shrunk (and reserved in
  // begin_steady_state()).
  std::vector<std::uint64_t>& bucket = retry_wheel_[static_cast<std::size_t>(
      (round_ + fault_.retransmit_after) % retry_wheel_.size())];
  bucket.push_back(id);
  return id;
}

Engine::Unacked* Engine::find_unacked(std::uint64_t msg_id) {
  if (msg_id < unacked_front_ || msg_id >= next_msg_id_) return nullptr;
  const std::uint32_t s = unacked_index_[msg_id & (unacked_index_.size() - 1)];
  return s != kNone ? &unacked_slots_[s] : nullptr;
}

void Engine::finish_unacked(std::uint64_t msg_id) {
  const std::uint64_t mask = unacked_index_.size() - 1;
  std::uint32_t& s = unacked_index_[msg_id & mask];
  Unacked& slot = unacked_slots_[s];
  if (slot.envelope.flat.valid() && slot.envelope.flat.length != 0) {
    release_chunk(slot.chunk);
  }
  slot.envelope.payload.reset();  // a typed payload's object goes now
  // Reserved alongside the slots: never grows.
  free_slots_.push_back(s);
  s = kNone;
  --pending_count_;
  while (unacked_front_ < next_msg_id_ &&
         unacked_index_[unacked_front_ & mask] == kNone) {
    ++unacked_front_;
  }
}

std::span<const std::uint8_t> Engine::unacked_payload(
    const Unacked& slot) const {
  const std::uint32_t length = slot.envelope.flat.length;
  if (!slot.envelope.flat.valid() || length == 0) return {};
  return {payload_chunks_[slot.chunk].bytes.data() + slot.offset, length};
}

void Engine::stash_payload(std::span<const std::uint8_t> bytes,
                           Unacked& slot) {
  if (bytes.empty()) return;
  const auto fits = [&bytes](const PayloadChunk& c) {
    return c.used + bytes.size() <= c.bytes.size();
  };
  if (open_chunk_ == kNone || !fits(payload_chunks_[open_chunk_])) {
    // Close the open chunk (recycled now if nothing in it is live, else by
    // its last release_chunk()) and open a free one that fits, or a new one.
    if (open_chunk_ != kNone && payload_chunks_[open_chunk_].live == 0) {
      free_chunks_.push_back(open_chunk_);
    }
    open_chunk_ = kNone;
    for (std::size_t i = free_chunks_.size(); i-- > 0;) {
      if (payload_chunks_[free_chunks_[i]].bytes.size() >= bytes.size()) {
        open_chunk_ = free_chunks_[i];
        free_chunks_.erase(free_chunks_.begin() +
                           static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    if (open_chunk_ == kNone) {
      constexpr std::size_t kChunkBytes = std::size_t{64} << 10;
      open_chunk_ = static_cast<std::uint32_t>(payload_chunks_.size());
      payload_chunks_.emplace_back();
      payload_chunks_.back().bytes.resize(
          std::max(kChunkBytes, std::bit_ceil(bytes.size())));
    }
  }
  PayloadChunk& c = payload_chunks_[open_chunk_];
  std::copy(bytes.begin(), bytes.end(),
            c.bytes.begin() + static_cast<std::ptrdiff_t>(c.used));
  slot.chunk = open_chunk_;
  slot.offset = c.used;
  c.used += static_cast<std::uint32_t>(bytes.size());
  ++c.live;
}

void Engine::release_chunk(std::uint32_t chunk) {
  PayloadChunk& c = payload_chunks_[chunk];
  if (--c.live != 0) return;
  c.used = 0;  // nothing live: the open chunk refills from the start
  if (chunk != open_chunk_) free_chunks_.push_back(chunk);
}

bool Engine::mark_delivered(std::uint64_t msg_id) {
  const std::uint64_t word = msg_id >> 6;
  ensure(word >= delivered_base_,
         "delivered bit dropped while a copy was still in transit");
  if (word - delivered_base_ >= delivered_.size()) {
    // Double until the window covers every msg id assigned so far.
    const std::uint64_t span = ((next_msg_id_ - 1) >> 6) - delivered_base_ + 1;
    std::size_t size = std::max<std::size_t>(64, 2 * delivered_.size());
    while (size < span) size *= 2;
    rehome(delivered_, size, delivered_base_,
           delivered_base_ + delivered_.size(), std::uint64_t{0});
  }
  std::uint64_t& bits = delivered_[word & (delivered_.size() - 1)];
  const std::uint64_t bit = std::uint64_t{1} << (msg_id & 63);
  const bool seen = (bits & bit) != 0;
  bits |= bit;
  return seen;
}

void Engine::forget_delivered_below(std::uint64_t msg_id) {
  const std::uint64_t word = msg_id >> 6;
  if (word <= delivered_base_) return;
  // Zero the dropped words: their slots come back for later msg ids.
  const std::uint64_t n =
      std::min<std::uint64_t>(word - delivered_base_, delivered_.size());
  for (std::uint64_t w = delivered_base_; w < delivered_base_ + n; ++w) {
    delivered_[w & (delivered_.size() - 1)] = 0;
  }
  delivered_base_ = word;
}

void Engine::predispatch(std::vector<Outgoing>& inbox, const ShardPlan& plan) {
  engine_sends_.clear();
  for (auto& sc : shards_) {
    sc.inq.clear();
    sc.outbox.clear();
  }
  // Shard outbox slabs from the previous round were drained into ring-slot
  // slabs at the merge barrier; reclaim them (capacity kept).
  for (auto& slab : shard_slabs_) slab.reset();
  // Msg ids below the unacked front of front_history_.size() rounds ago
  // have no copy left in transit: their delivered bits can go.
  if (lossy_) {
    forget_delivered_below(
        front_history_[static_cast<std::size_t>(round_ %
                                                front_history_.size())]);
  }
  for (std::size_t i = 0; i < inbox.size(); ++i) {
    Outgoing& out = inbox[i];
    // Messages to peers that died in transit are dropped (the network does
    // not buffer for the dead).
    if (!overlay_.is_alive(out.envelope.to)) {
      ++dropped_;
      continue;
    }
    if (out.lost) {
      ++lost_;  // the link ate it; the retransmission timer will cover it
      continue;
    }
    if (out.is_ack) {
      ack_received(out.envelope.to, out.msg_id);
      continue;
    }
    if (lossy_ && out.msg_id != 0) {
      // Acknowledge receipt — even for duplicates, so the sender stops
      // retransmitting. The ACK travels outside any protocol and is itself
      // lossy; it finalizes at this round's barrier with key (i, 0), ahead
      // of anything the handler of message i sends.
      engine_sends_.push_back(Context::KeyedSend{
          static_cast<std::uint64_t>(i), 0, /*is_ack=*/1, out.msg_id,
          Envelope{out.envelope.to, out.envelope.from,
                   TrafficCategory::kControl, fault_.ack_bytes, {}, {},
                   kNoSession, PhaseId{0}, obs::kNoLineage},
          obs::kNoLineage,
          {}});
      // Exactly-once delivery: retransmitted duplicates stop here.
      if (mark_delivered(out.msg_id)) {
        ++duplicates_;
        continue;
      }
    }
    // The message will reach its handler this round: mark the delivery in
    // the lineage DAG. Dead-destination drops, link losses and suppressed
    // duplicates return above, so their nodes stay undelivered and never
    // enter critical paths or flow arrows.
    if (lineage_ != nullptr && out.envelope.lineage != obs::kNoLineage) {
      lineage_->delivered(out.envelope.lineage, lineage_clock_);
    }
    shards_[plan.shard_of(out.envelope.to)].inq.push_back(
        Delivery{static_cast<std::uint64_t>(i), std::move(out)});
  }
}

void Engine::run_shard(Protocol& protocol, std::uint32_t shard,
                       std::uint64_t tick_base) {
  // Busy wall time is written only to this shard's own slot, so workers
  // never race; the engine thread folds the slots into gauges after the
  // dispatch barrier.
  obs::WallTime t0;
  if (obs_ != nullptr) t0 = obs::wall_now();
  ShardScratch& sc = shards_[shard];
  // This round ticks the peers queued last round; wake requests made from
  // here on queue for the next. Swapping keeps both lists' capacity.
  std::swap(sc.ticks, sc.wake);
  sc.wake.clear();
  for (const PeerId p : sc.ticks) wake_queued_[p] = false;
  std::sort(sc.ticks.begin(), sc.ticks.end());
  for (Delivery& d : sc.inq) {
    if (obs_ != nullptr) obs_delivered_->add(1);
    Context ctx(*this, d.out.envelope.to, &sc.outbox, &shard_slabs_[shard],
                shard, /*major=*/d.index, /*first_minor=*/1,
                /*cause=*/d.out.envelope.lineage);
    protocol.on_message(ctx, std::move(d.out.envelope));
  }
  for (const PeerId peer : sc.ticks) {
    if (!overlay_.is_alive(peer)) continue;
    Context ctx(*this, peer, &sc.outbox, &shard_slabs_[shard], shard,
                /*major=*/tick_base + peer.value(), /*first_minor=*/0,
                /*cause=*/obs::kNoLineage);
    protocol.on_round(ctx);
  }
  if (obs_ != nullptr) shard_busy_us_[shard] += obs::elapsed_us(t0);
}

void Engine::queue_wake(std::uint32_t shard, PeerId peer) {
  if (wake_queued_[peer]) return;
  wake_queued_[peer] = true;
  // Reserved to the shard's peer range and duplicate-free: never grows.
  shards_[shard].wake.push_back(peer);
}

void Engine::admit(Outgoing&& out, std::span<const std::uint8_t> flat_bytes) {
  // One loss draw per transmission from a counter-keyed hash stream; the
  // decision is made at admission (canonical order) and applied at
  // delivery, so it is independent of the shard count.
  if (lossy_) {
    out.lost = hash_uniform(next_transmission_++, fault_.seed) <
               fault_.loss_probability;
  }
  std::uint32_t d = 1;
  if (link_delay_on_) d = link_.delay(out.envelope.from, out.envelope.to);
  // Link scheduler: behind a backlog, the message spends extra transfer
  // rounds beyond its propagation delay. Admissions run on the engine
  // thread in canonical (major, minor) order, so the per-link queue state
  // — and with it every delivery round — is identical for any shard count.
  if (link_capacity_on_) {
    const std::uint64_t cap =
        link_.capacity(out.envelope.from, out.envelope.to);
    if (cap != kInfiniteCapacity) {
      const std::uint32_t level =
          link_stats_ != nullptr
              ? static_cast<std::uint32_t>(link_stats_->level_of_link(
                    out.envelope.from.value(), out.envelope.to.value()))
              : ~0u;
      const LinkQueueTable::Scheduled sched = link_queues_.schedule(
          out.envelope.from, out.envelope.to, cap, out.envelope.bytes,
          link_.max_backlog_rounds, level);
      if (sched.queue_rounds > 1) {
        ++queued_msgs_;
        queue_delay_rounds_ += sched.queue_rounds - 1;
        if (obs_ != nullptr) {
          obs_queued_msgs_->add(1);
          obs_queue_delay_->add(sched.queue_rounds - 1);
        }
        // The whole message waited behind the backlog: charge it to the
        // congestion spill summary so `nf-inspect congestion` can rank the
        // links the queueing gates on.
        if (link_stats_ != nullptr) {
          link_stats_->charge_spill(out.envelope.from.value(),
                                    out.envelope.to.value(),
                                    out.envelope.bytes);
        }
        d += static_cast<std::uint32_t>(sched.queue_rounds - 1);
      }
      if (sched.clamped_bytes != 0) {
        clamped_bytes_ += sched.clamped_bytes;
        if (obs_ != nullptr) obs_clamped_bytes_->add(sched.clamped_bytes);
      }
    }
  }
  // Park the payload span in the delivery slot's slab and rewrite the ref.
  // Admissions happen in canonical order on the engine thread, so slot-slab
  // offsets are identical for any shard count.
  if (out.envelope.flat.valid()) {
    const std::uint64_t slot = (round_ + d) % ring_slabs_.size();
    out.envelope.flat =
        copy_to_slab(ring_slabs_[static_cast<std::size_t>(slot)],
                     kRingSlabBase + static_cast<std::uint32_t>(slot),
                     flat_bytes);
  }
  if (send_probe_) send_probe_(out.envelope);
  // Delivery-ring buckets are cleared per round but never shrunk; capacity
  // persists after warm-up (steady_alloc_test is the runtime gate).
  // nf-lint: nf-cap-noalloc-ok
  bucket_at(round_ + d).push_back(std::move(out));
  ++in_transit_;
}

void Engine::drain_link_queues() {
  // Round barrier: every backlogged link clears up to its capacity. The
  // walk is engine-thread sequential over state built in canonical
  // admission order, so backlog trajectories — and the gauges fed from
  // them — are identical for any shard count.
  if (link_stats_ != nullptr) {
    const std::size_t rows =
        static_cast<std::size_t>(link_stats_->num_levels()) + 1;
    backlog_by_level_.assign(rows, 0);
    backlog_bytes_ = link_queues_.drain_round(
        [this, rows](std::uint32_t level, std::uint64_t bytes) {
          const std::size_t row = level < rows ? level : rows - 1;
          backlog_by_level_[row] += bytes;
        });
    // Publish every level every round (a cleared level must fall back to
    // 0, not hold its peak).
    for (std::size_t row = 0; row + 1 < rows; ++row) {
      link_stats_->set_backlog(row, backlog_by_level_[row]);
    }
  } else {
    backlog_bytes_ =
        link_queues_.drain_round([](std::uint32_t, std::uint64_t) {});
  }
  if (obs_ != nullptr) {
    obs_backlog_bytes_->set(static_cast<double>(backlog_bytes_));
  }
}

void Engine::begin_steady_state() {
  steady_ = true;
  // Snap every ring slot to the ring-wide high-water mark. Warm-up runs
  // only grow the slots their round parities happened to use; without this,
  // the first steady run whose heavy round lands on a colder slot would
  // regrow it and show up as a spurious steady-state allocation.
  // inbox_scratch_ joins the pool: delivery swaps its storage with the
  // drained bucket's, so capacities rotate through buckets AND scratch.
  std::size_t slab_cap = 0;
  std::size_t bucket_cap = inbox_scratch_.capacity();
  for (const auto& s : ring_slabs_) slab_cap = std::max(slab_cap, s.capacity());
  for (const auto& b : transit_ring_) {
    bucket_cap = std::max(bucket_cap, b.capacity());
  }
  for (auto& s : ring_slabs_) s.reserve(slab_cap);
  for (auto& b : transit_ring_) b.reserve(bucket_cap);
  inbox_scratch_.reserve(bucket_cap);
  if (!lossy_) return;
  // Loss draws differ from run to run, so a warmed lossy run may hold more
  // messages unacked, or due in one round, than the warm-up's peak: give
  // the reliability rings and wheel buckets twice their warmed size.
  rehome(unacked_index_, std::max<std::size_t>(64, 2 * unacked_index_.size()),
         unacked_front_, next_msg_id_, kNone);
  rehome(delivered_, std::max<std::size_t>(64, 2 * delivered_.size()),
         delivered_base_, delivered_base_ + delivered_.size(),
         std::uint64_t{0});
  unacked_slots_.reserve(2 * unacked_slots_.size());
  free_slots_.reserve(unacked_slots_.capacity());
  const std::size_t chunks = payload_chunks_.size();
  payload_chunks_.reserve(2 * chunks);
  for (std::size_t i = 0; i < chunks; ++i) {
    free_chunks_.push_back(static_cast<std::uint32_t>(payload_chunks_.size()));
    payload_chunks_.emplace_back();
    payload_chunks_.back().bytes.resize(payload_chunks_[i].bytes.size());
  }
  free_chunks_.reserve(payload_chunks_.size());
  std::size_t due_cap = 0;
  for (const auto& b : retry_wheel_) due_cap = std::max(due_cap, b.capacity());
  for (auto& bucket : retry_wheel_) bucket.reserve(2 * due_cap);
  due_scratch_.reserve(2 * due_cap);
}

void Engine::merge_runs() {
  // Every run is already in canonical key order: engine_sends_ holds the
  // ACKs, keyed (inbox index, 0) in inbox order, and a shard's outbox holds
  // its deliveries' sends in inbox order, then its ticks' sends in peer
  // order. Keys are unique (ACKs take minor 0 of their delivery slot,
  // handler sends start at 1), so merging the runs yields the serial
  // engine's send order without a sort.
  merge_order_.clear();
  merge_runs_.clear();
  std::size_t total = 0;
  const auto add_run = [&](std::vector<Context::KeyedSend>& run) {
    total += run.size();
    if (!run.empty()) {
      // Reserved to the shard count + 1 at run start: never grows.
      merge_runs_.push_back(MergeRun{run.data(), run.data() + run.size()});
    }
  };
  add_run(engine_sends_);
  for (auto& sc : shards_) add_run(sc.outbox);
  merge_order_.reserve(total);
  const auto before = [](const Context::KeyedSend& a,
                         const Context::KeyedSend& b) {
    return a.major != b.major ? a.major < b.major : a.minor < b.minor;
  };
  while (!merge_runs_.empty()) {
    // Take from the run with the smallest head for as long as its head
    // stays below every other run's head.
    std::size_t best = 0;
    for (std::size_t r = 1; r < merge_runs_.size(); ++r) {
      if (before(*merge_runs_[r].next, *merge_runs_[best].next)) best = r;
    }
    const Context::KeyedSend* bound = nullptr;
    for (std::size_t r = 0; r < merge_runs_.size(); ++r) {
      if (r == best) continue;
      if (bound == nullptr || before(*merge_runs_[r].next, *bound)) {
        bound = merge_runs_[r].next;
      }
    }
    MergeRun& run = merge_runs_[best];
    do {
      merge_order_.push_back(run.next);
      ++run.next;
      if (run.next == run.end) break;
      // A run out of order would silently reorder the send stream.
      ensure(before(*(run.next - 1), *run.next),
             "barrier merge: a send run is out of canonical order");
    } while (bound == nullptr || before(*run.next, *bound));
    if (run.next == run.end) {
      run = merge_runs_.back();
      merge_runs_.pop_back();
    }
  }
}

void Engine::merge_and_finalize() {
  merge_runs();

  // Topology telemetry: charge every send of this round — per-level byte/
  // message matrix, per-level series counters and the heavy-hitter link
  // summary — in the canonical order just established, before finalize
  // moves the envelopes. Feeding ONE summary here on the engine thread is
  // what keeps the Misra-Gries state bit-identical for any shard count
  // (a per-shard fold would be merge-order sensitive). Timed: this pass is
  // the telemetry plane's marginal cost, so it bills to the overhead meter.
  if (link_stats_ != nullptr) {
    const obs::WallTime t0 = obs::wall_now();
    for (const Context::KeyedSend* ks : merge_order_) {
      link_stats_->charge(ks->envelope.from.value(), ks->envelope.to.value(),
                          static_cast<std::size_t>(ks->envelope.category),
                          ks->envelope.bytes);
    }
    round_obs_ns_ += obs::elapsed_ns(t0);
  }

  // Finalize in order: meter charges are batched per (sender, category)
  // run so a fan-out to many destinations costs one meter update per
  // batch, not per message.
  PeerId batch_from{};
  TrafficCategory batch_cat{};
  std::uint64_t batch_bytes = 0;
  std::uint64_t batch_msgs = 0;
  const auto flush = [&] {
    if (batch_msgs != 0) {
      meter_.record_batch(batch_from, batch_cat, batch_bytes, batch_msgs);
      batch_bytes = 0;
      batch_msgs = 0;
    }
  };
  for (Context::KeyedSend* const next : merge_order_) {
    Context::KeyedSend& ks = *next;
    if (batch_msgs != 0 && (ks.envelope.from != batch_from ||
                            ks.envelope.category != batch_cat)) {
      flush();
    }
    batch_from = ks.envelope.from;
    batch_cat = ks.envelope.category;
    batch_bytes += ks.envelope.bytes;
    ++batch_msgs;
    if (obs_ != nullptr) {
      obs_sent_->add(1);
      obs_sent_bytes_->add(ks.envelope.bytes);
      obs_msg_bytes_->observe(ks.envelope.bytes);
    }
    // Stamp the lineage id here, in canonical order, so ids are identical
    // for any shard count. ACKs are engine bookkeeping and stay unstamped;
    // retransmissions re-admit the unacked slot's envelope, which keeps the
    // id assigned at first admission.
    if (lineage_ != nullptr && ks.is_ack == 0) {
      const obs::LineageId id = lineage_->admit(
          ks.parent, ks.envelope.from, ks.envelope.to, ks.envelope.session,
          ks.envelope.phase, ks.envelope.bytes, lineage_clock_);
      ks.envelope.lineage = id;
      for (const obs::LineageId p : ks.extra_parents) lineage_->link(id, p);
    }
    Outgoing out{std::move(ks.envelope), /*msg_id=*/0, ks.is_ack != 0,
                 /*lost=*/false};
    // The producing shard's slab holds the payload until this barrier;
    // admit() copies the span into the delivery slot's slab.
    const std::span<const std::uint8_t> flat_bytes = resolve(out.envelope.flat);
    if (out.is_ack) {
      out.msg_id = ks.ack_msg_id;
    } else if (lossy_) {
      // Register for retransmission until acknowledged; the slot keeps the
      // envelope as first admitted (lost is drawn per transmission in
      // admit()) and its own copy of the payload bytes.
      out.msg_id = register_unacked(out.envelope, flat_bytes);
    }
    admit(std::move(out), flat_bytes);
  }
  flush();
}

void Engine::retransmit_due() {
  if (!lossy_) return;
  // Only this round's wheel bucket is touched. Its live messages go out in
  // (sender, msg id) order — the order a walk over every sender's unacked
  // messages would visit them — so loss draws and ring-slab offsets do not
  // depend on how the bucket filled.
  std::vector<std::uint64_t>& bucket =
      retry_wheel_[static_cast<std::size_t>(round_ % retry_wheel_.size())];
  const std::uint64_t base = unacked_front_;
  due_scratch_.clear();
  for (const std::uint64_t id : bucket) {
    const Unacked* const slot = find_unacked(id);
    if (slot == nullptr) continue;  // acked or given up since it was queued
    ensure(id - base <= 0xFFFF'FFFFull, "unacked window beyond 2^32 ids");
    // Reserved to the largest bucket's capacity: never grows.
    due_scratch_.push_back(std::uint64_t{slot->envelope.from.value()} << 32 |
                           (id - base));
  }
  bucket.clear();
  std::sort(due_scratch_.begin(), due_scratch_.end());
  std::vector<std::uint64_t>& later = retry_wheel_[static_cast<std::size_t>(
      (round_ + fault_.retransmit_after) % retry_wheel_.size())];
  for (const std::uint64_t key : due_scratch_) {
    const std::uint64_t id = base + (key & 0xFFFF'FFFFull);
    Unacked& slot = *find_unacked(id);
    if (slot.attempts > fault_.max_retries) {
      ++given_up_;
      finish_unacked(id);
      continue;
    }
    ++slot.attempts;
    ++retransmissions_;
    later.push_back(id);
    const Envelope& env = slot.envelope;
    meter_.record(env.from, env.category, env.bytes);
    // Retransmissions re-cross the link: charge them like the meter does,
    // in the same deterministic order.
    if (link_stats_ != nullptr) {
      link_stats_->charge(env.from.value(), env.to.value(),
                          static_cast<std::size_t>(env.category), env.bytes);
    }
    // Copy; the slot keeps the original. The payload travels as the slot's
    // stashed bytes, never as a reconstructed object.
    admit(Outgoing{env, id, /*is_ack=*/false, /*lost=*/false},
          unacked_payload(slot));
  }
}

std::uint64_t Engine::run(Protocol& protocol, std::uint64_t max_rounds,
                          const ChurnSchedule* schedule) {
  const std::uint64_t start_round = round_;
  const ShardPlan plan(overlay_.num_peers(), threads_);
  shards_.resize(plan.num_shards());
  shard_slabs_.resize(plan.num_shards());
  // Built once per run (not per round): a per-round std::function conversion
  // can heap-allocate, which the steady-state gate would count.
  std::function<void(std::uint32_t)> shard_task;
  if (pool_ != nullptr && plan.num_shards() > 1) {
    shard_task = [this, &protocol](std::uint32_t k) {
      run_shard(protocol, k, tick_base_);
    };
  }
  if (obs_ != nullptr) {
    // Cumulative busy/idle wall-time gauges, one pair per shard. Only the
    // busy series is sampled per round (idle follows from the round wall
    // time); handles are looked up once per run, never per round.
    obs_shard_busy_.clear();
    obs_shard_idle_.clear();
    for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
      const std::string base = "engine/shard" + std::to_string(k) + "/";
      // This IS the hoist: one lookup per shard per run, cached below.
      obs::Gauge* busy = &obs_->registry.gauge(base + "busy_us");  // nf-lint: nf-obs-context-ok
      obs_->series.track_gauge(base + "busy_us", busy);
      obs_shard_busy_.push_back(busy);
      obs_shard_idle_.push_back(&obs_->registry.gauge(base + "idle_us"));  // nf-lint: nf-obs-context-ok
    }
    shard_busy_us_.assign(plan.num_shards(), 0);
  }
  // The first round ticks every peer: each run starts with every peer
  // queued. Both lists are reserved to the shard's range, so a push never
  // allocates.
  wake_queued_.assign(overlay_.num_peers(), true);
  for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
    ShardScratch& sc = shards_[k];
    sc.ticks.clear();
    sc.ticks.reserve(plan.end(k) - plan.begin(k));
    sc.wake.clear();
    sc.wake.reserve(plan.end(k) - plan.begin(k));
    for (std::uint32_t p = plan.begin(k); p < plan.end(k); ++p) {
      sc.wake.push_back(PeerId(p));
    }
  }
  merge_runs_.reserve(plan.num_shards() + 1);
  if (lineage_ != nullptr) {
    // Window the lineage analysis on this run: record the pre-run clock
    // (deliveries during round r carry clock base + r + 1, so relative
    // rounds start at 1) and the first node id this run will admit.
    lineage_->mark_run_start(obs_->tracer.clock());
  }
  protocol.on_run_start(overlay_, plan.num_shards());
  for (std::uint64_t executed = 0; executed < max_rounds; ++executed) {
    const std::uint64_t allocs_at_round_start = alloc_hook::count();
    // 0. Stamp the round boundary: advance the tracer's logical clock so
    // every event recorded during this round carries it. round_t0 doubles
    // as the whole-round wall anchor for the self-overhead meter.
    obs::WallTime round_t0{};
    if (obs_ != nullptr) {
      round_t0 = obs::wall_now();
      round_obs_ns_ = 0;
      obs_->tracer.advance_clock();
      obs_rounds_->add(1);
      obs_->tracer.record(obs::EventKind::kRound, "engine.round",
                          obs::kNoPeer, bucket_at(round_).size());
      lineage_clock_ = obs_->tracer.clock();
      round_obs_ns_ += obs::elapsed_ns(round_t0);
    }

    // 1. Apply churn scheduled for this round.
    if (schedule != nullptr) {
      for (const auto& event : schedule->events_at(round_)) {
        switch (event.type) {
          case ChurnEventType::kFail: overlay_.fail(event.peer); break;
          case ChurnEventType::kJoin:
            // A revived peer is ticked in its revival round.
            if (!overlay_.is_alive(event.peer)) {
              queue_wake(plan.shard_of(event.peer), event.peer);
            }
            overlay_.revive(event.peer);
            break;
        }
      }
    }

    // 2. Whole-round protocol bookkeeping, engine thread.
    protocol.on_round_begin(round_);

    // 3. Predispatch this round's arrivals: drops, loss, ACK accounting and
    // duplicate suppression happen here on the engine thread; survivors are
    // routed to the destination peer's shard tagged with their inbox index.
    // Swap (not move) the bucket with a reusable scratch vector so neither
    // side loses its capacity — a move would steal it and force the bucket
    // to regrow every ring lap.
    inbox_scratch_.clear();
    std::swap(inbox_scratch_, bucket_at(round_));
    in_transit_ -= inbox_scratch_.size();
    tick_base_ = static_cast<std::uint64_t>(inbox_scratch_.size());
    predispatch(inbox_scratch_, plan);

    // 4. Parallel phase: deliver + tick each shard's peers.
    obs::WallTime par_start;
    if (obs_ != nullptr) {
      std::fill(shard_busy_us_.begin(), shard_busy_us_.end(), 0);
      par_start = obs::wall_now();
    }
    if (shard_task) {
      pool_->dispatch(plan.num_shards(), shard_task);
    } else {
      for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
        run_shard(protocol, k, tick_base_);
      }
    }
    if (obs_ != nullptr) {
      // Idle is this round's parallel-phase wall time minus the shard's own
      // busy time — on the serial path it measures head-of-line waiting.
      const obs::WallTime fold_t0 = obs::wall_now();
      const std::uint64_t wall = obs::elapsed_us(par_start);
      for (std::uint32_t k = 0; k < plan.num_shards(); ++k) {
        const std::uint64_t busy = shard_busy_us_[k];
        obs_shard_busy_[k]->set(obs_shard_busy_[k]->value() +
                                static_cast<double>(busy));
        obs_shard_idle_[k]->set(obs_shard_idle_[k]->value() +
                                static_cast<double>(wall > busy ? wall - busy
                                                                : 0));
      }
      round_obs_ns_ += obs::elapsed_ns(fold_t0);
    }

    // 5. Barrier merge: merge the sorted send runs into canonical order,
    // charge the meter, admit to the network. Sends made during round r
    // travel from r+1 on.
    merge_and_finalize();

    // 6. Reliability layer: resend what was not acknowledged in time, then
    // record the unacked front for the delivered bits' horizon.
    retransmit_due();
    if (lossy_) {
      front_history_[static_cast<std::size_t>(round_ %
                                              front_history_.size())] =
          unacked_front_;
    }

    // 6a-pre. Link scheduler: every backlogged link drains one round of
    // capacity; per-level backlog gauges are published before the series
    // sample below closes the round.
    if (link_capacity_on_) drain_link_queues();

    // 6a. This round's delivery slot is fully consumed (handlers ran, the
    // merge only filled future slots), so its payload slab can be reclaimed.
    // High-water-mark reset: capacity survives for the slot's next lap.
    ring_slab_at(round_).reset();

    // 6b. Close the round's series row. The stamp is the tracer's logical
    // clock (context-global), so series from the several engines a
    // netFilter run creates stay strictly increasing.
    if (obs_ != nullptr) {
      const obs::WallTime t0 = obs::wall_now();
      obs_in_flight_->set(static_cast<double>(in_transit_));
      obs_->series.sample(obs_->tracer.clock());
      round_obs_ns_ += obs::elapsed_ns(t0);
      // Self-overhead meter: block times accumulate as nanoseconds (any
      // single block is well under 1µs) and the counters advance by whole
      // microseconds with the remainder carried, so nothing is lost to
      // per-round rounding. `obs/overhead_us` / `engine/round_us` is the
      // fraction nf-inspect's overhead budget gates.
      overhead_ns_total_ += round_obs_ns_;
      const std::uint64_t oh_us = overhead_ns_total_ / 1000;
      obs_overhead_us_->add(oh_us - overhead_us_reported_);
      overhead_us_reported_ = oh_us;
      round_ns_total_ += obs::elapsed_ns(round_t0);
      const std::uint64_t rd_us = round_ns_total_ / 1000;
      obs_round_us_->add(rd_us - round_us_reported_);
      round_us_reported_ = rd_us;
    }

    // 6c. Steady-state allocation accounting (begin_steady_state()). Zero
    // for a warmed loss-free flat-payload run; any regression shows up in
    // steady_allocs() and the obs counter.
    if (steady_) {
      const std::uint64_t delta = alloc_hook::count() - allocs_at_round_start;
      steady_allocs_ += delta;
      if (obs_steady_allocs_ != nullptr && delta != 0) {
        obs_steady_allocs_->add(delta);
      }
    }

    ++round_;

    // 7. Quiescence check. Under the fault model, unacknowledged messages
    // keep the engine alive until they are delivered or given up on.
    if (in_transit_ == 0 && !protocol.active() && pending_count_ == 0) break;
  }
  protocol.on_run_end();
  return round_ - start_round;
}

}  // namespace nf::net
