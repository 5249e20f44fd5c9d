// Dense per-peer state arenas.
//
// Peers are numbered 0..N-1, so per-peer protocol state never needs a hash
// map: a dense arena indexed by the compact peer index is smaller, faster to
// iterate in the round loop, and — critically for the sharded engine
// (net/engine.h) — safe to mutate from concurrent shards as long as each
// shard only touches the slots of the peers it owns. That last property is
// why `PeerArena<bool>` stores one byte per peer instead of delegating to
// std::vector<bool>: bit-packed slots share bytes across peers, and two
// shards flipping neighboring bits is a data race.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"
#include "common/ids.h"

namespace nf {

/// Dense storage with one slot per peer, indexed by PeerId or raw index.
///
/// Sharding contract: distinct slots are independent objects, so concurrent
/// writers that partition the peer space (one writer per slot) need no
/// synchronization. Resizing or assigning the arena while shards run is not
/// allowed — size it before handing it to the engine.
template <typename T>
class PeerArena {
  // One byte per peer for bool: vector<bool> packs eight peers per byte,
  // which breaks the disjoint-slot concurrency contract above.
  using Slot = std::conditional_t<std::is_same_v<T, bool>, std::uint8_t, T>;

 public:
  using value_type = Slot;

  PeerArena() = default;
  explicit PeerArena(std::uint32_t num_peers) : slots_(num_peers) {}
  PeerArena(std::uint32_t num_peers, const T& init)
      : slots_(num_peers, static_cast<Slot>(init)) {}
  /// Adopts existing dense storage (one element per peer).
  explicit PeerArena(std::vector<Slot> slots) : slots_(std::move(slots)) {}

  [[nodiscard]] Slot& operator[](PeerId p) { return at(p.value()); }
  [[nodiscard]] const Slot& operator[](PeerId p) const {
    return at(p.value());
  }
  [[nodiscard]] Slot& operator[](std::uint32_t i) { return at(i); }
  [[nodiscard]] const Slot& operator[](std::uint32_t i) const {
    return at(i);
  }

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(slots_.size());
  }
  [[nodiscard]] bool empty() const { return slots_.empty(); }

  void assign(std::uint32_t num_peers, const T& init) {
    slots_.assign(num_peers, static_cast<Slot>(init));
  }
  void resize(std::uint32_t num_peers) { slots_.resize(num_peers); }

  [[nodiscard]] auto begin() { return slots_.begin(); }
  [[nodiscard]] auto end() { return slots_.end(); }
  [[nodiscard]] auto begin() const { return slots_.begin(); }
  [[nodiscard]] auto end() const { return slots_.end(); }
  [[nodiscard]] Slot* data() { return slots_.data(); }
  [[nodiscard]] const Slot* data() const { return slots_.data(); }

 private:
  [[nodiscard]] Slot& at(std::uint32_t i) {
    ensure(i < slots_.size(), "peer index out of arena range");
    return slots_[i];
  }
  [[nodiscard]] const Slot& at(std::uint32_t i) const {
    ensure(i < slots_.size(), "peer index out of arena range");
    return slots_[i];
  }

  std::vector<Slot> slots_;
};

/// Dense rows of a fixed width in one contiguous buffer — the
/// structure-of-arrays layout for per-owner vectors. The owner maps peers
/// (or shards) to row indices, so it can keep rows only where it needs
/// them; the aggregate convergecast keeps one f×g scratch row per shard,
/// where each member merges once (DESIGN.md §6f). The sharding contract
/// holds because distinct owners get disjoint row spans.
template <typename T>
class PeerRowArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "rows are raw spans; slot types must be trivially copyable");

 public:
  PeerRowArena() = default;

  /// (Re)shape to num_rows × width. Contents are unspecified — no fill:
  /// callers overwrite a row before they read it. Capacity is kept across
  /// reshapes, so re-running a warmed phase does not reallocate.
  void reshape(std::uint32_t num_rows, std::uint32_t width) {
    const std::size_t size = std::size_t{num_rows} * width;
    if (size > capacity_) {
      slots_ = std::make_unique_for_overwrite<T[]>(size);
      capacity_ = size;
    }
    size_ = size;
    width_ = width;
  }

  [[nodiscard]] std::uint32_t width() const { return width_; }
  [[nodiscard]] std::uint32_t num_rows() const {
    return width_ == 0 ? 0 : static_cast<std::uint32_t>(size_ / width_);
  }

  [[nodiscard]] std::span<T> row(std::uint32_t i) {
    ensure(std::size_t{i} * width_ + width_ <= size_,
           "row index out of row-arena range");
    return {slots_.get() + std::size_t{i} * width_, width_};
  }
  [[nodiscard]] std::span<const T> row(std::uint32_t i) const {
    ensure(std::size_t{i} * width_ + width_ <= size_,
           "row index out of row-arena range");
    return {slots_.get() + std::size_t{i} * width_, width_};
  }

 private:
  std::unique_ptr<T[]> slots_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::uint32_t width_ = 0;
};

}  // namespace nf
