// Flat slab-backed message payloads.
//
// The hot path never ships owning objects: a payload is encoded once into a
// byte slab and referenced by a PayloadRef — (slab id, offset, length). Slabs
// are append-only arenas with high-water-mark reset: clearing keeps the
// capacity, so after a warm-up round the steady state performs no heap
// allocation (see DESIGN.md §6f for the lifetime rules).
//
// Slab id space (assigned by net::Engine):
//   [0, kRingSlabBase)   per-shard outbox slabs, written during the parallel
//                        phase of a round, valid until the next predispatch.
//   [kRingSlabBase, ...) transit-ring slot slabs, written at the merge
//                        barrier in canonical order, valid until the slot's
//                        delivery round completes.
//
// Refs are resolved through the engine's slab table at read time, so slab
// growth never invalidates a PayloadRef (offsets are stable; only the base
// pointer moves).
//
// Writing is bulk: an encoder claims the worst-case size of what it is
// about to write at the slab's tail (the claim is not zero-filled), writes
// through a raw pointer, and commits the end it reached, which truncates
// the rest of the claim. Bytes past size() are never read. write_varint is
// the LEB128 writer behind every slab encoder (net/codec.h).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/uninit_allocator.h"

namespace nf::net {

/// First slab id reserved for transit-ring slot slabs.
inline constexpr std::uint32_t kRingSlabBase = 0x8000'0000u;

/// Sentinel slab id: the envelope carries no flat payload.
inline constexpr std::uint32_t kNoSlab = 0xFFFF'FFFFu;

/// A non-owning view into a slab arena. Trivially copyable; the engine
/// rewrites the ref when it copies the span across slab lifetimes (shard
/// outbox -> transit-ring slot, or retransmit buffer -> transit-ring slot).
struct PayloadRef {
  std::uint32_t slab = kNoSlab;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  [[nodiscard]] bool valid() const { return slab != kNoSlab; }
};

/// Longest LEB128 encoding of a 64-bit value.
inline constexpr std::size_t kMaxVarint = 10;

/// Writes the LEB128 encoding of `value` at `out`, which must have
/// kMaxVarint writable bytes, and returns one past its last byte. A value
/// below 2^56 (at most 8 encoded bytes) is one branch-free 8-byte store:
/// three shift-and-mask steps spread its 7-bit groups into byte lanes
/// (28-bit halves, 14-bit quarters, 7-bit eighths), and every lane below
/// the highest nonzero one gets the continuation bit; the lanes past the
/// encoding are scratch inside the caller's claim. Larger values take the
/// byte loop.
inline std::uint8_t* write_varint(std::uint8_t* out, std::uint64_t value) {
  static_assert(std::endian::native == std::endian::little,
                "the 8-byte varint store assumes little-endian lanes");
  if (value < (std::uint64_t{1} << 56)) {
    std::uint64_t lanes = (value & 0x000000000FFFFFFFull) |
                          ((value & 0x00FFFFFFF0000000ull) << 4);
    lanes = (lanes & 0x00003FFF00003FFFull) |
            ((lanes & 0x0FFFC0000FFFC000ull) << 2);
    lanes = (lanes & 0x007F007F007F007Full) |
            ((lanes & 0x3F803F803F803F80ull) << 1);
    // 8 × the index of the last byte: the highest set bit, rounded down.
    const auto last =
        (static_cast<unsigned>(std::bit_width(lanes | 1)) - 1) & ~7u;
    lanes |= 0x8080808080808080ull & ((std::uint64_t{1} << last) - 1);
    std::memcpy(out, &lanes, sizeof(lanes));
    return out + last / 8 + 1;
  }
  while (value >= 0x80) {
    *out++ = static_cast<std::uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<std::uint8_t>(value);
  return out;
}

/// Append-only byte arena with high-water-mark reset: reset() drops the size
/// but keeps the capacity, so a warmed slab serves subsequent rounds without
/// reallocating. Growth never zero-fills: grow() hands out uninitialized
/// bytes that the caller writes, and truncate() gives back what it did not.
class SlabArena {
 public:
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }
  [[nodiscard]] std::size_t capacity() const { return bytes_.capacity(); }

  void reset() { bytes_.clear(); }

  void reserve(std::size_t n) { bytes_.reserve(n); }

  /// Extends the slab by `n` uninitialized bytes and returns the first.
  /// The pointer is valid until the slab next grows.
  [[nodiscard]] std::uint8_t* grow(std::size_t n) {
    const std::size_t at = bytes_.size();
    bytes_.resize(at + n);
    return bytes_.data() + at;
  }

  /// Drops every byte from `end` on; `end` points into the slab or one
  /// past its last byte.
  void truncate(const std::uint8_t* end) {
    const std::uint8_t* const base = bytes_.data();
    ensure(end >= base && end <= base + bytes_.size(),
           "truncate point outside slab");
    bytes_.resize(static_cast<std::size_t>(end - base));
  }

  void append(std::span<const std::uint8_t> span) {
    if (span.empty()) return;
    std::memcpy(grow(span.size()), span.data(), span.size());
  }

  [[nodiscard]] std::span<const std::uint8_t> view(std::uint32_t offset,
                                                   std::uint32_t length) const {
    ensure(std::size_t{offset} + length <= bytes_.size(),
           "payload ref outside slab");
    return {bytes_.data() + offset, length};
  }

 private:
  std::vector<std::uint8_t, detail::UninitAllocator<std::uint8_t>> bytes_;
};

/// Encodes one payload at the tail of a slab. Obtain via
/// Context::flat_payload() (binds to the executing shard's outbox slab),
/// append varints/spans, then finish() to get the PayloadRef to send.
class PayloadWriter {
 public:
  PayloadWriter(SlabArena& slab, std::uint32_t slab_id)
      : slab_(&slab),
        slab_id_(slab_id),
        start_(static_cast<std::uint32_t>(slab.size())) {}

  /// Bulk write, step 1: claims `max_bytes` at the slab's tail and returns
  /// where to write them. Nothing else may write to the slab until
  /// commit().
  [[nodiscard]] std::uint8_t* claim(std::size_t max_bytes) {
    return slab_->grow(max_bytes);
  }

  /// Bulk write, step 2: keeps the claimed bytes before `end` and returns
  /// the rest of the claim to the slab.
  void commit(const std::uint8_t* end) { slab_->truncate(end); }

  void put_varint(std::uint64_t value) {
    commit(write_varint(claim(kMaxVarint), value));
  }

  void put_bytes(std::span<const std::uint8_t> bytes) { slab_->append(bytes); }

  /// Bytes written so far by this writer.
  [[nodiscard]] std::uint32_t written() const {
    return static_cast<std::uint32_t>(slab_->size()) - start_;
  }

  [[nodiscard]] PayloadRef finish() const {
    return PayloadRef{slab_id_, start_, written()};
  }

 private:
  SlabArena* slab_;
  std::uint32_t slab_id_;
  std::uint32_t start_;
};

/// Copies `bytes` to the tail of `slab`, returning a ref into it. Used by
/// the engine at the merge barrier and by the retransmit path.
inline PayloadRef copy_to_slab(SlabArena& slab, std::uint32_t slab_id,
                               std::span<const std::uint8_t> bytes) {
  const auto offset = static_cast<std::uint32_t>(slab.size());
  slab.append(bytes);
  return PayloadRef{slab_id, offset, static_cast<std::uint32_t>(bytes.size())};
}

}  // namespace nf::net
