// Byte-level codecs for the protocol messages.
//
// The paper charges flat field sizes (sa = sg = si = 4 bytes, Table III).
// A deployment would serialize for real, so this module provides the
// encodings a production implementation would use and exact decoders for
// them:
//
//   * varint  — LEB128 variable-length unsigned integers; small aggregate
//     values cost one byte, not four.
//   * delta   — sorted id lists stored as first-difference varints; dense
//     id ranges (heavy group ids) shrink dramatically.
//   * pairs   — <item id, value> lists as delta-coded sorted ids plus
//     varint values: the candidate aggregation and naive messages.
//   * dense   — group-aggregate vectors as fixed-width or varint arrays.
//
// Every encoder writes through a PayloadWriter (net/payload.h): it claims
// the worst case at the slab's tail (kMaxVarint bytes per varint), writes
// each varint with write_varint's 8-byte store, and commits the end it
// reached. The Bytes-returning encoders wrap these. Decoders check bounds
// once per varint (once per pair in the pair decoder) while a longest one
// still fits, and byte by byte only near the end of the input; every
// malformed input throws ProtocolError. Pair lists merge straight from the
// wire into an accumulator (merge_pairs_from), without a map per message.
//
// bench/ablation_encoding compares the paper's flat-field byte model with
// these realistic encodings across every message type of a full run.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/value_map.h"
#include "net/payload.h"

namespace nf::net {

using Bytes = std::vector<std::uint8_t>;

/// Appends the LEB128 encoding of `value` to `out`.
void put_varint(Bytes& out, std::uint64_t value);

/// Reads one LEB128 integer at `offset`, advancing it. Throws
/// ProtocolError on truncated or over-long input.
[[nodiscard]] std::uint64_t get_varint(std::span<const std::uint8_t> in,
                                       std::size_t& offset);

/// Byte size of the LEB128 encoding of `value`.
[[nodiscard]] std::size_t varint_size(std::uint64_t value);

/// Sorted id list -> count + delta-coded varints.
[[nodiscard]] Bytes encode_sorted_ids(std::span<const std::uint64_t> ids);
[[nodiscard]] std::vector<std::uint64_t> decode_sorted_ids(
    std::span<const std::uint8_t> in);

/// <item, value> map -> count + delta-coded ids with interleaved varint
/// values (ValueMap iterates sorted, so deltas are non-negative).
/// decode_pairs is merge_pairs_from into an empty map.
[[nodiscard]] Bytes encode_pairs(const ValueMap<ItemId, std::uint64_t>& map);
[[nodiscard]] ValueMap<ItemId, std::uint64_t> decode_pairs(
    std::span<const std::uint8_t> in);

/// Dense aggregate vector -> count + varint per slot (zeros cost 1 byte).
[[nodiscard]] Bytes encode_aggregates(std::span<const std::uint64_t> values);
[[nodiscard]] std::vector<std::uint64_t> decode_aggregates(
    std::span<const std::uint8_t> in);

/// Fixed-width reference encoding (the paper's model): 4 bytes per slot,
/// values clamped at 2^32-1.
[[nodiscard]] Bytes encode_aggregates_fixed32(
    std::span<const std::uint64_t> values);
[[nodiscard]] std::vector<std::uint64_t> decode_aggregates_fixed32(
    std::span<const std::uint8_t> in);

// --- Slab-writer variants (net/payload.h) ---------------------------------
//
// The one encoder family: append straight into a slab arena through a
// PayloadWriter, with zero intermediate allocation on the hot path. The
// Bytes-returning encoders above wrap these; tests/codec_test.cpp pins
// their bytes to a put_varint(Bytes&) reference.

/// Sorted id list -> count + delta-coded varints, into `w`.
void encode_sorted_ids_to(PayloadWriter& w, std::span<const std::uint64_t> ids);

/// <item, value> map -> count + delta ids + interleaved values, into `w`.
void encode_pairs_to(PayloadWriter& w,
                     const ValueMap<ItemId, std::uint64_t>& map);

/// Dense aggregate vector -> count + varint per slot, into `w`.
void encode_aggregates_to(PayloadWriter& w,
                          std::span<const std::uint64_t> values);

/// Fixed-width reference encoding, into `w`.
void encode_aggregates_fixed32_to(PayloadWriter& w,
                                  std::span<const std::uint64_t> values);

/// Decodes an aggregate vector and adds it slot-wise into `acc` without
/// allocating. Throws ProtocolError if the encoded count differs from
/// `acc.size()` or the input is truncated/overlong.
void add_aggregates_from(std::span<const std::uint8_t> in,
                         std::span<std::uint64_t> acc);

/// Decodes a pair list and merges it into `acc`, summing values of equal
/// ids, in one pass over the wire bytes: the same result as
/// `acc.merge_add(decode_pairs(in))` without the intermediate map. Throws
/// ProtocolError on the inputs decode_pairs rejects, leaving `acc` as it
/// was.
void merge_pairs_from(std::span<const std::uint8_t> in,
                      ValueMap<ItemId, std::uint64_t>& acc);

}  // namespace nf::net
