#include "net/codec.h"

#include <cstring>
#include <limits>

namespace nf::net {
namespace {

/// Rejects an element count the remaining input cannot hold, before any
/// reserve: each element takes at least `min_bytes` encoded bytes.
void check_count(std::uint64_t count, std::span<const std::uint8_t> in,
                 std::size_t offset, std::size_t min_bytes) {
  ensure(count <= (in.size() - offset) / min_bytes,
         "element count exceeds the bytes left");
}

/// prev + delta, rejecting a delta that wraps past 2^64 - 1 (it would
/// decode to a smaller id than its predecessor).
std::uint64_t add_delta(std::uint64_t prev, std::uint64_t delta) {
  ensure(delta <= std::numeric_limits<std::uint64_t>::max() - prev,
         "id delta wraps around");
  return prev + delta;
}

/// The Bytes encoders are thin wrappers over their PayloadWriter twins:
/// run `encode` against a scratch slab and copy out what it wrote.
template <typename Encode>
Bytes to_bytes(const Encode& encode) {
  SlabArena slab;
  PayloadWriter w(slab, 0);
  encode(w);
  const std::span<const std::uint8_t> out = slab.view(0, w.written());
  return Bytes(out.begin(), out.end());
}

}  // namespace

void put_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

std::uint64_t get_varint(std::span<const std::uint8_t> in,
                         std::size_t& offset) {
  std::uint64_t value = 0;
  int shift = 0;
  while (true) {
    ensure(offset < in.size(), "truncated varint");
    ensure(shift < 64, "over-long varint");
    const std::uint8_t byte = in[offset++];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return value;
}

std::size_t varint_size(std::uint64_t value) {
  std::size_t size = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++size;
  }
  return size;
}

Bytes encode_sorted_ids(std::span<const std::uint64_t> ids) {
  return to_bytes([&](PayloadWriter& w) { encode_sorted_ids_to(w, ids); });
}

std::vector<std::uint64_t> decode_sorted_ids(
    std::span<const std::uint8_t> in) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  check_count(count, in, offset, 1);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    prev = add_delta(prev, get_varint(in, offset));
    out.push_back(prev);
  }
  ensure(offset == in.size(), "trailing bytes after id list");
  return out;
}

Bytes encode_pairs(const ValueMap<ItemId, std::uint64_t>& map) {
  return to_bytes([&](PayloadWriter& w) { encode_pairs_to(w, map); });
}

ValueMap<ItemId, std::uint64_t> decode_pairs(
    std::span<const std::uint8_t> in) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  check_count(count, in, offset, 2);
  ValueMap<ItemId, std::uint64_t> out;
  out.reserve(count);
  std::uint64_t prev = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t delta = get_varint(in, offset);
    // Map keys are unique: after the first id every delta must be >= 1.
    ensure(i == 0 || delta != 0, "duplicate id in pair list");
    prev = add_delta(prev, delta);
    out.add(ItemId(prev), get_varint(in, offset));
  }
  ensure(offset == in.size(), "trailing bytes after pair list");
  return out;
}

Bytes encode_aggregates(std::span<const std::uint64_t> values) {
  return to_bytes([&](PayloadWriter& w) { encode_aggregates_to(w, values); });
}

std::vector<std::uint64_t> decode_aggregates(
    std::span<const std::uint8_t> in) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  check_count(count, in, offset, 1);
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(get_varint(in, offset));
  }
  ensure(offset == in.size(), "trailing bytes after aggregate vector");
  return out;
}

Bytes encode_aggregates_fixed32(std::span<const std::uint64_t> values) {
  Bytes out;
  put_varint(out, values.size());
  for (std::uint64_t v : values) {
    const auto clamped = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        v, std::numeric_limits<std::uint32_t>::max()));
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::uint8_t>(clamped >> shift));
    }
  }
  return out;
}

void encode_sorted_ids_to(PayloadWriter& w,
                          std::span<const std::uint64_t> ids) {
  w.put_varint(ids.size());
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    require(i == 0 || ids[i] >= prev, "ids must be sorted ascending");
    w.put_varint(ids[i] - prev);
    prev = ids[i];
  }
}

void encode_pairs_to(PayloadWriter& w,
                     const ValueMap<ItemId, std::uint64_t>& map) {
  w.put_varint(map.size());
  std::uint64_t prev = 0;
  for (const auto& [id, value] : map) {
    w.put_varint(id.value() - prev);
    w.put_varint(value);
    prev = id.value();
  }
}

void encode_aggregates_to(PayloadWriter& w,
                          std::span<const std::uint64_t> values) {
  w.put_varint(values.size());
  for (std::uint64_t v : values) w.put_varint(v);
}

void add_aggregates_from(std::span<const std::uint8_t> in,
                         std::span<std::uint64_t> acc) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  ensure(count == acc.size(), "aggregate vector width mismatch");
  const std::uint8_t* __restrict bytes = in.data();
  std::uint64_t* __restrict out = acc.data();
  std::uint64_t i = 0;
  while (i < count) {
    // SWAR fast path: one 8-byte load tests the continuation bits of the
    // next 8 lanes at once. Group aggregates are mostly small (sparse item
    // sets, values < 128), so runs of single-byte varints dominate and the
    // widening add below autovectorizes — the scalar get_varint loop only
    // runs where a multi-byte value breaks the run.
    if (i + 8 <= count && offset + 8 <= in.size()) {
      std::uint64_t word;
      std::memcpy(&word, bytes + offset, sizeof(word));
      if ((word & 0x8080808080808080ull) == 0) {
        for (std::size_t k = 0; k < 8; ++k) out[i + k] += bytes[offset + k];
        offset += 8;
        i += 8;
        continue;
      }
    }
    out[i++] += get_varint(in, offset);
  }
  ensure(offset == in.size(), "trailing bytes after aggregate vector");
}

std::vector<std::uint64_t> decode_aggregates_fixed32(
    std::span<const std::uint8_t> in) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  check_count(count, in, offset, 4);
  ensure(in.size() - offset == count * 4, "fixed32 length mismatch");
  std::vector<std::uint64_t> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    std::uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(in[offset++]) << shift;
    }
    out.push_back(v);
  }
  return out;
}

}  // namespace nf::net
