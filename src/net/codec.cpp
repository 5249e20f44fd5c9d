#include "net/codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

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

/// Decodes the varint at `p` with no bounds check: the caller guarantees
/// kMaxVarint readable bytes. Returns the bytes it took, or 0 when none of
/// the ten ends it (an over-long varint).
std::size_t read_varint_unchecked(const std::uint8_t* p,
                                  std::uint64_t& value) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < kMaxVarint; ++i) {
    const std::uint8_t byte = p[i];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << (7 * i);
    if ((byte & 0x80) == 0) {
      value = v;
      return i + 1;
    }
  }
  return 0;
}

/// get_varint with a bounds check per byte: the path for the last bytes
/// of an input, and the one that names what is wrong with a bad varint.
std::uint64_t get_varint_checked(std::span<const std::uint8_t> in,
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
  // One bounds check per varint while a longest one still fits.
  if (offset <= in.size() && in.size() - offset >= kMaxVarint) {
    std::uint64_t value = 0;
    const std::size_t n = read_varint_unchecked(in.data() + offset, value);
    if (n != 0) {
      offset += n;
      return value;
    }
  }
  return get_varint_checked(in, offset);
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
  ValueMap<ItemId, std::uint64_t> out;
  merge_pairs_from(in, out);
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
  return to_bytes(
      [&](PayloadWriter& w) { encode_aggregates_fixed32_to(w, values); });
}

void encode_sorted_ids_to(PayloadWriter& w,
                          std::span<const std::uint64_t> ids) {
  require(std::is_sorted(ids.begin(), ids.end()),
          "ids must be sorted ascending");
  std::uint8_t* out = w.claim(kMaxVarint * (ids.size() + 1));
  out = write_varint(out, ids.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t id : ids) {
    out = write_varint(out, id - prev);
    prev = id;
  }
  w.commit(out);
}

void encode_pairs_to(PayloadWriter& w,
                     const ValueMap<ItemId, std::uint64_t>& map) {
  std::uint8_t* out = w.claim(kMaxVarint * (2 * map.size() + 1));
  out = write_varint(out, map.size());
  std::uint64_t prev = 0;
  for (const auto& [id, value] : map) {
    out = write_varint(out, id.value() - prev);
    out = write_varint(out, value);
    prev = id.value();
  }
  w.commit(out);
}

void encode_aggregates_to(PayloadWriter& w,
                          std::span<const std::uint64_t> values) {
  std::uint8_t* out = w.claim(kMaxVarint * (values.size() + 1));
  out = write_varint(out, values.size());
  const std::uint64_t* const v = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Eight lanes that are all < 128 are eight one-byte varints: pack
    // their low bytes into one word. Filtering rows are ~97 % such lanes.
    const std::uint64_t* const b = v + i;
    if ((b[0] | b[1] | b[2] | b[3] | b[4] | b[5] | b[6] | b[7]) < 0x80) {
      const std::uint64_t word = b[0] | b[1] << 8 | b[2] << 16 | b[3] << 24 |
                                 b[4] << 32 | b[5] << 40 | b[6] << 48 |
                                 b[7] << 56;
      std::memcpy(out, &word, sizeof(word));
      out += 8;
    } else {
      for (std::size_t k = 0; k < 8; ++k) out = write_varint(out, b[k]);
    }
  }
  for (; i < n; ++i) out = write_varint(out, v[i]);
  w.commit(out);
}

void encode_aggregates_fixed32_to(PayloadWriter& w,
                                  std::span<const std::uint64_t> values) {
  std::uint8_t* out = w.claim(kMaxVarint + 4 * values.size());
  out = write_varint(out, values.size());
  for (const std::uint64_t v : values) {
    const auto clamped = static_cast<std::uint32_t>(std::min<std::uint64_t>(
        v, std::numeric_limits<std::uint32_t>::max()));
    for (int shift = 0; shift < 32; shift += 8) {
      *out++ = static_cast<std::uint8_t>(clamped >> shift);
    }
  }
  w.commit(out);
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

void merge_pairs_from(std::span<const std::uint8_t> in,
                      ValueMap<ItemId, std::uint64_t>& acc) {
  std::size_t offset = 0;
  const std::uint64_t count = get_varint(in, offset);
  check_count(count, in, offset, 2);
  if (count == 0) {
    ensure(offset == in.size(), "trailing bytes after pair list");
    return;
  }
  const std::uint8_t* const bytes = in.data();
  std::uint64_t decoded = 0;
  std::uint64_t prev = 0;
  acc.merge_add_sorted(count, [&] {
    std::uint64_t delta = 0;
    std::uint64_t value = 0;
    if (in.size() - offset >= 2 * kMaxVarint) {
      // One bounds check per pair while a longest pair still fits.
      const std::size_t d = read_varint_unchecked(bytes + offset, delta);
      ensure(d != 0, "over-long varint");
      offset += d;
      const std::size_t v = read_varint_unchecked(bytes + offset, value);
      ensure(v != 0, "over-long varint");
      offset += v;
    } else {
      delta = get_varint_checked(in, offset);
      value = get_varint_checked(in, offset);
    }
    // Map keys are unique: after the first id every delta must be >= 1.
    ensure(decoded == 0 || delta != 0, "duplicate id in pair list");
    prev = add_delta(prev, delta);
    // The last pair settles the input, so a bad tail throws before the
    // merge replaces the accumulator.
    if (++decoded == count) {
      ensure(offset == in.size(), "trailing bytes after pair list");
    }
    return std::pair<ItemId, std::uint64_t>(ItemId(prev), value);
  });
}

}  // namespace nf::net
