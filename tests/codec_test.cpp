#include "net/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

#include "agg/flat_phases.h"
#include "agg/hierarchy.h"
#include "common/hashing.h"
#include "common/item_source.h"
#include "common/rng.h"
#include "core/ifi_session.h"
#include "core/netfilter.h"
#include "net/engine.h"
#include "net/session.h"
#include "net/topology.h"

namespace nf::net {
namespace {

TEST(VarintTest, KnownEncodings) {
  Bytes out;
  put_varint(out, 0);
  put_varint(out, 1);
  put_varint(out, 127);
  put_varint(out, 128);
  put_varint(out, 300);
  EXPECT_EQ(out, (Bytes{0x00, 0x01, 0x7F, 0x80, 0x01, 0xAC, 0x02}));
}

TEST(VarintTest, SizesMatchEncoding) {
  const std::uint64_t cases[] = {
      0, 1, 127, 128, 16383, 16384, std::uint64_t{1} << 40,
      std::numeric_limits<std::uint64_t>::max()};
  for (std::uint64_t v : cases) {
    Bytes out;
    put_varint(out, v);
    EXPECT_EQ(out.size(), varint_size(v)) << v;
  }
}

TEST(VarintTest, RoundTripFuzz) {
  Rng rng(1);
  Bytes out;
  std::vector<std::uint64_t> values;
  for (int i = 0; i < 10000; ++i) {
    // Mix magnitudes: shift a random value by a random amount.
    const std::uint64_t v = rng() >> rng.below(64);
    values.push_back(v);
    put_varint(out, v);
  }
  std::size_t offset = 0;
  for (std::uint64_t expected : values) {
    EXPECT_EQ(get_varint(out, offset), expected);
  }
  EXPECT_EQ(offset, out.size());
}

TEST(VarintTest, TruncatedInputThrows) {
  Bytes out;
  put_varint(out, 1ull << 40);
  out.pop_back();
  std::size_t offset = 0;
  EXPECT_THROW((void)get_varint(out, offset), ProtocolError);
}

TEST(VarintTest, OverlongInputThrows) {
  const Bytes evil(11, 0x80);  // 11 continuation bytes > 64 bits
  std::size_t offset = 0;
  EXPECT_THROW((void)get_varint(evil, offset), ProtocolError);
}

TEST(SortedIdsTest, RoundTrip) {
  const std::vector<std::uint64_t> ids{3, 7, 8, 100, 100000, 1ull << 50};
  EXPECT_EQ(decode_sorted_ids(encode_sorted_ids(ids)), ids);
}

TEST(SortedIdsTest, EmptyAndSingle) {
  const std::vector<std::uint64_t> none;
  EXPECT_TRUE(decode_sorted_ids(encode_sorted_ids(none)).empty());
  const std::vector<std::uint64_t> one{42};
  EXPECT_EQ(decode_sorted_ids(encode_sorted_ids(one)), one);
}

TEST(SortedIdsTest, DenseIdsCompressWell) {
  // Heavy-group ids 0..99: deltas of ~1 cost 1 byte each.
  std::vector<std::uint64_t> dense(100);
  for (std::uint64_t i = 0; i < 100; ++i) dense[i] = i;
  const Bytes encoded = encode_sorted_ids(dense);
  EXPECT_LT(encoded.size(), 110u);  // vs 400 bytes at 4 bytes/id
}

TEST(SortedIdsTest, UnsortedInputRejected) {
  const std::vector<std::uint64_t> bad{5, 3};
  EXPECT_THROW((void)encode_sorted_ids(bad), InvalidArgument);
}

TEST(SortedIdsTest, TrailingGarbageRejected) {
  const std::vector<std::uint64_t> ids{1, 2};
  Bytes b = encode_sorted_ids(ids);
  b.push_back(0x00);
  EXPECT_THROW((void)decode_sorted_ids(b), ProtocolError);
}

TEST(PairsTest, RoundTripFuzz) {
  Rng rng(2);
  for (int iter = 0; iter < 50; ++iter) {
    ValueMap<ItemId, std::uint64_t> map;
    const std::uint64_t n = rng.below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      map.add(ItemId(hash64(i, static_cast<std::uint64_t>(iter))),
              rng.between(1, 1000000));
    }
    EXPECT_EQ(decode_pairs(encode_pairs(map)), map);
  }
}

TEST(AggregatesTest, RoundTripAndZeroCompression) {
  std::vector<std::uint64_t> values(300, 0);
  values[7] = 12;
  values[130] = 1ull << 33;
  EXPECT_EQ(decode_aggregates(encode_aggregates(values)), values);
  // Mostly-zero vector: ~1 byte per slot instead of 4.
  EXPECT_LT(encode_aggregates(values).size(), 320u);
}

TEST(AggregatesTest, Fixed32MatchesPaperModel) {
  std::vector<std::uint64_t> values(100, 77);
  const Bytes encoded = encode_aggregates_fixed32(values);
  // count varint + 4 bytes per slot: the paper's sa*g.
  EXPECT_EQ(encoded.size(), varint_size(100) + 400u);
  EXPECT_EQ(decode_aggregates_fixed32(encoded), values);
}

TEST(AggregatesTest, Fixed32ClampsOverflow) {
  const std::vector<std::uint64_t> values{std::uint64_t{1} << 40};
  const auto decoded = decode_aggregates_fixed32(
      encode_aggregates_fixed32(values));
  EXPECT_EQ(decoded[0], 0xFFFFFFFFull);
}

TEST(AggregatesTest, Fixed32LengthMismatchThrows) {
  const std::vector<std::uint64_t> values{1, 2};
  Bytes b = encode_aggregates_fixed32(values);
  b.pop_back();
  EXPECT_THROW((void)decode_aggregates_fixed32(b), ProtocolError);
}

// --- Slab-writer variants (net/payload.h) ----------------------------------
//
// The flat payload path encodes through a PayloadWriter into a slab arena;
// the wire bytes must be identical to the Bytes-returning encoders or the
// kVarintDelta charged sizes (and the pipelined-vs-barriered byte-equality
// invariant) silently drift.

Bytes slab_bytes(const SlabArena& slab, PayloadRef ref) {
  const std::span<const std::uint8_t> view = slab.view(ref.offset, ref.length);
  return Bytes(view.begin(), view.end());
}

TEST(SlabWriterTest, SortedIdsMatchLegacyEncoderBytes) {
  Rng rng(3);
  SlabArena slab;
  for (int iter = 0; iter < 100; ++iter) {
    // Random sorted id lists across magnitudes, including adversarial
    // varint boundaries (2^7k ± 1) where the LEB128 width flips.
    std::vector<std::uint64_t> ids;
    const std::uint64_t n = rng.below(100);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t v = rng() >> rng.below(64);
      if (rng.below(4) == 0) {
        const std::uint64_t boundary = std::uint64_t{1}
                                       << (7 * (1 + rng.below(9)));
        v = rng.below(2) == 0 ? boundary - 1 : boundary;
      }
      ids.push_back(v);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());

    PayloadWriter w(slab, 0);
    encode_sorted_ids_to(w, ids);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_sorted_ids(ids)) << iter;
  }
}

TEST(SlabWriterTest, PairsMatchLegacyEncoderBytes) {
  Rng rng(4);
  SlabArena slab;
  for (int iter = 0; iter < 50; ++iter) {
    ValueMap<ItemId, std::uint64_t> map;
    const std::uint64_t n = rng.below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      map.add(ItemId(hash64(i, static_cast<std::uint64_t>(iter))),
              rng() >> rng.below(64));
    }
    PayloadWriter w(slab, 0);
    encode_pairs_to(w, map);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_pairs(map)) << iter;
  }
}

TEST(SlabWriterTest, AggregatesMatchLegacyEncoderBytes) {
  Rng rng(5);
  SlabArena slab;
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<std::uint64_t> values(rng.below(400), 0);
    for (std::uint64_t& v : values) {
      if (rng.below(3) == 0) v = rng() >> rng.below(64);
    }
    PayloadWriter w(slab, 0);
    encode_aggregates_to(w, values);
    const PayloadRef ref = w.finish();
    EXPECT_EQ(slab_bytes(slab, ref), encode_aggregates(values)) << iter;
  }
}

TEST(SlabWriterTest, ConsecutiveWritesShareOneSlab) {
  SlabArena slab;
  PayloadWriter a(slab, 7);
  encode_sorted_ids_to(a, std::vector<std::uint64_t>{1, 2, 3});
  const PayloadRef ra = a.finish();
  PayloadWriter b(slab, 7);
  encode_sorted_ids_to(b, std::vector<std::uint64_t>{100, 200});
  const PayloadRef rb = b.finish();
  EXPECT_EQ(ra.slab, 7u);
  EXPECT_EQ(rb.offset, ra.offset + ra.length);  // back to back, no gaps
  EXPECT_EQ(slab_bytes(slab, ra),
            encode_sorted_ids(std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(slab_bytes(slab, rb),
            encode_sorted_ids(std::vector<std::uint64_t>{100, 200}));
}

// --- The bulk writer against a byte-at-a-time reference ---------------------
//
// Every *_to encoder claims its worst case, writes varints with the 8-byte
// store of write_varint and commits; the bytes must equal what
// put_varint(Bytes&) — one push_back per byte — produces for the same
// message, at every varint length and at every lane offset.

Bytes reference_aggregates(std::span<const std::uint64_t> values) {
  Bytes out;
  put_varint(out, values.size());
  for (const std::uint64_t v : values) put_varint(out, v);
  return out;
}

Bytes reference_fixed32(std::span<const std::uint64_t> values) {
  Bytes out;
  put_varint(out, values.size());
  for (const std::uint64_t v : values) {
    const std::uint64_t clamped = std::min<std::uint64_t>(v, 0xFFFFFFFFu);
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::uint8_t>(clamped >> shift));
    }
  }
  return out;
}

Bytes reference_sorted_ids(std::span<const std::uint64_t> ids) {
  Bytes out;
  put_varint(out, ids.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t id : ids) {
    put_varint(out, id - prev);
    prev = id;
  }
  return out;
}

Bytes reference_pairs(const ValueMap<ItemId, std::uint64_t>& map) {
  Bytes out;
  put_varint(out, map.size());
  std::uint64_t prev = 0;
  for (const auto& [id, value] : map) {
    put_varint(out, id.value() - prev);
    put_varint(out, value);
    prev = id.value();
  }
  return out;
}

/// 2^(7k) - 1 and 2^(7k) for k = 1..9 (the last byte count of each LEB128
/// length and the first of the next), then the edges of the 8-byte store.
std::vector<std::uint64_t> varint_boundaries() {
  std::vector<std::uint64_t> out;
  for (int k = 1; k <= 9; ++k) {
    const std::uint64_t p = std::uint64_t{1} << (7 * k);
    out.push_back(p - 1);
    out.push_back(p);
  }
  const std::uint64_t store_edge = std::uint64_t{1} << 56;
  out.insert(out.end(), {store_edge - 1, store_edge, std::uint64_t{1} << 63,
                         std::numeric_limits<std::uint64_t>::max()});
  return out;
}

/// Encodes `values` as every message type through the slab writers, after
/// a prefix the writers must not touch, and compares each with its
/// reference.
void expect_writers_match_reference(const std::vector<std::uint64_t>& values,
                                    const std::string& what) {
  SlabArena slab;
  slab.append(std::vector<std::uint8_t>{0xEE, 0xEE, 0xEE});
  const auto written = [&slab](const auto& encode) {
    PayloadWriter w(slab, 0);
    encode(w);
    return slab_bytes(slab, w.finish());
  };
  EXPECT_EQ(written([&](PayloadWriter& w) { encode_aggregates_to(w, values); }),
            reference_aggregates(values))
      << what;
  EXPECT_EQ(written([&](PayloadWriter& w) {
              encode_aggregates_fixed32_to(w, values);
            }),
            reference_fixed32(values))
      << what;
  EXPECT_EQ(written([&](PayloadWriter& w) {
              for (const std::uint64_t v : values) w.put_varint(v);
            }),
            [&] {
              Bytes out;
              for (const std::uint64_t v : values) put_varint(out, v);
              return out;
            }())
      << what;
  std::vector<std::uint64_t> ids = values;
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(written([&](PayloadWriter& w) { encode_sorted_ids_to(w, ids); }),
            reference_sorted_ids(ids))
      << what;
  ValueMap<ItemId, std::uint64_t> map;
  for (std::size_t i = 0; i < values.size(); ++i) {
    map.add(ItemId(values[i]), values[values.size() - 1 - i]);
  }
  EXPECT_EQ(written([&](PayloadWriter& w) { encode_pairs_to(w, map); }),
            reference_pairs(map))
      << what;
  // The Bytes wrappers are the same bytes.
  EXPECT_EQ(encode_aggregates(values), reference_aggregates(values)) << what;
  EXPECT_EQ(encode_aggregates_fixed32(values), reference_fixed32(values))
      << what;
  EXPECT_EQ(encode_sorted_ids(ids), reference_sorted_ids(ids)) << what;
  EXPECT_EQ(encode_pairs(map), reference_pairs(map)) << what;
  // The writers left the slab's earlier bytes alone.
  EXPECT_EQ(slab_bytes(slab, PayloadRef{0, 0, 3}), (Bytes{0xEE, 0xEE, 0xEE}))
      << what;
}

TEST(BulkWriterTest, VarintBoundariesMatchReference) {
  const std::vector<std::uint64_t> bounds = varint_boundaries();
  expect_writers_match_reference(bounds, "all boundaries");
  for (const std::uint64_t b : bounds) {
    expect_writers_match_reference({b}, "boundary " + std::to_string(b));
    // Each boundary at every lane of an 8-lane block, among one-byte
    // lanes, so the block fast path meets it in every position.
    for (std::size_t at = 0; at < 9; ++at) {
      std::vector<std::uint64_t> values(17, 5);
      values[at] = b;
      expect_writers_match_reference(
          values, "boundary " + std::to_string(b) + " at lane " +
                      std::to_string(at));
    }
  }
}

TEST(BulkWriterTest, MixedWidthsMatchReference) {
  Rng rng(7);
  const std::size_t widths[] = {0, 1, 7, 8, 9, 500};
  const std::uint64_t multi_pcts[] = {0, 3, 25, 50, 90, 100};
  for (const std::size_t width : widths) {
    for (const std::uint64_t multi_pct : multi_pcts) {
      std::vector<std::uint64_t> values(width);
      for (std::uint64_t& v : values) {
        // Multi-byte lanes span every length from 2 to 10 bytes.
        v = rng.below(100) < multi_pct
                ? std::max<std::uint64_t>(128, rng() >> rng.below(57))
                : rng.below(128);
      }
      expect_writers_match_reference(
          values, "width " + std::to_string(width) + ", " +
                      std::to_string(multi_pct) + "% multi-byte");
    }
  }
}

TEST(BulkWriterTest, UnsortedIdsLeaveTheSlabUntouched) {
  SlabArena slab;
  PayloadWriter w(slab, 0);
  EXPECT_THROW(encode_sorted_ids_to(w, std::vector<std::uint64_t>{5, 3}),
               InvalidArgument);
  EXPECT_EQ(slab.size(), 0u);
}

TEST(AddAggregatesTest, AccumulatesWithoutIntermediateVector) {
  const std::vector<std::uint64_t> a{1, 0, 1ull << 40, 7};
  std::vector<std::uint64_t> acc{10, 20, 30, 40};
  add_aggregates_from(encode_aggregates(a), acc);
  EXPECT_EQ(acc, (std::vector<std::uint64_t>{11, 20, (1ull << 40) + 30, 47}));
}

TEST(AddAggregatesTest, WidthMismatchThrows) {
  const std::vector<std::uint64_t> a{1, 2, 3};
  std::vector<std::uint64_t> acc(4, 0);
  EXPECT_THROW(add_aggregates_from(encode_aggregates(a), acc), ProtocolError);
}

TEST(AddAggregatesTest, TruncatedInputThrows) {
  const std::vector<std::uint64_t> a{1, 1ull << 40};
  Bytes b = encode_aggregates(a);
  b.pop_back();
  std::vector<std::uint64_t> acc(2, 0);
  EXPECT_THROW(add_aggregates_from(b, acc), ProtocolError);
}

TEST(AddAggregatesTest, TrailingGarbageThrows) {
  const std::vector<std::uint64_t> a{1, 2};
  Bytes b = encode_aggregates(a);
  b.push_back(0x00);
  std::vector<std::uint64_t> acc(2, 0);
  EXPECT_THROW(add_aggregates_from(b, acc), ProtocolError);
}

// --- Forged and mutated wire input ----------------------------------------
//
// Decoders face bytes from other peers: anything malformed must surface as
// ProtocolError, never as another exception, a crash or a silently wrong
// value.

/// `count` as a varint, followed by `tail` raw varints.
Bytes forged(std::uint64_t count, std::initializer_list<std::uint64_t> tail) {
  Bytes out;
  put_varint(out, count);
  for (const std::uint64_t v : tail) put_varint(out, v);
  return out;
}

TEST(ForgedInputTest, HugeCountRejectedBeforeReserve) {
  // A 2^62 count used to reach reserve() and throw std::length_error.
  const Bytes huge = forged(std::uint64_t{1} << 62, {1, 1});
  EXPECT_THROW((void)decode_sorted_ids(huge), ProtocolError);
  EXPECT_THROW((void)decode_pairs(huge), ProtocolError);
  EXPECT_THROW((void)decode_aggregates(huge), ProtocolError);
  // count * 4 wraps to 0, which matched an empty tail.
  EXPECT_THROW((void)decode_aggregates_fixed32(forged(std::uint64_t{1} << 62,
                                                      {})),
               ProtocolError);
}

TEST(ForgedInputTest, DuplicatePairIdRejected) {
  // (5,1),(5,2): a zero delta after the first id used to sum to {5:3}.
  EXPECT_THROW((void)decode_pairs(forged(2, {5, 1, 0, 2})), ProtocolError);
}

TEST(ForgedInputTest, WrappingDeltaRejected) {
  // 5 then 5 + (2^64 - 1) wraps to 4: decode_pairs used to reorder it and
  // decode_sorted_ids returned the descending list 5, 4.
  const std::uint64_t wrap = std::numeric_limits<std::uint64_t>::max();
  EXPECT_THROW((void)decode_pairs(forged(2, {5, 1, wrap, 1})), ProtocolError);
  EXPECT_THROW((void)decode_sorted_ids(forged(2, {5, wrap})), ProtocolError);
  // Equal ids stay legal in a sorted id list: its encoder allows them.
  EXPECT_EQ(decode_sorted_ids(forged(2, {5, 0})),
            (std::vector<std::uint64_t>{5, 5}));
}

/// Every truncation, every single-bit flip and a few random appended tails
/// of one valid encoding.
std::vector<Bytes> mutants(const Bytes& valid, Rng& rng) {
  std::vector<Bytes> out;
  for (std::size_t len = 0; len < valid.size(); ++len) {
    out.emplace_back(valid.begin(),
                     valid.begin() + static_cast<std::ptrdiff_t>(len));
  }
  for (std::size_t bit = 0; bit < valid.size() * 8; ++bit) {
    Bytes b = valid;
    b[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    out.push_back(std::move(b));
  }
  for (std::uint64_t extra = 1; extra <= 3; ++extra) {
    Bytes b = valid;
    for (std::uint64_t k = 0; k < extra; ++k) {
      b.push_back(static_cast<std::uint8_t>(rng()));
    }
    out.push_back(std::move(b));
  }
  return out;
}

/// Random value spanning every varint width.
std::uint64_t any_width(Rng& rng) { return rng() >> rng.below(64); }

using Decoder = std::function<void(std::span<const std::uint8_t>)>;

/// Decodes every mutant of every valid encoding; each must decode or throw
/// ProtocolError.
void sweep(const char* name, const std::vector<Bytes>& valid,
           const Decoder& decode, Rng& rng) {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const Bytes& v : valid) {
    decode(v);  // the unmutated encoding must decode
    for (const Bytes& m : mutants(v, rng)) {
      try {
        decode(m);
        ++decoded;
      } catch (const ProtocolError&) {
        ++rejected;
      } catch (const std::exception& e) {
        ADD_FAILURE() << name << ": non-ProtocolError exception: "
                      << e.what();
      }
    }
  }
  // Both outcomes occur: the sweep reaches past the first check.
  EXPECT_GT(decoded, 0u) << name;
  EXPECT_GT(rejected, 0u) << name;
}

// --- Pair lists merged straight from the wire -----------------------------

ValueMap<ItemId, std::uint64_t> random_pairs(Rng& rng, std::uint64_t n,
                                             std::uint64_t id_range) {
  ValueMap<ItemId, std::uint64_t> map;
  for (std::uint64_t i = 0; i < n; ++i) {
    map.add(ItemId(rng.below(id_range)), any_width(rng));
  }
  return map;
}

TEST(MergePairsTest, FusedMergeEqualsDecodeThenMergeAdd) {
  Rng rng(47);
  for (int iter = 0; iter < 200; ++iter) {
    // Small id ranges make many equal ids; wide ones make few.
    const std::uint64_t range = iter % 2 == 0 ? 64 : std::uint64_t{1} << 40;
    const ValueMap<ItemId, std::uint64_t> acc =
        random_pairs(rng, rng.below(60), range);
    const ValueMap<ItemId, std::uint64_t> child =
        random_pairs(rng, rng.below(60), range);
    const Bytes wire = encode_pairs(child);

    ValueMap<ItemId, std::uint64_t> expected = acc;
    expected.merge_add(decode_pairs(wire));
    ValueMap<ItemId, std::uint64_t> fused = acc;
    merge_pairs_from(wire, fused);
    EXPECT_EQ(fused, expected) << iter;
  }
}

TEST(MergePairsTest, RejectedInputLeavesAccumulatorUnchanged) {
  Rng rng(53);
  const ValueMap<ItemId, std::uint64_t> acc = random_pairs(rng, 8, 40);
  std::vector<Bytes> valid;
  for (int c = 0; c < 6; ++c) {
    valid.push_back(encode_pairs(random_pairs(rng, 1 + rng.below(24), 40)));
  }
  sweep("merge_pairs_from", valid,
        [&acc](std::span<const std::uint8_t> in) {
          ValueMap<ItemId, std::uint64_t> merged = acc;
          try {
            merge_pairs_from(in, merged);
          } catch (const ProtocolError&) {
            EXPECT_EQ(merged, acc);
            throw;
          }
          ValueMap<ItemId, std::uint64_t> expected = acc;
          expected.merge_add(decode_pairs(in));
          EXPECT_EQ(merged, expected);
        },
        rng);
}

TEST(MutationSweepTest, EveryDecoderYieldsValueOrProtocolError) {
  Rng rng(13);
  static constexpr int kCases = 12;
  static constexpr std::uint64_t kMaxLen = 24;

  std::vector<Bytes> ids;
  std::vector<Bytes> pairs;
  std::vector<Bytes> aggregates;
  std::vector<Bytes> fixed32;
  std::vector<Bytes> varints;
  for (int c = 0; c < kCases; ++c) {
    std::vector<std::uint64_t> v(rng.below(kMaxLen + 1));
    for (std::uint64_t& x : v) x = any_width(rng);
    aggregates.push_back(encode_aggregates(v));
    fixed32.push_back(encode_aggregates_fixed32(v));
    Bytes seq;
    for (const std::uint64_t x : v) put_varint(seq, x);
    varints.push_back(std::move(seq));
    std::sort(v.begin(), v.end());
    ids.push_back(encode_sorted_ids(v));
    ValueMap<ItemId, std::uint64_t> map;
    for (const std::uint64_t x : v) map.add(ItemId(x), any_width(rng));
    pairs.push_back(encode_pairs(map));
  }

  sweep("decode_sorted_ids", ids,
        [](std::span<const std::uint8_t> in) {
          const std::vector<std::uint64_t> out = decode_sorted_ids(in);
          EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
        },
        rng);
  sweep("decode_pairs", pairs,
        [](std::span<const std::uint8_t> in) {
          const ValueMap<ItemId, std::uint64_t> out = decode_pairs(in);
          EXPECT_EQ(decode_pairs(encode_pairs(out)), out);
        },
        rng);
  sweep("decode_aggregates", aggregates,
        [](std::span<const std::uint8_t> in) {
          (void)decode_aggregates(in);
        },
        rng);
  sweep("decode_aggregates_fixed32", fixed32,
        [](std::span<const std::uint8_t> in) {
          (void)decode_aggregates_fixed32(in);
        },
        rng);
  sweep("add_aggregates_from", aggregates,
        [](std::span<const std::uint8_t> in) {
          // Size the accumulator to the mutant's own count (capped), so
          // most mutants get past the width check into the decode loop.
          std::size_t offset = 0;
          const std::uint64_t count = get_varint(in, offset);
          std::vector<std::uint64_t> acc(std::min(count, kMaxLen), 0);
          add_aggregates_from(in, acc);
        },
        rng);
  sweep("get_varint", varints,
        [](std::span<const std::uint8_t> in) {
          std::size_t offset = 0;
          while (offset < in.size()) (void)get_varint(in, offset);
        },
        rng);
}

TEST(MutationSweepTest, HeavyGroupDecoderYieldsValueOrProtocolError) {
  Rng rng(17);
  constexpr std::uint32_t kFilters = 3;
  constexpr std::uint32_t kGroups = 50;
  std::vector<Bytes> valid;
  for (int c = 0; c < 12; ++c) {
    core::HeavyGroupSet heavy(kFilters, kGroups);
    for (std::uint32_t i = 0; i < kFilters; ++i) {
      for (std::uint32_t j = 0; j < kGroups; ++j) {
        if (rng.below(5) == 0) heavy.set(i, j);
      }
    }
    valid.push_back(core::encode_heavy_groups(heavy));
  }
  sweep("decode_heavy_groups", valid,
        [](std::span<const std::uint8_t> in) {
          (void)core::decode_heavy_groups(in, kFilters, kGroups);
        },
        rng);
}

// The same sweep one layer up: the mutants reach the phase handlers inside
// an engine run, as a peer would receive them — the heavy-set receipt of
// IfiSessionPhases (through the dissemination multicast), a bare multicast
// whose receivers decode a heavy slice, the merge of
// FlatAggregateConvergecastPhase, which holds each child's bytes until the
// last child reports, and the pair merge of FlatPairsConvergecastPhase.
// Each run stops before a copy the target does not expect reaches it, so a
// run that returns means the target decoded the mutant and acted on it.

/// Drives `mux`; in round `at`, peer `from` sends `to` the bytes `forged`
/// tagged for (session 0, `phase`).
class InjectingProtocol final : public Protocol {
 public:
  InjectingProtocol(SessionMux& mux, PeerId from, PeerId to, PhaseId phase,
                    std::uint64_t at, std::span<const std::uint8_t> forged)
      : mux_(mux), from_(from), to_(to), phase_(phase), at_(at),
        forged_(forged.begin(), forged.end()) {}

  void on_run_start(const Overlay& overlay,
                    std::uint32_t num_shards) override {
    mux_.on_run_start(overlay, num_shards);
  }
  void on_round_begin(std::uint64_t round) override {
    mux_.on_round_begin(round);
  }
  void on_round(Context& ctx) override {
    mux_.on_round(ctx);
    if (sent_ || ctx.self() != from_) return;
    if (ctx.round() < at_) {
      ctx.wake_next_round();
      return;
    }
    sent_ = true;
    PayloadWriter w = ctx.flat_payload();
    w.put_bytes(forged_);
    ctx.send_flat_tagged(to_, TrafficCategory::kControl, forged_.size(),
                         w.finish(), /*session=*/0, phase_, {});
  }
  void on_message(Context& ctx, Envelope&& env) override {
    mux_.on_message(ctx, std::move(env));
  }
  void on_run_end() override { mux_.on_run_end(); }
  [[nodiscard]] bool active() const override { return mux_.active(); }

 private:
  SessionMux& mux_;
  PeerId from_;
  PeerId to_;
  PhaseId phase_;
  std::uint64_t at_;
  Bytes forged_;
  bool sent_ = false;
};

Topology line_topology(std::uint32_t n) {
  Topology t(n);
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    t.add_edge(PeerId(i), PeerId(i + 1));
  }
  return t;
}

class FixedItems final : public ItemSource {
 public:
  FixedItems(std::uint32_t num_peers, Rng& rng) : sets_(num_peers) {
    for (auto& set : sets_) {
      for (int k = 0; k < 6; ++k) {
        set.add(ItemId(rng.below(40)), 1 + rng.below(9));
      }
    }
  }
  [[nodiscard]] const LocalItems& local_items(PeerId p) const override {
    return sets_[p.value()];
  }
  [[nodiscard]] std::uint32_t num_peers() const override {
    return static_cast<std::uint32_t>(sets_.size());
  }

 private:
  std::vector<LocalItems> sets_;
};

/// One IFI session on a 7-peer line rooted at 0. Filtering completes at the
/// root in round 6, which installs the heavy payload; the honest copy
/// reaches peer 5 in round 11. A forged copy that peer 6 sends in round
/// `at` reaches peer 5 in round at + 1.
struct HeavyReceiptRig {
  static constexpr std::uint32_t kPeers = 7;
  static constexpr std::uint32_t kFilters = 2;
  static constexpr std::uint32_t kGroups = 8;
  static constexpr PhaseId kDissemination = 1;
  static constexpr std::uint64_t kInstalled = 6;

  HeavyReceiptRig()
      : overlay(line_topology(kPeers)),
        hierarchy(agg::build_bfs_hierarchy(overlay, PeerId(0))),
        items([] {
          Rng rng(23);
          return FixedItems(kPeers, rng);
        }()),
        netfilter([] {
          core::NetFilterConfig c;
          c.num_filters = kFilters;
          c.num_groups = kGroups;
          return c;
        }()) {}

  /// Runs `rounds` rounds with `forged` injected in round `at`; returns the
  /// round filtering completed at the root (0 if it did not).
  std::uint64_t run(std::span<const std::uint8_t> forged, std::uint64_t at,
                    std::uint64_t rounds) {
    core::IfiSessionPhases ifi(netfilter, items, hierarchy, kThreshold);
    SessionMux mux;
    (void)ifi.register_phases(mux, mux.add_session(), PhaseStart::kAllPeers);
    InjectingProtocol inject(mux, PeerId(6), PeerId(5), kDissemination, at,
                             forged);
    TrafficMeter meter(kPeers);
    Engine engine(overlay, meter, {});
    (void)engine.run(inject, rounds);
    return ifi.filtering_rounds();
  }

  /// The payload the root installs (from an undisturbed run).
  Bytes honest_payload() {
    core::IfiSessionPhases ifi(netfilter, items, hierarchy, kThreshold);
    SessionMux mux;
    (void)ifi.register_phases(mux, mux.add_session(), PhaseStart::kAllPeers);
    TrafficMeter meter(kPeers);
    Engine engine(overlay, meter, {});
    (void)engine.run(mux, 100);
    EXPECT_TRUE(ifi.complete());
    return core::encode_heavy_groups(ifi.heavy());
  }

  static constexpr Value kThreshold = 9;
  Overlay overlay;
  agg::Hierarchy hierarchy;
  FixedItems items;
  core::NetFilter netfilter;
};

std::vector<Bytes> heavy_payloads(HeavyReceiptRig& rig, Rng& rng) {
  std::vector<Bytes> valid{rig.honest_payload()};
  for (int c = 0; c < 3; ++c) {
    core::HeavyGroupSet heavy(HeavyReceiptRig::kFilters,
                              HeavyReceiptRig::kGroups);
    for (std::uint32_t i = 0; i < HeavyReceiptRig::kFilters; ++i) {
      for (std::uint32_t j = 0; j < HeavyReceiptRig::kGroups; ++j) {
        if (rng.below(3) == 0) heavy.set(i, j);
      }
    }
    valid.push_back(core::encode_heavy_groups(heavy));
  }
  return valid;
}

TEST(MutationSweepTest, HeavyReceiptBeforeInstallYieldsValueOrProtocolError) {
  Rng rng(29);
  HeavyReceiptRig rig;
  const std::vector<Bytes> valid = heavy_payloads(rig, rng);
  // Injected in round 0: every receipt lands before the root installs.
  sweep("IfiSessionPhases::on_heavy_received (cold)", valid,
        [&](std::span<const std::uint8_t> in) {
          EXPECT_EQ(rig.run(in, /*at=*/0, /*rounds=*/2), 0u);
        },
        rng);
}

TEST(MutationSweepTest, HeavyReceiptAfterInstallYieldsValueOrProtocolError) {
  Rng rng(31);
  HeavyReceiptRig rig;
  const std::vector<Bytes> valid = heavy_payloads(rig, rng);
  // Injected in round 7, received in round 8: the root installed in round
  // 6, so every mutant of the honest payload meets a warm cache.
  sweep("IfiSessionPhases::on_heavy_received (warm)", valid,
        [&](std::span<const std::uint8_t> in) {
          EXPECT_EQ(rig.run(in, /*at=*/7, /*rounds=*/9),
                    HeavyReceiptRig::kInstalled + 1);
        },
        rng);
}

TEST(MutationSweepTest, WarmCacheDecodesAndRejectsAMutatedHeavySet) {
  HeavyReceiptRig rig;
  const Bytes honest = rig.honest_payload();
  // The honest bytes themselves: served from the cache, no error.
  EXPECT_EQ(rig.run(honest, 7, 9), HeavyReceiptRig::kInstalled + 1);
  // One byte more than the cached payload: decoded, and rejected.
  Bytes trailing = honest;
  trailing.push_back(0);
  EXPECT_THROW((void)rig.run(trailing, 7, 9), ProtocolError);
  // A group id past f*g: decoded, and rejected.
  EXPECT_THROW((void)rig.run(encode_sorted_ids(std::vector<std::uint64_t>{
                                 HeavyReceiptRig::kFilters *
                                 HeavyReceiptRig::kGroups}),
                             7, 9),
               ProtocolError);
}

TEST(MutationSweepTest, AggregateMergeYieldsValueOrProtocolError) {
  constexpr std::uint32_t kWidth = 4;
  Rng rng(37);
  std::vector<Bytes> valid;
  for (int c = 0; c < 6; ++c) {
    std::vector<std::uint64_t> v(kWidth);
    for (std::uint64_t& x : v) x = any_width(rng);
    valid.push_back(encode_aggregates(v));
  }
  // Peer 2 forges a copy to peer 1 in round 0; `max_rounds` ends the run
  // once peer 1 has merged it.
  const auto forge_to_peer_1 = [](const Topology& topo,
                                  std::uint64_t max_rounds) {
    return [&topo, max_rounds](std::span<const std::uint8_t> in) {
      Overlay overlay(topo);
      const agg::Hierarchy hierarchy =
          agg::build_bfs_hierarchy(overlay, PeerId(0));
      agg::FlatAggregateConvergecastPhase cast(
          hierarchy, TrafficCategory::kFiltering, kWidth,
          [](PeerId p, std::span<std::uint64_t> out) {
            std::fill(out.begin(), out.end(), p.value());
          },
          /*flat_bytes=*/0);
      SessionMux mux;
      (void)mux.add_phase(mux.add_session(), cast, kStandaloneConvergecast);
      InjectingProtocol inject(mux, PeerId(2), PeerId(1), /*phase=*/0,
                               /*at=*/0, in);
      TrafficMeter meter(overlay.num_peers());
      Engine engine(overlay, meter, {});
      (void)engine.run(inject, max_rounds);
    };
  };
  // Line 0-1-2-3: peer 1's only child, peer 2, reports in round 2, so the
  // forged copy (round 1) is the one peer 1 merges.
  const Topology line = line_topology(4);
  sweep("FlatAggregateConvergecastPhase merge (one child)", valid,
        forge_to_peer_1(line, /*max_rounds=*/2), rng);
  // Peer 1 has two children: 2 (over 3) reports in round 2, 4 (over 5-6)
  // in round 3. The forged copy arrives first, in round 1, and is held;
  // peer 2's honest copy in round 2 completes the merge, which decodes
  // the held mutant.
  Topology two_children(7);
  two_children.add_edge(PeerId(0), PeerId(1));
  two_children.add_edge(PeerId(1), PeerId(2));
  two_children.add_edge(PeerId(2), PeerId(3));
  two_children.add_edge(PeerId(1), PeerId(4));
  two_children.add_edge(PeerId(4), PeerId(5));
  two_children.add_edge(PeerId(5), PeerId(6));
  sweep("FlatAggregateConvergecastPhase merge (held first)", valid,
        forge_to_peer_1(two_children, /*max_rounds=*/3), rng);
}

TEST(MutationSweepTest, HeavySliceMulticastYieldsValueOrProtocolError) {
  constexpr std::uint32_t kFilters = 2;
  constexpr std::uint32_t kGroups = 8;
  Rng rng(41);
  std::vector<Bytes> valid;
  for (int c = 0; c < 4; ++c) {
    core::HeavyGroupSet heavy(kFilters, kGroups);
    for (std::uint32_t i = 0; i < kFilters; ++i) {
      for (std::uint32_t j = 0; j < kGroups; ++j) {
        if (rng.below(3) == 0) heavy.set(i, j);
      }
    }
    valid.push_back(core::encode_heavy_groups(heavy));
  }
  const Topology line = line_topology(4);
  // Line 0-1-2-3 rooted at 0: the honest copy reaches peer 2 in round 2.
  // Peer 3 forges a copy to peer 2 in round 0, which arrives in round 1;
  // two rounds end the run once peer 2 has decoded it.
  sweep("FlatMulticastPhase heavy-slice receipt", valid,
        [&](std::span<const std::uint8_t> in) {
          Overlay overlay(line);
          const agg::Hierarchy hierarchy =
              agg::build_bfs_hierarchy(overlay, PeerId(0));
          agg::FlatMulticastPhase mc(
              hierarchy, TrafficCategory::kDissemination,
              [](PhaseContext&, std::span<const std::uint8_t> bytes) {
                (void)core::decode_heavy_groups(bytes, kFilters, kGroups);
              });
          mc.set_payload(valid.front(), valid.front().size());
          SessionMux mux;
          (void)mux.add_phase(mux.add_session(), mc, kStandaloneBroadcast);
          InjectingProtocol inject(mux, PeerId(3), PeerId(2), /*phase=*/0,
                                   /*at=*/0, in);
          TrafficMeter meter(overlay.num_peers());
          Engine engine(overlay, meter, {});
          (void)engine.run(inject, /*max_rounds=*/2);
          EXPECT_EQ(mc.num_received(), 3u);
        },
        rng);
}

TEST(MutationSweepTest, PairsMergeYieldsValueOrProtocolError) {
  Rng rng(43);
  std::vector<Bytes> valid;
  for (int c = 0; c < 6; ++c) {
    ValueMap<ItemId, std::uint64_t> map;
    for (int k = 0; k < 4; ++k) map.add(ItemId(any_width(rng)), any_width(rng));
    valid.push_back(encode_pairs(map));
  }
  const Topology line = line_topology(4);
  // Line 0-1-2-3: peer 1's only child, peer 2, reports in round 2. Peer 2
  // forges a copy to peer 1 in round 0, which arrives in round 1 and is
  // the one peer 1 merges and forwards.
  sweep("FlatPairsConvergecastPhase merge", valid,
        [&](std::span<const std::uint8_t> in) {
          Overlay overlay(line);
          const agg::Hierarchy hierarchy =
              agg::build_bfs_hierarchy(overlay, PeerId(0));
          agg::FlatPairsConvergecastPhase cast(
              hierarchy, TrafficCategory::kAggregation,
              [](PeerId p) {
                agg::FlatPairsConvergecastPhase::Pairs local;
                local.add(ItemId(p.value()), 1);
                return local;
              },
              /*wire_bytes=*/{});
          SessionMux mux;
          (void)mux.add_phase(mux.add_session(), cast,
                              kStandaloneConvergecast);
          InjectingProtocol inject(mux, PeerId(2), PeerId(1), /*phase=*/0,
                                   /*at=*/0, in);
          TrafficMeter meter(overlay.num_peers());
          Engine engine(overlay, meter, {});
          (void)engine.run(inject, /*max_rounds=*/2);
          EXPECT_GT(cast.sent_bytes(PeerId(1)), 0u);
        },
        rng);
}

}  // namespace
}  // namespace nf::net
