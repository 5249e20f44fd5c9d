#include "net/codec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>

#include "common/hashing.h"
#include "common/rng.h"
#include "core/netfilter.h"

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
    core::HeavyGroupSet heavy;
    heavy.heavy.assign(kFilters, std::vector<bool>(kGroups, false));
    for (auto& bitmap : heavy.heavy) {
      for (std::size_t j = 0; j < kGroups; ++j) {
        bitmap[j] = rng.below(5) == 0;
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

}  // namespace
}  // namespace nf::net
