#include "net/payload.h"

#include <gtest/gtest.h>

#include <vector>

namespace nf::net {
namespace {

TEST(PayloadRefTest, DefaultIsInvalid) {
  const PayloadRef ref;
  EXPECT_FALSE(ref.valid());
  EXPECT_EQ(ref.slab, kNoSlab);
}

TEST(SlabArenaTest, ResetKeepsCapacity) {
  SlabArena slab;
  const std::vector<std::uint8_t> chunk(4096, 0xAB);
  slab.append(chunk);
  EXPECT_EQ(slab.size(), 4096u);
  const std::size_t warmed = slab.capacity();
  EXPECT_GE(warmed, 4096u);

  // High-water-mark reset: size drops, capacity stays — the steady-state
  // zero-alloc guarantee rests on this.
  slab.reset();
  EXPECT_EQ(slab.size(), 0u);
  EXPECT_EQ(slab.capacity(), warmed);

  // Refilling up to the high-water mark must not grow the allocation.
  slab.append(chunk);
  EXPECT_EQ(slab.capacity(), warmed);
}

TEST(SlabArenaTest, ViewBoundsChecked) {
  SlabArena slab;
  const std::vector<std::uint8_t> bytes{1, 2, 3};
  slab.append(bytes);
  const auto v = slab.view(1, 2);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 2);
  EXPECT_EQ(v[1], 3);
  EXPECT_THROW((void)slab.view(1, 3), Error);
  EXPECT_THROW((void)slab.view(4, 0), Error);
  // Offset + length overflowing size_t must not wrap past the check.
  EXPECT_THROW((void)slab.view(0xFFFFFFFFu, 0xFFFFFFFFu), Error);
}

TEST(PayloadWriterTest, RefCoversExactlyWhatWasWritten) {
  SlabArena slab;
  // Pre-existing content the writer must not claim.
  slab.append(std::vector<std::uint8_t>{0xEE});

  PayloadWriter w(slab, 3);
  w.put_varint(300);  // 0xAC 0x02
  const std::vector<std::uint8_t> tail{0x10, 0x20};
  w.put_bytes(tail);
  EXPECT_EQ(w.written(), 4u);

  const PayloadRef ref = w.finish();
  EXPECT_EQ(ref.slab, 3u);
  EXPECT_EQ(ref.offset, 1u);
  EXPECT_EQ(ref.length, 4u);
  const auto v = slab.view(ref.offset, ref.length);
  EXPECT_EQ((std::vector<std::uint8_t>(v.begin(), v.end())),
            (std::vector<std::uint8_t>{0xAC, 0x02, 0x10, 0x20}));
}

TEST(PayloadWriterTest, EmptyPayloadIsValidZeroLengthRef) {
  SlabArena slab;
  PayloadWriter w(slab, 0);
  const PayloadRef ref = w.finish();
  EXPECT_TRUE(ref.valid());
  EXPECT_EQ(ref.length, 0u);
  EXPECT_TRUE(slab.view(ref.offset, ref.length).empty());
}

TEST(PayloadWriterTest, RefsSurviveSlabGrowth) {
  SlabArena slab;
  PayloadWriter a(slab, 0);
  a.put_varint(7);
  const PayloadRef ra = a.finish();

  // Force reallocation: offsets are stable even though the base pointer
  // moves, which is why PayloadRef stores (slab, offset) instead of a span.
  const std::vector<std::uint8_t> big(1 << 20, 0x55);
  slab.append(big);

  const auto v = slab.view(ra.offset, ra.length);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 7);
}

TEST(CopyToSlabTest, AppendsAndRefs) {
  SlabArena slab;
  const std::vector<std::uint8_t> first{1, 2, 3};
  const std::vector<std::uint8_t> second{9};
  const PayloadRef ra = copy_to_slab(slab, kRingSlabBase, first);
  const PayloadRef rb = copy_to_slab(slab, kRingSlabBase, second);
  EXPECT_EQ(ra.slab, kRingSlabBase);
  EXPECT_EQ(ra.offset, 0u);
  EXPECT_EQ(ra.length, 3u);
  EXPECT_EQ(rb.offset, 3u);
  EXPECT_EQ(rb.length, 1u);
  EXPECT_EQ(slab.view(rb.offset, rb.length)[0], 9);
}

}  // namespace
}  // namespace nf::net
