// Seeded hash functions and the hash family used to define filters.
//
// netFilter partitions items into item groups by hashing (paper §III-B.1):
// each of the `f` filters is an independent hash function
// h_i : items -> {0..g-1}. Peers must agree on the functions without
// coordination, so a filter is fully described by (seed, g) — two integers
// the root can broadcast. We use the 64-bit finalizer from MurmurHash3
// (fmix64) composed with the seed, which gives good avalanche behaviour and
// is cheap enough to hash millions of items per second.
//
// The batch group kernel. GroupHash::group_block hashes a block of ids
// under one filter and writes one group index per id, exactly
// group_of(id).value(). Both netFilter kernels run on it: phase-1 group
// aggregation and phase-2 candidate materialization hash every local item
// under every filter, so this loop is most of a query's CPU time.
//  - On a CPU with AVX-512F and AVX-512DQ it hashes eight ids per step:
//    fmix64's two multiplies are `vpmullq`, and the range reduction is two
//    32×32→64 `vpmuludq`s by the exact identity below.
//  - Any other CPU runs the scalar group_of loop.
//  The path is chosen once per process from the CPU's feature bits
//  (group_block_path() names it); no option selects it. The two paths
//  return the same indices, so results never depend on the host.
//
// Range reduction. group_of is (h·g) >> 64 over a 128-bit product. With
// h = hi·2^32 + lo (hi, lo < 2^32) and g < 2^32,
//   (h·g) >> 64 == (hi·g + ((lo·g) >> 32)) >> 32
// exactly: dropping the low 32 bits of lo·g before the final shift cannot
// carry into bit 64, and the sum is at most (2^32−1)·(2^32−1) + (2^32−1)
// = (2^32−1)·2^32 < 2^64, so it never overflows 64 bits.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/error.h"
#include "common/ids.h"
#include "common/rng.h"

namespace nf {

/// MurmurHash3 64-bit finalizer. Full avalanche: every input bit affects
/// every output bit with probability ~1/2.
[[nodiscard]] constexpr std::uint64_t fmix64(std::uint64_t k) {
  k ^= k >> 33;
  k *= 0xFF51AFD7ED558CCDull;
  k ^= k >> 33;
  k *= 0xC4CEB9FE1A85EC53ull;
  k ^= k >> 33;
  return k;
}

/// Seeded 64-bit hash of a 64-bit key.
[[nodiscard]] constexpr std::uint64_t hash64(std::uint64_t key,
                                             std::uint64_t seed) {
  return fmix64(key ^ fmix64(seed));
}

/// SplitMix64-style finalizer (one multiply, partial avalanche). Cheaper
/// than fmix64 where only a few well-mixed bits are consumed afterwards —
/// per-link latency draws, per-transmission loss draws.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t h) {
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ull;
  h ^= h >> 32;
  return h;
}

/// Order-independent seeded hash of an unordered peer pair — the canonical
/// way to derive a deterministic per-link quantity (e.g. a link delay)
/// from two endpoints.
[[nodiscard]] constexpr std::uint64_t link_hash(std::uint64_t seed, PeerId a,
                                                PeerId b) {
  const std::uint64_t lo =
      a.value() < b.value() ? a.value() : b.value();
  const std::uint64_t hi =
      a.value() < b.value() ? b.value() : a.value();
  return mix64(seed ^ (lo * 0x9E3779B97F4A7C15ull) ^ (hi << 32));
}

/// Uniform double in [0, 1) from a seeded counter — a stateless random
/// stream. Unlike a sequential Rng, draw i is independent of how many other
/// draws happened before it, which is what makes per-transmission loss
/// decisions identical between serial and sharded engine runs.
[[nodiscard]] constexpr double hash_uniform(std::uint64_t counter,
                                            std::uint64_t seed) {
  return static_cast<double>(hash64(counter, seed) >> 11) * 0x1.0p-53;
}

/// FNV-1a over bytes, for hashing application-level string keys (keywords,
/// byte sequences) into the 64-bit ItemId space.
[[nodiscard]] inline std::uint64_t hash_bytes(std::string_view bytes,
                                              std::uint64_t seed = 0) {
  std::uint64_t h = 0xCBF29CE484222325ull ^ fmix64(seed);
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return fmix64(h);
}

/// One hash filter: maps items to one of `g` item groups.
///
/// Copyable value type; two GroupHash instances with the same (seed, g)
/// behave identically on every peer, which is what makes decentralized
/// candidate materialization possible (paper §III-C). The group of an item
/// is (hash64(item, seed) * g) >> 64; the seed half of hash64 is mixed once
/// here, not per item.
class GroupHash {
 public:
  GroupHash(std::uint64_t seed, std::uint32_t num_groups)
      : seed_(seed), mixed_seed_(fmix64(seed)), num_groups_(num_groups) {
    require(num_groups > 0, "GroupHash requires at least one group");
  }

  [[nodiscard]] GroupId group_of(ItemId item) const {
    // Multiply-shift style range reduction of the seeded hash. Using the
    // high bits via 128-bit multiply avoids modulo bias entirely.
    const std::uint64_t h = fmix64(item.value() ^ mixed_seed_);
    const auto g = static_cast<std::uint32_t>(
        (static_cast<__uint128_t>(h) * num_groups_) >> 64);
    return GroupId(g);
  }

  /// The batch kernel: out[k] = group_of(ItemId(ids[k])).value() for
  /// every k < ids.size(). Requires out.size() >= ids.size(). Raw ids, so
  /// a caller's stack block of them needs no zero fill.
  void group_block(std::span<const std::uint64_t> ids,
                   std::span<std::uint32_t> out) const;

  [[nodiscard]] std::uint32_t num_groups() const { return num_groups_; }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  friend bool operator==(const GroupHash&, const GroupHash&) = default;

 private:
  std::uint64_t seed_;
  std::uint64_t mixed_seed_;  ///< fmix64(seed_)
  std::uint32_t num_groups_;
};

/// A bank of `f` independent filters, all with the same group count `g`.
/// This is the complete, broadcastable description of netFilter's
/// candidate-filtering configuration.
class FilterBank {
 public:
  /// Derives `num_filters` independent seeds from `master_seed`.
  FilterBank(std::uint64_t master_seed, std::uint32_t num_filters,
             std::uint32_t num_groups) {
    require(num_filters > 0, "FilterBank requires at least one filter");
    std::uint64_t sm = master_seed;
    filters_.reserve(num_filters);
    for (std::uint32_t i = 0; i < num_filters; ++i) {
      filters_.emplace_back(splitmix64(sm), num_groups);
    }
  }

  [[nodiscard]] std::uint32_t num_filters() const {
    return static_cast<std::uint32_t>(filters_.size());
  }
  [[nodiscard]] std::uint32_t num_groups() const {
    return filters_.front().num_groups();
  }
  [[nodiscard]] const GroupHash& filter(std::uint32_t i) const {
    require(i < filters_.size(), "filter index out of range");
    return filters_[i];
  }
  /// All f filters in order — for per-item loops, which then need no
  /// per-lookup range check.
  [[nodiscard]] std::span<const GroupHash> filters() const {
    return filters_;
  }

  friend bool operator==(const FilterBank&, const FilterBank&) = default;

 private:
  std::vector<GroupHash> filters_;
};

/// The path GroupHash::group_block runs on this CPU: "avx512" or "scalar".
[[nodiscard]] std::string_view group_block_path();

}  // namespace nf
