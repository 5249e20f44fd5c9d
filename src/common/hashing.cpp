#include "common/hashing.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace nf {

namespace {

/// One kernel implementation: the groups of ids[0..n) under the filter
/// with pre-mixed seed `mixed_seed` and `g` groups.
using BlockKernel = void (*)(std::uint64_t mixed_seed, std::uint32_t g,
                             const std::uint64_t* ids, std::size_t n,
                             std::uint32_t* out);

/// group_of, one id at a time.
void group_block_scalar(std::uint64_t mixed_seed, std::uint32_t g,
                        const std::uint64_t* ids, std::size_t n,
                        std::uint32_t* out) {
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t h = fmix64(ids[k] ^ mixed_seed);
    out[k] = static_cast<std::uint32_t>((static_cast<__uint128_t>(h) * g) >>
                                        64);
  }
}

#if defined(__x86_64__)

// Every step below is a zero-masked intrinsic with all lanes selected:
// GCC 12's unmasked forms of vpsrlq, vpmuludq, vpshufd and vpermd start
// from _mm512_undefined_epi32(), which trips -Wmaybe-uninitialized (GCC
// bug 105593), and a full mask compiles to the same unmasked instruction.
// Three of the shifts become vpshufd/vpermd, which run on a port the
// shifts and multiplies do not use.
constexpr __mmask8 kAllQwords = 0xFF;
constexpr __mmask16 kAllDwords = 0xFFFF;
constexpr __mmask16 kLowDwords = 0x5555;   // the low half of each qword
constexpr __mmask16 kFirstEight = 0x00FF;  // dwords 0-7

#define NF_AVX512 gnu::target("avx512f,avx512dq")

/// x ^ (x >> 33) in each 64-bit lane.
[[NF_AVX512]] inline __m512i xorshift33(__m512i x) {
  return _mm512_xor_si512(x, _mm512_maskz_srli_epi64(kAllQwords, x, 33));
}

/// The groups of eight ids, in dwords 0-7.
[[NF_AVX512]] inline __m512i groups8(__m512i k, __m512i mixed_seed,
                                     __m512i g) {
  const __m512i c1 =
      _mm512_set1_epi64(static_cast<long long>(0xFF51AFD7ED558CCDull));
  const __m512i c2 =
      _mm512_set1_epi64(static_cast<long long>(0xC4CEB9FE1A85EC53ull));
  const __m512i odd_dwords = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 0,
                                               0, 0, 0, 0, 0, 0, 0);
  // h = fmix64(k ^ mixed_seed); vpmullq is AVX-512DQ.
  __m512i h = xorshift33(_mm512_xor_si512(k, mixed_seed));
  h = xorshift33(_mm512_mullo_epi64(h, c1));
  h = xorshift33(_mm512_mullo_epi64(h, c2));
  // (h·g) >> 64 == (hi·g + ((lo·g) >> 32)) >> 32, see hashing.h.
  // vpmuludq reads the low dword of each lane, so hi·g needs only the
  // dwords swapped; lo·g >> 32 is that swap with the high dwords zeroed;
  // and the final >> 32 is the odd dwords.
  const __m512i hi_g = _mm512_maskz_mul_epu32(
      kAllQwords, _mm512_maskz_shuffle_epi32(kAllDwords, h, _MM_PERM_CDAB),
      g);
  const __m512i lo_g = _mm512_maskz_mul_epu32(kAllQwords, h, g);
  const __m512i sum = _mm512_add_epi64(
      hi_g, _mm512_maskz_shuffle_epi32(kLowDwords, lo_g, _MM_PERM_CDAB));
  return _mm512_maskz_permutexvar_epi32(kFirstEight, odd_dwords, sum);
}

/// Eight ids per step; the last 1-7 ids take one masked step, whose
/// masked-off lanes are neither loaded nor stored.
[[NF_AVX512]] void group_block_avx512(std::uint64_t mixed_seed,
                                      std::uint32_t g,
                                      const std::uint64_t* ids, std::size_t n,
                                      std::uint32_t* out) {
  const __m512i seed = _mm512_set1_epi64(static_cast<long long>(mixed_seed));
  const __m512i groups = _mm512_set1_epi64(static_cast<long long>(g));
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512i x = _mm512_loadu_si512(ids + k);
    _mm512_mask_storeu_epi32(out + k, kFirstEight, groups8(x, seed, groups));
  }
  if (k < n) {
    const auto mask = static_cast<__mmask8>((1u << (n - k)) - 1u);
    const __m512i x = _mm512_maskz_loadu_epi64(mask, ids + k);
    _mm512_mask_storeu_epi32(out + k, mask, groups8(x, seed, groups));
  }
}

#undef NF_AVX512

BlockKernel pick_kernel() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return group_block_avx512;
  }
  return group_block_scalar;
}

#else

BlockKernel pick_kernel() { return group_block_scalar; }

#endif

BlockKernel kernel() {
  static const BlockKernel chosen = pick_kernel();
  return chosen;
}

}  // namespace

void GroupHash::group_block(std::span<const std::uint64_t> ids,
                            std::span<std::uint32_t> out) const {
  require(out.size() >= ids.size(), "group_block output is too short");
  kernel()(mixed_seed_, num_groups_, ids.data(), ids.size(), out.data());
}

std::string_view group_block_path() {
  return kernel() == group_block_scalar ? "scalar" : "avx512";
}

}  // namespace nf
