#include "support/rng.hpp"

#include <bit>
#include <cstdlib>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace beepmis::support {

void Xoshiro256StarStar::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
      0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};

  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        for (std::size_t i = 0; i < 4; ++i) acc[i] ^= state_[i];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

Xoshiro256StarStar Xoshiro256StarStar::split(std::uint64_t stream) const noexcept {
  // Hash the full current state together with the stream index so that
  // splits from distinct parents (or the same parent at different times)
  // are independent.
  std::uint64_t h = mix_seed(state_[0], state_[1]);
  h = mix_seed(h, state_[2]);
  h = mix_seed(h, state_[3]);
  h = mix_seed(h, stream);
  return Xoshiro256StarStar(h);
}

std::uint64_t Xoshiro256StarStar::below(std::uint64_t bound) noexcept {
  // Lemire (2019): multiply-shift with rejection to remove modulo bias.
  __extension__ using uint128 = unsigned __int128;
  std::uint64_t x = (*this)();
  uint128 m = static_cast<uint128>(x) * bound;
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = (*this)();
      m = static_cast<uint128>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool XoshiroLanes::vectorized() noexcept {
#if defined(__x86_64__)
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
           __builtin_cpu_supports("avx512vl");
  }();
  return supported;
#else
  return false;
#endif
}

XoshiroLanes::XoshiroLanes(std::span<const Xoshiro256StarStar> rngs) noexcept : s_{} {
  for (std::size_t l = 0; l < rngs.size(); ++l) {
    for (std::size_t i = 0; i < 4; ++i) s_[i][l] = rngs[l].state_[i];
  }
}

void XoshiroLanes::store(std::span<Xoshiro256StarStar> rngs) const noexcept {
  for (std::size_t l = 0; l < rngs.size(); ++l) {
    for (std::size_t i = 0; i < 4; ++i) rngs[l].state_[i] = s_[i][l];
  }
}

#if defined(__x86_64__)
// GCC 12's AVX-512 headers self-initialise the pass-through operand of
// unmasked intrinsics (`__m512i __Y = __Y;`), which -Wmaybe-uninitialized
// then flags at every inlined call (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
// Compiled for AVX-512 whatever the global flags say; only reached when
// vectorized() holds.  A global -m flag would also let the compiler
// contract the simulator's double arithmetic into FMAs, moving results.
[[gnu::target("avx512f,avx512bw,avx512vl")]]
std::uint64_t XoshiroLanes::bernoulli_pow2(std::uint64_t lanes,
                                           const std::uint16_t* k) noexcept {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i mantissa_bits = _mm512_set1_epi64(53);
  const __m512i never = _mm512_set1_epi64(1075);
  std::uint64_t fired = 0;
  // One pass per 8-lane group holding a requested lane.
  for (std::uint64_t rest = lanes; rest != 0;) {
    const unsigned base = static_cast<unsigned>(std::countr_zero(rest)) & ~7u;
    const auto group = static_cast<__mmask8>(rest >> base);
    rest &= ~(std::uint64_t{0xff} << base);

    __m512i s0 = _mm512_load_si512(&s_[0][base]);
    __m512i s1 = _mm512_load_si512(&s_[1][base]);
    __m512i s2 = _mm512_load_si512(&s_[2][base]);
    __m512i s3 = _mm512_load_si512(&s_[3][base]);
    // result = rotl(s1 * 5, 7) * 9, the multiplies as shift-adds.
    const __m512i s1x5 = _mm512_add_epi64(_mm512_slli_epi64(s1, 2), s1);
    const __m512i rot = _mm512_rol_epi64(s1x5, 7);
    const __m512i out = _mm512_add_epi64(_mm512_slli_epi64(rot, 3), rot);
    const __m512i t = _mm512_slli_epi64(s1, 17);
    s2 = _mm512_xor_si512(s2, s0);
    s3 = _mm512_xor_si512(s3, s1);
    s1 = _mm512_xor_si512(s1, s2);
    s0 = _mm512_xor_si512(s0, s3);
    s2 = _mm512_xor_si512(s2, t);
    s3 = _mm512_rol_epi64(s3, 45);
    _mm512_mask_store_epi64(&s_[0][base], group, s0);
    _mm512_mask_store_epi64(&s_[1][base], group, s1);
    _mm512_mask_store_epi64(&s_[2][base], group, s2);
    _mm512_mask_store_epi64(&s_[3][base], group, s3);

    // bernoulli_pow2's rule per lane: the mantissa out >> 11 fires iff it
    // is zero after a shift of 53 - k (k < 53) or 0 (k >= 53, only the
    // exact-zero mantissa), and never at k >= 1075.
    const __m512i kw = _mm512_cvtepu16_epi64(_mm_maskz_loadu_epi16(group, k + base));
    const __m512i shift = _mm512_max_epi64(_mm512_sub_epi64(mantissa_bits, kw), zero);
    const __m512i top = _mm512_srlv_epi64(_mm512_srli_epi64(out, 11), shift);
    const __mmask8 hit = _mm512_mask_testn_epi64_mask(group, top, top) &
                         _mm512_cmplt_epu64_mask(kw, never);
    fired |= std::uint64_t{hit} << base;
  }
  return fired;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
std::uint64_t XoshiroLanes::bernoulli_pow2(std::uint64_t, const std::uint16_t*) noexcept {
  std::abort();  // unreachable: vectorized() is false off x86-64
}
#endif

}  // namespace beepmis::support
