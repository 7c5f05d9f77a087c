#include "mis/local_feedback_batch.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "mis/batch_skeleton.hpp"

namespace beepmis::mis {

namespace {

using sim::LaneMask;

[[nodiscard]] inline unsigned lowest_lane(LaneMask b) noexcept {
  return static_cast<unsigned>(std::countr_zero(b));
}

/// p == 2^-k for an integer k >= 0?  (frexp: p = f * 2^e with f in
/// [0.5, 1); a power of two has f == 0.5 exactly, and then p = 2^(e-1),
/// i.e. k = 1 - e.)
[[nodiscard]] bool negative_pow2_exponent(double p, unsigned* k) {
  int e = 0;
  if (!(p > 0.0) || std::frexp(p, &e) != 0.5 || e > 1) return false;
  *k = static_cast<unsigned>(1 - e);
  return true;
}

/// Exponent at which the halving sequence 2^-k reaches exact 0.0:
/// 2^-1074 is the smallest subnormal, and 2^-1075 rounds to even (0).
constexpr std::uint16_t kZeroExponent = 1075;

/// Bitplane width of the statistical-lanes exponent representation; every
/// reachable exponent (<= kZeroExponent) fits in 11 bits.
constexpr unsigned kExpWidth = 11;

#if defined(__x86_64__)
// GCC 12's AVX-512 headers self-initialise the pass-through operand of
// unmasked intrinsics (`__m512i __Y = __Y;`), which -Wmaybe-uninitialized
// then flags at every inlined call (GCC bug 105593).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
/// Scalar-order dyadic feedback for one node: the per-lane exponent rule
/// of react_feedback as two 32-lane masked add/sub operations.  Only
/// reached when support::XoshiroLanes::vectorized() holds (the same
/// AVX-512 F/BW/VL test); lanes outside `live` are neither read nor
/// written, so `kv` need only hold the bound lanes.
[[gnu::target("avx512f,avx512bw,avx512vl")]]
void step_exponents_avx512(std::uint16_t* kv, LaneMask live, LaneMask heard,
                           std::uint16_t k_min) noexcept {
  const __m512i one = _mm512_set1_epi16(1);
  const __m512i zero_exp = _mm512_set1_epi16(static_cast<short>(kZeroExponent));
  const __m512i floor = _mm512_set1_epi16(static_cast<short>(k_min));
  for (unsigned half = 0; half < 64; half += 32) {
    const auto lanes = static_cast<__mmask32>(live >> half);
    if (lanes == 0) continue;
    const auto h = static_cast<__mmask32>(heard >> half);
    const __m512i k = _mm512_maskz_loadu_epi16(lanes, kv + half);
    const __mmask32 movable = _mm512_mask_cmplt_epu16_mask(lanes, k, zero_exp);
    const __mmask32 inc = movable & h;
    const __mmask32 dec = movable & ~h & _mm512_cmpgt_epu16_mask(k, floor);
    const __m512i up = _mm512_mask_add_epi16(k, inc, k, one);
    _mm512_mask_storeu_epi16(kv + half, lanes, _mm512_mask_sub_epi16(up, dec, up, one));
  }
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
void step_exponents_avx512(std::uint16_t*, LaneMask, LaneMask, std::uint16_t) noexcept {
  std::abort();  // unreachable: XoshiroLanes::vectorized() is false off x86-64
}
#endif

}  // namespace

BatchLocalFeedbackMis::BatchLocalFeedbackMis(LocalFeedbackConfig config,
                                             sim::BatchRngMode mode)
    : config_(config), mode_(mode) {
  config_.validate();
}

void BatchLocalFeedbackMis::reset(const graph::Graph& g,
                                  std::span<support::Xoshiro256StarStar> rngs) {
  const graph::NodeId n = g.node_count();
  lanes_ = static_cast<unsigned>(rngs.size());
  winner_.assign(n, 0);
  const bool hetero_p = config_.initial_p_high > config_.initial_p_low;
  const bool hetero_factor = config_.factor_high > config_.factor_low;

  unsigned k0 = 0;
  unsigned k_cap = 0;
  dyadic_ = !hetero_p && !hetero_factor && config_.factor_low == 2.0 &&
            negative_pow2_exponent(config_.initial_p_low, &k0) &&
            negative_pow2_exponent(config_.max_p, &k_cap);
  if (dyadic_) {
    // Scalar reset clamps p0 to max_p, i.e. k = max(k0, k_cap); no draws.
    k_min_ = static_cast<std::uint16_t>(k_cap);
    k_reset_ = static_cast<std::uint16_t>(std::max(k0, k_cap));
    if (mode_ == sim::BatchRngMode::kStatisticalLanes) {
      // Bitplane representation: every reachable exponent is in
      // [k_min_, kZeroExponent], so at most 11 planes (2^11 = 2048) ever
      // hold it; begin_round grows them from the round-0 bound.
      eplanes_.reset(n, kExpWidth, k_reset_);
      k_.clear();
    } else {
      k_.assign(static_cast<std::size_t>(n) * lanes_, k_reset_);
    }
    p_.clear();
    factor_.clear();
    return;
  }

  const std::size_t cells = static_cast<std::size_t>(n) * lanes_;
  k_.clear();
  p_.assign(cells, config_.initial_p_low);
  factor_.clear();
  if (hetero_factor) factor_.assign(cells, config_.factor_low);
  // Scalar reset order per lane: ascending v, p draw before factor draw.
  // Lanes use disjoint RNG streams, so the lane-outer loop is equivalent.
  for (unsigned l = 0; l < lanes_; ++l) {
    support::Xoshiro256StarStar& rng = rngs[l];
    for (graph::NodeId v = 0; v < n; ++v) {
      double& p = p_[static_cast<std::size_t>(v) * lanes_ + l];
      if (hetero_p) {
        p = config_.initial_p_low +
            rng.uniform01() * (config_.initial_p_high - config_.initial_p_low);
      }
      if (hetero_factor) {
        factor_[static_cast<std::size_t>(v) * lanes_ + l] =
            config_.factor_low +
            rng.uniform01() * (config_.factor_high - config_.factor_low);
      }
      p = std::min(p, config_.max_p);
    }
  }
}

void BatchLocalFeedbackMis::begin_round(std::size_t round) {
  if (dyadic_ && mode_ == sim::BatchRngMode::kStatisticalLanes) eplanes_.begin_round(round);
}

void BatchLocalFeedbackMis::reset_lane_probability(graph::NodeId v, unsigned lane) {
  if (dyadic_) {
    if (mode_ == sim::BatchRngMode::kStatisticalLanes) {
      eplanes_.set_lane(v, lane, k_reset_);
    } else {
      k_[static_cast<std::size_t>(v) * lanes_ + lane] = k_reset_;
    }
  } else {
    p_[static_cast<std::size_t>(v) * lanes_ + lane] =
        std::min(config_.initial_p_low, config_.max_p);
  }
}

void BatchLocalFeedbackMis::emit_intent_dyadic(sim::BatchContext& ctx) {
  if (support::XoshiroLanes::vectorized()) {
    // The same draws eight lanes per step: every lane's stream still gives
    // one output per live (node, lane) in ascending node order.
    support::XoshiroLanes streams(ctx.rngs());
    for (const graph::NodeId v : ctx.active_nodes()) {
      const LaneMask live = ctx.live_mask(v);
      if (!live) continue;
      winner_[v] = 0;
      const LaneMask beeps =
          streams.bernoulli_pow2(live, &k_[static_cast<std::size_t>(v) * lanes_]);
      if (beeps) ctx.beep(v, beeps);
    }
    streams.store(ctx.rngs());
    return;
  }
  for (const graph::NodeId v : ctx.active_nodes()) {
    const LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    winner_[v] = 0;
    const std::uint16_t* kv = &k_[static_cast<std::size_t>(v) * lanes_];
    LaneMask beeps = 0;
    for (LaneMask b = live; b != 0; b &= b - 1) {
      const unsigned l = lowest_lane(b);
      // One rng() output per draw, exactly like the scalar bernoulli; the
      // endpoint behaviour (subnormal region, 2^-1075 underflow to
      // never-beep) is single-sourced in bernoulli_pow2.
      beeps |= static_cast<LaneMask>(ctx.rng(l).bernoulli_pow2(kv[l])) << l;
    }
    if (beeps) ctx.beep(v, beeps);
  }
}

void BatchLocalFeedbackMis::emit_intent_dyadic_planes(sim::BatchContext& ctx) {
  // Statistical lanes: one node's per-lane Bernoulli(2^-k) draws collapse
  // into a handful of shared chunk planes selected by the exponent
  // bitplanes — no per-lane loop and ~log2(lanes) bulk 64-bit draws where
  // the scalar-order path pays one serially dependent rng() call per live
  // lane.  (A lane at the exact-zero exponent fires with true probability
  // 2^-1075 here instead of never — unobservable, and closer to the ideal
  // protocol than the double underflow.)
  for (const graph::NodeId v : ctx.active_nodes()) {
    const LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    winner_[v] = 0;
    const LaneMask beeps = eplanes_.draw(ctx, v, live);
    if (beeps) ctx.beep(v, beeps);
  }
}

void BatchLocalFeedbackMis::emit_intent_general(sim::BatchContext& ctx) {
  for (const graph::NodeId v : ctx.active_nodes()) {
    const LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    winner_[v] = 0;
    const double* pv = &p_[static_cast<std::size_t>(v) * lanes_];
    LaneMask beeps = 0;
    for (LaneMask b = live; b != 0; b &= b - 1) {
      const unsigned l = lowest_lane(b);
      if (ctx.rng(l).bernoulli(pv[l])) beeps |= LaneMask{1} << l;
    }
    if (beeps) ctx.beep(v, beeps);
  }
}

void BatchLocalFeedbackMis::emit(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Intent exchange: each live (node, lane) beeps with its probability.
    // Scalar order draws from the lane's own RNG in ascending node order;
    // statistical mode vectorises the dyadic draws into bulk planes (the
    // general path keeps per-lane draws — heterogeneous probabilities
    // cannot share planes — but from jump()-partitioned streams).
    if (dyadic_ && mode_ == sim::BatchRngMode::kStatisticalLanes) {
      emit_intent_dyadic_planes(ctx);
    } else if (dyadic_) {
      emit_intent_dyadic(ctx);
    } else {
      emit_intent_general(ctx);
    }
  } else {
    batch_skeleton::announce_winners(ctx, winner_);
  }
}

void BatchLocalFeedbackMis::react_feedback(sim::BatchContext& ctx) {
  const bool lane_parallel = support::XoshiroLanes::vectorized();
  const bool hetero_factor = !factor_.empty();
  const double uniform_factor = config_.factor_low;
  for (const graph::NodeId v : ctx.active_nodes()) {
    const LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    const LaneMask heard = ctx.heard_mask(v);
    // A beeper that heard nothing won the intent exchange (Table 1).
    winner_[v] = ctx.beeped_mask(v) & ~heard;
    const std::size_t base = static_cast<std::size_t>(v) * lanes_;
    if (dyadic_ && mode_ == sim::BatchRngMode::kStatisticalLanes) {
      // Whole-plane feedback: the +-1 exponent updates of all 64 lanes are
      // one ripple carry/borrow over the bitplanes, gated by the same
      // sticky-zero and k_min rules as the per-lane loop below.  Until
      // the planes grow to 11 bits (round ~1024) the sticky-zero probe is a
      // single compare (no lane can have reached it yet).
      const LaneMask movable = live & ~eplanes_.equal(v, kZeroExponent);
      const LaneMask inc = movable & heard;
      const LaneMask dec = movable & ~heard & ~eplanes_.equal(v, k_min_);
      if ((inc | dec) != 0) eplanes_.update(v, inc, dec);
      continue;
    }
    if (dyadic_) {
      // Exponent form of the feedback rule: /2 is k+1 (sticking at exact
      // zero), *2-capped-at-max_p is k-1 floored at k_min.
      std::uint16_t* kv = &k_[base];
      if (lane_parallel) {
        step_exponents_avx512(kv, live, heard, k_min_);
        continue;
      }
      for (LaneMask b = live; b != 0; b &= b - 1) {
        const unsigned l = lowest_lane(b);
        std::uint16_t& k = kv[l];
        // Branchless: heard is a coin flip per lane, so arithmetic on the
        // bit beats a mispredicting branch.  Exponent 1075 (exact zero) is
        // sticky in both directions; silence floors at k_min (max_p).
        const std::uint16_t h = static_cast<std::uint16_t>((heard >> l) & 1u);
        const std::uint16_t movable = static_cast<std::uint16_t>(k < kZeroExponent);
        const std::uint16_t inc = static_cast<std::uint16_t>(h & movable);
        const std::uint16_t dec =
            static_cast<std::uint16_t>((h ^ 1u) & movable & (k > k_min_));
        k = static_cast<std::uint16_t>(k + inc - dec);
      }
      continue;
    }
    // Local feedback with the scalar expressions so the doubles stay
    // bit-identical: divide on heard, multiply-and-cap on silence.
    double* pv = &p_[base];
    for (LaneMask b = live; b != 0; b &= b - 1) {
      const unsigned l = lowest_lane(b);
      const double f = hetero_factor ? factor_[base + l] : uniform_factor;
      if ((heard >> l) & 1u) {
        pv[l] /= f;
      } else {
        pv[l] = std::min(config_.max_p, pv[l] * f);
      }
    }
  }
}

void BatchLocalFeedbackMis::react(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    react_feedback(ctx);
  } else {
    batch_skeleton::apply_round_outcome(ctx, winner_);
  }
}

}  // namespace beepmis::mis
