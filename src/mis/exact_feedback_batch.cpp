#include "mis/exact_feedback_batch.hpp"

#include <algorithm>
#include <bit>

#include "mis/batch_skeleton.hpp"

namespace beepmis::mis {

using sim::LaneMask;

namespace {
/// Statistical-lanes exponent bitplane width; the exponent saturates at
/// 2^12 - 1 (see the header note on why that is unobservable).
constexpr unsigned kExpWidth = 12;
constexpr unsigned kExpMax = (1u << kExpWidth) - 1;
}  // namespace

void BatchExactLocalFeedbackMis::reset(const graph::Graph& g,
                                       std::span<support::Xoshiro256StarStar> rngs) {
  // n(0, v) = 1 everywhere; the scalar on_reset draws nothing.
  const graph::NodeId n = g.node_count();
  lanes_ = static_cast<unsigned>(rngs.size());
  winner_.assign(n, 0);
  if (mode_ == sim::BatchRngMode::kStatisticalLanes) {
    eplanes_.reset(n, kExpWidth, 1);
    exponent_.clear();
  } else {
    exponent_.assign(static_cast<std::size_t>(n) * lanes_, 1);
  }
}

void BatchExactLocalFeedbackMis::begin_round(std::size_t round) {
  if (mode_ == sim::BatchRngMode::kStatisticalLanes) eplanes_.begin_round(round);
}

void BatchExactLocalFeedbackMis::emit(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Intent exchange: beep with 2^{-min(n, 1074)}.  The clamp mirrors the
    // scalar beep_probability (2^-1074, the smallest subnormal, is the
    // floor — unlike the floating local-feedback kernel there is no
    // exact-zero state).  Scalar order: one rng() output per live
    // (node, lane) in ascending node order, single-sourced in
    // bernoulli_pow2.  Statistical lanes: chunk planes selected by the
    // exponent bitplanes, no per-lane loop.
    if (mode_ == sim::BatchRngMode::kStatisticalLanes) {
      // Bulk planes over the exponent bitplanes; the draw is the true
      // 2^-k (k <= 4095) rather than the clamped 2^-min(k, 1074) — both
      // are never-in-any-run events, so the marginals are indistinguishable.
      for (const graph::NodeId v : ctx.active_nodes()) {
        const LaneMask live = ctx.live_mask(v);
        if (!live) continue;
        winner_[v] = 0;
        const LaneMask beeps = eplanes_.draw(ctx, v, live);
        if (beeps) ctx.beep(v, beeps);
      }
    } else {
      for (const graph::NodeId v : ctx.active_nodes()) {
        const LaneMask live = ctx.live_mask(v);
        if (!live) continue;
        winner_[v] = 0;
        const std::uint32_t* ev = &exponent_[static_cast<std::size_t>(v) * lanes_];
        LaneMask beeps = 0;
        for (LaneMask b = live; b != 0; b &= b - 1) {
          const unsigned l = static_cast<unsigned>(std::countr_zero(b));
          const unsigned k = std::min<std::uint32_t>(ev[l], 1074);
          beeps |= static_cast<LaneMask>(ctx.rng(l).bernoulli_pow2(k)) << l;
        }
        if (beeps) ctx.beep(v, beeps);
      }
    }
  } else {
    batch_skeleton::announce_winners(ctx, winner_);
  }
}

void BatchExactLocalFeedbackMis::react(sim::BatchContext& ctx) {
  if (ctx.exchange() == 0) {
    // Definition 1 feedback in exponent form: heard -> n + 1 (halve p),
    // silence -> max(n - 1, 1) (double p, capped at 1/2).
    if (mode_ == sim::BatchRngMode::kStatisticalLanes) {
      // Whole-plane feedback: one ripple carry/borrow for all 64 lanes,
      // floored at 1 and saturating at the bitplane cap.
      for (const graph::NodeId v : ctx.active_nodes()) {
        const LaneMask live = ctx.live_mask(v);
        if (!live) continue;
        const LaneMask heard = ctx.heard_mask(v);
        winner_[v] = ctx.beeped_mask(v) & ~heard;
        const LaneMask inc = live & heard & ~eplanes_.equal(v, kExpMax);
        const LaneMask dec = live & ~heard & ~eplanes_.equal(v, 1);
        if ((inc | dec) != 0) eplanes_.update(v, inc, dec);
      }
      return;
    }
    for (const graph::NodeId v : ctx.active_nodes()) {
      const LaneMask live = ctx.live_mask(v);
      if (!live) continue;
      const LaneMask heard = ctx.heard_mask(v);
      winner_[v] = ctx.beeped_mask(v) & ~heard;
      std::uint32_t* ev = &exponent_[static_cast<std::size_t>(v) * lanes_];
      for (LaneMask b = live; b != 0; b &= b - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(b));
        // Branchless like the dyadic local-feedback kernel: heard is a coin
        // flip per lane, so arithmetic on the bit beats a mispredicting
        // branch.
        const std::uint32_t h = static_cast<std::uint32_t>((heard >> l) & 1u);
        ev[l] += h + h - 1u + static_cast<std::uint32_t>(ev[l] == 1u && h == 0u);
      }
    }
  } else {
    batch_skeleton::apply_round_outcome(ctx, winner_);
  }
}

}  // namespace beepmis::mis
