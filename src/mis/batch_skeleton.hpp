// Shared announcement-exchange logic of the batched MIS kernels — the
// lane-parallel mirror of BeepingMisSkeleton's second exchange (Table 1
// lines 11-15).  Every batched kernel of the two-exchange family carries a
// per-node LaneMask winner plane; the announce emit and the join/dominate
// react over it are protocol-independent and must stay identical across
// kernels (a divergence breaks lane parity for just that protocol), so
// they live here once.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "sim/batch.hpp"

namespace beepmis::mis::batch_skeleton {

/// Announcement-exchange emit: first-exchange winners that are still live
/// keep signalling.
inline void announce_winners(sim::BatchContext& ctx,
                             const std::vector<sim::LaneMask>& winner) {
  for (const graph::NodeId v : ctx.active_nodes()) {
    const sim::LaneMask m = winner[v] & ctx.live_mask(v);
    if (m) ctx.beep(v, m);
  }
}

/// Announcement-exchange react: winners join the MIS; anyone else (still
/// live) who heard the announcement becomes dominated.
inline void apply_round_outcome(sim::BatchContext& ctx,
                                const std::vector<sim::LaneMask>& winner) {
  for (const graph::NodeId v : ctx.active_nodes()) {
    const sim::LaneMask live = ctx.live_mask(v);
    if (!live) continue;
    const sim::LaneMask joins = winner[v] & live;
    const sim::LaneMask dominated = ctx.heard_mask(v) & live & ~joins;
    if (joins) ctx.join_mis(v, joins);
    if (dominated) ctx.deactivate(v, dominated);
  }
}

/// Bitplane-encoded per-lane dyadic exponents for the
/// BatchRngMode::kStatisticalLanes kernels: bit l of plane j at node v is
/// bit j of lane l's exponent k.  Everything a dyadic kernel does with the
/// exponents becomes whole-plane (all 64 lanes at once) instead of a
/// per-lane loop:
///
///  * draw — Bernoulli(2^-k_l) for every live lane of one node, by chunk
///    composition: for each set bit j of k, AND in an independent
///    Bernoulli(2^-2^j) plane (itself an AND of 2^j shared uniform planes
///    with early exit, so ~log2(lanes) bulk draws).  The product over set
///    bits is exactly 2^-k per lane; lanes of one node share entropy,
///    which statistical mode explicitly permits (marginals only).
///  * update — the feedback rule's +-1 becomes a ripple carry/borrow over
///    the planes (~2 expected plane ops); callers gate inc/dec with
///    equal() masks so saturation stays their policy.
///
/// The planes are round-bounded.  Dyadic feedback moves an exponent by at
/// most one per round, so after round r every exponent is at most
/// initial + r + 1: reset holds the planes round 0 can reach, and the
/// kernel's BatchProtocol::begin_round hook grows the stack
/// (sim::detail::grow_plane_stack, plane-major like the beep counters) to
/// the next round's bound.  The width is therefore always the tightest
/// bound, and a sweep never visits a provably zero plane.
///
/// Unlike the scalar-order kernels there is no exact-zero /
/// double-underflow state: draw() fires a k = 1075 lane with true
/// probability 2^-1075 instead of never (and the exact kernel's draw clamp
/// at 2^-1074 becomes the true 2^-k) — a difference no observable run can
/// distinguish, traded for plane-parallel state.
class ExponentPlanes {
 public:
  /// All (node, lane) exponents start at `initial`; values never exceed
  /// 2^max_width - 1 (callers saturate below it).  Holds
  /// bit_width(initial + 1) planes, the bound through round 0, and frees
  /// any planes a longer previous run grew.
  void reset(graph::NodeId n, unsigned max_width, unsigned initial) {
    n_ = n;
    max_width_ = max_width;
    initial_ = initial;
    planes_.resize(bound_width(0));
    for (unsigned j = 0; j < width(); ++j) {
      planes_[j].assign(n, (initial >> j) & 1u ? ~sim::LaneMask{0} : sim::LaneMask{0});
    }
  }

  /// Grows the planes to bit_width(initial + round + 1) (at most
  /// max_width), the bound once `round` ends.  Serial: call it from
  /// BatchProtocol::begin_round, never while a shard sweeps the planes.
  void begin_round(std::size_t round) {
    sim::detail::grow_plane_stack(planes_, bound_width(round), n_);
  }

  /// Planes held: every exponent fits in this many bits.
  [[nodiscard]] unsigned width() const noexcept {
    return static_cast<unsigned>(planes_.size());
  }

  /// Bernoulli(2^-k_l) bits for every lane l in `live` of node v.  The
  /// chunk planes come from `source.bernoulli_plane_pow2(k, lanes)`, which
  /// must return independent Bernoulli(2^-k) bits for `lanes` and zero
  /// elsewhere: the kernels pass their sim::BatchContext, tests a fake.
  /// It is called once per plane that some still-firing lane has set,
  /// with k = 2^j.
  template <typename PlaneSource>
  [[nodiscard]] sim::LaneMask draw(PlaneSource& source, graph::NodeId v,
                                   sim::LaneMask live) const {
    sim::LaneMask fire = live;
    for (unsigned j = 0; j < width() && fire != 0; ++j) {
      const sim::LaneMask row = planes_[j][v];
      const sim::LaneMask need = fire & row;
      if (need) fire = (fire & ~row) | source.bernoulli_plane_pow2(1u << j, need);
    }
    return fire;
  }

  /// Lanes of v whose exponent equals `value`.  A value wider than the
  /// planes (e.g. the sticky-zero probe early in a run) costs one compare;
  /// otherwise planes walk MSB first and stop once every lane differs.
  [[nodiscard]] sim::LaneMask equal(graph::NodeId v, unsigned value) const {
    if ((value >> width()) != 0) return 0;
    sim::LaneMask diff = 0;
    for (unsigned j = width(); j-- > 0;) {
      diff |= planes_[j][v] ^ ((value >> j) & 1u ? ~sim::LaneMask{0} : sim::LaneMask{0});
      if (diff == ~sim::LaneMask{0}) return 0;
    }
    return ~diff;
  }

  /// k += 1 on `inc` lanes, then k -= 1 on `dec` lanes (disjoint sets).
  /// Callers must exclude lanes that would wrap (all-ones on inc, zero on
  /// dec) via equal() — that keeps saturation policy out of the helper.
  /// The round bound keeps every carry inside the planes; one that escapes
  /// means a round ran without begin_round, and throws.
  void update(graph::NodeId v, sim::LaneMask inc, sim::LaneMask dec) {
    sim::LaneMask carry = inc;
    for (unsigned j = 0; j < width() && carry != 0; ++j) {
      const sim::LaneMask t = planes_[j][v];
      planes_[j][v] = t ^ carry;
      carry &= t;
    }
    sim::LaneMask borrow = dec;
    for (unsigned j = 0; j < width() && borrow != 0; ++j) {
      const sim::LaneMask t = planes_[j][v];
      planes_[j][v] = t ^ borrow;
      borrow &= ~t;
    }
    if ((carry | borrow) != 0) {
      throw std::logic_error(
          "ExponentPlanes::update: exponent left the planes (a round ran without "
          "begin_round, or a caller skipped the saturation gate)");
    }
  }

  /// Set one lane's exponent to `value` (maintenance resets; rare, so
  /// per-bit cost is fine).  `value` must fit in width() bits.
  void set_lane(graph::NodeId v, unsigned lane, unsigned value) {
    const sim::LaneMask bit = sim::LaneMask{1} << lane;
    for (unsigned j = 0; j < width(); ++j) {
      if ((value >> j) & 1u) {
        planes_[j][v] |= bit;
      } else {
        planes_[j][v] &= ~bit;
      }
    }
  }

 private:
  /// bit_width(initial + round + 1), clamped to max_width; the round is
  /// clamped first so the sum cannot wrap.
  [[nodiscard]] unsigned bound_width(std::size_t round) const noexcept {
    const auto steps = static_cast<unsigned>(std::min<std::size_t>(round, 1u << max_width_));
    return std::min(max_width_, static_cast<unsigned>(std::bit_width(initial_ + steps + 1)));
  }

  graph::NodeId n_ = 0;
  unsigned max_width_ = 0;
  unsigned initial_ = 0;
  std::vector<std::vector<sim::LaneMask>> planes_;  ///< plane-major: [j][v]
};

}  // namespace beepmis::mis::batch_skeleton
