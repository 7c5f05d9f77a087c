// Deterministic random number generation for reproducible simulations.
//
// Every experiment in this library is a pure function of a small set of
// integer seeds.  To make that hold even under multi-threaded trial
// execution, we never share generator state between logical streams;
// instead, independent streams are *derived* by hashing (base seed, stream
// index) with splitmix64, following the recommendation of the xoshiro
// authors (Blackman & Vigna) for seeding from a weak source.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

namespace beepmis::support {

/// One step of the splitmix64 generator; advances `state` and returns the
/// next output.  Used both as a standalone mixer and to seed xoshiro.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless strong mix of two 64-bit words; commutative inputs yield
/// distinct outputs (a is pre-mixed), suitable for deriving stream seeds.
[[nodiscard]] constexpr std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t s = a;
  std::uint64_t x = splitmix64_next(s);
  s = x ^ b;
  return splitmix64_next(s);
}

/// xoshiro256** 1.0 — fast, high-quality 64-bit PRNG with 256-bit state.
/// Satisfies the C++ UniformRandomBitGenerator concept so it can be used
/// with <random> distributions, though the convenience members below avoid
/// the libstdc++ distribution objects in hot loops.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via splitmix64,
  /// as recommended by the generator's authors.
  explicit constexpr Xoshiro256StarStar(std::uint64_t seed = 1) noexcept : state_{} {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  /// Adopts a raw 256-bit state (not all zero), e.g. one that makes the
  /// next output a chosen value.
  [[nodiscard]] static constexpr Xoshiro256StarStar from_state(
      const std::array<std::uint64_t, 4>& state) noexcept {
    Xoshiro256StarStar rng;
    rng.state_ = state;
    return rng;
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Jump ahead by 2^128 outputs (for partitioning one seed into a few
  /// long non-overlapping sequences).
  void jump() noexcept;

  /// Advance by exactly `count` outputs, as if calling operator() that
  /// many times and discarding the results.  The sharded simulator carves
  /// per-shard windows out of one scalar stream with this (one output per
  /// Bernoulli draw), so it must stay exactly equivalent to the discard
  /// loop — there is no shortcut through xoshiro state space for
  /// arbitrary counts.
  void discard(std::uint64_t count) noexcept {
    while (count-- > 0) (void)(*this)();
  }

  /// Derives an independent generator for stream `stream`.  Unlike jump(),
  /// this supports an arbitrary number of streams and is the mechanism used
  /// for per-trial and per-node randomness.
  [[nodiscard]] Xoshiro256StarStar split(std::uint64_t stream) const noexcept;

  /// Uniform double in [0, 1) with 53 random bits.
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli(p) draw; p outside [0,1] is clamped by construction
  /// (p <= 0 never fires, p >= 1 always fires).
  [[nodiscard]] bool bernoulli(double p) noexcept { return uniform01() < p; }

  /// Bernoulli(2^-k) draw, bit-identical to bernoulli(ldexp(1.0, -k)) for
  /// every k >= 0 on the same single rng() output — including the region
  /// below the 2^-53 draw granularity (53 < k <= 1074, only the exact-zero
  /// mantissa passes) and the underflow at k >= 1075, where ldexp rounds
  /// to 0.0 and the draw can never fire (the output is still consumed,
  /// like bernoulli(0.0)).  The uniform01 mantissa (x >> 11) * 2^-53 is
  /// below 2^-k iff its top 53-k bits are all zero, so the whole draw is
  /// one integer shift/compare.  This and its lane-parallel twin
  /// XoshiroLanes::bernoulli_pow2 (below) are the only sources of that
  /// endpoint behaviour; the batched dyadic kernels call them.  Deliberately
  /// branchless: the outcome is a coin flip, so a data dependency beats a
  /// guaranteed-mispredicting branch in the kernel hot loops.
  [[nodiscard]] bool bernoulli_pow2(unsigned k) noexcept {
    const std::uint64_t mantissa = (*this)() >> 11;
    const unsigned shift = k < 53 ? 53 - k : 0;
    return (static_cast<unsigned>(k < 1075) & static_cast<unsigned>((mantissa >> shift) == 0)) != 0;
  }

  /// Uniform integer in [0, bound) via Lemire's multiply-shift rejection
  /// method; bound must be nonzero.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive; requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const noexcept {
    return state_;
  }

  friend constexpr bool operator==(const Xoshiro256StarStar& a,
                                   const Xoshiro256StarStar& b) noexcept {
    return a.state_ == b.state_;
  }

 private:
  friend class XoshiroLanes;

  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Up to 64 xoshiro256** streams stepped side by side: the lane-parallel
/// form of Xoshiro256StarStar::bernoulli_pow2 for kernels that draw once
/// per (node, lane).  The states are held as structure-of-arrays — row i
/// holds word i of every lane's state, unused lane slots zeroed — so eight
/// lanes step in one AVX-512 register under a lane k-mask.  Each lane's
/// stream advances exactly as its scalar generator would: one output per
/// requested draw, with the same endpoint rule, so loading, drawing and
/// storing back is bit-identical to calling bernoulli_pow2 lane by lane.
class XoshiroLanes {
 public:
  /// Whether this CPU runs the AVX-512 (F, BW, VL) draw path; decided once
  /// per process.  Callers keep their per-lane loop for the false case.
  [[nodiscard]] static bool vectorized() noexcept;

  /// Loads rngs[l] into lane l (rngs.size() <= 64).
  explicit XoshiroLanes(std::span<const Xoshiro256StarStar> rngs) noexcept;

  /// Writes lane l's state back to rngs[l] (the span the block was loaded
  /// from, or one of the same length).
  void store(std::span<Xoshiro256StarStar> rngs) const noexcept;

  /// For every lane l in `lanes` (loaded lanes only), one output of lane
  /// l's stream decides bernoulli_pow2(k[l]); returns the mask of lanes
  /// that fired.  Lanes outside `lanes` neither step nor read k[l], so `k`
  /// need only be valid at requested lanes.  Requires vectorized().
  [[nodiscard]] std::uint64_t bernoulli_pow2(std::uint64_t lanes,
                                             const std::uint16_t* k) noexcept;

 private:
  alignas(64) std::uint64_t s_[4][64];
};

/// Hierarchical seed derivation: experiments address their randomness as
/// (base, trial, node, ...) paths so that adding a component never perturbs
/// the randomness of sibling components.
class SeedSequence {
 public:
  explicit constexpr SeedSequence(std::uint64_t base) noexcept : base_(base) {}

  /// Child sequence for component `index`.
  [[nodiscard]] constexpr SeedSequence child(std::uint64_t index) const noexcept {
    return SeedSequence(mix_seed(base_, index));
  }

  /// Materialise a generator for this node of the seed tree.
  [[nodiscard]] Xoshiro256StarStar generator() const noexcept {
    return Xoshiro256StarStar(base_);
  }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return base_; }

 private:
  std::uint64_t base_;
};

}  // namespace beepmis::support
