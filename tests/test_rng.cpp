#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

namespace beepmis::support {
namespace {

TEST(Splitmix64, KnownSequenceIsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(splitmix64_next(s1), splitmix64_next(s2));
  }
}

TEST(Splitmix64, AdvancesState) {
  std::uint64_t s = 42;
  const std::uint64_t a = splitmix64_next(s);
  const std::uint64_t b = splitmix64_next(s);
  EXPECT_NE(a, b);
}

TEST(MixSeed, IsOrderSensitive) {
  EXPECT_NE(mix_seed(1, 2), mix_seed(2, 1));
}

TEST(MixSeed, DistinctInputsRarelyCollide) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t a = 0; a < 100; ++a) {
    for (std::uint64_t b = 0; b < 100; ++b) {
      seen.insert(mix_seed(a, b));
    }
  }
  EXPECT_EQ(seen.size(), 100u * 100u);
}

TEST(Xoshiro, SameSeedSameSequence) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(8);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Xoshiro, Uniform01InRange) {
  Xoshiro256StarStar rng(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Xoshiro, Uniform01MeanIsHalf) {
  Xoshiro256StarStar rng(99);
  double sum = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / samples, 0.5, 0.01);
}

TEST(Xoshiro, BernoulliEdgeCases) {
  Xoshiro256StarStar rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Xoshiro, BernoulliFrequencyMatchesP) {
  Xoshiro256StarStar rng(5);
  const int samples = 200000;
  int hits = 0;
  for (int i = 0; i < samples; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.3, 0.01);
}

TEST(Xoshiro, BelowIsInRange) {
  Xoshiro256StarStar rng(17);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
  }
}

TEST(Xoshiro, BelowOneAlwaysZero) {
  Xoshiro256StarStar rng(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Xoshiro, BelowCoversAllValues) {
  Xoshiro256StarStar rng(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Xoshiro, BelowIsApproximatelyUniform) {
  Xoshiro256StarStar rng(29);
  std::array<int, 5> counts{};
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++counts[rng.below(5)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / samples, 0.2, 0.01);
  }
}

TEST(Xoshiro, UniformIntInclusiveRange) {
  Xoshiro256StarStar rng(31);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Xoshiro, JumpChangesStateButStaysDeterministic) {
  Xoshiro256StarStar a(7);
  Xoshiro256StarStar b(7);
  a.jump();
  b.jump();
  EXPECT_EQ(a.state(), b.state());
  Xoshiro256StarStar c(7);
  EXPECT_NE(a.state(), c.state());
}

TEST(Xoshiro, SplitStreamsAreIndependentAndDeterministic) {
  const Xoshiro256StarStar parent(11);
  Xoshiro256StarStar s1 = parent.split(1);
  Xoshiro256StarStar s1_again = parent.split(1);
  Xoshiro256StarStar s2 = parent.split(2);
  EXPECT_EQ(s1.state(), s1_again.state());
  EXPECT_NE(s1.state(), s2.state());
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (s1() == s2()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Xoshiro, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256StarStar>);
  SUCCEED();
}

TEST(Xoshiro, BernoulliPow2MatchesFloatingBernoulliEverywhere) {
  // bernoulli_pow2(k) must be bit-identical to bernoulli(ldexp(1, -k)) on
  // the same stream for every k — including the endpoints the batched
  // dyadic kernels rely on: k = 0 (p = 1, always fires), the draw
  // granularity boundary (52/53/54), the subnormal clamp region, the
  // smallest subnormal (1074) and the underflow to exact zero (>= 1075,
  // never fires but still consumes the draw).
  for (const unsigned k : {0u, 1u, 2u, 5u, 52u, 53u, 54u, 100u, 1000u, 1074u,
                           1075u, 1076u, 5000u}) {
    Xoshiro256StarStar a(900 + k);
    Xoshiro256StarStar b(900 + k);
    const double p = std::ldexp(1.0, -static_cast<int>(k));
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a.bernoulli_pow2(k), b.bernoulli(p)) << "k=" << k << " i=" << i;
    }
    EXPECT_EQ(a.state(), b.state()) << "k=" << k;  // same number of outputs consumed
  }
}

/// Inverse of x -> x * a mod 2^64 for odd a (Newton's iteration).
constexpr std::uint64_t odd_inverse(std::uint64_t a) {
  std::uint64_t inv = a;
  for (int i = 0; i < 6; ++i) inv *= 2 - a * inv;
  return inv;
}

/// The s1 word that makes xoshiro256**'s next output `out`
/// (out = rotl(s1 * 5, 7) * 9).
constexpr std::uint64_t s1_for_output(std::uint64_t out) {
  return std::rotr(out * odd_inverse(9), 7) * odd_inverse(5);
}

TEST(XoshiroLanes, Pow2DrawsMatchScalarLoop) {
  // The lane-parallel draws must fire on exactly the lanes the scalar
  // bernoulli_pow2 loop fires on and leave every stream where that loop
  // leaves it: one output per requested lane, none for the others.  Lane
  // counts cover partial 8-lane groups; k covers the granularity edge
  // (52..54), the shift-by-64 end (k = 0) and the underflow (>= 1075).
  // Random outputs almost never land near 2^-k for large k, so half the
  // lanes get a state whose next output sits on the edge of its k's
  // threshold (mantissa 2^(53-k) - 1 or 2^(53-k); 0 or 1 for k >= 53).
  if (!XoshiroLanes::vectorized()) {
    GTEST_SKIP() << "this CPU lacks AVX-512 F/BW/VL; the scalar loop is the only path";
  }
  std::vector<std::uint16_t> ks;
  for (std::uint16_t k = 0; k <= 64; ++k) ks.push_back(k);
  for (std::uint16_t k = 1072; k <= 1076; ++k) ks.push_back(k);
  Xoshiro256StarStar pick(77);
  std::uint64_t fired_total = 0;
  for (const unsigned lanes : {1u, 7u, 9u, 33u, 63u, 64u}) {
    const std::uint64_t all = lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
    std::vector<Xoshiro256StarStar> scalar;
    for (unsigned l = 0; l < lanes; ++l) scalar.emplace_back(pick());
    std::vector<Xoshiro256StarStar> vector_side = scalar;
    std::vector<std::uint16_t> k(lanes);
    for (int step = 0; step < 3000; ++step) {
      // Full, random and sparse lane subsets (sparse ones leave whole
      // 8-lane groups unrequested).
      std::uint64_t mask = all;
      if (step % 3 == 1) mask = pick() & all;
      if (step % 3 == 2) mask = pick() & pick() & pick() & all;
      for (unsigned l = 0; l < lanes; ++l) {
        k[l] = ks[pick.below(ks.size())];
        if (pick() & 1u) continue;
        const unsigned edge = k[l] < 53 ? 53 - k[l] : 0;
        std::uint64_t mantissa = (std::uint64_t{1} << edge) - (pick() & 1u);
        if (mantissa >> 53) mantissa -= 1;  // k = 0: 2^53 is out of range
        auto state = scalar[l].state();
        state[1] = s1_for_output((mantissa << 11) | (pick() & 0x7ffu));
        scalar[l] = vector_side[l] = Xoshiro256StarStar::from_state(state);
      }
      std::uint64_t expected = 0;
      for (unsigned l = 0; l < lanes; ++l) {
        if ((mask >> l) & 1u) {
          expected |= std::uint64_t{scalar[l].bernoulli_pow2(k[l])} << l;
        }
      }
      XoshiroLanes block(vector_side);
      const std::uint64_t got = block.bernoulli_pow2(mask, k.data());
      block.store(vector_side);
      ASSERT_EQ(got, expected) << "lanes=" << lanes << " step=" << step;
      for (unsigned l = 0; l < lanes; ++l) {
        ASSERT_EQ(vector_side[l].state(), scalar[l].state())
            << "lanes=" << lanes << " step=" << step << " l=" << l;
      }
      fired_total += static_cast<std::uint64_t>(std::popcount(got));
    }
  }
  EXPECT_GT(fired_total, 0u);
}

TEST(Xoshiro, FromStateAdoptsTheState) {
  Xoshiro256StarStar a(5);
  (void)a();
  Xoshiro256StarStar b = Xoshiro256StarStar::from_state(a.state());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a(), b());
  auto state = a.state();
  state[1] = s1_for_output(0x1234);
  EXPECT_EQ(Xoshiro256StarStar::from_state(state)(), 0x1234u);
}

TEST(SeedSequence, ChildrenAreDistinctAndStable) {
  const SeedSequence root(100);
  EXPECT_EQ(root.child(3).value(), root.child(3).value());
  EXPECT_NE(root.child(3).value(), root.child(4).value());
  EXPECT_NE(root.child(3).child(0).value(), root.child(3).child(1).value());
}

TEST(Xoshiro, DiscardMatchesManualDraws) {
  // The sharded stream carving advances per-shard windows with discard(),
  // so it must be exactly k operator() calls — including k = 0.
  for (const std::uint64_t k : {0u, 1u, 7u, 1000u}) {
    Xoshiro256StarStar discarded(42);
    discarded.discard(k);
    Xoshiro256StarStar manual(42);
    for (std::uint64_t i = 0; i < k; ++i) (void)manual();
    EXPECT_EQ(discarded.state(), manual.state()) << "k=" << k;
    EXPECT_EQ(discarded(), manual());
  }
}

TEST(SeedSequence, SiblingSubtreesDoNotCollide) {
  const SeedSequence root(100);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 50; ++i) {
    for (std::uint64_t j = 0; j < 50; ++j) {
      seen.insert(root.child(i).child(j).value());
    }
  }
  EXPECT_EQ(seen.size(), 50u * 50u);
}

}  // namespace
}  // namespace beepmis::support
