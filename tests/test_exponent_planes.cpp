// batch_skeleton::ExponentPlanes against a per-lane integer reference.
// The statistical dyadic kernels keep their per-(node, lane) exponents as
// bitplanes that grow with the round (begin_round); these tests drive the
// planes with each kernel's feedback rule for thousands of rounds, so every
// lane that is heard each round crosses every plane boundary
// (2^w - 1 -> 2^w) exactly when its plane is grown, and check draw, equal
// and update lane by lane against plain integers — including the
// sticky-zero (1075) and saturation (4095) probes, which read as "no lane"
// while they lie above the grown width.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "mis/batch_skeleton.hpp"
#include "support/rng.hpp"

namespace beepmis {
namespace {

using mis::batch_skeleton::ExponentPlanes;
using sim::LaneMask;

constexpr unsigned kLanes = 64;
constexpr graph::NodeId kNodes = 3;

/// One kernel's exponent policy: local feedback sticks at 1075 (exact
/// zero) with 11 planes at most; exact feedback saturates at 4095 with 12.
struct Policy {
  unsigned max_width;
  unsigned initial;
  unsigned floor;    ///< silence never moves an exponent below this
  unsigned ceiling;  ///< heard never moves an exponent past this
  bool sticky;       ///< local feedback: the ceiling freezes silence too
};

/// Lanes whose reference value equals `value`.
LaneMask reference_equal(const std::vector<unsigned>& lanes, unsigned value) {
  LaneMask m = 0;
  for (unsigned l = 0; l < kLanes; ++l) {
    if (lanes[l] == value) m |= LaneMask{1} << l;
  }
  return m;
}

/// Every distinct lane value, plus the probes, reads back exactly.
void expect_matches(const ExponentPlanes& planes, graph::NodeId v,
                    const std::vector<unsigned>& lanes, const Policy& policy,
                    std::size_t round) {
  std::map<unsigned, LaneMask> by_value;
  for (unsigned l = 0; l < kLanes; ++l) by_value[lanes[l]] |= LaneMask{1} << l;
  for (const auto& [value, mask] : by_value) {
    ASSERT_EQ(planes.equal(v, value), mask)
        << "node " << v << " value " << value << " round " << round;
  }
  for (const unsigned probe : {policy.floor, policy.ceiling, 1075u, 4095u}) {
    EXPECT_EQ(planes.equal(v, probe), reference_equal(lanes, probe))
        << "probe " << probe << " round " << round;
  }
}

/// Stands in for BatchContext's bulk stream: chunk plane 2^j answers
/// with a fixed mask, so a draw is a pure function of the exponents.
struct FixedChunks {
  std::vector<LaneMask> planes;  ///< chunk 2^j's mask
  LaneMask live;
  unsigned width;

  LaneMask bernoulli_plane_pow2(unsigned k, LaneMask need) const {
    EXPECT_TRUE(std::has_single_bit(k));
    const auto j = static_cast<unsigned>(std::countr_zero(k));
    EXPECT_LT(j, width) << "draw read a plane above the width";
    EXPECT_NE(need, LaneMask{0});
    EXPECT_EQ(need & ~live, LaneMask{0});
    return planes[j] & need;
  }
};

void run_policy(const Policy& policy, std::size_t rounds) {
  support::Xoshiro256StarStar rng(20130724 + policy.max_width);
  ExponentPlanes planes;
  planes.reset(kNodes, policy.max_width, policy.initial);
  std::vector<std::vector<unsigned>> ref(kNodes, std::vector<unsigned>(kLanes, policy.initial));
  bool reached_ceiling = false;

  for (std::size_t round = 0; round < rounds; ++round) {
    planes.begin_round(round);
    // The tightest bound: exponents are at most initial + round + 1 once
    // this round ends.
    const auto bound = static_cast<unsigned>(
        std::min<std::size_t>(policy.initial + round + 1, (1u << policy.max_width) - 1));
    ASSERT_EQ(planes.width(),
              std::min(policy.max_width, static_cast<unsigned>(std::bit_width(bound))))
        << "round " << round;

    for (graph::NodeId v = 0; v < kNodes; ++v) {
      std::vector<unsigned>& lanes = ref[v];
      // Growth left every value intact.
      expect_matches(planes, v, lanes, policy, round);

      // draw: with fixed chunk masks a lane fires iff it is live and the
      // chunk of every set bit of its exponent passed.
      FixedChunks chunks{std::vector<LaneMask>(policy.max_width), rng() | rng(),
                         planes.width()};
      for (LaneMask& m : chunks.planes) m = rng();
      const LaneMask fire = planes.draw(chunks, v, chunks.live);
      LaneMask expected_fire = 0;
      for (unsigned l = 0; l < kLanes; ++l) {
        bool fires = ((chunks.live >> l) & 1u) != 0;
        for (unsigned j = 0; j < policy.max_width; ++j) {
          if (((lanes[l] >> j) & 1u) != 0 && ((chunks.planes[j] >> l) & 1u) == 0) {
            fires = false;
          }
        }
        if (fires) expected_fire |= LaneMask{1} << l;
      }
      ASSERT_EQ(fire, expected_fire) << "node " << v << " round " << round;

      // update under the kernel's gating.  Lane 0 is always heard, so it
      // climbs one per round through every plane boundary; lane 1 is never
      // heard and sits on the floor; the rest are coin flips.
      const LaneMask heard = (rng() | LaneMask{1}) & ~LaneMask{2};
      const LaneMask frozen = policy.sticky ? planes.equal(v, policy.ceiling) : 0;
      const LaneMask inc = heard & ~frozen & ~planes.equal(v, policy.ceiling);
      const LaneMask dec = ~heard & ~frozen & ~planes.equal(v, policy.floor);
      planes.update(v, inc, dec);
      for (unsigned l = 0; l < kLanes; ++l) {
        unsigned& k = lanes[l];
        const bool h = ((heard >> l) & 1u) != 0;
        if (policy.sticky && k == policy.ceiling) continue;
        if (h && k < policy.ceiling) ++k;
        if (!h && k > policy.floor) --k;
      }
      reached_ceiling = reached_ceiling || lanes[0] == policy.ceiling;
      expect_matches(planes, v, lanes, policy, round);
    }

    // Maintenance reset of one lane (the self-healing path) mid-run.
    if (round % 97 == 50) {
      planes.set_lane(2, 5, policy.initial);
      ref[2][5] = policy.initial;
    }
  }
  EXPECT_TRUE(reached_ceiling) << "lane 0 never reached the ceiling probe";
  EXPECT_EQ(planes.width(), policy.max_width);

  // A new run drops the planes the long run grew.
  planes.reset(kNodes, policy.max_width, policy.initial);
  EXPECT_EQ(planes.width(), static_cast<unsigned>(std::bit_width(policy.initial + 1)));
  EXPECT_EQ(planes.equal(0, policy.initial), ~LaneMask{0});
}

TEST(ExponentPlanes, LocalFeedbackPolicyMatchesIntegerReference) {
  // p0 = 1/8 (k = 3), max_p = 1/2 (floor 1); 1075 is exact zero, sticky.
  run_policy({11, 3, 1, 1075, true}, 1100);
}

TEST(ExponentPlanes, ExactFeedbackPolicyMatchesIntegerReference) {
  // n(0, v) = 1, floored at 1, saturating at 4095.
  run_policy({12, 1, 1, 4095, false}, 4120);
}

}  // namespace
}  // namespace beepmis
