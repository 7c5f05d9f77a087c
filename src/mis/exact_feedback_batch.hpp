// Batched (64-lane) kernel for the exact-exponent local-feedback protocol.
//
// The scalar ExactLocalFeedbackMis carries the paper's integer exponent
// n(v, t) and beeps with 2^{-min(n, 1074)}; here the exponent becomes a
// node-major per-lane uint32 array and the Bernoulli draw becomes the same
// integer shift/compare the dyadic local-feedback fast path uses: the
// scalar test `(x >> 11) * 2^-53 < 2^-k` is `((x >> 11) >> (53 - k)) == 0`
// for k <= 53 and `(x >> 11) == 0` beyond (2^-k is below the 2^-53 draw
// granularity but still positive, so only the exact-zero mantissa passes).
// The kernel is therefore free of floating point entirely, and lane l is
// bit-identical to a scalar run — pinned by tests/test_batch_sim.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "mis/batch_skeleton.hpp"
#include "sim/batch.hpp"

namespace beepmis::mis {

class BatchExactLocalFeedbackMis final : public sim::BatchProtocol {
 public:
  /// Like BatchLocalFeedbackMis: kScalarOrder replays the scalar draws,
  /// kStatisticalLanes keeps the exponents as bitplanes and draws bulk
  /// planes (must run on a simulator in the same mode).
  explicit BatchExactLocalFeedbackMis(
      sim::BatchRngMode mode = sim::BatchRngMode::kScalarOrder)
      : mode_(mode) {}

  [[nodiscard]] std::string_view name() const override {
    return "local-feedback-exact/batch";
  }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 2; }

  void reset(const graph::Graph& g,
             std::span<support::Xoshiro256StarStar> rngs) override;
  /// Statistical runs grow the exponent planes to the round bound.
  void begin_round(std::size_t round) override;
  void emit(sim::BatchContext& ctx) override;
  void react(sim::BatchContext& ctx) override;
  /// Feedback and the announcement outcome read heard only on live
  /// frontier nodes.
  [[nodiscard]] bool reads_heard_only_on_live_frontier() const override { return true; }

 private:
  sim::BatchRngMode mode_ = sim::BatchRngMode::kScalarOrder;
  unsigned lanes_ = 0;
  std::vector<sim::LaneMask> winner_;
  /// Node-major per-lane exponents n(v, t): lane l of node v at
  /// [v * lanes_ + l].  uint32 like the scalar protocol's (the round cap
  /// bounds it far below overflow).  kScalarOrder only.
  std::vector<std::uint32_t> exponent_;
  /// kStatisticalLanes representation: exponent bitplanes grown with the
  /// round up to 12, saturating at 4095 where the scalar exponent is
  /// unbounded — reaching the cap needs ~4000 consecutive heard rounds
  /// while the draw already clamps at 2^-1074, so no observable run can
  /// tell the difference.
  batch_skeleton::ExponentPlanes eplanes_;
};

}  // namespace beepmis::mis
