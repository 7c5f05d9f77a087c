// Batched (64-lane) kernel for the globally scheduled MIS protocols.
//
// The easiest lane of the batched-protocol family: the schedule fixes one
// beep probability per round for every node, so there is no per-node policy
// state at all — only the skeleton's winner flags, which become LaneMask
// bitplanes.  Lane l replays the exact scalar computation of
// BeepingMisSkeleton + GlobalScheduleMis: one Bernoulli draw per live
// (node, lane) in ascending node order during the intent exchange, winners
// announce in the second exchange.  Bit-identical to the scalar run per
// lane — pinned by tests/test_batch_sim.cpp.
#pragma once

#include <memory>
#include <vector>

#include "mis/schedule.hpp"
#include "sim/batch.hpp"

namespace beepmis::mis {

class BatchGlobalScheduleMis final : public sim::BatchProtocol {
 public:
  /// Shares the scalar protocol's schedule (schedules are immutable and
  /// stateless per probability() call, so one instance can serve the scalar
  /// protocol and any number of batched kernels concurrently).
  explicit BatchGlobalScheduleMis(std::shared_ptr<const Schedule> schedule);

  [[nodiscard]] std::string_view name() const override { return "global-schedule/batch"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return 2; }

  void reset(const graph::Graph& g,
             std::span<support::Xoshiro256StarStar> rngs) override;
  void emit(sim::BatchContext& ctx) override;
  void react(sim::BatchContext& ctx) override;
  /// The winner test and the announcement outcome read heard only on live
  /// frontier nodes.
  [[nodiscard]] bool reads_heard_only_on_live_frontier() const override { return true; }

 private:
  std::shared_ptr<const Schedule> schedule_;
  std::vector<sim::LaneMask> winner_;
};

}  // namespace beepmis::mis
