// Bit-sliced beep counters (sim::LanePlanes::beep_planes) under growth: a
// kernel that beeps every live lane every round never terminates, so the
// round cap runs each count past 2^9 and the planes must grow at round
// boundaries to hold it — on the batched core and on the sharded-batched
// core, whose coordinator grows them while the shards hold the contexts.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/generators.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/sharded_batch.hpp"

namespace beepmis {
namespace {

constexpr std::size_t kRounds = 600;
constexpr unsigned kExchanges = 2;

/// Beeps every live lane in exchange 0, and in exchange 1 too when
/// `both_exchanges`; never joins or deactivates anything.  A beep held
/// across both exchanges of a round is one episode, so either way every
/// count equals the round count.
class BeepEveryRound final : public sim::BatchProtocol {
 public:
  explicit BeepEveryRound(bool both_exchanges) : both_exchanges_(both_exchanges) {}

  [[nodiscard]] std::string_view name() const override { return "beep-every-round"; }
  [[nodiscard]] unsigned exchanges_per_round() const override { return kExchanges; }
  void reset(const graph::Graph&, std::span<support::Xoshiro256StarStar>) override {}
  void emit(sim::BatchContext& ctx) override {
    if (ctx.exchange() != 0 && !both_exchanges_) return;
    for (const graph::NodeId v : ctx.active_nodes()) {
      const sim::LaneMask live = ctx.live_mask(v);
      if (live) ctx.beep(v, live);
    }
  }
  void react(sim::BatchContext&) override {}

 private:
  bool both_exchanges_;
};

void expect_counts_equal_rounds(const graph::Graph& g, const sim::LanePlanes& planes,
                                unsigned lanes, const std::string& what) {
  const graph::NodeId n = g.node_count();
  ASSERT_EQ(planes.lanes, lanes) << what;
  EXPECT_GE(planes.beep_planes.size(), static_cast<std::size_t>(std::bit_width(kRounds)))
      << what;
  EXPECT_LE(planes.beep_planes.size(),
            static_cast<std::size_t>(std::bit_width(kRounds * kExchanges)))
      << what;
  const std::vector<mis::LaneVerification> verified =
      mis::verify_mis_planes(g, planes, 0, n);
  const std::vector<sim::RunResult> results = sim::extract_lane_results(planes);
  for (unsigned l = 0; l < lanes; ++l) {
    const std::string at = what + " lane " + std::to_string(l);
    EXPECT_EQ(planes.lane_rounds[l], kRounds) << at;
    EXPECT_EQ(verified[l].total_beeps, std::uint64_t{n} * kRounds) << at;
    EXPECT_EQ(verified[l].max_beeps, kRounds) << at;
    EXPECT_EQ(results[l].total_beeps, std::uint64_t{n} * kRounds) << at;
    for (graph::NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(results[l].beep_counts[v], kRounds) << at << " node " << v;
    }
  }
}

sim::SimConfig capped_config() {
  sim::SimConfig config;
  config.max_rounds = kRounds;
  return config;
}

TEST(BeepCounterPlanes, GrowPastNineBitsOnBatchSimulator) {
  const graph::Graph g = graph::ring(37);
  for (const bool both : {false, true}) {
    const std::string what = both ? "both exchanges" : "exchange 0";
    BeepEveryRound kernel(both);
    sim::BatchSimulator statistical(capped_config(), sim::BatchRngMode::kStatisticalLanes);
    expect_counts_equal_rounds(
        g, statistical.run_planes(g, kernel, support::Xoshiro256StarStar(7), 64), 64,
        "statistical " + what);
    sim::BatchSimulator scalar_order(capped_config());
    std::vector<support::Xoshiro256StarStar> rngs;
    for (unsigned l = 0; l < 23; ++l) rngs.emplace_back(100 + l);
    expect_counts_equal_rounds(g, scalar_order.run_planes(g, kernel, std::move(rngs)), 23,
                               "scalar-order " + what);
  }
}

TEST(BeepCounterPlanes, GrowPastNineBitsOnShardedBatchSimulatorAtTwoShards) {
  const graph::Graph g = graph::ring(37);
  for (const bool both : {false, true}) {
    BeepEveryRound kernel(both);
    sim::ShardedBatchSimulator simulator(g, 2, capped_config());
    ASSERT_EQ(simulator.shard_count(), 2u);
    expect_counts_equal_rounds(
        g, simulator.run_planes(kernel, support::Xoshiro256StarStar(7), 64), 64,
        both ? "sharded both exchanges" : "sharded exchange 0");
  }
}

}  // namespace
}  // namespace beepmis
