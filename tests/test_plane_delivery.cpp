// Plane-delivery direction tests.  Reliable plane delivery either pushes
// heard masks from every beeper or, when beeps are dense and the kernel
// reads heard only on its live frontier, gathers them on that frontier
// (sim/exchange_core.hpp detail::gather_heard).  The direction must be
// invisible in results:
//   * a kernel run as itself (gathering on dense exchanges) and the same
//     kernel behind an adapter that keeps the conservative capability
//     default (pushing on every exchange) finish with bit-identical lane
//     planes, on BatchSimulator and on ShardedBatchSimulator at K = 2, 3;
//   * the rule itself at its boundary;
//   * self-healing, whose healing pass reads dominated nodes' heard masks,
//     keeps pushing — the hand-built scenario below diverges from the
//     scalar run if it ever gathered.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/self_healing.hpp"
#include "mis/self_healing_batch.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "sim/exchange_core.hpp"
#include "sim/sharded_batch.hpp"

namespace beepmis {
namespace {

using sim::BatchRngMode;
using sim::LaneMask;

/// Forwards every call to a real kernel but keeps the conservative
/// reads_heard_only_on_live_frontier() default, so the engine pushes on
/// every exchange.
class PushOnly final : public sim::BatchProtocol {
 public:
  explicit PushOnly(std::unique_ptr<sim::BatchProtocol> inner) : inner_(std::move(inner)) {}

  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] unsigned exchanges_per_round() const override {
    return inner_->exchanges_per_round();
  }
  void reset(const graph::Graph& g, std::span<support::Xoshiro256StarStar> rngs) override {
    inner_->reset(g, rngs);
  }
  void begin_round(std::size_t round) override { inner_->begin_round(round); }
  void emit(sim::BatchContext& ctx) override { inner_->emit(ctx); }
  void react(sim::BatchContext& ctx) override { inner_->react(ctx); }

 private:
  std::unique_ptr<sim::BatchProtocol> inner_;
};

/// Owned copy of a LanePlanes view (the view dies with the next run).
struct Planes {
  std::vector<LaneMask> crashed, inmis, dominated;
  std::vector<std::vector<LaneMask>> beep_planes;
  std::vector<std::size_t> lane_rounds;
  LaneMask terminated = 0;
  unsigned lanes = 0;
};

Planes own(const sim::LanePlanes& p) {
  Planes out;
  out.crashed.assign(p.crashed.begin(), p.crashed.end());
  out.inmis.assign(p.inmis.begin(), p.inmis.end());
  out.dominated.assign(p.dominated.begin(), p.dominated.end());
  out.beep_planes.assign(p.beep_planes.begin(), p.beep_planes.end());
  out.lane_rounds.assign(p.lane_rounds.begin(), p.lane_rounds.end());
  out.terminated = p.terminated;
  out.lanes = p.lanes;
  return out;
}

void expect_same_planes(const Planes& gathered, const Planes& pushed,
                        const std::string& what) {
  EXPECT_EQ(gathered.lanes, pushed.lanes) << what;
  EXPECT_EQ(gathered.crashed, pushed.crashed) << what;
  EXPECT_EQ(gathered.inmis, pushed.inmis) << what;
  EXPECT_EQ(gathered.dominated, pushed.dominated) << what;
  EXPECT_EQ(gathered.beep_planes, pushed.beep_planes) << what;
  EXPECT_EQ(gathered.lane_rounds, pushed.lane_rounds) << what;
  EXPECT_EQ(gathered.terminated, pushed.terminated) << what;
}

std::unique_ptr<sim::BatchProtocol> kernel_of(const sim::BeepProtocol& scalar,
                                              BatchRngMode mode) {
  std::unique_ptr<sim::BatchProtocol> kernel = scalar.make_batch_protocol(mode);
  EXPECT_NE(kernel, nullptr) << scalar.name();
  return kernel;
}

/// Runs `lanes` lanes of `kernel` through the front-end `shards` selects
/// (0 = BatchSimulator, K >= 1 = ShardedBatchSimulator at K shards).
Planes run(const graph::Graph& g, const sim::SimConfig& config, BatchRngMode mode,
           sim::BatchProtocol& kernel, std::uint64_t seed, unsigned lanes,
           unsigned shards) {
  if (shards == 0) {
    sim::BatchSimulator simulator(config, mode);
    if (mode == BatchRngMode::kStatisticalLanes) {
      return own(simulator.run_planes(g, kernel, support::Xoshiro256StarStar(seed), lanes));
    }
    std::vector<support::Xoshiro256StarStar> rngs;
    for (unsigned l = 0; l < lanes; ++l) rngs.emplace_back(seed + l);
    return own(simulator.run_planes(g, kernel, std::move(rngs)));
  }
  sim::ShardedBatchSimulator simulator(g, shards, config);
  return own(simulator.run_planes(kernel, support::Xoshiro256StarStar(seed), lanes));
}

struct Regime {
  sim::SimConfig config;
  const char* label;
};

std::vector<Regime> regimes(graph::NodeId n) {
  sim::SimConfig keepalive;
  keepalive.mis_keepalive = true;
  keepalive.run_until_round = 30;
  keepalive.max_rounds = 400;

  sim::SimConfig faults;
  faults.max_rounds = 400;
  faults.run_until_round = 24;
  faults.wake_round.assign(n, 0);
  faults.crash_round.assign(n, UINT32_MAX);
  for (graph::NodeId v = 0; v < n; ++v) faults.wake_round[v] = (v * 7) % 6;
  for (graph::NodeId v = 3; v < n; v += 11) faults.crash_round[v] = 2 + v % 9;
  sim::SimConfig faults_keepalive = faults;
  faults_keepalive.mis_keepalive = true;

  return {{sim::SimConfig{}, "plain"},
          {keepalive, "keepalive"},
          {faults, "wake-crash"},
          {faults_keepalive, "wake-crash-keepalive"}};
}

/// Every gathering kernel, as its own kernel and behind PushOnly, across
/// the regimes: the lane planes must match bit for bit.
void expect_direction_invisible(unsigned shards, std::initializer_list<BatchRngMode> modes) {
  auto rng = support::Xoshiro256StarStar(71);
  const graph::Graph g = graph::gnp(240, 0.04, rng);
  const mis::LocalFeedbackMis local;
  const mis::ExactLocalFeedbackMis exact;
  const mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
  const sim::BeepProtocol* protocols[] = {&local, &exact, &sweep};

  std::uint64_t seed = 9100;
  for (const BatchRngMode mode : modes) {
    for (const sim::BeepProtocol* protocol : protocols) {
      for (const Regime& regime : regimes(g.node_count())) {
        for (const unsigned lanes : {64u, 13u}) {
          const std::string what =
              std::string(protocol->name()) +
              (mode == BatchRngMode::kScalarOrder ? " scalar-order " : " statistical ") +
              regime.label + " lanes=" + std::to_string(lanes) +
              " shards=" + std::to_string(shards);
          const auto kernel = kernel_of(*protocol, mode);
          ASSERT_TRUE(kernel->reads_heard_only_on_live_frontier()) << what;
          PushOnly push_only(kernel_of(*protocol, mode));
          ASSERT_FALSE(push_only.reads_heard_only_on_live_frontier()) << what;
          const Planes gathered = run(g, regime.config, mode, *kernel, seed, lanes, shards);
          const Planes pushed = run(g, regime.config, mode, push_only, seed, lanes, shards);
          expect_same_planes(gathered, pushed, what);
          ++seed;
        }
      }
    }
  }
}

TEST(PlaneDelivery, GatherRuleBoundary) {
  using sim::detail::gather_heard;
  // Gather once the frontier is at most twice the beeper list.
  EXPECT_TRUE(gather_heard(true, 200, 100));
  EXPECT_FALSE(gather_heard(true, 201, 100));
  EXPECT_TRUE(gather_heard(true, 1, 1));
  EXPECT_TRUE(gather_heard(true, 2, 1));
  EXPECT_FALSE(gather_heard(true, 3, 1));
  // No beepers: push, which then costs nothing (an empty frontier gathers
  // nothing either way).
  EXPECT_FALSE(gather_heard(true, 1, 0));
  EXPECT_TRUE(gather_heard(true, 0, 0));
  // A kernel that reads heard off the live frontier always pushes.
  EXPECT_FALSE(gather_heard(false, 1, 100));
  EXPECT_FALSE(gather_heard(false, 0, 0));
  static_assert(gather_heard(true, 4, 2) && !gather_heard(true, 5, 2));
}

TEST(PlaneDelivery, KernelCapabilities) {
  // The gathering kernels declare frontier-only reads; self-healing, whose
  // healing pass reads dominated nodes, keeps the push default.
  const mis::LocalFeedbackMis local;
  const mis::ExactLocalFeedbackMis exact;
  const mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
  const mis::SelfHealingLocalFeedbackMis healing;
  for (const BatchRngMode mode :
       {BatchRngMode::kScalarOrder, BatchRngMode::kStatisticalLanes}) {
    EXPECT_TRUE(kernel_of(local, mode)->reads_heard_only_on_live_frontier());
    EXPECT_TRUE(kernel_of(exact, mode)->reads_heard_only_on_live_frontier());
    EXPECT_TRUE(kernel_of(sweep, mode)->reads_heard_only_on_live_frontier());
    EXPECT_FALSE(kernel_of(healing, mode)->reads_heard_only_on_live_frontier());
  }
}

TEST(PlaneDelivery, BatchedGatherMatchesPushInBothRngModes) {
  expect_direction_invisible(0, {BatchRngMode::kScalarOrder,
                                 BatchRngMode::kStatisticalLanes});
}

TEST(ShardedBatch, GatherDeliveryMatchesPushAtTwoShards) {
  expect_direction_invisible(2, {BatchRngMode::kStatisticalLanes});
}

TEST(ShardedBatch, GatherDeliveryMatchesPushAtThreeShards) {
  expect_direction_invisible(3, {BatchRngMode::kStatisticalLanes});
}

TEST(PlaneDelivery, SelfHealingPushesToDominatedListeners) {
  // Path m - d - x.  m and d start awake and settle into an MIS; x sleeps
  // until round R, the round m crashes.  In every lane where m dominated
  // d, d's only dominator falls silent in round R, and in the lanes where
  // x also wins round R, x's announcement is the only beep d hears.  With
  // threshold 1 that announcement alone keeps d from reactivating — but d
  // is dominated, so it is off the frontier, and a gathering delivery
  // would never set its heard mask.  The batched lanes match the scalar
  // runs only if self-healing keeps pushing.
  constexpr std::uint32_t kR = 12;
  constexpr graph::NodeId m = 0, d = 1, x = 2;
  graph::GraphBuilder builder(3);
  builder.add_edge(m, d).add_edge(d, x);
  const graph::Graph g = builder.build();

  sim::SimConfig config;
  config.mis_keepalive = true;
  config.max_rounds = 200;
  config.wake_round = {0, 0, kR};
  config.crash_round = {kR, UINT32_MAX, UINT32_MAX};

  mis::SelfHealingConfig healing_config;
  healing_config.silence_threshold = 1;
  mis::SelfHealingLocalFeedbackMis scalar_protocol(healing_config);
  mis::BatchSelfHealingMis batch_protocol(healing_config);

  constexpr unsigned kLanes = 64;
  constexpr std::uint64_t kSeed = 4400;
  std::vector<support::Xoshiro256StarStar> rngs;
  for (unsigned l = 0; l < kLanes; ++l) rngs.emplace_back(kSeed + l);
  sim::BatchSimulator batch_sim(config);
  const std::vector<sim::RunResult> batch = batch_sim.run(g, batch_protocol, rngs);
  ASSERT_EQ(batch.size(), kLanes);

  sim::BeepSimulator scalar_sim(g, config);
  unsigned announcement_saved_d = 0;
  for (unsigned l = 0; l < kLanes; ++l) {
    const sim::RunResult scalar =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(kSeed + l));
    const std::string what = "lane " + std::to_string(l);
    EXPECT_EQ(scalar.rounds, batch[l].rounds) << what;
    EXPECT_EQ(scalar.status, batch[l].status) << what;
    EXPECT_EQ(scalar.beep_counts, batch[l].beep_counts) << what;
    EXPECT_EQ(scalar.reactivations, batch[l].reactivations) << what;
    EXPECT_EQ(scalar.terminated, batch[l].terminated) << what;
    // The scenario the capability guards: d never healed because x's
    // announcement reached it the round its dominator crashed.
    if (scalar.status[d] == sim::NodeStatus::kDominated &&
        scalar.status[x] == sim::NodeStatus::kInMis && scalar.reactivations == 0) {
      ++announcement_saved_d;
    }
  }
  EXPECT_GT(announcement_saved_d, 0u) << "no lane exercised the dominated-listener case";
}

}  // namespace
}  // namespace beepmis
