// Distribution-level evidence for BatchRngMode::kStatisticalLanes: the
// existing lane tests compare *means* against 6-sigma intervals, which
// cannot see a wrong shape with the right mean.  Here the full
// termination-round histogram of statistical-lanes batches is compared
// against 192 scalar trials with a chi-square homogeneity test.
//
// All seeds are fixed, so each test is deterministic: a p-value below the
// 0.001 gate is a real distributional divergence between the samplers (or
// an rng regression), not flakiness.  The scalar sample uses the same seed
// derivation the trial harness uses (root.child(trial).child(1)) and the
// statistical batches use the harness's base-stream convention
// (root.child(first_trial).child(1)), so this doubles as a pin on those
// conventions.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/self_healing.hpp"
#include "sim/sharded_batch.hpp"
#include "sim/beep.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace beepmis {
namespace {

constexpr std::size_t kScalarTrials = 192;   // >= 128 per the harness contract
constexpr unsigned kLanes = 64;
constexpr std::size_t kBatches = 3;          // 192 statistical samples too
constexpr double kPValueGate = 0.001;

std::vector<double> scalar_rounds(const graph::Graph& g, const sim::SimConfig& config,
                                  sim::BeepProtocol& protocol,
                                  std::uint64_t base_seed) {
  const support::SeedSequence root(base_seed);
  sim::BeepSimulator simulator(g, config);
  std::vector<double> rounds;
  rounds.reserve(kScalarTrials);
  for (std::size_t trial = 0; trial < kScalarTrials; ++trial) {
    const sim::RunResult result =
        simulator.run(protocol, root.child(trial).child(1).generator());
    EXPECT_TRUE(result.terminated) << "scalar trial " << trial;
    rounds.push_back(static_cast<double>(result.rounds));
  }
  return rounds;
}

std::vector<double> statistical_rounds(const graph::Graph& g, const sim::SimConfig& config,
                                       const sim::BeepProtocol& prototype,
                                       std::uint64_t base_seed) {
  const support::SeedSequence root(base_seed);
  const std::unique_ptr<sim::BatchProtocol> kernel =
      prototype.make_batch_protocol(sim::BatchRngMode::kStatisticalLanes);
  EXPECT_NE(kernel, nullptr);
  sim::BatchSimulator simulator(config, sim::BatchRngMode::kStatisticalLanes);
  std::vector<double> rounds;
  rounds.reserve(kBatches * kLanes);
  for (std::size_t batch = 0; batch < kBatches; ++batch) {
    const std::size_t first_trial = batch * kLanes;
    const std::vector<sim::RunResult> results = simulator.run(
        g, *kernel, root.child(first_trial).child(1).generator(), kLanes);
    for (const sim::RunResult& result : results) {
      EXPECT_TRUE(result.terminated) << "batch " << batch;
      rounds.push_back(static_cast<double>(result.rounds));
    }
  }
  return rounds;
}

void expect_same_distribution(const std::vector<double>& scalar,
                              const std::vector<double>& statistical,
                              const char* workload) {
  const support::ChiSquareResult r =
      support::chi_square_homogeneity(scalar, statistical);
  EXPECT_GE(r.bins, 2u) << workload << ": degenerate pooling (no round variation)";
  EXPECT_GT(r.p_value, kPValueGate)
      << workload << ": chi2 = " << r.statistic << ", dof = " << r.dof
      << ", bins = " << r.bins
      << " — statistical-lanes termination rounds diverge from scalar trials";
}

TEST(DistributionGof, LocalFeedbackConvergeRounds) {
  auto graph_rng = support::Xoshiro256StarStar(515);
  const graph::Graph g = graph::gnp(120, 0.06, graph_rng);
  mis::LocalFeedbackMis protocol;
  const sim::SimConfig config;

  const std::vector<double> scalar = scalar_rounds(g, config, protocol, 6060);
  const std::vector<double> statistical = statistical_rounds(g, config, protocol, 6060);
  ASSERT_EQ(scalar.size(), kScalarTrials);
  ASSERT_EQ(statistical.size(), kBatches * kLanes);
  expect_same_distribution(scalar, statistical, "local-feedback converge");
}

TEST(DistributionGof, SelfHealingCrashTailRounds) {
  // Maintenance workload: keepalive, a mass crash of a third of the nodes
  // at round 25 with the run_until floor at 28.  Dominated neighbours of
  // the crashed members detect the keepalive silence right at the floor,
  // so the healing competition (reactivation, re-election) is what sets
  // the termination round — a genuinely stochastic tail spread over
  // roughly rounds 28..35, exactly the distribution the mean-based lane
  // checks cannot resolve.  (Crashing closer to the floor would end the
  // run before the silence is detected, collapsing every run to round 28.)
  auto graph_rng = support::Xoshiro256StarStar(516);
  const graph::Graph g = graph::gnp(100, 0.08, graph_rng);

  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 28;
  config.max_rounds = 600;
  config.crash_round.assign(g.node_count(), std::numeric_limits<std::uint32_t>::max());
  for (graph::NodeId v = 0; v < g.node_count(); v += 3) {
    config.crash_round[v] = 25;
  }
  mis::SelfHealingLocalFeedbackMis protocol;

  const std::vector<double> scalar = scalar_rounds(g, config, protocol, 7070);
  const std::vector<double> statistical = statistical_rounds(g, config, protocol, 7070);
  expect_same_distribution(scalar, statistical, "self-healing crash tail");
}

}  // namespace
}  // namespace beepmis
