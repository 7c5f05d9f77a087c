// BatchRngMode::kStatisticalLanes contract tests.  Statistical lanes trade
// the scalar-order bit-identity contract for throughput, so these tests pin
// what the relaxed mode *does* promise (src/sim/README.md "Statistical
// lanes"):
//   * determinism per (seed, lane count, mode) — reruns and fresh
//     simulators reproduce every lane bit-for-bit;
//   * MIS validity at every lane, for every batched protocol;
//   * correct per-lane marginal distributions — the termination-round and
//     beeps-per-node means of a statistical batch sit inside a generous
//     confidence interval around the matching scalar-trial means;
//   * mode misuse fails fast (wrong run() overload, bulk planes in
//     kScalarOrder).
// All seeds are fixed: each check either always passes or always fails on
// a given implementation, so a tolerance trip is a real distribution bug,
// not flakiness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "mis/verifier.hpp"
#include "sim/sharded_batch.hpp"
#include "sim/beep.hpp"

namespace beepmis {
namespace {

using sim::BatchRngMode;

void expect_identical_run(const sim::RunResult& a, const sim::RunResult& b,
                          const char* what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.total_beeps, b.total_beeps) << what;
  EXPECT_EQ(a.terminated, b.terminated) << what;
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.beep_counts, b.beep_counts) << what;
}

std::vector<sim::RunResult> run_statistical(const graph::Graph& g,
                                            const sim::SimConfig& config,
                                            const sim::BeepProtocol& scalar,
                                            std::uint64_t seed, unsigned lanes) {
  const std::unique_ptr<sim::BatchProtocol> kernel =
      scalar.make_batch_protocol(BatchRngMode::kStatisticalLanes);
  EXPECT_NE(kernel, nullptr) << scalar.name();
  sim::BatchSimulator simulator(config, BatchRngMode::kStatisticalLanes);
  return simulator.run(g, *kernel, support::Xoshiro256StarStar(seed), lanes);
}

// --- Determinism per (seed, lane count, mode) ------------------------------

TEST(StatisticalLanes, DeterministicPerSeedAndLaneCount) {
  auto rng = support::Xoshiro256StarStar(40);
  const graph::Graph g = graph::gnp(90, 0.07, rng);
  const mis::LocalFeedbackMis protocol;
  for (const unsigned lanes : {1u, 7u, 64u}) {
    const auto first = run_statistical(g, sim::SimConfig{}, protocol, 900, lanes);
    const auto second = run_statistical(g, sim::SimConfig{}, protocol, 900, lanes);
    ASSERT_EQ(first.size(), lanes);
    ASSERT_EQ(second.size(), lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      expect_identical_run(first[l], second[l], "statistical rerun lane");
    }
  }
}

TEST(StatisticalLanes, ScratchReuseAcrossRunsIsExact) {
  // Same simulator instance, recycled planes: the statistical mode must be
  // as rerun-stable as the scalar-order mode.
  auto rng = support::Xoshiro256StarStar(41);
  const graph::Graph g = graph::gnp(70, 0.08, rng);
  sim::SimConfig config;
  config.beep_loss_probability = 0.2;
  config.mis_keepalive = true;
  config.max_rounds = 500;
  const mis::LocalFeedbackMis scalar;
  const std::unique_ptr<sim::BatchProtocol> kernel =
      scalar.make_batch_protocol(BatchRngMode::kStatisticalLanes);
  ASSERT_NE(kernel, nullptr);
  sim::BatchSimulator reused(config, BatchRngMode::kStatisticalLanes);
  const auto first = reused.run(g, *kernel, support::Xoshiro256StarStar(911), 64);
  const auto second = reused.run(g, *kernel, support::Xoshiro256StarStar(911), 64);
  for (unsigned l = 0; l < 64; ++l) {
    expect_identical_run(first[l], second[l], "lossy statistical rerun lane");
  }
}

// --- Per-lane MIS validity -------------------------------------------------

TEST(StatisticalLanes, EveryLaneProducesAValidMis) {
  auto rng = support::Xoshiro256StarStar(42);
  const graph::Graph g = graph::gnp(120, 0.05, rng);

  const mis::LocalFeedbackMis local;
  const mis::ExactLocalFeedbackMis exact;
  const mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
  const sim::BeepProtocol* protocols[] = {&local, &exact, &sweep};

  for (const sim::BeepProtocol* protocol : protocols) {
    const auto results = run_statistical(g, sim::SimConfig{}, *protocol, 4242, 64);
    ASSERT_EQ(results.size(), 64u) << protocol->name();
    for (unsigned l = 0; l < 64; ++l) {
      const mis::VerificationReport report = mis::verify_mis_run(g, results[l]);
      EXPECT_TRUE(report.valid())
          << protocol->name() << " lane " << l << ": " << report.summary();
    }
  }

  // The healing protocol only makes sense with keep-alive (without it,
  // every dominated node eventually goes "silent" and reactivates); its
  // plain-convergence validity is checked in that regime.
  sim::SimConfig keepalive;
  keepalive.mis_keepalive = true;
  const mis::SelfHealingLocalFeedbackMis healing;
  const auto results = run_statistical(g, keepalive, healing, 4242, 64);
  for (unsigned l = 0; l < 64; ++l) {
    const mis::VerificationReport report = mis::verify_mis_run(g, results[l]);
    EXPECT_TRUE(report.valid()) << "healing lane " << l << ": " << report.summary();
  }
}

TEST(StatisticalLanes, HealingLanesStayValidUnderCrashesAndKeepalive) {
  // Maintenance regime: keep-alive, targeted crashes after convergence, a
  // run_until tail — healing reactivations must restore a valid MIS in
  // every lane even though the draws are bulk planes.
  auto rng = support::Xoshiro256StarStar(43);
  const graph::Graph g = graph::gnp(90, 0.03, rng);
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 48;
  config.max_rounds = 600;
  config.crash_round.assign(90, UINT32_MAX);
  config.crash_round[18] = 8;
  config.crash_round[45] = 12;
  config.crash_round[67] = 16;
  const mis::SelfHealingLocalFeedbackMis healing;
  const auto results = run_statistical(g, config, healing, 4343, 64);
  for (unsigned l = 0; l < 64; ++l) {
    const mis::VerificationReport report = mis::verify_mis_run(g, results[l]);
    EXPECT_TRUE(report.valid()) << "lane " << l << ": " << report.summary();
  }
}

TEST(StatisticalLanes, LossyTailLanesTerminate) {
  // Loss can legitimately leave fate inconsistencies (a lost announcement
  // is real protocol behaviour), so pin termination + determinism, not
  // validity.
  auto rng = support::Xoshiro256StarStar(44);
  const graph::Graph g = graph::gnp(80, 0.08, rng);
  sim::SimConfig config;
  config.beep_loss_probability = 0.1;
  config.mis_keepalive = true;
  config.run_until_round = 30;
  config.max_rounds = 500;
  const mis::LocalFeedbackMis protocol;
  const auto results = run_statistical(g, config, protocol, 4444, 64);
  for (unsigned l = 0; l < 64; ++l) {
    EXPECT_TRUE(results[l].terminated) << "lane " << l;
    EXPECT_GE(results[l].rounds, config.run_until_round) << "lane " << l;
  }
}

// --- Marginal-distribution checks ------------------------------------------

struct SampleStats {
  double mean = 0.0;
  double var = 0.0;  ///< unbiased sample variance
  std::size_t count = 0;
};

SampleStats stats_of(const std::vector<double>& xs) {
  SampleStats s;
  s.count = xs.size();
  for (const double x : xs) s.mean += x;
  s.mean /= static_cast<double>(xs.size());
  for (const double x : xs) s.var += (x - s.mean) * (x - s.mean);
  s.var /= static_cast<double>(xs.size() - 1);
  return s;
}

/// Two-sample mean-interval check: |mean_a - mean_b| must sit within
/// `sigmas` pooled standard errors (plus a small absolute floor for
/// near-degenerate metrics).  6 sigma on fixed seeds: a trip means the
/// distributions genuinely moved, not an unlucky sample.
void expect_means_close(const SampleStats& a, const SampleStats& b, double sigmas,
                        const char* what) {
  const double stderr2 = a.var / static_cast<double>(a.count) +
                         b.var / static_cast<double>(b.count);
  const double tolerance = sigmas * std::sqrt(stderr2) + 1e-9;
  EXPECT_NEAR(a.mean, b.mean, tolerance) << what;
}

TEST(StatisticalLanes, TerminationRoundAndBeepMeansMatchScalarTrials) {
  auto rng = support::Xoshiro256StarStar(45);
  const graph::Graph g = graph::gnp(200, 0.035, rng);
  const sim::SimConfig config;

  // Statistical sample: two 64-lane batches (independent base seeds).
  const mis::LocalFeedbackMis protocol;
  std::vector<double> stat_rounds;
  std::vector<double> stat_beeps;
  std::vector<double> stat_mis;
  for (const std::uint64_t seed : {9001ull, 9002ull}) {
    const auto results = run_statistical(g, config, protocol, seed, 64);
    for (const sim::RunResult& r : results) {
      ASSERT_TRUE(r.terminated);
      stat_rounds.push_back(static_cast<double>(r.rounds));
      stat_beeps.push_back(r.mean_beeps_per_node());
      stat_mis.push_back(static_cast<double>(r.mis().size()));
    }
  }

  // Scalar sample: 128 independent scalar runs of the same protocol.
  std::vector<double> scalar_rounds;
  std::vector<double> scalar_beeps;
  std::vector<double> scalar_mis;
  sim::BeepSimulator scalar_sim(g, config);
  mis::LocalFeedbackMis scalar_protocol;
  for (unsigned t = 0; t < 128; ++t) {
    const sim::RunResult r =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(77000 + t));
    ASSERT_TRUE(r.terminated);
    scalar_rounds.push_back(static_cast<double>(r.rounds));
    scalar_beeps.push_back(r.mean_beeps_per_node());
    scalar_mis.push_back(static_cast<double>(r.mis().size()));
  }

  expect_means_close(stats_of(stat_rounds), stats_of(scalar_rounds), 6.0,
                     "termination rounds");
  expect_means_close(stats_of(stat_beeps), stats_of(scalar_beeps), 6.0,
                     "beeps per node");
  expect_means_close(stats_of(stat_mis), stats_of(scalar_mis), 6.0, "MIS size");
  // Spread sanity alongside the mean intervals: the statistical rounds
  // variance must be in the same regime as the scalar one (a factor-4
  // band), not collapsed (lanes accidentally sharing outcomes) nor blown
  // up (lanes correlated through a biased shared plane).
  const double var_ratio = stats_of(stat_rounds).var / stats_of(scalar_rounds).var;
  EXPECT_GT(var_ratio, 0.25);
  EXPECT_LT(var_ratio, 4.0);
}

TEST(StatisticalLanes, GlobalScheduleMeansMatchScalarTrials) {
  // The global-sweep kernel draws whole bulk Bernoulli(p) planes for
  // arbitrary double p (not just dyadic exponents); its marginals must
  // match the scalar protocol too.
  auto rng = support::Xoshiro256StarStar(46);
  const graph::Graph g = graph::gnp(150, 0.05, rng);
  const sim::SimConfig config;

  const mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
  std::vector<double> stat_rounds;
  std::vector<double> stat_mis;
  for (const std::uint64_t seed : {9101ull, 9102ull}) {
    const auto results = run_statistical(g, config, sweep, seed, 64);
    for (const sim::RunResult& r : results) {
      ASSERT_TRUE(r.terminated);
      stat_rounds.push_back(static_cast<double>(r.rounds));
      stat_mis.push_back(static_cast<double>(r.mis().size()));
    }
  }

  std::vector<double> scalar_rounds;
  std::vector<double> scalar_mis;
  sim::BeepSimulator scalar_sim(g, config);
  mis::GlobalScheduleMis scalar_protocol = mis::make_global_sweep_mis();
  for (unsigned t = 0; t < 128; ++t) {
    const sim::RunResult r =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(78000 + t));
    ASSERT_TRUE(r.terminated);
    scalar_rounds.push_back(static_cast<double>(r.rounds));
    scalar_mis.push_back(static_cast<double>(r.mis().size()));
  }

  expect_means_close(stats_of(stat_rounds), stats_of(scalar_rounds), 6.0,
                     "global-sweep termination rounds");
  expect_means_close(stats_of(stat_mis), stats_of(scalar_mis), 6.0,
                     "global-sweep MIS size");
}

// --- Harness integration ---------------------------------------------------

harness::GraphFactory shared_gnp(graph::NodeId n) {
  return [n](support::Xoshiro256StarStar& rng) { return graph::gnp(n, 0.05, rng); };
}

harness::BeepProtocolFactory local_feedback() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

void expect_identical_stats(const harness::TrialStats& a, const harness::TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.valid, b.valid);
  const auto expect_identical = [](const support::RunningStats& x,
                                   const support::RunningStats& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_DOUBLE_EQ(x.mean(), y.mean());
    EXPECT_DOUBLE_EQ(x.variance(), y.variance());
  };
  expect_identical(a.rounds, b.rounds);
  expect_identical(a.beeps_per_node, b.beeps_per_node);
  expect_identical(a.mis_size, b.mis_size);
}

TEST(StatisticalLanes, HarnessStatsDeterministicAcrossThreadCounts) {
  // Statistical batches are keyed by batch index (not worker), so the
  // relaxed mode keeps the harness's any-thread-count determinism.
  harness::TrialConfig config;
  config.trials = 100;  // one full batch + a 36-lane partial batch
  config.base_seed = 0x57a7;
  config.threads = 1;
  config.shared_graph = true;
  config.rng_mode = BatchRngMode::kStatisticalLanes;
  harness::TrialConfig mt = config;
  mt.threads = 4;

  const harness::TrialStats one = run_beep_trials(shared_gnp(60), local_feedback(), config);
  const harness::TrialStats four = run_beep_trials(shared_gnp(60), local_feedback(), mt);
  expect_identical_stats(one, four);
  EXPECT_EQ(one.trials, 100u);
  EXPECT_EQ(one.terminated, 100u);
  EXPECT_EQ(one.valid, 100u);
}

TEST(StatisticalLanes, HarnessBatchesLossyTailInStatisticalMode) {
  // The auto-batch heuristic: a lossy tail-dominated sweep is exactly the
  // workload scalar-order mode skips, and statistical mode batches.  The
  // statistical run must still produce a full, all-terminated trial set.
  harness::TrialConfig config;
  config.trials = 80;
  config.base_seed = 0x10557;
  config.threads = 1;
  config.shared_graph = true;
  config.rng_mode = BatchRngMode::kStatisticalLanes;
  config.sim.beep_loss_probability = 0.05;
  config.sim.mis_keepalive = true;
  config.sim.run_until_round = 24;
  config.sim.max_rounds = 500;

  const harness::TrialStats stats =
      run_beep_trials(shared_gnp(60), local_feedback(), config);
  EXPECT_EQ(stats.trials, 80u);
  EXPECT_EQ(stats.terminated, 80u);
  EXPECT_GE(stats.rounds.min(), 24.0);
}

TEST(StatisticalLanes, ScalarOrderLossyTailStatsUnchangedByHeuristic) {
  // In kScalarOrder the heuristic moves lossy tail-dominated sweeps off
  // the batched path; stats must equal the forced-scalar loop exactly
  // (they always did — this pins that the heuristic changes the route,
  // never the result).
  harness::TrialConfig config;
  config.trials = 70;
  config.base_seed = 0xfade;
  config.threads = 1;
  config.shared_graph = true;
  config.sim.beep_loss_probability = 0.1;
  config.sim.mis_keepalive = true;
  config.sim.run_until_round = 16;
  config.sim.max_rounds = 400;
  harness::TrialConfig scalar = config;
  scalar.allow_batched = false;

  const harness::TrialStats a = run_beep_trials(shared_gnp(50), local_feedback(), config);
  const harness::TrialStats b = run_beep_trials(shared_gnp(50), local_feedback(), scalar);
  expect_identical_stats(a, b);
}

// --- Mode misuse fails fast ------------------------------------------------

TEST(StatisticalLanes, WrongRunOverloadThrows) {
  const graph::Graph g = graph::path(6);
  const mis::LocalFeedbackMis scalar;

  const std::unique_ptr<sim::BatchProtocol> kernel =
      scalar.make_batch_protocol(BatchRngMode::kStatisticalLanes);
  ASSERT_NE(kernel, nullptr);

  // Statistical simulator rejects per-lane rng vectors...
  sim::BatchSimulator statistical(sim::SimConfig{}, BatchRngMode::kStatisticalLanes);
  std::vector<support::Xoshiro256StarStar> rngs(4, support::Xoshiro256StarStar(1));
  EXPECT_THROW((void)statistical.run(g, *kernel, std::move(rngs)), std::logic_error);
  // ... and the scalar-order simulator rejects base-seeded runs.
  sim::BatchSimulator scalar_order(sim::SimConfig{});
  EXPECT_THROW((void)scalar_order.run(g, *kernel, support::Xoshiro256StarStar(1), 4),
               std::logic_error);
  // Lane-count bounds hold in statistical mode too.
  EXPECT_THROW((void)statistical.run(g, *kernel, support::Xoshiro256StarStar(1), 0),
               std::invalid_argument);
  EXPECT_THROW((void)statistical.run(g, *kernel, support::Xoshiro256StarStar(1), 65),
               std::invalid_argument);
}

TEST(StatisticalLanes, BulkPlanesThrowInScalarOrderMode) {
  // A kernel that draws bulk planes while the simulator is in scalar-order
  // mode would silently break the bit-identity contract; the context
  // rejects it instead.
  class PlaneAbuser final : public sim::BatchProtocol {
   public:
    [[nodiscard]] std::string_view name() const override { return "plane-abuser"; }
    [[nodiscard]] unsigned exchanges_per_round() const override { return 1; }
    void reset(const graph::Graph&, std::span<support::Xoshiro256StarStar>) override {}
    void emit(sim::BatchContext& ctx) override { (void)ctx.random_plane(); }
    void react(sim::BatchContext&) override {}
  };
  const graph::Graph g = graph::path(4);
  PlaneAbuser protocol;
  sim::BatchSimulator simulator{sim::SimConfig{}};
  std::vector<support::Xoshiro256StarStar> rngs;
  rngs.push_back(support::Xoshiro256StarStar(1));
  EXPECT_THROW((void)simulator.run(g, protocol, std::move(rngs)), std::logic_error);
}

}  // namespace
}  // namespace beepmis
