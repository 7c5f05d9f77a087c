// ShardedBatchSimulator contract tests.  At K >= 2 the lane-plane core is
// statistical-lanes only, so its promises are (src/sim/README.md "Sharded
// batching"):
//   * K = 1 reproduces the pinned digests of the retired serial batched
//     engine's kStatisticalLanes outputs for the same (graph, protocol,
//     base seed, lane count) — the oracle that pins the SPMD choreography
//     (coordinator merges, keep-alive, plane delivery) at one shard;
//   * determinism per (seed, shard count, lane count) — reruns and fresh
//     simulators reproduce every lane bit-for-bit at any K;
//   * correct per-lane marginal distributions at K > 1 — means within a
//     6-sigma pooled interval of scalar trials, and a termination-round
//     chi-square in the same regime;
//   * mode misuse fails fast (kScalarOrder at K >= 2, unsupported
//     SimConfig features, lane-count bounds).
// All seeds are fixed: a tolerance trip is a real bug, not flakiness.
#include "sim/sharded_batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "support/hash.hpp"

namespace beepmis {
namespace {

using sim::BatchRngMode;

void expect_identical_run(const sim::RunResult& a, const sim::RunResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.total_beeps, b.total_beeps) << what;
  EXPECT_EQ(a.terminated, b.terminated) << what;
  EXPECT_EQ(a.reactivations, b.reactivations) << what;
  EXPECT_EQ(a.status, b.status) << what;
  EXPECT_EQ(a.beep_counts, b.beep_counts) << what;
}

/// Stable digest of every RunResult field expect_identical_run compares, in
/// lane order: the pinned K = 1 outputs below are these values, recorded
/// from the serial batched engine before it was folded into the one-shard
/// core.
std::uint64_t digest_runs(const std::vector<sim::RunResult>& runs) {
  support::StableHash h;
  for (const sim::RunResult& r : runs) {
    h.update_u64(r.rounds);
    h.update_u64(r.total_beeps);
    h.update_u64(r.terminated ? 1 : 0);
    h.update_u64(r.reactivations);
    h.update_u64(r.status.size());
    for (const sim::NodeStatus st : r.status) h.update_u64(static_cast<std::uint64_t>(st));
    h.update_u64(r.beep_counts.size());
    for (const std::uint32_t b : r.beep_counts) h.update_u64(b);
  }
  return h.digest();
}

std::unique_ptr<sim::BatchProtocol> statistical_kernel(const sim::BeepProtocol& scalar) {
  std::unique_ptr<sim::BatchProtocol> kernel =
      scalar.make_batch_protocol(BatchRngMode::kStatisticalLanes);
  EXPECT_NE(kernel, nullptr) << scalar.name();
  return kernel;
}

std::vector<sim::RunResult> run_batched(const graph::Graph& g,
                                        const sim::SimConfig& config,
                                        const sim::BeepProtocol& scalar,
                                        std::uint64_t seed, unsigned lanes) {
  const auto kernel = statistical_kernel(scalar);
  sim::BatchSimulator simulator(config, BatchRngMode::kStatisticalLanes);
  return simulator.run(g, *kernel, support::Xoshiro256StarStar(seed), lanes);
}

std::vector<sim::RunResult> run_sharded_batched(const graph::Graph& g,
                                                const sim::SimConfig& config,
                                                const sim::BeepProtocol& scalar,
                                                std::uint64_t seed, unsigned lanes,
                                                unsigned shards) {
  const auto kernel = statistical_kernel(scalar);
  sim::ShardedBatchSimulator simulator(g, shards, config);
  return simulator.run(*kernel, support::Xoshiro256StarStar(seed), lanes);
}

sim::SimConfig lossy_keepalive_config() {
  sim::SimConfig config;
  config.beep_loss_probability = 0.15;
  config.mis_keepalive = true;
  config.run_until_round = 24;
  config.max_rounds = 500;
  return config;
}

sim::SimConfig crash_keepalive_config(graph::NodeId n) {
  sim::SimConfig config;
  config.mis_keepalive = true;
  config.run_until_round = 40;
  config.max_rounds = 600;
  config.crash_round.assign(n, UINT32_MAX);
  config.crash_round[3] = 8;
  config.crash_round[17] = 12;
  config.crash_round[41] = 12;
  config.crash_round[59] = 16;
  config.wake_round.assign(n, 0);
  for (graph::NodeId v = 0; v < n; v += 5) config.wake_round[v] = v % 4;
  return config;
}

// --- K = 1 bit-identity oracle ---------------------------------------------

TEST(ShardedBatch, SingleShardBitIdenticalToBatchSimulator) {
  // One shard's (shard, lane) stream layout and exchange choreography must
  // reproduce the serial batched engine's statistical run bit for bit —
  // including beep counts, status planes and self-healing reactivation
  // totals — through both spellings of the one-shard core.  The digests
  // were recorded from that engine before its removal; they cover the
  // four batched protocol families across lossless/lossy and
  // crash/keep-alive regimes.
  auto rng = support::Xoshiro256StarStar(51);
  const graph::Graph g = graph::gnp(80, 0.06, rng);
  const graph::NodeId n = g.node_count();

  const mis::LocalFeedbackMis local;
  const mis::ExactLocalFeedbackMis exact;
  const mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
  const mis::SelfHealingLocalFeedbackMis healing;

  struct Case {
    const sim::BeepProtocol* protocol;
    sim::SimConfig config;
    const char* label;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {&local, sim::SimConfig{}, "local/lossless", 0x5f909c88ad119f14},
      {&local, lossy_keepalive_config(), "local/lossy-keepalive", 0x51a0aae03edfb07d},
      {&local, crash_keepalive_config(n), "local/crash-keepalive", 0x3c95c628fe928cf5},
      {&exact, sim::SimConfig{}, "exact/lossless", 0x5f909c88ad119f14},
      {&exact, lossy_keepalive_config(), "exact/lossy-keepalive", 0x51a0aae03edfb07d},
      {&sweep, sim::SimConfig{}, "sweep/lossless", 0x49e656106eddfdc3},
      {&healing, crash_keepalive_config(n), "healing/crash-keepalive", 0xf3f79f7db07d9403},
      {&healing, lossy_keepalive_config(), "healing/lossy-keepalive", 0x47257c037e6caf6d},
  };
  for (const Case& c : cases) {
    const auto batched = run_batched(g, c.config, *c.protocol, 6100, 64);
    const auto sharded = run_sharded_batched(g, c.config, *c.protocol, 6100, 64, 1);
    ASSERT_EQ(batched.size(), 64u) << c.label;
    ASSERT_EQ(sharded.size(), 64u) << c.label;
    EXPECT_EQ(digest_runs(batched), c.digest) << c.label << " (BatchSimulator)";
    EXPECT_EQ(digest_runs(sharded), c.digest) << c.label << " (ShardedBatchSimulator, K=1)";
  }
}

TEST(ShardedBatch, SingleShardBitIdentityAtPartialLaneCounts) {
  // Lane counts below 64 exercise the partial all_lanes mask; the pinned
  // serial-engine digests must hold at every lane count.
  auto rng = support::Xoshiro256StarStar(52);
  const graph::Graph g = graph::gnp(60, 0.08, rng);
  const mis::LocalFeedbackMis local;
  const struct {
    unsigned lanes;
    std::uint64_t digest;
  } cases[] = {{1, 0x4c99c5402ff886af}, {5, 0x008f38f63a8f898b}, {33, 0x05e93b134a695351}};
  for (const auto& c : cases) {
    const auto batched = run_batched(g, sim::SimConfig{}, local, 6200, c.lanes);
    const auto sharded = run_sharded_batched(g, sim::SimConfig{}, local, 6200, c.lanes, 1);
    ASSERT_EQ(sharded.size(), c.lanes);
    EXPECT_EQ(digest_runs(batched), c.digest) << "lanes=" << c.lanes;
    EXPECT_EQ(digest_runs(sharded), c.digest) << "lanes=" << c.lanes;
  }
}

// --- Determinism per (seed, shard count) -----------------------------------

TEST(ShardedBatch, DeterministicPerSeedAndShardCount) {
  auto rng = support::Xoshiro256StarStar(53);
  const graph::Graph g = graph::gnp(100, 0.05, rng);
  const mis::LocalFeedbackMis local;
  const sim::SimConfig configs[] = {sim::SimConfig{}, lossy_keepalive_config()};
  for (const sim::SimConfig& config : configs) {
    for (const unsigned k : {2u, 4u, 7u}) {
      const auto kernel = statistical_kernel(local);
      sim::ShardedBatchSimulator simulator(g, k, config);
      const auto first = simulator.run(*kernel, support::Xoshiro256StarStar(6300), 64);
      // Same instance rerun (scratch reuse) and a fresh instance must both
      // reproduce every lane.
      const auto second = simulator.run(*kernel, support::Xoshiro256StarStar(6300), 64);
      const auto fresh = run_sharded_batched(g, config, local, 6300, 64, k);
      for (unsigned l = 0; l < 64; ++l) {
        const std::string what = "k=" + std::to_string(k) + " lane " + std::to_string(l);
        expect_identical_run(first[l], second[l], "rerun " + what);
        expect_identical_run(first[l], fresh[l], "fresh " + what);
      }
      for (const sim::RunResult& r : first) EXPECT_TRUE(r.terminated);
    }
  }
}

TEST(ShardedBatch, EveryLaneProducesAValidMisAtEveryShardCount) {
  // Reliable-channel runs keep full MIS validity per lane regardless of
  // the shard count (lossy runs legitimately may not; see the statistical
  // lanes suite).
  auto rng = support::Xoshiro256StarStar(54);
  const graph::Graph g = graph::gnp(110, 0.05, rng);
  const mis::LocalFeedbackMis local;
  for (const unsigned k : {2u, 5u}) {
    const auto results = run_sharded_batched(g, sim::SimConfig{}, local, 6400, 64, k);
    for (unsigned l = 0; l < 64; ++l) {
      const mis::VerificationReport report = mis::verify_mis_run(g, results[l]);
      EXPECT_TRUE(report.valid()) << "k " << k << " lane " << l << ": " << report.summary();
    }
  }
}

TEST(ShardedBatch, HealingCrashKeepaliveValidAcrossShardCounts) {
  // The maintenance regime crosses every coordinator path: keep-alive
  // snapshots, MIS crash pruning, reactivation merges.  Every lane must
  // still heal to a valid MIS at K > 1.
  auto rng = support::Xoshiro256StarStar(55);
  const graph::Graph g = graph::gnp(90, 0.05, rng);
  const mis::SelfHealingLocalFeedbackMis healing;
  const sim::SimConfig config = crash_keepalive_config(g.node_count());
  for (const unsigned k : {2u, 4u}) {
    const auto results = run_sharded_batched(g, config, healing, 6500, 64, k);
    for (unsigned l = 0; l < 64; ++l) {
      ASSERT_TRUE(results[l].terminated) << "k " << k << " lane " << l;
      const mis::VerificationReport report = mis::verify_mis_run(g, results[l]);
      EXPECT_TRUE(report.valid()) << "k " << k << " lane " << l << ": " << report.summary();
    }
  }
}

// --- Marginal distributions at K > 1 ---------------------------------------

struct SampleStats {
  double mean = 0.0;
  double var = 0.0;
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

void expect_means_close(const SampleStats& a, const SampleStats& b, double sigmas,
                        const char* what) {
  const double stderr2 = a.var / static_cast<double>(a.count) +
                         b.var / static_cast<double>(b.count);
  const double tolerance = sigmas * std::sqrt(stderr2) + 1e-9;
  EXPECT_NEAR(a.mean, b.mean, tolerance) << what;
}

/// Two-sample chi-square over a shared binning (bins merged until every
/// bin's combined count is >= 10).  The threshold is far above any
/// plausible quantile for the resulting degrees of freedom — on fixed
/// seeds a trip means the distribution broke (lanes collapsed together,
/// delivery dropped a shard), not an unlucky draw.
double two_sample_chi_square(std::vector<double> a, std::vector<double> b,
                             std::size_t* bins_out) {
  std::vector<double> all = a;
  all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end());
  // Bin edges from combined deciles, deduplicated.
  std::vector<double> edges;
  for (std::size_t d = 1; d < 10; ++d) {
    const double e = all[all.size() * d / 10];
    if (edges.empty() || e > edges.back()) edges.push_back(e);
  }
  const auto bin_of = [&edges](double x) {
    return static_cast<std::size_t>(
        std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
  };
  std::vector<double> ca(edges.size() + 1, 0.0), cb(edges.size() + 1, 0.0);
  for (const double x : a) ca[bin_of(x)] += 1.0;
  for (const double x : b) cb[bin_of(x)] += 1.0;
  // Merge sparse bins left-to-right so every used bin has >= 10 combined.
  std::vector<double> ma, mb;
  double accum_a = 0.0, accum_b = 0.0;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    accum_a += ca[i];
    accum_b += cb[i];
    if (accum_a + accum_b >= 10.0) {
      ma.push_back(accum_a);
      mb.push_back(accum_b);
      accum_a = accum_b = 0.0;
    }
  }
  if ((accum_a + accum_b) > 0.0 && !ma.empty()) {
    ma.back() += accum_a;
    mb.back() += accum_b;
  }
  const double na = static_cast<double>(a.size());
  const double nb = static_cast<double>(b.size());
  const double ka = std::sqrt(nb / na), kb = std::sqrt(na / nb);
  double chi2 = 0.0;
  for (std::size_t i = 0; i < ma.size(); ++i) {
    const double total = ma[i] + mb[i];
    if (total <= 0.0) continue;
    const double diff = ka * ma[i] - kb * mb[i];
    chi2 += diff * diff / total;
  }
  *bins_out = ma.size();
  return chi2;
}

TEST(ShardedBatch, MeansMatchScalarTrialsAcrossProtocolsAndRegimes) {
  // Four protocol families, each in a distinct regime spanning the
  // lossless/lossy and crash/keep-alive axes: the K=3 sharded-batched
  // sample's termination-round and MIS-size means must sit within 6
  // pooled standard errors of 128 independent scalar trials.
  auto rng = support::Xoshiro256StarStar(56);
  const graph::Graph g = graph::gnp(150, 0.04, rng);
  const graph::NodeId n = g.node_count();

  const mis::LocalFeedbackMis local;
  const mis::ExactLocalFeedbackMis exact;
  const mis::GlobalScheduleMis sweep = mis::make_global_sweep_mis();
  const mis::SelfHealingLocalFeedbackMis healing;

  struct Case {
    const sim::BeepProtocol* protocol;
    sim::SimConfig config;
    const char* label;
  };
  sim::SimConfig lossy = lossy_keepalive_config();
  const Case cases[] = {
      {&local, sim::SimConfig{}, "local/lossless"},
      {&exact, lossy, "exact/lossy-keepalive"},
      {&sweep, sim::SimConfig{}, "sweep/lossless"},
      {&healing, crash_keepalive_config(n), "healing/crash-keepalive"},
  };
  for (const Case& c : cases) {
    std::vector<double> stat_rounds, stat_mis;
    for (const std::uint64_t seed : {9301ull, 9302ull}) {
      const auto results = run_sharded_batched(g, c.config, *c.protocol, seed, 64, 3);
      for (const sim::RunResult& r : results) {
        ASSERT_TRUE(r.terminated) << c.label;
        stat_rounds.push_back(static_cast<double>(r.rounds));
        stat_mis.push_back(static_cast<double>(r.mis().size()));
      }
    }
    std::vector<double> scalar_rounds, scalar_mis;
    sim::BeepSimulator scalar_sim(g, c.config);
    for (unsigned t = 0; t < 128; ++t) {
      const std::unique_ptr<sim::BeepProtocol> fresh = [&]() ->
          std::unique_ptr<sim::BeepProtocol> {
        if (c.protocol == &local) return std::make_unique<mis::LocalFeedbackMis>();
        if (c.protocol == &exact) return std::make_unique<mis::ExactLocalFeedbackMis>();
        if (c.protocol == &sweep) {
          return std::make_unique<mis::GlobalScheduleMis>(mis::make_global_sweep_mis());
        }
        return std::make_unique<mis::SelfHealingLocalFeedbackMis>();
      }();
      const sim::RunResult r =
          scalar_sim.run(*fresh, support::Xoshiro256StarStar(81000 + t));
      ASSERT_TRUE(r.terminated) << c.label;
      scalar_rounds.push_back(static_cast<double>(r.rounds));
      scalar_mis.push_back(static_cast<double>(r.mis().size()));
    }
    expect_means_close(stats_of(stat_rounds), stats_of(scalar_rounds), 6.0, c.label);
    expect_means_close(stats_of(stat_mis), stats_of(scalar_mis), 6.0, c.label);
  }
}

TEST(ShardedBatch, TerminationRoundChiSquareMatchesScalarTrials) {
  auto rng = support::Xoshiro256StarStar(57);
  const graph::Graph g = graph::gnp(150, 0.04, rng);
  const mis::LocalFeedbackMis local;

  std::vector<double> stat_rounds;
  for (const std::uint64_t seed : {9401ull, 9402ull}) {
    const auto results = run_sharded_batched(g, sim::SimConfig{}, local, seed, 64, 4);
    for (const sim::RunResult& r : results) {
      ASSERT_TRUE(r.terminated);
      stat_rounds.push_back(static_cast<double>(r.rounds));
    }
  }
  std::vector<double> scalar_rounds;
  sim::BeepSimulator scalar_sim(g, sim::SimConfig{});
  mis::LocalFeedbackMis scalar_protocol;
  for (unsigned t = 0; t < 128; ++t) {
    const sim::RunResult r =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(82000 + t));
    ASSERT_TRUE(r.terminated);
    scalar_rounds.push_back(static_cast<double>(r.rounds));
  }
  std::size_t bins = 0;
  const double chi2 = two_sample_chi_square(stat_rounds, scalar_rounds, &bins);
  ASSERT_GE(bins, 2u);
  // ~99.999th percentile of chi-square at these dof is well under 4x the
  // dof + 30; a broken distribution lands orders of magnitude above.
  EXPECT_LT(chi2, 4.0 * static_cast<double>(bins) + 30.0)
      << "chi2 " << chi2 << " over " << bins << " bins";
}

// --- Mode misuse fails fast ------------------------------------------------

TEST(ShardedBatch, ScalarOrderRejectedAtTwoShardsAcceptedAtOne) {
  EXPECT_THROW(sim::ShardedBatchSimulator(2, sim::SimConfig{},
                                          BatchRngMode::kScalarOrder),
               std::invalid_argument);
  // K = 1 runs bit-identical lanes: each matches its scalar run.
  auto rng = support::Xoshiro256StarStar(59);
  const graph::Graph g = graph::gnp(50, 0.08, rng);
  mis::LocalFeedbackMis scalar;
  const auto kernel = scalar.make_batch_protocol(BatchRngMode::kScalarOrder);
  ASSERT_NE(kernel, nullptr);
  sim::ShardedBatchSimulator simulator(g, 1, sim::SimConfig{}, BatchRngMode::kScalarOrder);
  EXPECT_THROW((void)simulator.partition(), std::logic_error);  // K = 1 builds none
  std::vector<support::Xoshiro256StarStar> rngs;
  for (unsigned l = 0; l < 3; ++l) rngs.emplace_back(700 + l);
  const auto lanes = sim::extract_lane_results(simulator.run_planes(*kernel, rngs));
  ASSERT_EQ(lanes.size(), 3u);
  sim::BeepSimulator scalar_sim(g, sim::SimConfig{});
  for (unsigned l = 0; l < 3; ++l) {
    expect_identical_run(scalar_sim.run(scalar, rngs[l]), lanes[l],
                         "lane " + std::to_string(l));
  }
  // A base-seeded run belongs to kStatisticalLanes.
  EXPECT_THROW((void)simulator.run(*kernel, support::Xoshiro256StarStar(1), 3),
               std::logic_error);
}

TEST(ShardedBatch, UnsupportedConfigAndBoundsThrow) {
  const graph::Graph g = graph::path(8);
  const mis::LocalFeedbackMis local;
  const auto kernel = statistical_kernel(local);

  sim::SimConfig traced;
  traced.record_trace = true;
  EXPECT_THROW(sim::ShardedBatchSimulator(2, traced), std::invalid_argument);
  EXPECT_THROW(sim::ShardedBatchSimulator(sim::ShardedBatchSimulator::kMaxShards + 1),
               std::invalid_argument);

  sim::ShardedBatchSimulator unbound(2);
  EXPECT_THROW((void)unbound.run(*kernel, support::Xoshiro256StarStar(1), 4),
               std::logic_error);
  EXPECT_THROW((void)unbound.partition(), std::logic_error);

  sim::ShardedBatchSimulator bound(g, 2);
  EXPECT_THROW((void)bound.run(*kernel, support::Xoshiro256StarStar(1), 0),
               std::invalid_argument);
  EXPECT_THROW((void)bound.run(*kernel, support::Xoshiro256StarStar(1), 65),
               std::invalid_argument);
}

TEST(ShardedBatch, WorkerExceptionsSurfaceAtAnyShardCount) {
  // A kernel contract violation mid-run must park, unwind the barrier
  // choreography cleanly and rethrow the original type to the caller.
  class ThrowingKernel final : public sim::BatchProtocol {
   public:
    [[nodiscard]] std::string_view name() const override { return "throwing"; }
    [[nodiscard]] unsigned exchanges_per_round() const override { return 2; }
    void reset(const graph::Graph&, std::span<support::Xoshiro256StarStar>) override {}
    void emit(sim::BatchContext& ctx) override {
      if (ctx.round() == 2) throw std::logic_error("kernel contract violation");
      for (const graph::NodeId v : ctx.active_nodes()) {
        if (const sim::LaneMask live = ctx.live_mask(v)) ctx.beep(v, live);
      }
    }
    void react(sim::BatchContext&) override {}
  };
  auto rng = support::Xoshiro256StarStar(58);
  const graph::Graph g = graph::gnp(40, 0.1, rng);
  ThrowingKernel kernel;
  for (const unsigned k : {1u, 3u}) {
    sim::ShardedBatchSimulator simulator(g, k);
    EXPECT_THROW((void)simulator.run(kernel, support::Xoshiro256StarStar(1), 8),
                 std::logic_error)
        << "k " << k;
  }
}

// --- Harness auto-selection -------------------------------------------------

/// The trial stats a routed sharded-batched sweep must reproduce: direct
/// K-shard simulator runs over the harness's batch grid (one base stream
/// per batch, keyed by its first trial index — the same seeding as the
/// batched statistical path).  Pushed in ascending trial order, which is
/// bit-equal to the harness aggregation as long as the sweep fits in one
/// checkpoint chunk.
support::RunningStats expected_sharded_batched_rounds(const graph::Graph& g,
                                                      const harness::TrialConfig& cfg,
                                                      unsigned shards) {
  const mis::LocalFeedbackMis scalar;
  const auto kernel = statistical_kernel(scalar);
  sim::ShardedBatchSimulator simulator(g, shards, cfg.sim);
  const support::SeedSequence root(cfg.base_seed);
  support::RunningStats rounds;
  for (std::size_t first = 0; first < cfg.trials; first += sim::kMaxBatchLanes) {
    const std::size_t last = std::min(first + sim::kMaxBatchLanes, cfg.trials);
    const std::vector<sim::RunResult> results =
        simulator.run(*kernel, root.child(first).child(1).generator(),
                      static_cast<unsigned>(last - first));
    for (const sim::RunResult& r : results) rounds.push(static_cast<double>(r.rounds));
  }
  return rounds;
}

support::RunningStats expected_batched_rounds(const graph::Graph& g,
                                              const harness::TrialConfig& cfg) {
  const mis::LocalFeedbackMis scalar;
  const auto kernel = statistical_kernel(scalar);
  sim::BatchSimulator simulator(cfg.sim, BatchRngMode::kStatisticalLanes);
  const support::SeedSequence root(cfg.base_seed);
  support::RunningStats rounds;
  for (std::size_t first = 0; first < cfg.trials; first += sim::kMaxBatchLanes) {
    const std::size_t last = std::min(first + sim::kMaxBatchLanes, cfg.trials);
    const std::vector<sim::RunResult> results =
        simulator.run(g, *kernel, root.child(first).child(1).generator(),
                      static_cast<unsigned>(last - first));
    for (const sim::RunResult& r : results) rounds.push(static_cast<double>(r.rounds));
  }
  return rounds;
}

harness::TrialConfig statistical_sweep_config() {
  harness::TrialConfig cfg;
  cfg.trials = 130;  // three batches: 64 + 64 + 2
  cfg.base_seed = 9001;
  cfg.shared_graph = true;
  cfg.rng_mode = BatchRngMode::kStatisticalLanes;
  cfg.sim.max_rounds = 400;
  // One chunk for the whole sweep so the harness aggregates trials in the
  // same order the expectation helpers push them (bit-equal means).
  cfg.checkpoint_interval = 1024;
  return cfg;
}

TEST(ShardedBatch, HarnessRoutesExplicitShardsToShardedBatched) {
  // shards >= 2 on a statistical multi-batch sweep must select the
  // sharded-batched path: the stats reproduce direct K-shard simulator
  // runs exactly, and stay put when the outer thread count changes.
  auto rng = support::Xoshiro256StarStar(77);
  const graph::Graph g = graph::gnp(120, 0.05, rng);
  harness::TrialConfig cfg = statistical_sweep_config();
  cfg.shards = 2;
  const auto graphs = [&](support::Xoshiro256StarStar&) { return g; };
  const auto protocols = [] { return std::make_unique<mis::LocalFeedbackMis>(); };

  const support::RunningStats expected = expected_sharded_batched_rounds(g, cfg, 2);
  const harness::TrialStats stats = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_EQ(stats.trials, cfg.trials);
  EXPECT_EQ(stats.terminated, cfg.trials);
  EXPECT_EQ(stats.valid, cfg.trials);
  EXPECT_DOUBLE_EQ(stats.rounds.mean(), expected.mean());

  cfg.threads = 3;
  const harness::TrialStats threaded = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_DOUBLE_EQ(threaded.rounds.mean(), expected.mean());
}

TEST(ShardedBatch, HarnessAutoSelectsShardedBatchedAboveNodeThreshold) {
  // Auto mode (shards = 0) engages sharded-batched at K = threads once the
  // shared graph clears auto_shard_min_nodes; below the threshold, and at
  // shards = 1, the sweep must fall back to the (unsharded) batched
  // statistical path bit-for-bit.
  auto rng = support::Xoshiro256StarStar(78);
  const graph::Graph g = graph::gnp(120, 0.05, rng);
  harness::TrialConfig cfg = statistical_sweep_config();
  cfg.threads = 3;
  cfg.auto_shard_min_nodes = 1;
  const auto graphs = [&](support::Xoshiro256StarStar&) { return g; };
  const auto protocols = [] { return std::make_unique<mis::LocalFeedbackMis>(); };

  const support::RunningStats sharded = expected_sharded_batched_rounds(g, cfg, 3);
  const harness::TrialStats stats = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_EQ(stats.trials, cfg.trials);
  EXPECT_DOUBLE_EQ(stats.rounds.mean(), sharded.mean());

  const support::RunningStats batched = expected_batched_rounds(g, cfg);
  cfg.auto_shard_min_nodes = std::size_t{1} << 18;  // the default: 120 nodes is tiny
  const harness::TrialStats below = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_DOUBLE_EQ(below.rounds.mean(), batched.mean());

  cfg.auto_shard_min_nodes = 1;
  cfg.shards = 1;  // never shard
  const harness::TrialStats never = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_DOUBLE_EQ(never.rounds.mean(), batched.mean());
}

TEST(ShardedBatch, HarnessShardedBatchedJournalKeysOnShardCount) {
  // The shard count changes the statistical sample, so a journal written
  // at one K must be rejected whole when resumed at another — the resumed
  // sweep recomputes from scratch and still lands on the new K's numbers.
  auto rng = support::Xoshiro256StarStar(79);
  const graph::Graph g = graph::gnp(100, 0.05, rng);
  harness::TrialConfig cfg = statistical_sweep_config();
  cfg.shards = 2;
  cfg.journal_path = testing::TempDir() + "/sharded_batch_resume.journal";
  const auto graphs = [&](support::Xoshiro256StarStar&) { return g; };
  const auto protocols = [] { return std::make_unique<mis::LocalFeedbackMis>(); };
  std::remove(cfg.journal_path.c_str());

  const harness::TrialStats first = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_EQ(first.trials, cfg.trials);

  cfg.shards = 4;
  cfg.resume = true;
  const harness::TrialStats resumed = harness::run_beep_trials(graphs, protocols, cfg);
  EXPECT_EQ(resumed.resumed_trials, 0u);
  EXPECT_FALSE(resumed.resume_discarded_reason.empty());
  const support::RunningStats expected = expected_sharded_batched_rounds(g, cfg, 4);
  EXPECT_DOUBLE_EQ(resumed.rounds.mean(), expected.mean());
  std::remove(cfg.journal_path.c_str());
}

}  // namespace
}  // namespace beepmis
