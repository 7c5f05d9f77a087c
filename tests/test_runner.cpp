#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/stats_io.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/luby.hpp"
#include "mis/pure_beep.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/scenario.hpp"
#include "sim/sharded_batch.hpp"

namespace beepmis::harness {
namespace {

GraphFactory small_gnp() {
  return [](support::Xoshiro256StarStar& rng) { return graph::gnp(40, 0.5, rng); };
}

BeepProtocolFactory local_feedback() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

TEST(Runner, RunsRequestedTrials) {
  TrialConfig config;
  config.trials = 10;
  config.threads = 2;
  const TrialStats stats = run_beep_trials(small_gnp(), local_feedback(), config);
  EXPECT_EQ(stats.trials, 10u);
  EXPECT_EQ(stats.terminated, 10u);
  EXPECT_EQ(stats.valid, 10u);
  EXPECT_EQ(stats.rounds.count(), 10u);
  EXPECT_GT(stats.rounds.mean(), 0.0);
  EXPECT_GT(stats.mis_size.mean(), 0.0);
}

TEST(Runner, DeterministicAcrossThreadCounts) {
  TrialConfig one;
  one.trials = 12;
  one.base_seed = 777;
  one.threads = 1;
  TrialConfig many = one;
  many.threads = 8;
  const TrialStats a = run_beep_trials(small_gnp(), local_feedback(), one);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), many);
  EXPECT_DOUBLE_EQ(a.rounds.mean(), b.rounds.mean());
  EXPECT_DOUBLE_EQ(a.rounds.variance(), b.rounds.variance());
  EXPECT_DOUBLE_EQ(a.beeps_per_node.mean(), b.beeps_per_node.mean());
  EXPECT_DOUBLE_EQ(a.mis_size.mean(), b.mis_size.mean());
}

TEST(Runner, DifferentSeedsGiveDifferentResults) {
  TrialConfig a_config;
  a_config.trials = 5;
  a_config.base_seed = 1;
  TrialConfig b_config = a_config;
  b_config.base_seed = 2;
  const TrialStats a = run_beep_trials(small_gnp(), local_feedback(), a_config);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), b_config);
  EXPECT_NE(a.rounds.mean(), b.rounds.mean());
}

void expect_identical_stats(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.independence_violations, b.independence_violations);
  EXPECT_EQ(a.uncovered_nodes, b.uncovered_nodes);
  const auto expect_identical = [](const support::RunningStats& x,
                                   const support::RunningStats& y) {
    EXPECT_EQ(x.count(), y.count());
    EXPECT_DOUBLE_EQ(x.mean(), y.mean());
    EXPECT_DOUBLE_EQ(x.variance(), y.variance());
    EXPECT_DOUBLE_EQ(x.min(), y.min());
    EXPECT_DOUBLE_EQ(x.max(), y.max());
  };
  expect_identical(a.rounds, b.rounds);
  expect_identical(a.beeps_per_node, b.beeps_per_node);
  expect_identical(a.max_beeps_any_node, b.max_beeps_any_node);
  expect_identical(a.mis_size, b.mis_size);
  expect_identical(a.message_bits, b.message_bits);
}

TEST(Runner, IdenticalStatsOneVsFourThreads) {
  // Full TrialStats identity across thread counts, under a config that
  // exercises every frontier path in the rewritten core (loss, keep-alive)
  // while each worker reuses one simulator across its trials.
  TrialConfig one;
  one.trials = 16;
  one.base_seed = 0xfeedbeef;
  one.threads = 1;
  one.sim.beep_loss_probability = 0.2;
  one.sim.mis_keepalive = true;
  one.sim.max_rounds = 500;
  TrialConfig four = one;
  four.threads = 4;
  const TrialStats a = run_beep_trials(small_gnp(), local_feedback(), one);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), four);
  expect_identical_stats(a, b);
}

TEST(Runner, IdenticalLocalStatsOneVsFourThreads) {
  TrialConfig one;
  one.trials = 12;
  one.base_seed = 31337;
  one.threads = 1;
  TrialConfig four = one;
  four.threads = 4;
  const LocalProtocolFactory luby = [] { return std::make_unique<mis::LubyMis>(); };
  const TrialStats a = run_local_trials(small_gnp(), luby, one);
  const TrialStats b = run_local_trials(small_gnp(), luby, four);
  expect_identical_stats(a, b);
}

TEST(Runner, SharedGraphReusesOneGraph) {
  // With shared_graph, MIS sizes on a clique are 1 in every trial.
  TrialConfig config;
  config.trials = 8;
  config.shared_graph = true;
  const GraphFactory clique = [](support::Xoshiro256StarStar&) {
    return graph::complete(15);
  };
  const TrialStats stats = run_beep_trials(clique, local_feedback(), config);
  EXPECT_DOUBLE_EQ(stats.mis_size.mean(), 1.0);
  EXPECT_DOUBLE_EQ(stats.mis_size.stddev(), 0.0);
}

TEST(Runner, LocalModelTrialsCollectMessageBits) {
  TrialConfig config;
  config.trials = 6;
  const LocalProtocolFactory luby = [] { return std::make_unique<mis::LubyMis>(); };
  const TrialStats stats = run_local_trials(small_gnp(), luby, config);
  EXPECT_EQ(stats.trials, 6u);
  EXPECT_EQ(stats.valid, 6u);
  EXPECT_GT(stats.message_bits.mean(), 0.0);
}

TEST(Runner, FaultySimConfigPropagates) {
  TrialConfig config;
  config.trials = 5;
  config.sim.beep_loss_probability = 0.4;
  config.sim.max_rounds = 300;
  const TrialStats stats = run_beep_trials(small_gnp(), local_feedback(), config);
  EXPECT_EQ(stats.trials, 5u);
  // With heavy loss at least the counters must be self-consistent.
  EXPECT_LE(stats.valid, stats.trials);
}

TEST(Runner, SingleTrialWorks) {
  TrialConfig config;
  config.trials = 1;
  const TrialStats stats = run_beep_trials(small_gnp(), local_feedback(), config);
  EXPECT_EQ(stats.trials, 1u);
  EXPECT_EQ(stats.rounds.count(), 1u);
}

TEST(TrialStats, MergeAccumulates) {
  TrialConfig config;
  config.trials = 4;
  TrialStats a = run_beep_trials(small_gnp(), local_feedback(), config);
  const TrialStats b = run_beep_trials(small_gnp(), local_feedback(), config);
  const std::size_t before = a.trials;
  a.merge(b);
  EXPECT_EQ(a.trials, before + b.trials);
  EXPECT_EQ(a.rounds.count(), 8u);
}

// --- plane-native batch records vs the RunResult path ----------------------

std::string stats_core(const TrialStats& s) {
  std::ostringstream out;
  statsio::encode_stats_core(out, s);
  return out.str();
}

/// Reference stats for a batched sweep built the way a RunResult consumer
/// builds them: every batch through the simulator's public run() overload,
/// each lane's RunResult through verify_mis_run and a max-beep scan,
/// aggregated one checkpoint chunk at a time and merged in chunk order.
std::string replay_stats_core(const graph::Graph& g, const TrialConfig& config) {
  const std::size_t chunk_size = effective_checkpoint_interval(config.checkpoint_interval);
  const support::SeedSequence root(config.base_seed);
  mis::LocalFeedbackMis scalar_protocol;
  const std::unique_ptr<sim::BatchProtocol> protocol =
      scalar_protocol.make_batch_protocol(config.rng_mode);
  sim::BatchSimulator batched(config.sim, config.rng_mode);
  std::unique_ptr<sim::ShardedBatchSimulator> sharded;
  if (config.shards >= 2) {
    sharded = std::make_unique<sim::ShardedBatchSimulator>(g, config.shards, config.sim,
                                                           config.rng_mode);
  }
  TrialStats total, chunk;
  for (std::size_t first = 0; first < config.trials; first += sim::kMaxBatchLanes) {
    const std::size_t last = std::min(first + sim::kMaxBatchLanes, config.trials);
    const unsigned lanes = static_cast<unsigned>(last - first);
    std::vector<sim::RunResult> results;
    if (sharded) {
      results = sharded->run(*protocol, root.child(first).child(1).generator(), lanes);
    } else if (config.rng_mode == sim::BatchRngMode::kStatisticalLanes) {
      results = batched.run(g, *protocol, root.child(first).child(1).generator(), lanes);
    } else {
      std::vector<support::Xoshiro256StarStar> rngs;
      for (std::size_t t = first; t < last; ++t) {
        rngs.push_back(root.child(t).child(1).generator());
      }
      results = batched.run(g, *protocol, std::move(rngs));
    }
    for (const sim::RunResult& r : results) {
      const mis::VerificationReport report = mis::verify_mis_run(g, r);
      std::uint32_t max_beeps = 0;
      for (const std::uint32_t b : r.beep_counts) max_beeps = std::max(max_beeps, b);
      ++chunk.attempted;
      ++chunk.trials;
      chunk.rounds.push(static_cast<double>(r.rounds));
      chunk.beeps_per_node.push(r.mean_beeps_per_node());
      chunk.max_beeps_any_node.push(static_cast<double>(max_beeps));
      chunk.mis_size.push(static_cast<double>(report.mis_size));
      chunk.message_bits.push(static_cast<double>(r.message_bits));
      if (r.terminated) ++chunk.terminated;
      if (report.valid()) ++chunk.valid;
      chunk.independence_violations += report.independence_violations;
      chunk.uncovered_nodes += report.uncovered_nodes;
    }
    if (last % chunk_size == 0 || last == config.trials) {
      total.merge(chunk);
      chunk = TrialStats{};
    }
  }
  return stats_core(total);
}

TEST(Runner, PlaneRecordsMatchRunResultReplayOnEveryBatchedRoute) {
  constexpr graph::NodeId kNodes = 300;
  const GraphFactory gnp = [](support::Xoshiro256StarStar& rng) {
    return graph::gnp(kNodes, 6.0 / kNodes, rng);
  };
  TrialConfig base;
  base.trials = 130;  // two full batches and a partial one
  base.base_seed = 0x91a4e;
  base.threads = 2;
  base.shared_graph = true;
  auto graph_rng = support::SeedSequence(base.base_seed).child(0).child(0).generator();
  const graph::Graph g = gnp(graph_rng);

  // Crashes at rounds 0..3 on a fifth of the nodes give crashed lanes; a
  // two-round cap leaves lanes unterminated (and so invalid).
  std::vector<std::uint32_t> crashes(kNodes, std::numeric_limits<std::uint32_t>::max());
  for (graph::NodeId v = 0; v < kNodes; v += 5) crashes[v] = v % 4;
  struct Sim {
    const char* name;
    sim::SimConfig config;
  };
  std::vector<Sim> sims(3);
  sims[0].name = "default";
  sims[1].name = "crash_round";
  sims[1].config.crash_round = crashes;
  sims[2].name = "max_rounds=2";
  sims[2].config.max_rounds = 2;

  struct Route {
    const char* name;
    sim::BatchRngMode mode;
    unsigned shards;
  };
  const Route routes[] = {
      {"batched scalar-order", sim::BatchRngMode::kScalarOrder, 1},
      {"batched statistical", sim::BatchRngMode::kStatisticalLanes, 1},
      {"sharded-batched k=2", sim::BatchRngMode::kStatisticalLanes, 2},
      {"sharded-batched k=3", sim::BatchRngMode::kStatisticalLanes, 3},
  };
  for (const Sim& s : sims) {
    for (const Route& route : routes) {
      TrialConfig config = base;
      config.sim = s.config;
      config.rng_mode = route.mode;
      config.shards = route.shards;
      const std::string what = std::string(route.name) + " / " + s.name;
      const TrialStats stats = run_beep_trials(gnp, local_feedback(), config);
      ASSERT_EQ(stats.trials, 130u) << what;
      EXPECT_EQ(stats_core(stats), replay_stats_core(g, config)) << what;
      if (s.config.max_rounds == 2) {
        EXPECT_LT(stats.terminated, stats.trials) << what;
        EXPECT_LT(stats.valid, stats.trials) << what;
      }
    }
  }
}

// --- the routing table ------------------------------------------------------

TEST(Runner, PlanSweepRoutesEveryRow) {
  using Engine = SweepPlan::Engine;
  constexpr auto kStatistical = sim::BatchRngMode::kStatisticalLanes;
  struct Row {
    const char* what;
    std::function<void(TrialConfig&)> set;
    Engine engine;
    unsigned shards;
    bool statistical;
    const char* reason;  ///< fallback-reason substring; "" = no fallback
    BeepProtocolFactory protocols = local_feedback();
  };
  const auto uniform_crash = [] {
    sim::UniformRandomCrashConfig c;
    c.fraction = 0.1;
    return std::make_unique<sim::UniformRandomCrash>(c);
  };
  const auto lossy_tail = [](TrialConfig& c) {
    c.sim.beep_loss_probability = 0.1;
    c.sim.mis_keepalive = true;
    c.sim.run_until_round = 20;
  };
  const Row rows[] = {
      {"static scenario is materialised", [&](TrialConfig& c) { c.scenario = uniform_crash; },
       Engine::kPlanes, 1, false, ""},
      {"static scenario on per-trial graphs runs live",
       [&](TrialConfig& c) {
         c.scenario = uniform_crash;
         c.shared_graph = false;
       },
       Engine::kScalar, 1, false, "runs live"},
      {"adaptive scenario",
       [](TrialConfig& c) {
         c.scenario = [] {
           return std::make_unique<sim::TargetMisMembers>(sim::TargetMisMembersConfig{});
         };
       },
       Engine::kScalar, 1, false, "adaptive"},
      {"dynamic-event scenario",
       [](TrialConfig& c) {
         c.scenario = [] { return std::make_unique<sim::ChurnStream>(sim::ChurnStreamConfig{}); };
       },
       Engine::kScalar, 1, false, "dynamic events"},
      {"recovery tracking",
       [](TrialConfig& c) {
         c.rng_mode = kStatistical;
         c.sim.track_recovery = true;
       },
       Engine::kScalar, 1, false, "recovery tracking"},
      {"auto statistical K>=2 on a large graph",
       [](TrialConfig& c) {
         c.rng_mode = kStatistical;
         c.auto_shard_min_nodes = 16;
       },
       Engine::kPlanes, 2, true, ""},
      {"explicit statistical K=3",
       [](TrialConfig& c) {
         c.rng_mode = kStatistical;
         c.shards = 3;
       },
       Engine::kPlanes, 3, true, ""},
      {"auto statistical on a small graph stays K=1",
       [](TrialConfig& c) { c.rng_mode = kStatistical; }, Engine::kPlanes, 1, true, ""},
      {"statistical K=1 when sharding is refused",
       [](TrialConfig& c) {
         c.rng_mode = kStatistical;
         c.shards = 2;
         c.allow_sharded = false;
       },
       Engine::kPlanes, 1, true, ""},
      {"explicit shards on one batch run scalar-order sharded",
       [](TrialConfig& c) {
         c.rng_mode = kStatistical;
         c.shards = 2;
         c.trials = 64;
       },
       Engine::kSharded, 2, false, ""},
      {"explicit scalar-order sharded",
       [](TrialConfig& c) {
         c.shards = 2;
         c.shared_graph = false;
       },
       Engine::kSharded, 2, false, ""},
      {"lone auto-sharded trial on a large graph",
       [](TrialConfig& c) {
         c.trials = 1;
         c.auto_shard_min_nodes = 16;
       },
       Engine::kSharded, 2, false, ""},
      {"lone trial on a small graph runs scalar, not as one lane",
       [](TrialConfig& c) { c.trials = 1; }, Engine::kScalar, 1, false, ""},
      {"scalar-order K=1 planes", [](TrialConfig&) {}, Engine::kPlanes, 1, false, ""},
      {"scalar-order lossy tail skips K=1 planes", lossy_tail, Engine::kScalar, 1, false, ""},
      {"statistical lossy tail keeps K=1 planes",
       [&](TrialConfig& c) {
         lossy_tail(c);
         c.rng_mode = kStatistical;
       },
       Engine::kPlanes, 1, true, ""},
      {"shards=1 never shards",
       [](TrialConfig& c) {
         c.rng_mode = kStatistical;
         c.shards = 1;
         c.auto_shard_min_nodes = 16;
       },
       Engine::kPlanes, 1, true, ""},
      {"per-trial graphs", [](TrialConfig& c) { c.shared_graph = false; }, Engine::kScalar, 1,
       false, ""},
      {"trace recording", [](TrialConfig& c) { c.sim.record_trace = true; }, Engine::kScalar, 1,
       false, ""},
      {"protocol without kernels",
       [](TrialConfig& c) { c.rng_mode = kStatistical; }, Engine::kScalar, 1, false, "",
       [] { return std::make_unique<mis::PureBeepLocalFeedbackMis>(); }},
  };
  for (const Row& row : rows) {
    TrialConfig config;
    config.trials = 130;
    config.threads = 2;
    config.shared_graph = true;
    row.set(config);
    const SweepPlan plan = plan_sweep(small_gnp(), row.protocols, config);
    EXPECT_EQ(plan.engine, row.engine) << row.what;
    EXPECT_EQ(plan.shards, row.shards) << row.what;
    EXPECT_EQ(plan.statistical, row.statistical) << row.what;
    if (*row.reason == '\0') {
      EXPECT_EQ(plan.fallback_reason, "") << row.what;
    } else {
      EXPECT_NE(plan.fallback_reason.find(row.reason), std::string::npos)
          << row.what << ": " << plan.fallback_reason;
    }
    // Trial 0's graph is built once, by the plan, whenever an engine reads it.
    EXPECT_EQ(plan.graph != nullptr, config.shared_graph || config.trials == 1) << row.what;
  }

  // Materialising folds the schedule into crash_round and drops the scenario.
  TrialConfig config;
  config.shared_graph = true;
  config.scenario = uniform_crash;
  const SweepPlan plan = plan_sweep(small_gnp(), local_feedback(), config);
  EXPECT_EQ(plan.config.scenario, nullptr);
  EXPECT_EQ(plan.config.sim.crash_round,
            sim::UniformRandomCrash({0.1}).materialize_crash_rounds(*plan.graph));
}

// A factory that hands back the caller's graph (as the CLI and the perfbench
// driver do) must not cost the sweep a second CSR: the plan's trial-0 graph
// shares the caller's storage on every route that reads it.
TEST(Runner, SharedGraphSweepKeepsOneCsr) {
  auto rng = support::Xoshiro256StarStar(7);
  const graph::Graph g = graph::gnp(200, 0.05, rng);
  const GraphFactory graphs = [g](support::Xoshiro256StarStar&) { return g; };
  for (const bool batched : {true, false}) {
    TrialConfig config;
    config.trials = 130;
    config.threads = 2;
    config.shared_graph = true;
    config.allow_batched = batched;
    const SweepPlan plan = plan_sweep(graphs, local_feedback(), config);
    EXPECT_EQ(plan.engine, batched ? SweepPlan::Engine::kPlanes : SweepPlan::Engine::kScalar);
    ASSERT_NE(plan.graph, nullptr);
    EXPECT_EQ(plan.graph->view().adjacency, g.view().adjacency) << "batched=" << batched;
  }
}

}  // namespace
}  // namespace beepmis::harness
