// Batched-lanes benchmark: per-trial scalar simulator vs the 64-lane
// BatchSimulator on shared-graph trial sweeps (the paper's methodology:
// every reported metric is an average over many independent seeds of the
// same random graph), across the whole batched protocol family.
//
// Both paths run the identical trial set — same shared graph, same
// per-trial seed tree as harness::run_beep_trials — and the bench verifies
// every per-trial RunResult is bit-identical before timing, so the
// trials/sec ratio compares two executions of the same computation.  The
// batched kernel comes from BeepProtocol::make_batch_protocol(), i.e. the
// exact wiring the trial harness uses.
//
// Protocol lanes (one scalar protocol + its batched kernel each):
//   local-feedback  the paper's Definition 1 (dyadic fast-path kernel)
//   global-sweep    Afek et al.'s globally scheduled probabilities
//   exact-feedback  the integer-exponent variant (integer-compare kernel)
//   healing         self-healing maintenance (reactivation in BatchContext)
//
// Workloads:
//   converge        run each trial to natural termination (~O(log n)
//                   rounds).  Batching wins on delivery (one CSR pass and
//                   one 8-byte OR per edge serve all 64 lanes) but every
//                   lane still draws its own per-node Bernoullis, so the
//                   speedup is bounded by that irreducible per-lane work.
//   keepalive-tail  mis_keepalive + run_until_round tail (the maintenance
//                   regime): the static tail collapses to one cached
//                   (listener, lane-mask) sweep for all lanes, the
//                   headline >= 10x.
//   healing-tail    (healing only) keep-alive + targeted crashes after
//                   convergence + run_until_round tail: the per-round
//                   healing scan serves 64 lanes per plane load where the
//                   scalar protocol scans all n nodes per trial.
//
// Each (workload, protocol) pair is measured in both draw-entropy modes:
// "scalar-order" (bit-identical lanes, cross-checked against the scalar
// runs before timing) and "statistical" (BatchRngMode::kStatisticalLanes:
// jump()-partitioned lane streams + bulk Bernoulli planes; lanes are
// validity-checked instead, since there is no scalar twin by design).
//
//   ./bench_batch [--n=10000] [--avg-degree=8] [--trials=64] [--reps=3]
//                 [--tail-rounds=500] [--seed=2026] [--git-rev=<rev>]
//                 [--out=BENCH_batch.json]
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "mis/verifier.hpp"
#include "sim/sharded_batch.hpp"
#include "sim/beep.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

struct Measurement {
  std::string workload;
  std::string protocol;
  std::string impl;
  std::string mode;  ///< draw-entropy mode: "scalar-order" or "statistical"
  std::size_t n = 0;
  std::size_t trials = 0;
  double wall_ms = 0.0;
  double trials_per_sec = 0.0;
  double speedup_vs_scalar = 1.0;
  std::string phase;  ///< pre-rendered ", \"phase_ns\": {...}" or empty
};

using benchcommon::best_wall_ms;

/// Per-trial run RNG, matching harness::run_beep_trials' seed tree.
support::Xoshiro256StarStar trial_rng(const support::SeedSequence& root, std::size_t trial) {
  return root.child(trial).child(1).generator();
}

benchcommon::JsonReport make_report(const std::vector<Measurement>& results,
                                    std::uint64_t seed, double avg_degree,
                                    const std::string& git_rev) {
  benchcommon::JsonReport report;
  report.bench = "bench_batch";
  report.git_rev = git_rev;
  report.header = {
      {"seed", benchcommon::json_number(seed)},
      {"avg_degree", benchcommon::json_number(avg_degree)},
      {"lanes", benchcommon::json_number(sim::kMaxBatchLanes)},
  };
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"workload\": \"" << m.workload << "\", \"protocol\": \"" << m.protocol
        << "\", \"impl\": \"" << m.impl << "\", \"mode\": \"" << m.mode
        << "\", \"n\": " << m.n
        << ", \"trials\": " << m.trials << ", \"wall_ms\": " << m.wall_ms
        << ", \"trials_per_sec\": " << m.trials_per_sec
        << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar << m.phase << "}";
    report.rows.push_back(row.str());
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "10000", "nodes in the shared sparse G(n, d/n) instance");
  options.add("avg-degree", "8", "average degree of the shared graph");
  options.add("trials", "64", "independent seeds per sweep");
  options.add("tail-rounds", "500", "run_until_round for the *-tail workloads");
  options.add("reps", "3", "timing repetitions (best-of)");
  options.add("seed", "2026", "base seed of the trial seed tree");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_batch.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_batch");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_batch");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(options.get_int("n"));
  const double avg_degree = options.get_double("avg-degree");
  const auto trials = static_cast<std::size_t>(options.get_int("trials"));
  const auto tail_rounds = static_cast<std::size_t>(options.get_int("tail-rounds"));
  const int reps = static_cast<int>(options.get_int("reps"));
  const std::uint64_t seed = options.get_u64("seed");
  const std::string git_rev = options.get("git-rev");

  const support::SeedSequence root(seed);
  auto graph_rng = root.child(0).child(0).generator();
  const graph::Graph g = graph::gnp(n, avg_degree / static_cast<double>(n), graph_rng);
  std::cout << "graph: " << g.describe() << ", trials: " << trials << "\n\n";

  std::vector<Measurement> results;
  support::Table table({"workload", "protocol", "impl", "mode", "trials", "wall ms",
                        "trials/sec", "speedup"});
  const auto record = [&](const std::string& workload, const std::string& protocol,
                          const char* impl, const char* mode, double ms,
                          double speedup, std::string phase = {}) {
    Measurement m;
    m.workload = workload;
    m.protocol = protocol;
    m.impl = impl;
    m.mode = mode;
    m.n = n;
    m.trials = trials;
    m.wall_ms = ms;
    m.trials_per_sec = static_cast<double>(trials) / (ms / 1000.0);
    m.speedup_vs_scalar = speedup;
    m.phase = std::move(phase);
    results.push_back(m);
    table.new_row()
        .cell(workload)
        .cell(protocol)
        .cell(impl)
        .cell(mode)
        .cell(trials)
        .cell(ms)
        .cell(m.trials_per_sec)
        .cell(speedup);
  };

  using ProtocolFactory = std::function<std::unique_ptr<sim::BeepProtocol>()>;
  const auto measure_workload = [&](const std::string& workload,
                                    const std::string& protocol_name,
                                    const sim::SimConfig& config,
                                    const ProtocolFactory& make_protocol) {
    // Scalar sweep: one simulator + protocol reused across trials, exactly
    // like one harness worker; the batched kernel comes from the scalar
    // protocol's own make_batch_protocol.
    sim::BeepSimulator scalar_sim(g, config);
    const std::unique_ptr<sim::BeepProtocol> scalar_protocol = make_protocol();
    sim::BatchSimulator batch_sim(config);
    const std::unique_ptr<sim::BatchProtocol> batch_protocol =
        scalar_protocol->make_batch_protocol();
    if (!batch_protocol) {
      std::cerr << "FATAL: protocol " << protocol_name << " has no batched kernel\n";
      std::exit(1);
    }

    // Cross-check every trial before timing: lane t of the batch must be
    // bit-identical to scalar trial t.
    {
      std::vector<support::Xoshiro256StarStar> rngs;
      for (std::size_t t = 0; t < trials; ++t) {
        if (rngs.size() == sim::kMaxBatchLanes) rngs.clear();
        rngs.push_back(trial_rng(root, t));
        const bool flush = rngs.size() == sim::kMaxBatchLanes || t + 1 == trials;
        if (!flush) continue;
        const std::size_t first = t + 1 - rngs.size();
        const std::vector<sim::RunResult> batch = batch_sim.run(g, *batch_protocol, rngs);
        for (std::size_t lane = 0; lane < batch.size(); ++lane) {
          const sim::RunResult scalar =
              scalar_sim.run(*scalar_protocol, trial_rng(root, first + lane));
          if (scalar.rounds != batch[lane].rounds ||
              scalar.total_beeps != batch[lane].total_beeps ||
              scalar.terminated != batch[lane].terminated ||
              scalar.status != batch[lane].status ||
              scalar.beep_counts != batch[lane].beep_counts) {
            std::cerr << "FATAL: scalar and batched runs diverged (workload " << workload
                      << ", protocol " << protocol_name << ", trial " << (first + lane)
                      << ")\n";
            std::exit(1);
          }
        }
      }
    }

    support::reset_phase_timers();
    const double scalar_ms = best_wall_ms(reps, [&] {
      for (std::size_t t = 0; t < trials; ++t) {
        (void)scalar_sim.run(*scalar_protocol, trial_rng(root, t));
      }
    });
    std::string scalar_phase = benchcommon::phase_ns_fragment();
    const double batch_ms = best_wall_ms(reps, [&] {
      for (std::size_t first = 0; first < trials; first += sim::kMaxBatchLanes) {
        const std::size_t last = std::min(first + sim::kMaxBatchLanes, trials);
        std::vector<support::Xoshiro256StarStar> rngs;
        rngs.reserve(last - first);
        for (std::size_t t = first; t < last; ++t) rngs.push_back(trial_rng(root, t));
        (void)batch_sim.run(g, *batch_protocol, std::move(rngs));
      }
    });
    std::string batch_phase = benchcommon::phase_ns_fragment();
    record(workload, protocol_name, "scalar", "scalar-order", scalar_ms, 1.0,
           std::move(scalar_phase));
    record(workload, protocol_name, "batched", "scalar-order", batch_ms,
           scalar_ms / batch_ms, std::move(batch_phase));

    // Statistical lanes: same trial count, one jump()-partitioned base
    // stream per 64-lane batch (the harness's seed tree), bulk-plane
    // draws.  No bit-identity to cross-check by design; instead every
    // lossless no-crash lane must verify as a valid MIS before timing
    // (loss can legitimately leave fate inconsistencies, and a crash near
    // the run_until cutoff can legitimately end a lane mid-heal, so those
    // lanes check termination only).
    sim::BatchSimulator stat_sim(config, sim::BatchRngMode::kStatisticalLanes);
    const std::unique_ptr<sim::BatchProtocol> stat_protocol =
        scalar_protocol->make_batch_protocol(sim::BatchRngMode::kStatisticalLanes);
    if (!stat_protocol) {
      std::cerr << "FATAL: protocol " << protocol_name << " has no statistical kernel\n";
      std::exit(1);
    }
    const bool lossless = config.beep_loss_probability == 0.0 && config.crash_round.empty();
    const auto stat_batches = [&](bool check) {
      for (std::size_t first = 0; first < trials; first += sim::kMaxBatchLanes) {
        const std::size_t last = std::min(first + sim::kMaxBatchLanes, trials);
        const std::vector<sim::RunResult> batch =
            stat_sim.run(g, *stat_protocol, trial_rng(root, first),
                         static_cast<unsigned>(last - first));
        if (!check) continue;
        for (std::size_t lane = 0; lane < batch.size(); ++lane) {
          const bool ok = lossless ? mis::is_valid_mis_run(g, batch[lane])
                                   : batch[lane].terminated;
          if (!ok) {
            std::cerr << "FATAL: statistical lane " << (first + lane)
                      << " produced an invalid run (workload " << workload
                      << ", protocol " << protocol_name << ")\n";
            std::exit(1);
          }
        }
      }
    };
    stat_batches(/*check=*/true);
    support::reset_phase_timers();
    const double stat_ms = best_wall_ms(reps, [&] { stat_batches(/*check=*/false); });
    record(workload, protocol_name, "batched", "statistical", stat_ms,
           scalar_ms / stat_ms, benchcommon::phase_ns_fragment());
  };

  const ProtocolFactory local_feedback = [] {
    return std::make_unique<mis::LocalFeedbackMis>();
  };
  const ProtocolFactory global_sweep = [] {
    return std::make_unique<mis::GlobalScheduleMis>(std::make_unique<mis::SweepSchedule>());
  };
  const ProtocolFactory exact_feedback = [] {
    return std::make_unique<mis::ExactLocalFeedbackMis>();
  };
  const ProtocolFactory healing = [] {
    return std::make_unique<mis::SelfHealingLocalFeedbackMis>();
  };

  sim::SimConfig converge;
  sim::SimConfig keepalive_tail;
  keepalive_tail.mis_keepalive = true;
  keepalive_tail.run_until_round = tail_rounds;
  // Maintenance scenario for the healing lane: a handful of spread-out
  // nodes fail after the initial MIS converges, so dominated neighbourhoods
  // go silent, reactivate and re-converge before the static tail.
  sim::SimConfig healing_tail = keepalive_tail;
  healing_tail.crash_round.assign(n, UINT32_MAX);
  for (unsigned i = 1; i <= 8; ++i) {
    healing_tail.crash_round[static_cast<graph::NodeId>(
        (static_cast<std::size_t>(i) * n) / 9)] = 14 + 2 * i;
  }

  // Lossy maintenance tail (the rows left open after the PR-3 sweep): with
  // beep loss every potential keep-alive delivery consumes its own
  // per-lane Bernoulli, so nothing can be cached and the batched win is
  // bounded by per-lane draw work — the honest counterpart to the cached
  // lossless tail.  A quarter-length tail: the regime is draw-dominated
  // and steady from the first tail round, so longer tails only multiply
  // bench wall-clock without changing the ratio.
  sim::SimConfig lossy_tail = keepalive_tail;
  lossy_tail.beep_loss_probability = 0.05;
  lossy_tail.run_until_round = std::max<std::size_t>(1, tail_rounds / 4);

  measure_workload("converge", "local-feedback", converge, local_feedback);
  measure_workload("converge", "global-sweep", converge, global_sweep);
  measure_workload("converge", "exact-feedback", converge, exact_feedback);
  measure_workload("keepalive-tail", "local-feedback", keepalive_tail, local_feedback);
  measure_workload("keepalive-tail", "global-sweep", keepalive_tail, global_sweep);
  measure_workload("keepalive-tail", "exact-feedback", keepalive_tail, exact_feedback);
  measure_workload("lossy-tail", "local-feedback", lossy_tail, local_feedback);
  measure_workload("healing-tail", "healing", healing_tail, healing);

  std::cout << table.to_string() << '\n';

  const benchcommon::JsonReport report = make_report(results, seed, avg_degree, git_rev);
  return report.write_to(options.get("out"), std::cout) ? 0 : 1;
}
