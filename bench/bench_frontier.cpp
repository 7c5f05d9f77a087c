// Frontier-core micro-benchmark: seed-path (dense, Θ(n)-per-exchange)
// simulator vs the frontier-driven simulator on dense and sparse-tail
// workloads.
//
// The frontier rewrite makes per-exchange simulator cost O(active + beep
// deliveries) instead of Θ(n).  The regime where that matters is the long
// low-activity tail: after a local-feedback MIS converges (O(log n)
// rounds), maintenance experiments keep the clock running via
// run_until_round, and the pre-rewrite core paid three n-byte clears plus
// an n-byte copy per exchange regardless of activity.
//
// The dense baseline is sim::DenseReferenceSimulator — the seed simulator
// hot loop preserved verbatim in the library — driving the *real* protocol
// stack (mis::LocalFeedbackMis through the virtual BeepProtocol interface),
// so both rows run exactly the same protocol code and differ only in the
// simulator core.  Both cores are pure functions of (graph, seed) with
// identical RNG draw order, so the bench cross-checks bit-identical results
// before timing; a measurement of two different computations would be
// meaningless.
//
//   ./bench_frontier [--n=100000] [--avg-degree=8] [--tail-rounds=1500]
//                    [--reps=3] [--seed=2026] [--git-rev=<rev>]
//                    [--out=BENCH_frontier.json]
//
// Emits a JSON report with wall-ms and exchanges/sec per (workload,
// implementation, n) plus speedups, and records the benchmarked git
// revision (--git-rev, normally injected by scripts/bench_core.sh) and the
// compiler in the header, so future PRs have a perf trajectory to compare
// against.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "sim/beep.hpp"
#include "sim/dense_ref.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

struct Measurement {
  std::string workload;
  std::string impl;
  std::size_t n = 0;
  std::size_t rounds = 0;
  std::size_t exchanges = 0;
  double wall_ms = 0.0;
  double exchanges_per_sec = 0.0;
  double speedup_vs_dense = 1.0;
};

using benchcommon::best_wall_ms;

benchcommon::JsonReport make_report(const std::vector<Measurement>& results,
                                    std::uint64_t seed, double avg_degree,
                                    const std::string& git_rev) {
  benchcommon::JsonReport report;
  report.bench = "bench_frontier";
  report.git_rev = git_rev;
  report.header = {
      {"seed", benchcommon::json_number(seed)},
      {"avg_degree", benchcommon::json_number(avg_degree)},
      {"dense_impl",
       benchcommon::json_string("DenseReferenceSimulator + real LocalFeedbackMis stack")},
  };
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"workload\": \"" << m.workload << "\", \"impl\": \"" << m.impl
        << "\", \"n\": " << m.n << ", \"rounds\": " << m.rounds
        << ", \"exchanges\": " << m.exchanges << ", \"wall_ms\": " << m.wall_ms
        << ", \"exchanges_per_sec\": " << m.exchanges_per_sec
        << ", \"speedup_vs_dense\": " << m.speedup_vs_dense << "}";
    report.rows.push_back(row.str());
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "100000", "nodes in the sparse G(n, d/n) instance");
  options.add("avg-degree", "8", "average degree of the sparse graph");
  options.add("tail-rounds", "1500", "run_until_round for the sparse-tail workload");
  options.add("frontier-tail-scale", "100",
              "extra tail-rounds factor for the frontier tail-only timing "
              "(its tail is too cheap to resolve over tail-rounds alone)");
  options.add("reps", "3", "timing repetitions (best-of)");
  options.add("seed", "2026", "graph + run seed");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_frontier.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_frontier");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_frontier");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(options.get_int("n"));
  const double avg_degree = options.get_double("avg-degree");
  const auto tail_rounds = static_cast<std::size_t>(options.get_int("tail-rounds"));
  const auto frontier_tail_scale =
      static_cast<std::size_t>(options.get_int("frontier-tail-scale"));
  const int reps = static_cast<int>(options.get_int("reps"));
  const std::uint64_t seed = options.get_u64("seed");
  const std::string git_rev = options.get("git-rev");
  constexpr std::size_t kMaxRounds = 1u << 20;

  auto graph_rng = support::Xoshiro256StarStar(seed);
  const graph::Graph g = graph::gnp(n, avg_degree / static_cast<double>(n), graph_rng);
  std::cout << "graph: " << g.describe() << "\n\n";

  // Workloads: "dense" runs to natural termination (~O(log n) rounds, the
  // whole graph active at the start); "sparse-tail" keeps the clock running
  // for tail_rounds, long past convergence.  The difference between the two
  // — "tail-only" — isolates the low-activity regime where per-exchange
  // cost must not scale with n; it is the headline number.
  struct RunPair {
    sim::RunResult checked;
    double dense_ms = 0.0;
    double frontier_ms = 0.0;
  };
  struct Timed {
    sim::RunResult result;
    double ms = 0.0;
  };
  const auto run_config = [&](std::size_t run_until) {
    sim::SimConfig config;
    config.run_until_round = run_until;
    config.max_rounds = kMaxRounds;
    return config;
  };
  // Each timer makes one untimed run (its result, and warm scratch) and
  // then takes the best of `reps` identical runs.
  const auto time_dense = [&](std::size_t run_until) {
    sim::DenseReferenceSimulator dense_sim(g, run_config(run_until));
    mis::LocalFeedbackMis protocol;
    Timed t{dense_sim.run_dense(protocol, support::Xoshiro256StarStar(seed))};
    t.ms = best_wall_ms(reps, [&] {
      mis::LocalFeedbackMis p;
      (void)dense_sim.run_dense(p, support::Xoshiro256StarStar(seed));
    });
    return t;
  };
  sim::BeepSimulator frontier_sim(g);  // scratch reused across every timed run
  const auto time_frontier = [&](std::size_t run_until) {
    frontier_sim = sim::BeepSimulator(g, run_config(run_until));
    mis::LocalFeedbackMis protocol;
    Timed t{frontier_sim.run(protocol, support::Xoshiro256StarStar(seed))};
    t.ms = best_wall_ms(reps, [&] {
      mis::LocalFeedbackMis p;
      (void)frontier_sim.run(p, support::Xoshiro256StarStar(seed));
    });
    return t;
  };
  const auto measure = [&](std::size_t run_until) {
    const Timed dense = time_dense(run_until);
    const Timed frontier = time_frontier(run_until);
    // Same protocol stack, same RNG draw order: any divergence would make
    // the timing comparison meaningless.
    if (frontier.result.rounds != dense.result.rounds ||
        frontier.result.total_beeps != dense.result.total_beeps ||
        frontier.result.status != dense.result.status ||
        frontier.result.beep_counts != dense.result.beep_counts) {
      std::cerr << "FATAL: dense reference and frontier core diverged (rounds "
                << dense.result.rounds << " vs " << frontier.result.rounds << ", beeps "
                << dense.result.total_beeps << " vs " << frontier.result.total_beeps << ")\n";
      std::exit(1);
    }
    return RunPair{dense.result, dense.ms, frontier.ms};
  };

  const RunPair converge = measure(0);
  const RunPair tail = measure(tail_rounds);

  // Tail-only cost per implementation: subtract the converge-only run from
  // a longer tail run of that implementation, so that its own tail cost
  // dominates the subtraction rather than the converge phase's timing
  // noise, and compare per-exchange rates rather than raw wall times.  The
  // frontier tail is orders of magnitude cheaper per exchange and gets a
  // fixed proportionally longer tail (frontier_tail_scale).  The seed-dense
  // tail costs Θ(n) per exchange, so at small n tail_rounds alone leaves
  // it under a millisecond: its tail doubles until the tail-only time is
  // at least the converge run's and at least kMinDenseTailMs, since
  // best-of-reps timings on a shared host wander by tenths of a
  // millisecond.  Each row's wall_ms still refers to that row's own rounds.
  constexpr double kMinDenseTailMs = 5.0;
  Timed dense_long{tail.checked, tail.dense_ms};
  for (std::size_t rounds = tail_rounds;
       rounds > 0 && 2 * rounds <= kMaxRounds &&
       dense_long.ms - converge.dense_ms < std::max(converge.dense_ms, kMinDenseTailMs);) {
    rounds *= 2;
    dense_long = time_dense(rounds);
  }
  const std::size_t dense_tail_only_rounds = dense_long.result.rounds - converge.checked.rounds;
  const double dense_tail_ms = std::max(1e-3, dense_long.ms - converge.dense_ms);

  const Timed frontier_long = time_frontier(tail_rounds * frontier_tail_scale);
  const std::size_t frontier_tail_only_rounds =
      frontier_long.result.rounds - converge.checked.rounds;
  const double frontier_tail_ms = std::max(1e-3, frontier_long.ms - converge.frontier_ms);

  std::vector<Measurement> results;
  support::Table table(
      {"workload", "impl", "rounds", "wall ms", "exchanges/sec", "speedup"});
  const auto record = [&](const char* workload, const char* impl, std::size_t rounds,
                          double ms, double speedup) {
    Measurement m;
    m.workload = workload;
    m.impl = impl;
    m.n = n;
    m.rounds = rounds;
    m.exchanges = 2 * rounds;
    m.wall_ms = ms;
    m.exchanges_per_sec = static_cast<double>(m.exchanges) / (ms / 1000.0);
    m.speedup_vs_dense = speedup;
    results.push_back(m);
    table.new_row()
        .cell(workload)
        .cell(impl)
        .cell(rounds)
        .cell(ms)
        .cell(m.exchanges_per_sec)
        .cell(speedup);
  };

  record("dense", "seed-dense", converge.checked.rounds, converge.dense_ms, 1.0);
  record("dense", "frontier", converge.checked.rounds, converge.frontier_ms,
         converge.dense_ms / converge.frontier_ms);
  record("sparse-tail", "seed-dense", tail.checked.rounds, tail.dense_ms, 1.0);
  record("sparse-tail", "frontier", tail.checked.rounds, tail.frontier_ms,
         tail.dense_ms / tail.frontier_ms);
  const double dense_tail_rate =
      2.0 * static_cast<double>(dense_tail_only_rounds) / (dense_tail_ms / 1000.0);
  const double frontier_tail_rate =
      2.0 * static_cast<double>(frontier_tail_only_rounds) / (frontier_tail_ms / 1000.0);
  // Degenerate tail (e.g. --tail-rounds=0): no meaningful ratio, report 1.
  const double tail_speedup =
      (dense_tail_rate > 0.0 && frontier_tail_rate > 0.0)
          ? frontier_tail_rate / dense_tail_rate
          : 1.0;
  record("sparse-tail-only", "seed-dense", dense_tail_only_rounds, dense_tail_ms, 1.0);
  record("sparse-tail-only", "frontier", frontier_tail_only_rounds, frontier_tail_ms,
         tail_speedup);

  std::cout << table.to_string() << '\n';

  const benchcommon::JsonReport report = make_report(results, seed, avg_degree, git_rev);
  return report.write_to(options.get("out"), std::cout) ? 0 : 1;
}
