// Sharded single-run benchmark: scalar BeepSimulator vs ShardedSimulator
// across shard counts on one large instance — the "one huge graph, many
// cores" regime the trial-level parallelism cannot touch — plus the
// sharded × batched composition (ShardedBatchSimulator): 64 statistical
// lanes per exchange swept by K shards at once.
//
// Every scalar-order row is cross-checked bit-identical against the scalar
// run before timing (the sharded determinism contract), so the ratio
// compares two executions of the same computation.  The statistical rows
// (mode "statistical") have no scalar twin by design: every lane is
// validity-checked before timing, the k = 1 sharded-batched run is
// additionally cross-checked bit-identical to the batched statistical run
// (the engine-unification oracle), and their speedup column is *per-trial*
// — scalar wall time times the lane count over the batch wall time.
//
// Speedups depend on the machine: the per-run worker pool has one thread
// per shard, so rows report hardware_threads in the header — on a 1-core
// box the k > 1 rows measure pure overhead, not speedup.
//
// The statistical rows also report verify_ms: the best-of-reps wall time
// of mis::verify_mis_planes over the whole graph on one run's planes, the
// verification the sweep harness runs after every 64-lane batch.
//
// A build configured with -DBEEPMIS_PHASE_TIMERS=ON adds an optional
// "phase_ns" object to every row: CPU-nanoseconds per simulator phase
// (emit/deliver/react/faults) over that row's timing reps.
//
// Workloads:
//   converge        run to natural termination (~O(log n) rounds); the
//                   emit Bernoullis are carved serially but delivery and
//                   react parallelise.
//   keepalive-tail  mis_keepalive + run_until_round static tail (skipped
//                   above --tail-max-n: the cached keep-alive sweep is so
//                   cheap that barrier overhead dominates at huge n).
//
//   ./bench_shard [--n=1000000] [--avg-degree=8] [--shards=1,2,8]
//                 [--tail-rounds=500] [--tail-max-n=200000] [--reps=2]
//                 [--seed=2026] [--git-rev=<rev>] [--out=BENCH_shard.json]
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/verifier.hpp"
#include "sim/batch.hpp"
#include "sim/beep.hpp"
#include "sim/sharded.hpp"
#include "sim/sharded_batch.hpp"
#include "support/options.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace beepmis;

struct Measurement {
  std::string workload;
  std::string impl;
  std::string mode;  ///< draw-entropy mode: "scalar-order" or "statistical"
  std::size_t n = 0;
  unsigned shards = 0;
  unsigned lanes = 1;  ///< trials per timed run (64 for the batched rows)
  double wall_ms = 0.0;
  double speedup_vs_scalar = 1.0;
  /// Partition locality of the sharded rows (0 for the scalar row):
  /// edges crossing shard lines and nodes with out-of-shard neighbours —
  /// the cross-shard merge traffic the speedup has to survive.
  std::size_t cut_edges = 0;
  std::size_t boundary_nodes = 0;
  std::string phase;  ///< pre-rendered ", \"phase_ns\": {...}" or empty
  /// Statistical rows only (else negative, and not written): best-of-reps
  /// wall time of mis::verify_mis_planes over [0, n) on one run's planes,
  /// the per-batch verification the sweep harness runs after the row's
  /// simulation.  Report-only; the regression checker ignores it.
  double verify_ms = -1.0;
};

using benchcommon::best_wall_ms;

/// Parses --shards; exits with a clear message on junk (a non-numeric
/// token, 0, or a count the simulator would reject) rather than recording
/// a mislabeled row or dying in an uncaught std::stoul throw.
std::vector<unsigned> parse_shard_list(const std::string& csv) {
  std::vector<unsigned> shards;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    unsigned long value = 0;
    std::size_t consumed = 0;
    try {
      value = std::stoul(item, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != item.size() || value == 0 ||
        value > sim::ShardedSimulator::kMaxShards) {
      std::cerr << "--shards: '" << item << "' is not a shard count in [1, "
                << sim::ShardedSimulator::kMaxShards << "]\n";
      std::exit(1);
    }
    shards.push_back(static_cast<unsigned>(value));
  }
  if (shards.empty()) shards = {1, 2, 8};
  return shards;
}

void check_same(const sim::RunResult& a, const sim::RunResult& b, const char* what) {
  if (a.rounds != b.rounds || a.total_beeps != b.total_beeps ||
      a.terminated != b.terminated || a.status != b.status ||
      a.beep_counts != b.beep_counts) {
    std::cerr << "FATAL: scalar and sharded runs diverged (" << what << ")\n";
    std::exit(1);
  }
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("n", "1000000", "nodes in the sparse G(n, d/n) instance");
  options.add("avg-degree", "8", "average degree");
  options.add("shards", "1,2,8", "comma-separated shard counts to measure");
  options.add("tail-rounds", "500", "run_until_round for keepalive-tail");
  options.add("tail-max-n", "200000", "skip keepalive-tail above this n");
  options.add("reps", "2", "timing repetitions (best-of)");
  options.add("seed", "2026", "run seed");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_shard.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_shard");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_shard");
    return 0;
  }

  const auto n = static_cast<graph::NodeId>(options.get_int("n"));
  const double avg_degree = options.get_double("avg-degree");
  const std::vector<unsigned> shard_counts = parse_shard_list(options.get("shards"));
  const auto tail_rounds = static_cast<std::size_t>(options.get_int("tail-rounds"));
  const auto tail_max_n = static_cast<std::size_t>(options.get_int("tail-max-n"));
  const int reps = static_cast<int>(options.get_int("reps"));
  const std::uint64_t seed = options.get_u64("seed");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  auto graph_rng = support::Xoshiro256StarStar(seed);
  const graph::Graph g = graph::gnp(n, avg_degree / static_cast<double>(n), graph_rng);
  std::cout << "graph: " << g.describe() << ", hardware threads: " << hardware << "\n\n";

  std::vector<Measurement> results;
  support::Table table({"workload", "impl", "mode", "shards", "lanes", "cut edges", "wall ms",
                        "speedup", "verify ms"});
  const auto record = [&](const std::string& workload, const std::string& impl,
                          const char* mode, unsigned shards, unsigned lanes, double ms,
                          double speedup, std::size_t cut_edges, std::size_t boundary_nodes,
                          std::string phase, double verify_ms = -1.0) {
    results.push_back({workload, impl, mode, n, shards, lanes, ms, speedup, cut_edges,
                       boundary_nodes, std::move(phase), verify_ms});
    table.new_row()
        .cell(workload)
        .cell(impl)
        .cell(mode)
        .cell(static_cast<std::size_t>(shards))
        .cell(static_cast<std::size_t>(lanes))
        .cell(cut_edges)
        .cell(ms)
        .cell(speedup);
    if (verify_ms >= 0) {
      table.cell(verify_ms);
    } else {
      table.cell("-");
    }
  };
  /// Best-of-`reps` wall time of verifying `planes` over [0, n).
  const auto verify_ms_of = [&](const sim::LanePlanes& planes) {
    return best_wall_ms(reps, [&] { (void)mis::verify_mis_planes(g, planes, 0, n); });
  };
  const auto partition_stats = [](const graph::Partition& p, std::size_t& cut,
                                  std::size_t& boundary) {
    cut = p.cut_edges();
    boundary = 0;
    for (std::uint32_t s = 0; s < p.shard_count(); ++s) {
      boundary += p.boundary_nodes(s).size();
    }
  };
  /// Best-of-`reps` wall time for `run`, with the per-phase counters reset
  /// going in and snapshotted coming out (so phase_out covers exactly this
  /// row's reps — verification runs excluded).
  const auto timed = [&](int reps_for_row, std::string& phase_out, auto&& run) {
    support::reset_phase_timers();
    const double ms = best_wall_ms(reps_for_row, run);
    phase_out = benchcommon::phase_ns_fragment();
    return ms;
  };

  const auto measure_workload = [&](const std::string& workload,
                                    const sim::SimConfig& config) {
    sim::BeepSimulator scalar_sim(g, config);
    mis::LocalFeedbackMis scalar_protocol;
    const sim::RunResult reference =
        scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(seed));
    std::string phase;
    const double scalar_ms = timed(reps, phase, [&] {
      (void)scalar_sim.run(scalar_protocol, support::Xoshiro256StarStar(seed));
    });
    record(workload, "scalar", "scalar-order", 1, 1, scalar_ms, 1.0, 0, 0, phase);

    for (const unsigned k : shard_counts) {
      sim::ShardedSimulator sharded_sim(g, k, config);
      mis::LocalFeedbackMis protocol;
      check_same(reference, sharded_sim.run(protocol, support::Xoshiro256StarStar(seed)),
                 (workload + " k=" + std::to_string(k)).c_str());
      const double ms = timed(reps, phase, [&] {
        (void)sharded_sim.run(protocol, support::Xoshiro256StarStar(seed));
      });
      std::size_t cut = 0, boundary = 0;
      partition_stats(sharded_sim.partition(), cut, boundary);
      record(workload, "sharded-k" + std::to_string(k), "scalar-order", k, 1, ms,
             scalar_ms / ms, cut, boundary, phase);
    }

    // Sharded × batched: 64 statistical lanes per run, swept by K shards.
    // No scalar twin by design — every lane must verify as a valid MIS
    // (both workloads here are lossless and crash-free), and at k = 1 the
    // run must be bit-identical to the batched statistical run, lane for
    // lane.  The speedup column is per-trial: one batch carries 64 trials,
    // so the fair scalar cost is scalar_ms * lanes.
    if (config.beep_loss_probability == 0.0) {
      const unsigned lanes = sim::kMaxBatchLanes;
      const std::unique_ptr<sim::BatchProtocol> kernel =
          scalar_protocol.make_batch_protocol(sim::BatchRngMode::kStatisticalLanes);
      if (!kernel) {
        std::cerr << "FATAL: local-feedback lost its statistical kernel\n";
        return 1;
      }
      sim::BatchSimulator batch_sim(config, sim::BatchRngMode::kStatisticalLanes);
      const std::vector<sim::RunResult> batched_ref =
          batch_sim.run(g, *kernel, support::Xoshiro256StarStar(seed), lanes);
      for (const sim::RunResult& r : batched_ref) {
        if (!mis::is_valid_mis_run(g, r)) {
          std::cerr << "FATAL: batched statistical lane invalid (" << workload << ")\n";
          return 1;
        }
      }
      const double batch_ms = timed(reps, phase, [&] {
        (void)batch_sim.run(g, *kernel, support::Xoshiro256StarStar(seed), lanes);
      });
      const double batch_verify_ms = verify_ms_of(
          batch_sim.run_planes(g, *kernel, support::Xoshiro256StarStar(seed), lanes));
      record(workload, "batched", "statistical", 1, lanes, batch_ms,
             scalar_ms * lanes / batch_ms, 0, 0, phase, batch_verify_ms);

      for (const unsigned k : shard_counts) {
        sim::ShardedBatchSimulator sb_sim(g, k, config);
        const std::vector<sim::RunResult> sb_ref =
            sb_sim.run(*kernel, support::Xoshiro256StarStar(seed), lanes);
        for (std::size_t lane = 0; lane < sb_ref.size(); ++lane) {
          if (k == 1) {
            check_same(batched_ref[lane], sb_ref[lane],
                       (workload + " sharded-batched k=1 lane " + std::to_string(lane))
                           .c_str());
          } else if (!mis::is_valid_mis_run(g, sb_ref[lane])) {
            std::cerr << "FATAL: sharded-batched lane " << lane << " invalid ("
                      << workload << " k=" << k << ")\n";
            return 1;
          }
        }
        const double ms = timed(reps, phase, [&] {
          (void)sb_sim.run(*kernel, support::Xoshiro256StarStar(seed), lanes);
        });
        std::size_t cut = 0, boundary = 0;  // one shard builds no partition
        if (k > 1) partition_stats(sb_sim.partition(), cut, boundary);
        const double sb_verify_ms =
            verify_ms_of(sb_sim.run_planes(*kernel, support::Xoshiro256StarStar(seed), lanes));
        record(workload, "sharded-k" + std::to_string(k) + "-batched", "statistical", k,
               lanes, ms, scalar_ms * lanes / ms, cut, boundary, phase, sb_verify_ms);
      }
    }
    return 0;
  };

  sim::SimConfig converge;
  if (measure_workload("converge", converge) != 0) return 1;
  if (n <= tail_max_n) {
    sim::SimConfig keepalive_tail;
    keepalive_tail.mis_keepalive = true;
    keepalive_tail.run_until_round = tail_rounds;
    if (measure_workload("keepalive-tail", keepalive_tail) != 0) return 1;
  }

  std::cout << table.to_string() << '\n';

  benchcommon::JsonReport report;
  report.bench = "bench_shard";
  report.git_rev = options.get("git-rev");
  report.header = {
      {"seed", benchcommon::json_number(seed)},
      {"avg_degree", benchcommon::json_number(avg_degree)},
      {"hardware_threads", benchcommon::json_number(hardware)},
  };
  for (const Measurement& m : results) {
    std::ostringstream row;
    row << "{\"workload\": \"" << m.workload << "\", \"protocol\": \"local-feedback\""
        << ", \"impl\": \"" << m.impl << "\", \"mode\": \"" << m.mode
        << "\", \"n\": " << m.n << ", \"shards\": " << m.shards
        << ", \"lanes\": " << m.lanes << ", \"cut_edges\": " << m.cut_edges
        << ", \"boundary_nodes\": " << m.boundary_nodes
        << ", \"wall_ms\": " << m.wall_ms
        << ", \"speedup_vs_scalar\": " << m.speedup_vs_scalar;
    if (m.verify_ms >= 0) row << ", \"verify_ms\": " << m.verify_ms;
    row << m.phase << "}";
    report.rows.push_back(row.str());
  }
  return report.write_to(options.get("out"), std::cout) ? 0 : 1;
}
