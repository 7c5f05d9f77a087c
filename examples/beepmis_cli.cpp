// beepmis_cli: run any registered MIS algorithm on any registered graph
// family, with optional trials, fault injection, trace/DOT output.
//
//   ./beepmis_cli --graph=gnp --n=200 --p=0.5 --algorithm=local-feedback
//   ./beepmis_cli --graph=grid --rows=16 --cols=16 --trials=50 --csv
//   ./beepmis_cli --graph=gnp --algorithm=luby --trials=20
//   ./beepmis_cli --list
//
// Crash-safe sweep mode (any of --journal/--resume/--budget/--trial-timeout/
// --isolate-faults routes --trials through the checkpointing harness; see
// src/exp/README.md):
//   ./beepmis_cli --graph=gnp --n=400 --trials=512 --journal=sweep.journal
//   ./beepmis_cli ... --journal=sweep.journal --resume     # after a crash
//   ./beepmis_cli ... --budget=30                          # honest partial answer
//
// Serialized-spec mode (cli/sweep_spec.hpp — the same canonical line the
// beepmisd service accepts over its socket):
//   ./beepmis_cli --spec='sweepspec v3 graph=gnp graph.n=400 trials=512'
//   ./beepmis_cli --graph=gnp --trials=512 --print-spec    # flags -> canonical line
#include <bit>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "cli/registry.hpp"
#include "cli/sweep_spec.hpp"
#include "graph/io.hpp"
#include "graph/properties.hpp"
#include "mis/verifier.hpp"
#include "sim/sharded.hpp"
#include "support/hash.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"

namespace {

/// Machine-readable, bit-exact digest of the sweep aggregates: one line
/// per metric with the Welford state as raw bit patterns.  The
/// kill-and-resume CI script diffs these lines between an uninterrupted
/// run and an interrupted-then-resumed one — formatting floats would hide
/// low-bit divergence, so the bits are printed directly.
void print_stats_bits(const char* name, const beepmis::support::RunningStats& s) {
  using beepmis::support::to_hex_u64;
  const auto st = s.state();
  std::cout << "stats_bits " << name << ' ' << st.count << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.mean)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.m2)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.min)) << ' '
            << to_hex_u64(std::bit_cast<std::uint64_t>(st.max)) << '\n';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace beepmis;

  support::Options options;
  options.add("graph", "gnp", "graph family (see --list)");
  options.add("algorithm", "local-feedback", "algorithm (see --list)");
  options.add("n", "100", "node count");
  options.add("p", "0.5", "edge probability / geometric radius");
  options.add("rows", "10", "rows for lattice families");
  options.add("cols", "10", "cols for lattice families");
  options.add("k", "3", "clique-family parameter / BA attach edges");
  options.add("graph-file", "",
              "load the graph from this file (implies --graph=file; BMCSR "
              "memory-mapped CSR or edge-list text, sniffed by content)");
  options.add("save-graph", "",
              "write the requested graph as an on-disk BMCSR file to this path and "
              "exit (streaming, bounded memory, for streamable families)");
  options.add("graph-seed", "1", "graph generation seed");
  options.add("seed", "1", "algorithm seed (first trial; trial t uses seed + t)");
  options.add("trials", "1", "number of runs (same graph, different seeds)");
  options.add("loss", "0", "beep loss probability (beeping algorithms)");
  options.add("shards", "1",
              "run each trial across this many CSR shards / worker threads "
              "(shard-capable beeping algorithms; results are bit-identical)");
  options.add("shard-local", "false",
              "with --shards: each shard reads a reordered local adjacency copy "
              "(locality for mmap-backed graphs; results are bit-identical)");
  options.add("keepalive", "false", "MIS nodes keep beeping (wake-up support)");
  options.add("max-rounds", "1048576", "round cap");
  options.add("factor", "2.0", "local-feedback feedback factor");
  options.add("initial-p", "0.5", "local-feedback initial probability");
  options.add("scenario", "none", "fault adversary (see --list; beeping algorithms)");
  options.add("scenario-rate", "0.05",
              "scenario crash fraction / churn rate / crash probability");
  options.add("scenario-lo", "0", "scenario crash-window start round");
  options.add("scenario-hi", "0", "scenario crash-window end round (churn: 0 = open)");
  options.add("scenario-budget", "64", "scenario crash budget / target count");
  options.add("scenario-seed", "1", "scenario rng seed");
  options.add("run-until", "0", "keep simulating until at least this round");
  options.add("track-recovery", "false", "collect recovery-time SLA samples");
  options.add("journal", "",
              "crash-safe sweep mode: checkpoint per-chunk aggregates to this file "
              "(per-trial seeds come from the --seed seed tree, not seed + t)");
  options.add("resume", "false", "load --journal and skip its completed chunks");
  options.add("budget", "0",
              "sweep wall-clock budget in seconds (0 = unlimited); on expiry the "
              "sweep checkpoints and returns a truncated partial result (exit 3)");
  options.add("trial-timeout", "0", "per-trial-attempt timeout in seconds (0 = unlimited)");
  options.add("isolate-faults", "false",
              "retry (then quarantine) throwing trials instead of failing the sweep");
  options.add("max-retries", "2", "extra attempts per failing trial (with --isolate-faults)");
  options.add("checkpoint-interval", "64", "trials per checkpoint chunk (rounded up to x64)");
  options.add("threads", "0", "sweep worker threads (0 = hardware concurrency)");
  options.add("spec", "",
              "run a serialized sweep request ('sweepspec v3 ...'); the complete "
              "request — the individual sweep flags above are ignored");
  options.add("print-spec", "false",
              "print the canonical serialized spec and fingerprint for the given "
              "flags (or --spec) instead of running");
  options.add("dot-out", "", "write DOT with highlighted MIS to this file (trial 0)");
  options.add("csv", "false", "print one CSV row per trial");
  options.add("list", "false", "list graph families and algorithms");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("beepmis_cli");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("beepmis_cli") << '\n'
              << cli::graph_help() << '\n'
              << cli::algorithm_help() << '\n'
              << cli::scenario_help();
    return 0;
  }
  if (options.get_bool("list")) {
    std::cout << cli::graph_help() << '\n' << cli::algorithm_help() << '\n'
              << cli::scenario_help();
    return 0;
  }

  // Every numeric flag is parsed strictly, over the range parse_sweep_spec
  // enforces for the matching spec key: a bad value exits 1 naming the
  // flag instead of aborting or wrapping through unsigned (--n=-3).
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
  const auto count = [&](const char* name, std::uint64_t lo, std::uint64_t hi) {
    return cli::parse_count_flag(std::string("--") + name, options.get(name), lo, hi);
  };
  const auto real = [&](const char* name, double lo, double hi) {
    return cli::parse_real_flag(std::string("--") + name, options.get(name), lo, hi);
  };
  cli::GraphSpec gspec;
  cli::AlgorithmSpec aspec;
  std::size_t trials = 0;
  std::uint64_t seed0 = 0;
  try {
    gspec.family = options.get("graph");
    gspec.n = static_cast<graph::NodeId>(count("n", 1, kU32Max));
    gspec.p = real("p", 0.0, 1.0);
    gspec.rows = static_cast<graph::NodeId>(count("rows", 1, kU32Max));
    gspec.cols = static_cast<graph::NodeId>(count("cols", 1, kU32Max));
    gspec.k = static_cast<graph::NodeId>(count("k", 1, kU32Max));
    gspec.seed = count("graph-seed", 0, kU64Max);
    if (const std::string graph_file = options.get("graph-file"); !graph_file.empty()) {
      gspec.family = "file";
      gspec.path = graph_file;
    }

    aspec.name = options.get("algorithm");
    aspec.sim.beep_loss_probability = real("loss", 0.0, 1.0);
    aspec.sim.mis_keepalive = options.get_bool("keepalive");
    aspec.sim.max_rounds = count("max-rounds", 1, kU64Max);
    aspec.local_sim.max_rounds = aspec.sim.max_rounds;
    aspec.factor = real("factor", std::nextafter(1.0, 2.0), 1e9);
    aspec.initial_p = real("initial-p", std::numeric_limits<double>::min(), 1.0);
    aspec.shards = static_cast<unsigned>(count("shards", 1, sim::ShardedSimulator::kMaxShards));
    aspec.sim.shard_local_adjacency = options.get_bool("shard-local");
    aspec.sim.run_until_round = count("run-until", 0, kU64Max);
    aspec.sim.track_recovery = options.get_bool("track-recovery");
    aspec.scenario.name = options.get("scenario");
    aspec.scenario.rate = real("scenario-rate", 0.0, 1e9);
    aspec.scenario.round_lo = static_cast<std::uint32_t>(count("scenario-lo", 0, kU32Max));
    aspec.scenario.round_hi = static_cast<std::uint32_t>(count("scenario-hi", 0, kU32Max));
    aspec.scenario.budget = count("scenario-budget", 0, kU64Max);
    aspec.scenario.seed = count("scenario-seed", 0, kU64Max);

    trials = count("trials", 1, kU64Max);
    seed0 = count("seed", 0, kU64Max);
  } catch (const std::exception& e) {
    std::cerr << "beepmis_cli: " << e.what() << '\n';
    return 1;
  }

  // Save-graph mode: materialise the workload as an on-disk BMCSR file and
  // exit.  Streamable families (and edge-list text inputs) go through the
  // bounded-memory streaming writer; the rest build in RAM first.
  if (const std::string save_path = options.get("save-graph"); !save_path.empty()) {
    try {
      try {
        const cli::GraphStream gs = cli::make_graph_stream(gspec);
        const graph::StreamCsrStats stats =
            graph::write_csr_file_streaming(gs.node_count, gs.stream, save_path);
        std::cout << "saved " << save_path << ": n=" << gs.node_count
                  << " adjacency=" << stats.adjacency_count << " (streamed, "
                  << stats.stream_passes << " passes)\n";
      } catch (const std::invalid_argument&) {
        const graph::Graph built = cli::make_graph(gspec);
        graph::write_csr_file(built, save_path);
        std::cout << "saved " << save_path << ": " << built.describe() << " (in-RAM build)\n";
      }
      return 0;
    } catch (const std::exception& e) {
      std::cerr << "beepmis_cli: --save-graph: " << e.what() << '\n';
      return 1;
    }
  }

  // Crash-safe sweep mode: any durability/robustness flag — or a serialized
  // spec — routes the trial loop through the checkpointing harness instead
  // of the legacy loop.
  const std::string spec_text = options.get("spec");
  const bool harness_mode = !spec_text.empty() || options.get_bool("print-spec") ||
                            !options.get("journal").empty() || options.get_bool("resume") ||
                            options.get("budget") != "0" ||
                            options.get("trial-timeout") != "0" ||
                            options.get_bool("isolate-faults");
  if (harness_mode) {
    try {
      cli::SweepSpec spec;
      if (!spec_text.empty()) {
        spec = cli::parse_sweep_spec(spec_text);
      } else {
        spec.graph = gspec;
        spec.algorithm = aspec;
        spec.trials = trials;
        spec.base_seed = seed0;
        spec.threads = static_cast<unsigned>(count("threads", 0, kU32Max));
        spec.journal_path = options.get("journal");
        spec.resume = options.get_bool("resume");
        spec.budget_seconds = cli::parse_seconds_flag("--budget", options.get("budget"));
        spec.trial_timeout_seconds =
            cli::parse_seconds_flag("--trial-timeout", options.get("trial-timeout"));
        spec.isolate_faults = options.get_bool("isolate-faults");
        spec.max_retries = static_cast<unsigned>(count("max-retries", 0, 1000));
        spec.checkpoint_interval = count("checkpoint-interval", 1, kU64Max);
      }
      if (options.get_bool("print-spec")) {
        std::cout << cli::format_sweep_spec(spec) << '\n'
                  << "fingerprint " << support::to_hex_u64(cli::sweep_fingerprint(spec))
                  << '\n';
        return 0;
      }

      const harness::TrialStats stats = cli::run_sweep(spec);

      if (!stats.resume_discarded_reason.empty()) {
        std::cout << "journal rejected: " << stats.resume_discarded_reason << '\n';
      }
      std::cout << "sweep: requested " << stats.requested_trials << ", completed "
                << stats.trials << ", attempted " << stats.attempted << ", quarantined "
                << stats.quarantined << ", retries " << stats.retries << ", resumed "
                << stats.resumed_trials << ", truncated " << (stats.truncated ? 1 : 0)
                << '\n';
      for (const harness::FailedTrial& f : stats.failed_trials) {
        std::cout << "quarantined trial " << f.trial << " after " << f.attempts
                  << " attempt(s): " << f.error << '\n';
      }
      const auto rounds_ci = harness::TrialStats::ci95(stats.rounds);
      std::cout << "rounds mean " << stats.rounds.mean() << " ci95 [" << rounds_ci.lo << ", "
                << rounds_ci.hi << "], MIS size " << stats.mis_size.mean() << ", valid "
                << stats.valid << "/" << stats.trials << '\n';
      print_stats_bits("rounds", stats.rounds);
      print_stats_bits("beeps_per_node", stats.beeps_per_node);
      print_stats_bits("max_beeps_any_node", stats.max_beeps_any_node);
      print_stats_bits("mis_size", stats.mis_size);
      print_stats_bits("message_bits", stats.message_bits);
      std::cout << "counts_exact " << stats.trials << ' ' << stats.terminated << ' '
                << stats.valid << ' ' << stats.independence_violations << ' '
                << stats.uncovered_nodes << '\n';

      // Exit codes: 0 complete-and-valid, 2 quarantined trials, 3 truncated
      // (partial but resumable), 1 invalid MIS results.
      if (stats.truncated) return 3;
      if (stats.quarantined > 0) return 2;
      return stats.valid == stats.trials ? 0 : 1;
    } catch (const std::exception& e) {
      std::cerr << "beepmis_cli: " << e.what() << '\n';
      return 1;
    }
  }

  // Legacy loop: the only mode that reads the graph flags' graph here
  // (spec and harness modes build theirs inside run_sweep, or none).
  graph::Graph g;
  try {
    g = cli::make_graph(gspec);
  } catch (const std::exception& e) {
    std::cerr << "beepmis_cli: " << e.what() << '\n';
    return 1;
  }

  const bool csv = options.get_bool("csv");
  if (!csv) {
    std::cout << g.describe() << ", max degree " << g.max_degree() << ", algorithm "
              << aspec.name << "\n";
  } else {
    std::cout << "trial,seed,rounds,terminated,valid,mis_size,beeps_per_node,message_bits\n";
  }

  support::RunningStats rounds, beeps, mis_size;
  std::size_t valid = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    aspec.seed = seed0 + t;
    sim::RunResult result;
    try {
      result = cli::run_algorithm(aspec, g);
    } catch (const std::exception& e) {
      std::cerr << "beepmis_cli: " << e.what() << '\n';
      return 1;
    }
    const mis::VerificationReport report = mis::verify_mis_run(g, result);
    rounds.push(static_cast<double>(result.rounds));
    beeps.push(result.mean_beeps_per_node());
    mis_size.push(static_cast<double>(report.mis_size));
    if (report.valid()) ++valid;

    if (csv) {
      std::cout << t << ',' << aspec.seed << ',' << result.rounds << ','
                << (result.terminated ? 1 : 0) << ',' << (report.valid() ? 1 : 0) << ','
                << report.mis_size << ',' << result.mean_beeps_per_node() << ','
                << result.message_bits << '\n';
    }

    if (t == 0) {
      if (const std::string dot = options.get("dot-out"); !dot.empty()) {
        std::ofstream out(dot);
        graph::write_dot(out, g, result.mis());
        out.close();
        if (!out) {
          std::cerr << "beepmis_cli: --dot-out: cannot write " << dot << '\n';
          return 1;
        }
      }
      if (!csv) std::cout << "trial 0: " << report.summary() << '\n';
    }
  }

  if (!csv) {
    std::cout << "over " << trials << " trial(s): rounds " << rounds.mean() << " +/- "
              << rounds.stddev() << ", beeps/node " << beeps.mean() << ", MIS size "
              << mis_size.mean() << ", valid " << valid << "/" << trials << '\n';
  }
  return valid == trials ? 0 : 1;
}
