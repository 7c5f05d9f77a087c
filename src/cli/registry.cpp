#include "cli/registry.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cli/sweep_spec.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/hash.hpp"
#include "mis/exact_feedback.hpp"
#include "mis/global_schedule.hpp"
#include "mis/mis.hpp"
#include "mis/pure_beep.hpp"
#include "mis/schedule.hpp"
#include "mis/self_healing.hpp"
#include "sim/sharded.hpp"

namespace beepmis::cli {

graph::Graph make_graph(const GraphSpec& spec) {
  auto rng = support::Xoshiro256StarStar(spec.seed);
  if (spec.family == "gnp") return graph::gnp(spec.n, spec.p, rng);
  if (spec.family == "complete") return graph::complete(spec.n);
  if (spec.family == "empty") return graph::empty_graph(spec.n);
  if (spec.family == "ring") return graph::ring(spec.n);
  if (spec.family == "path") return graph::path(spec.n);
  if (spec.family == "star") return graph::star(spec.n);
  if (spec.family == "grid") return graph::grid2d(spec.rows, spec.cols);
  if (spec.family == "hex") return graph::hex_grid(spec.rows, spec.cols);
  if (spec.family == "tree") return graph::random_tree(spec.n, rng);
  if (spec.family == "hypercube") {
    const auto d = static_cast<unsigned>(
        std::round(std::log2(std::max<double>(2.0, static_cast<double>(spec.n)))));
    return graph::hypercube(d);
  }
  if (spec.family == "geometric") return graph::random_geometric(spec.n, spec.p, rng).graph;
  if (spec.family == "ba") return graph::barabasi_albert(spec.n, spec.k, rng);
  if (spec.family == "clique-family") return graph::clique_family(spec.k, spec.k);
  if (spec.family == "caterpillar") return graph::caterpillar(spec.rows, spec.cols);
  if (spec.family == "bipartite") {
    return graph::random_bipartite(spec.n / 2, spec.n - spec.n / 2, spec.p, rng);
  }
  if (spec.family == "file") {
    if (spec.path.empty()) {
      throw std::invalid_argument("graph family 'file' needs a path (--graph-file)");
    }
    return graph::load_graph_file(spec.path);
  }
  throw std::invalid_argument("unknown graph family: " + spec.family);
}

std::vector<std::string> graph_families() {
  return {"ba",   "bipartite", "caterpillar", "clique-family", "complete", "empty",
          "file", "geometric", "gnp",         "grid",          "hex",      "hypercube",
          "path", "ring",      "star",        "tree"};
}

GraphStream make_graph_stream(const GraphSpec& spec) {
  const auto hypercube_dim = [](graph::NodeId n) {
    return static_cast<unsigned>(
        std::round(std::log2(std::max<double>(2.0, static_cast<double>(n)))));
  };
  if (spec.family == "gnp") return {spec.n, graph::gnp_edge_stream(spec.n, spec.p, spec.seed)};
  if (spec.family == "complete") return {spec.n, graph::complete_edge_stream(spec.n)};
  if (spec.family == "empty") return {spec.n, graph::empty_edge_stream()};
  if (spec.family == "ring") return {spec.n, graph::ring_edge_stream(spec.n)};
  if (spec.family == "path") return {spec.n, graph::path_edge_stream(spec.n)};
  if (spec.family == "star") return {spec.n, graph::star_edge_stream(spec.n)};
  if (spec.family == "grid") {
    auto stream = graph::grid2d_edge_stream(spec.rows, spec.cols);  // validates size
    return {static_cast<graph::NodeId>(static_cast<std::uint64_t>(spec.rows) * spec.cols),
            std::move(stream)};
  }
  if (spec.family == "hex") {
    auto stream = graph::hex_grid_edge_stream(spec.rows, spec.cols);  // validates size
    return {static_cast<graph::NodeId>(static_cast<std::uint64_t>(spec.rows) * spec.cols),
            std::move(stream)};
  }
  if (spec.family == "hypercube") {
    const unsigned d = hypercube_dim(spec.n);
    return {static_cast<graph::NodeId>(1) << d, graph::hypercube_edge_stream(d)};
  }
  if (spec.family == "clique-family") {
    return {graph::clique_family_node_count(spec.k, spec.k),
            graph::clique_family_edge_stream(spec.k, spec.k)};
  }
  if (spec.family == "caterpillar") {
    auto stream = graph::caterpillar_edge_stream(spec.rows, spec.cols);  // validates size
    return {static_cast<graph::NodeId>(static_cast<std::uint64_t>(spec.rows) *
                                       (1 + static_cast<std::uint64_t>(spec.cols))),
            std::move(stream)};
  }
  if (spec.family == "bipartite") {
    return {spec.n, graph::random_bipartite_edge_stream(spec.n / 2, spec.n - spec.n / 2,
                                                        spec.p, spec.seed)};
  }
  if (spec.family == "file") {
    if (spec.path.empty()) {
      throw std::invalid_argument("graph family 'file' needs a path (--graph-file)");
    }
    if (graph::is_csr_file(spec.path)) {
      throw std::invalid_argument(
          "make_graph_stream: " + spec.path + " is already a BMCSR container");
    }
    return {graph::read_edge_list_node_count(spec.path),
            graph::edge_list_file_stream(spec.path)};
  }
  if (spec.family == "tree" || spec.family == "ba" || spec.family == "geometric") {
    throw std::invalid_argument(
        "graph family '" + spec.family +
        "' has no bounded-memory edge stream (its enumeration needs O(n) state); "
        "build it in RAM and write_csr_file instead");
  }
  throw std::invalid_argument("unknown graph family: " + spec.family);
}

std::string graph_help() {
  return "graph families:\n"
         "  gnp            G(n, p)                      (--n, --p, --graph-seed)\n"
         "  geometric      random geometric, radius p   (--n, --p, --graph-seed)\n"
         "  tree           uniform random tree          (--n, --graph-seed)\n"
         "  ba             Barabasi-Albert, k edges     (--n, --k, --graph-seed)\n"
         "  bipartite      random bipartite, prob p     (--n, --p, --graph-seed)\n"
         "  complete/empty/ring/path/star               (--n)\n"
         "  grid/hex       lattice                      (--rows, --cols)\n"
         "  caterpillar    spine rows, cols legs each   (--rows, --cols)\n"
         "  hypercube      dimension round(log2 n)      (--n)\n"
         "  clique-family  Theorem 1 family, param k    (--k)\n"
         "  file           load a graph file            (--graph-file; BMCSR\n"
         "                 memory-mapped CSR or edge-list text, content-sniffed)\n";
}

std::shared_ptr<sim::FaultScenario> make_scenario(const ScenarioSpec& spec) {
  if (spec.name == "none") return nullptr;
  if (spec.name == "uniform-crash") {
    return std::make_shared<sim::UniformRandomCrash>(sim::UniformRandomCrashConfig{
        spec.rate, spec.round_lo, spec.round_hi, spec.seed});
  }
  if (spec.name == "target-degree") {
    return std::make_shared<sim::TargetHighDegree>(sim::TargetHighDegreeConfig{
        spec.budget, spec.round_lo, spec.round_hi, spec.seed});
  }
  if (spec.name == "target-boundary") {
    return std::make_shared<sim::TargetBoundary>(sim::TargetBoundaryConfig{
        spec.shards, spec.rate, spec.round_lo, spec.round_hi, spec.seed});
  }
  if (spec.name == "target-mis") {
    return std::make_shared<sim::TargetMisMembers>(sim::TargetMisMembersConfig{
        spec.round_lo, spec.budget, spec.rate, spec.seed});
  }
  if (spec.name == "churn") {
    const std::uint32_t hi = spec.round_hi == 0 ? UINT32_MAX : spec.round_hi;
    return std::make_shared<sim::ChurnStream>(sim::ChurnStreamConfig{
        spec.rate, spec.revive_delay_mean, spec.round_lo, hi, spec.seed});
  }
  if (spec.name == "budgeted") {
    return std::make_shared<sim::BudgetedAdversary>(sim::BudgetedAdversaryConfig{
        spec.budget, spec.round_lo, /*crashes_per_round=*/1});
  }
  throw std::invalid_argument("unknown fault scenario: " + spec.name);
}

std::vector<std::string> scenario_names() {
  return {"budgeted",   "churn",          "none",      "target-boundary",
          "target-degree", "target-mis", "uniform-crash"};
}

std::string scenario_help() {
  return "fault scenarios (--scenario; all deterministic per --scenario-seed):\n"
         "  none             no injected faults (default)\n"
         "  uniform-crash    each node crashes w.p. rate in [round-lo, round-hi]\n"
         "  target-degree    crash the budget highest-degree nodes in the window\n"
         "  target-boundary  crash partition-boundary nodes w.p. rate (shards cuts)\n"
         "  target-mis       adaptive: crash new MIS members (prob rate, from\n"
         "                   round-lo, at most budget crashes)\n"
         "  churn            Poisson(rate) crashes/round, geometric revives\n"
         "  budgeted         adaptive: greedy worst-case member kills (budget)\n";
}

namespace {

/// The SimConfig a beeping algorithm runs under: the spec's sim knobs, with
/// keep-alive forced on for self-healing, which detects dominator death
/// through keep-alive silence and never reactivates without it.  The one
/// place both run_algorithm and run_sweep take their config from.
sim::SimConfig algorithm_sim_config(const AlgorithmSpec& spec) {
  sim::SimConfig config = spec.sim;
  if (spec.name == "self-healing") config.mis_keepalive = true;
  return config;
}

/// The single-run SimConfig: the algorithm's config plus the requested
/// fault scenario and the wall-clock budget.
sim::SimConfig beeping_sim_config(const AlgorithmSpec& spec) {
  sim::SimConfig config = algorithm_sim_config(spec);
  if (auto scenario = make_scenario(spec.scenario)) {
    if (spec.shards >= 2) {
      throw std::invalid_argument(
          "--scenario: fault scenarios run on the scalar simulator (drop --shards)");
    }
    config.scenario = std::move(scenario);
  }
  if (spec.budget_seconds > 0.0) {
    config.deadline_ns = std::make_shared<std::atomic<std::int64_t>>(
        sim::steady_now_ns() + static_cast<std::int64_t>(spec.budget_seconds * 1e9));
  }
  return config;
}

/// Fresh protocol instance for a beeping algorithm spec, or nullptr for
/// LOCAL-model algorithms (g parameterises the global-increasing
/// schedule).  Unknown names throw.
std::unique_ptr<sim::BeepProtocol> make_beep_protocol(const AlgorithmSpec& spec,
                                                      const graph::Graph& g) {
  if (spec.name == "local-feedback") {
    mis::LocalFeedbackConfig config;
    config.factor_low = config.factor_high = spec.factor;
    config.initial_p_low = config.initial_p_high = spec.initial_p;
    return std::make_unique<mis::LocalFeedbackMis>(config);
  }
  if (spec.name == "local-feedback-exact") return std::make_unique<mis::ExactLocalFeedbackMis>();
  if (spec.name == "self-healing") {
    mis::SelfHealingConfig config;
    config.base.factor_low = config.base.factor_high = spec.factor;
    config.base.initial_p_low = config.base.initial_p_high = spec.initial_p;
    return std::make_unique<mis::SelfHealingLocalFeedbackMis>(config);
  }
  if (spec.name == "pure-beep") {
    return std::make_unique<mis::PureBeepLocalFeedbackMis>(/*subslots=*/8, spec.factor);
  }
  if (spec.name == "global-sweep") {
    return std::make_unique<mis::GlobalScheduleMis>(mis::make_global_sweep_mis());
  }
  if (spec.name == "global-increasing") {
    // Parameterised like mis::run_global_increasing (mis.cpp).
    return std::make_unique<mis::GlobalScheduleMis>(
        mis::make_global_increasing_mis(g.max_degree(), g.node_count()));
  }
  if (spec.name == "luby" || spec.name == "luby-degree" || spec.name == "metivier" ||
      spec.name == "greedy-id") {
    return nullptr;  // LOCAL-model: no beeping protocol
  }
  throw std::invalid_argument("unknown algorithm: " + spec.name);
}

}  // namespace

sim::RunResult run_algorithm(const AlgorithmSpec& spec, const graph::Graph& g) {
  if (const std::unique_ptr<sim::BeepProtocol> protocol = make_beep_protocol(spec, g)) {
    // shards >= 2 runs ShardedSimulator, which draws in scalar order: the
    // result is bit-identical to the scalar run.
    if (spec.shards >= 2) {
      if (!protocol->shard_support().supported) {
        throw std::invalid_argument("--shards: " + spec.name +
                                    " has no sharded support (its draws fall outside "
                                    "the per-entry skeleton contract)");
      }
      sim::ShardedSimulator simulator(g, spec.shards, beeping_sim_config(spec));
      return simulator.run(*protocol, support::Xoshiro256StarStar(spec.seed));
    }
    sim::BeepSimulator simulator(g, beeping_sim_config(spec));
    return simulator.run(*protocol, support::Xoshiro256StarStar(spec.seed));
  }
  if (spec.shards >= 2) {
    throw std::invalid_argument("--shards is only supported by the shard-capable "
                                "beeping algorithms (local-feedback, "
                                "local-feedback-exact, self-healing, global-sweep, "
                                "global-increasing); got: " + spec.name);
  }
  if (spec.scenario.name != "none") {
    throw std::invalid_argument(
        "--scenario: fault scenarios are a beeping-model feature; got LOCAL-model "
        "algorithm: " + spec.name);
  }
  if (spec.name == "luby") return mis::run_luby(g, spec.seed, spec.local_sim);
  if (spec.name == "luby-degree") return mis::run_luby_degree(g, spec.seed, spec.local_sim);
  if (spec.name == "metivier") return mis::run_metivier(g, spec.seed, 0, spec.local_sim);
  return mis::run_greedy_id(g, spec.local_sim);  // the last LOCAL-model name
}

std::vector<std::string> algorithm_names() {
  return {"global-increasing",    "global-sweep", "greedy-id", "local-feedback",
          "local-feedback-exact", "luby",         "luby-degree", "metivier",
          "pure-beep",            "self-healing"};
}

std::string render_double(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double parse_real_flag(const std::string& flag, std::string_view value, double lo, double hi) {
  const auto bad = [&] {
    throw std::invalid_argument(flag + ": expected a finite number in [" + render_double(lo) +
                                ", " + render_double(hi) + "], got '" + std::string(value) +
                                "'");
  };
  if (value.empty()) bad();
  const std::string copy(value);  // strtod needs a terminator
  const char* begin = copy.c_str();
  char* end = nullptr;
  const double parsed = std::strtod(begin, &end);
  if (end != begin + copy.size()) bad();  // trailing garbage ("5s", "1,5")
  if (!std::isfinite(parsed) || parsed < lo || parsed > hi) bad();  // "nan", "inf", "-1"
  return parsed;
}

double parse_seconds_flag(const std::string& flag, const std::string& value) {
  return parse_real_flag(flag, value, 0.0, kMaxDuration);
}

std::uint64_t parse_count_flag(const std::string& flag, std::string_view value,
                               std::uint64_t lo, std::uint64_t hi) {
  const auto bad = [&] {
    throw std::invalid_argument(flag + ": expected an integer in [" + std::to_string(lo) +
                                ", " + std::to_string(hi) + "], got '" + std::string(value) +
                                "'");
  };
  if (value.empty() || value.size() > 20) bad();
  std::uint64_t parsed = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') bad();  // rejects "-3", "+3", "1e3", "7x"
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (parsed > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) bad();
    parsed = parsed * 10 + digit;
  }
  if (parsed < lo || parsed > hi) bad();
  return parsed;
}

std::uint64_t sweep_fingerprint(const SweepSpec& spec) {
  // The fingerprint IS the hash of the canonical request text: the serialized
  // form, the cache key and the journal key can never drift apart.  Golden
  // values are pinned in tests/test_sweep_spec.cpp — see the stability
  // contract on the declaration before changing anything here.
  support::StableHash h;
  h.update(format_sweep_request(spec));
  return h.digest();
}

harness::TrialStats run_sweep(const SweepSpec& spec) { return run_sweep(spec, SweepHooks{}); }

harness::TrialStats run_sweep(const SweepSpec& spec, const SweepHooks& hooks) {
  // Build the graph once up front: it is shared across trials (the CLI
  // sweep semantics) and parameterises the global-increasing schedule.
  auto g = std::make_shared<const graph::Graph>(make_graph(spec.graph));
  const AlgorithmSpec aspec = spec.algorithm;
  if (make_beep_protocol(aspec, *g) == nullptr) {
    throw std::invalid_argument(
        "run_sweep: crash-safe sweeps are a beeping-harness feature; got LOCAL-model "
        "algorithm: " + aspec.name);
  }

  harness::TrialConfig config;
  config.trials = spec.trials;
  config.base_seed = spec.base_seed;
  config.threads = spec.threads;
  config.shared_graph = true;
  config.shards = aspec.shards;  // AlgorithmSpec default 1 = never auto-shard
  config.sim = algorithm_sim_config(aspec);
  config.journal_path = spec.journal_path;
  config.resume = spec.resume;
  config.budget_seconds = spec.budget_seconds;
  config.trial_timeout_seconds = spec.trial_timeout_seconds;
  config.isolate_trial_faults = spec.isolate_faults;
  config.max_retries = spec.max_retries;
  config.checkpoint_interval = spec.checkpoint_interval;
  config.request_fingerprint = sweep_fingerprint(spec);
  config.on_checkpoint = hooks.on_checkpoint;
  config.stop_request = hooks.stop_request;
  if (aspec.scenario.name != "none") {
    const ScenarioSpec sspec = aspec.scenario;
    config.scenario = [sspec]() { return make_scenario(sspec)->clone(); };
  }

  const harness::GraphFactory graphs = [g](support::Xoshiro256StarStar&) { return *g; };
  const harness::BeepProtocolFactory protocols = [aspec, g]() {
    return make_beep_protocol(aspec, *g);
  };
  return harness::run_beep_trials(graphs, protocols, config);
}

std::string algorithm_help() {
  return "algorithms:\n"
         "  local-feedback     the paper's algorithm (beeping; --factor, --initial-p)\n"
         "  local-feedback-exact  Definition 1 with integer exponents (beeping)\n"
         "  self-healing       local feedback + silence-triggered reactivation\n"
         "                     (beeping; forces keepalive; pair with --scenario)\n"
         "  pure-beep          local feedback without sender collision detection\n"
         "  global-sweep       Afek et al. DISC'11 sweeping schedule (beeping)\n"
         "  global-increasing  Science'11-style increasing schedule (beeping)\n"
         "  luby               Luby's algorithm (LOCAL model, 64-bit messages)\n"
         "  luby-degree        Luby's original 1/(2d) marking variant (LOCAL model)\n"
         "  metivier           Metivier et al. bitwise MIS (LOCAL model, 1-bit)\n"
         "  greedy-id          deterministic id-minimum (LOCAL model, 1-bit)\n";
}

}  // namespace beepmis::cli
