#include "exp/figures.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "graph/generators.hpp"
#include "mis/global_schedule.hpp"
#include "mis/greedy_id.hpp"
#include "mis/luby.hpp"
#include "mis/metivier.hpp"
#include "mis/theory.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace beepmis::harness {

namespace {

GraphFactory gnp_factory(std::size_t n, double p) {
  return [n, p](support::Xoshiro256StarStar& rng) {
    return graph::gnp(static_cast<graph::NodeId>(n), p, rng);
  };
}

BeepProtocolFactory local_feedback_factory(
    mis::LocalFeedbackConfig config = mis::LocalFeedbackConfig::paper()) {
  return [config] { return std::make_unique<mis::LocalFeedbackMis>(config); };
}

BeepProtocolFactory global_sweep_factory() {
  return [] {
    return std::make_unique<mis::GlobalScheduleMis>(std::make_unique<mis::SweepSchedule>());
  };
}

TrialConfig make_trial_config(const ExperimentConfig& config, std::uint64_t salt) {
  TrialConfig tc;
  tc.trials = config.trials;
  tc.base_seed = support::mix_seed(config.base_seed, salt);
  tc.threads = config.threads;
  return tc;
}

}  // namespace

std::vector<Figure3Row> figure3_experiment(std::span<const std::size_t> ns,
                                           const ExperimentConfig& config) {
  std::vector<Figure3Row> rows;
  rows.reserve(ns.size());
  for (const std::size_t n : ns) {
    const auto graphs = gnp_factory(n, config.edge_probability);

    const TrialStats global =
        run_beep_trials(graphs, global_sweep_factory(), make_trial_config(config, n * 2));
    const TrialStats local = run_beep_trials(graphs, local_feedback_factory(),
                                             make_trial_config(config, n * 2 + 1));

    Figure3Row row;
    row.n = n;
    row.global_mean = global.rounds.mean();
    row.global_stddev = global.rounds.stddev();
    row.local_mean = local.rounds.mean();
    row.local_stddev = local.rounds.stddev();
    row.reference_log2_squared = mis::figure3_global_reference(n);
    row.reference_25_log2 = mis::figure3_local_reference(n);
    row.global_beeps_mean = global.beeps_per_node.mean();
    row.global_beeps_stddev = global.beeps_per_node.stddev();
    row.local_beeps_mean = local.beeps_per_node.mean();
    row.local_beeps_stddev = local.beeps_per_node.stddev();
    rows.push_back(row);
  }
  return rows;
}

std::vector<Figure5Row> figure5_experiment(std::span<const std::size_t> ns,
                                           const ExperimentConfig& config,
                                           std::span<const Figure3Row> figure3) {
  std::vector<Figure5Row> rows;
  rows.reserve(ns.size());
  for (const std::size_t n : ns) {
    const auto graphs = gnp_factory(n, config.edge_probability);

    // The increasing schedule needs n and the max degree; G(n, 1/2) has
    // max degree concentrated near n/2 + O(sqrt(n log n)).
    const BeepProtocolFactory increasing_factory = [n, &config] {
      const auto degree_estimate = static_cast<std::size_t>(
          config.edge_probability * static_cast<double>(n) +
          2.0 * std::sqrt(static_cast<double>(n)));
      return std::make_unique<mis::GlobalScheduleMis>(
          std::make_unique<mis::IncreasingSchedule>(degree_estimate, n));
    };

    const TrialStats increasing = run_beep_trials(graphs, increasing_factory,
                                                  make_trial_config(config, n * 3 + 2));
    Figure5Row row;
    row.n = n;
    row.increasing_mean = increasing.beeps_per_node.mean();
    row.increasing_stddev = increasing.beeps_per_node.stddev();
    const auto shared = std::find_if(figure3.begin(), figure3.end(),
                                     [n](const Figure3Row& r) { return r.n == n; });
    if (shared != figure3.end()) {
      row.global_mean = shared->global_beeps_mean;
      row.global_stddev = shared->global_beeps_stddev;
      row.local_mean = shared->local_beeps_mean;
      row.local_stddev = shared->local_beeps_stddev;
    } else {
      // Figure 3's salts: these are the trials it would have run here.
      const TrialStats global =
          run_beep_trials(graphs, global_sweep_factory(), make_trial_config(config, n * 2));
      const TrialStats local = run_beep_trials(graphs, local_feedback_factory(),
                                               make_trial_config(config, n * 2 + 1));
      row.global_mean = global.beeps_per_node.mean();
      row.global_stddev = global.beeps_per_node.stddev();
      row.local_mean = local.beeps_per_node.mean();
      row.local_stddev = local.beeps_per_node.stddev();
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<GridBeepsRow> grid_beeps_experiment(std::span<const std::size_t> sides,
                                                const ExperimentConfig& config) {
  std::vector<GridBeepsRow> rows;
  rows.reserve(sides.size());
  for (const std::size_t side : sides) {
    const GraphFactory graphs = [side](support::Xoshiro256StarStar&) {
      return graph::grid2d(static_cast<graph::NodeId>(side),
                           static_cast<graph::NodeId>(side));
    };
    // Deterministic graph: build it once.  Every trial keeps its own
    // protocol stream, so this is bit-identical to a graph per trial.
    TrialConfig tc = make_trial_config(config, 7000 + side);
    tc.shared_graph = true;
    const TrialStats local = run_beep_trials(graphs, local_feedback_factory(), tc);
    GridBeepsRow row;
    row.side = side;
    row.local_mean = local.beeps_per_node.mean();
    row.local_stddev = local.beeps_per_node.stddev();
    rows.push_back(row);
  }
  return rows;
}

std::vector<Theorem1Row> theorem1_experiment(std::span<const std::size_t> ks,
                                             const ExperimentConfig& config) {
  std::vector<Theorem1Row> rows;
  rows.reserve(ks.size());
  for (const std::size_t k : ks) {
    // Deterministic graph; the randomness is only in the protocol.
    const GraphFactory graphs = [k](support::Xoshiro256StarStar&) {
      return graph::clique_family(static_cast<graph::NodeId>(k),
                                  static_cast<graph::NodeId>(k));
    };
    TrialConfig tc_global = make_trial_config(config, 9000 + k * 2);
    tc_global.shared_graph = true;
    TrialConfig tc_local = make_trial_config(config, 9001 + k * 2);
    tc_local.shared_graph = true;

    const TrialStats global = run_beep_trials(graphs, global_sweep_factory(), tc_global);
    const TrialStats local = run_beep_trials(graphs, local_feedback_factory(), tc_local);

    Theorem1Row row;
    row.k = k;
    row.node_count = k * (k * (k + 1) / 2);
    row.global_mean = global.rounds.mean();
    row.global_stddev = global.rounds.stddev();
    row.local_mean = local.rounds.mean();
    row.local_stddev = local.rounds.stddev();
    rows.push_back(row);
  }
  return rows;
}

std::vector<ComparisonRow> luby_comparison_experiment(std::span<const std::size_t> ns,
                                                      const ExperimentConfig& config) {
  std::vector<ComparisonRow> rows;
  rows.reserve(ns.size());
  const LocalProtocolFactory luby = [] { return std::make_unique<mis::LubyMis>(); };
  const LocalProtocolFactory metivier = [] { return std::make_unique<mis::MetivierMis>(); };
  const LocalProtocolFactory greedy_id = [] { return std::make_unique<mis::GreedyIdMis>(); };
  for (const std::size_t n : ns) {
    const auto graphs = gnp_factory(n, config.edge_probability);

    const TrialStats luby_stats =
        run_local_trials(graphs, luby, make_trial_config(config, 11000 + n));
    const TrialStats metivier_stats =
        run_local_trials(graphs, metivier, make_trial_config(config, 13000 + n));
    const TrialStats greedy_stats =
        run_local_trials(graphs, greedy_id, make_trial_config(config, 14000 + n));
    const TrialStats local_stats = run_beep_trials(graphs, local_feedback_factory(),
                                                   make_trial_config(config, 12000 + n));

    ComparisonRow row;
    row.family = "gnp(0.5)";
    row.n = n;
    row.luby_rounds = luby_stats.rounds.mean();
    row.luby_rounds_stddev = luby_stats.rounds.stddev();
    row.metivier_rounds = metivier_stats.rounds.mean();
    row.greedy_id_rounds = greedy_stats.rounds.mean();
    row.local_rounds = local_stats.rounds.mean();
    row.local_rounds_stddev = local_stats.rounds.stddev();
    row.luby_message_bits = luby_stats.message_bits.mean();
    row.metivier_message_bits = metivier_stats.message_bits.mean();
    // Every beep is a 1-bit broadcast; total beeps is the natural analogue.
    row.local_total_beeps =
        local_stats.beeps_per_node.mean() * static_cast<double>(n);
    rows.push_back(row);
  }
  return rows;
}

std::vector<RobustnessRow> robustness_experiment(std::size_t n,
                                                 const ExperimentConfig& config) {
  struct Variant {
    std::string label;
    mis::LocalFeedbackConfig algo;
  };
  std::vector<Variant> variants;
  variants.push_back({"paper (factor 2, p0=1/2)", mis::LocalFeedbackConfig::paper()});
  for (const double factor : {1.25, 1.5, 3.0, 4.0}) {
    mis::LocalFeedbackConfig c;
    c.factor_low = c.factor_high = factor;
    variants.push_back({"factor " + support::format_fixed(factor, 2), c});
  }
  {
    mis::LocalFeedbackConfig c;
    c.initial_p_low = c.initial_p_high = 0.25;
    variants.push_back({"p0 = 1/4", c});
  }
  {
    mis::LocalFeedbackConfig c;
    c.initial_p_low = c.initial_p_high = 1.0 / 16.0;
    variants.push_back({"p0 = 1/16", c});
  }
  {
    mis::LocalFeedbackConfig c;
    c.initial_p_low = 0.05;
    c.initial_p_high = 0.5;
    variants.push_back({"p0 ~ U[0.05, 0.5]", c});
  }
  {
    mis::LocalFeedbackConfig c;
    c.factor_low = 1.5;
    c.factor_high = 3.0;
    variants.push_back({"factor ~ U[1.5, 3]", c});
  }

  std::vector<RobustnessRow> rows;
  rows.reserve(variants.size());
  std::uint64_t salt = 21000;
  for (const Variant& variant : variants) {
    const auto graphs = gnp_factory(n, config.edge_probability);
    const TrialStats stats = run_beep_trials(graphs, local_feedback_factory(variant.algo),
                                             make_trial_config(config, salt++));
    RobustnessRow row;
    row.label = variant.label;
    row.algo = variant.algo;
    row.n = n;
    row.rounds_mean = stats.rounds.mean();
    row.rounds_stddev = stats.rounds.stddev();
    row.beeps_mean = stats.beeps_per_node.mean();
    row.valid = stats.valid;
    row.trials = stats.trials;
    rows.push_back(row);
  }
  return rows;
}

std::vector<FaultRow> fault_experiment(std::size_t n, std::span<const double> losses,
                                       const ExperimentConfig& config) {
  std::vector<FaultRow> rows;
  rows.reserve(losses.size());
  std::uint64_t salt = 31000;
  for (const double loss : losses) {
    TrialConfig tc = make_trial_config(config, salt++);
    tc.sim.beep_loss_probability = loss;
    // Lossy runs may not terminate (a node can wait forever for a lost
    // announcement); cap rounds so the experiment finishes.
    tc.sim.max_rounds = 2000;

    const auto graphs = gnp_factory(n, config.edge_probability);
    const TrialStats stats =
        run_beep_trials(graphs, local_feedback_factory(), tc);

    FaultRow row;
    row.loss = loss;
    row.rounds_mean = stats.rounds.mean();
    const auto trials = static_cast<double>(stats.trials);
    row.valid_fraction = static_cast<double>(stats.valid) / trials;
    row.terminated_fraction = static_cast<double>(stats.terminated) / trials;
    row.independence_violations_per_trial =
        static_cast<double>(stats.independence_violations) / trials;
    row.uncovered_per_trial = static_cast<double>(stats.uncovered_nodes) / trials;
    rows.push_back(row);
  }
  return rows;
}

std::vector<FamilyRow> family_experiment(std::size_t n, const ExperimentConfig& config) {
  struct Family {
    std::string name;
    GraphFactory factory;
    bool deterministic;
  };
  const auto nid = static_cast<graph::NodeId>(n);
  const auto side = static_cast<graph::NodeId>(std::max(
      2.0, std::round(std::sqrt(static_cast<double>(n)))));

  std::vector<Family> families;
  families.push_back({"gnp(0.5)", gnp_factory(n, 0.5), false});
  families.push_back({"gnp(0.05)", gnp_factory(n, 0.05), false});
  families.push_back(
      {"ring", [nid](support::Xoshiro256StarStar&) { return graph::ring(nid); }, true});
  families.push_back({"grid " + std::to_string(side) + "x" + std::to_string(side),
                      [side](support::Xoshiro256StarStar&) { return graph::grid2d(side, side); },
                      true});
  families.push_back({"random tree",
                      [nid](support::Xoshiro256StarStar& rng) {
                        return graph::random_tree(nid, rng);
                      },
                      false});
  families.push_back(
      {"star", [nid](support::Xoshiro256StarStar&) { return graph::star(nid); }, true});
  families.push_back(
      {"clique", [nid](support::Xoshiro256StarStar&) { return graph::complete(nid); }, true});
  families.push_back({"barabasi-albert(3)",
                      [nid](support::Xoshiro256StarStar& rng) {
                        return graph::barabasi_albert(nid, 3, rng);
                      },
                      false});

  std::vector<FamilyRow> rows;
  rows.reserve(families.size());
  std::uint64_t salt = 41000;
  for (const Family& family : families) {
    TrialConfig tc = make_trial_config(config, salt++);
    tc.shared_graph = family.deterministic;
    const TrialStats stats = run_beep_trials(family.factory, local_feedback_factory(), tc);

    FamilyRow row;
    row.family = family.name;
    row.n = n;
    row.rounds_mean = stats.rounds.mean();
    row.rounds_stddev = stats.rounds.stddev();
    row.beeps_mean = stats.beeps_per_node.mean();
    row.mis_size_mean = stats.mis_size.mean();
    rows.push_back(row);
  }
  return rows;
}

}  // namespace beepmis::harness
