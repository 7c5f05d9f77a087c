#include "exp/figures.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "graph/generators.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "mis/theory.hpp"
#include "support/rng.hpp"

namespace beepmis::harness {

namespace {

GraphFactory gnp_factory(std::size_t n, double p) {
  return [n, p](support::Xoshiro256StarStar& rng) {
    return graph::gnp(static_cast<graph::NodeId>(n), p, rng);
  };
}

BeepProtocolFactory local_feedback_factory() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
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

}  // namespace beepmis::harness
