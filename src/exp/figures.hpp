// Concrete experiment definitions for the paper's evaluation (Figures 3
// and 5, the grid remark, the Theorem 1 family).  Each function returns
// plain row structs; exp/report renders them as tables, plots, CSV and growth
// fits, and bench/bench_paper gates the paper's claims on them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "exp/runner.hpp"

namespace beepmis::harness {

struct ExperimentConfig {
  std::size_t trials = 100;
  std::uint64_t base_seed = 0x5eed;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  double edge_probability = 0.5;
};

/// One point of Figure 3: mean/stddev time steps on G(n, 1/2) for the two
/// beeping algorithms, plus the paper's two reference curves.  The same
/// trials' beeps per node are kept too: they are Figure 5's global and
/// local points at this n.
struct Figure3Row {
  std::size_t n = 0;
  double global_mean = 0, global_stddev = 0;
  double local_mean = 0, local_stddev = 0;
  double reference_log2_squared = 0;  ///< (log2 n)^2, the upper dashed line
  double reference_25_log2 = 0;       ///< 2.5 log2 n, the lower dotted line
  double global_beeps_mean = 0, global_beeps_stddev = 0;
  double local_beeps_mean = 0, local_beeps_stddev = 0;
};
[[nodiscard]] std::vector<Figure3Row> figure3_experiment(std::span<const std::size_t> ns,
                                                         const ExperimentConfig& config);

/// One point of Figure 5: mean/stddev beeps per node on G(n, 1/2).  The
/// `increasing` series checks the paper's §5 remark that the Science'11
/// schedule (probabilities computed from n and max degree, gradually
/// increased) keeps beeps bounded, unlike the sweep.
struct Figure5Row {
  std::size_t n = 0;
  double global_mean = 0, global_stddev = 0;
  double increasing_mean = 0, increasing_stddev = 0;
  double local_mean = 0, local_stddev = 0;
};
/// Figure 5's global and local series run the very trials of Figure 3
/// (same seeds, same graphs), so at an n that `figure3` (rows of
/// figure3_experiment under the same config) holds they are read from its
/// row instead of re-run; only the increasing schedule runs there.
[[nodiscard]] std::vector<Figure5Row> figure5_experiment(
    std::span<const std::size_t> ns, const ExperimentConfig& config,
    std::span<const Figure3Row> figure3 = {});

/// Beeps per node for local feedback on rectangular grids (§5: "around
/// 1.1" for grid graphs).
struct GridBeepsRow {
  std::size_t side = 0;  ///< grid is side x side
  double local_mean = 0, local_stddev = 0;
};
[[nodiscard]] std::vector<GridBeepsRow> grid_beeps_experiment(
    std::span<const std::size_t> sides, const ExperimentConfig& config);

/// Theorem 1 family: rounds for global sweep vs local feedback on the
/// clique family with parameter k (k copies of K_d for d = 1..k).
struct Theorem1Row {
  std::size_t k = 0;           ///< family parameter (= n^{1/3} in the paper)
  std::size_t node_count = 0;  ///< k * k(k+1)/2 nodes
  double global_mean = 0, global_stddev = 0;
  double local_mean = 0, local_stddev = 0;
};
[[nodiscard]] std::vector<Theorem1Row> theorem1_experiment(std::span<const std::size_t> ks,
                                                           const ExperimentConfig& config);

}  // namespace beepmis::harness
