// The paper's claims as one gated driver: Figure 3 (rounds on G(n, 1/2)),
// Figure 5 (beeps per node on G(n, 1/2), plus the §5 grid remark) and the
// Theorem 1 clique family, run through exp/figures and fitted against
// log2 n and (log2 n)^2.
//
// Three claims are gated; the driver exits 1 when one fails:
//   theorem1-global-prefers-log2-squared
//                 the global sweep's rounds on the clique family fit
//                 (log2 n)^2 with a smaller residual than log2 n (Theorem 1:
//                 any fixed schedule needs Ω(log² n)).  The preference
//                 flips with the seed at small families, so it is gated
//                 only when the largest k is at least 64 (n = 133,120).
//   theorem1-ratio-grows
//                 global/local mean rounds at the largest k minus the ratio
//                 at the smallest k (8 by default) is at least 0.3: the gap
//                 widens with n, as log² n against log n predicts.  The
//                 ratio is not monotone between adjacent sizes, so only the
//                 end points are compared.
//   figure5-local-beeps-below-4
//                 local feedback's mean beeps per node stays below 4 at
//                 every n (Theorem 6: O(1) expected beeps; the paper
//                 measures about 1.1).
// The Figure 3 fit preferences are recorded, not gated: local feedback's
// log2 n and (log2 n)^2 fits are a near tie over n <= 1000.
//
// Each series row records the engine plan_sweep routes it to: Figures 3
// and 5 draw a fresh graph per trial and run scalar; the clique family and
// the grids are deterministic, share one graph and run on the lane planes.
//
// Contributes the "paper" section of BENCH_core.json (scripts/bench_core.sh).
//
//   ./bench_paper [--trials=100] [--ks=8,16,24,32,48,64]
//                 [--fig3-ns=20,...,1000] [--fig5-ns=20,...,1000]
//                 [--grid-sides=8,...,28] [--git-rev=<rev>] [--out=BENCH_paper.json]
// The seed, the Theorem 1 trial count and the thread count (all cores) are
// fixed: the gates' bounds were sized at them.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cli/registry.hpp"
#include "exp/figures.hpp"
#include "exp/report.hpp"
#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/global_schedule.hpp"
#include "mis/local_feedback.hpp"
#include "support/fit.hpp"
#include "support/options.hpp"

namespace {

using namespace beepmis;
using benchcommon::json_number;
using benchcommon::json_string;

/// The family size from which the Theorem 1 fit preference is gated.
constexpr std::size_t kFitGateMinK = 64;
constexpr double kMinRatioGrowth = 0.3;
constexpr double kMaxLocalBeepsPerNode = 4.0;
constexpr std::uint64_t kSeed = 20130724;
/// Trials per clique-family size: the ratio gate was sized over seeds
/// 1-10 at this count.
constexpr std::size_t kThm1Trials = 64;

/// A strict integer flag value in [lo, hi] (cli::parse_count_flag); exits
/// naming the flag on junk rather than running a mislabeled experiment.
std::uint64_t count_flag(const std::string& flag, std::string_view value, std::uint64_t lo,
                         std::uint64_t hi) {
  try {
    return cli::parse_count_flag("--" + flag, value, lo, hi);
  } catch (const std::invalid_argument& e) {
    std::cerr << "bench_paper: " << e.what() << '\n';
    std::exit(1);
  }
}

/// A comma-separated list of at least two sizes (a growth fit needs two).
std::vector<std::size_t> parse_size_list(const std::string& flag, const std::string& csv) {
  std::vector<std::size_t> sizes;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    sizes.push_back(count_flag(flag, item, 1, std::numeric_limits<std::uint32_t>::max()));
  }
  if (sizes.size() < 2) {
    std::cerr << "bench_paper: --" << flag << ": a growth fit needs at least two sizes\n";
    std::exit(1);
  }
  return sizes;
}

/// One measured curve: mean (and stddev) of a metric against n.
struct Series {
  Series(std::string workload_, std::string protocol_, std::string metric_)
      : workload(std::move(workload_)),
        protocol(std::move(protocol_)),
        metric(std::move(metric_)) {}

  std::string workload;  ///< figure3 / figure5 / grid / theorem1
  std::string protocol;
  std::string metric;  ///< rounds or beeps_per_node
  std::string route;   ///< the engine plan_sweep picks for it
  std::vector<double> ns, means, stddevs;
  double wall_s = 0;  ///< the experiment's wall time (shared by its series)
  support::GrowthComparison fit;
};

struct Claim {
  std::string name;
  bool gated = true;
  bool holds = false;
  double value = 0;
  const char* op = ">=";
  double bound = 0;
};

std::string route_name(const harness::SweepPlan& plan) {
  switch (plan.engine) {
    case harness::SweepPlan::Engine::kScalar:
      return "scalar";
    case harness::SweepPlan::Engine::kSharded:
      return "sharded-k" + std::to_string(plan.shards);
    case harness::SweepPlan::Engine::kPlanes:
      return "planes-k" + std::to_string(plan.shards) +
             (plan.statistical ? "-statistical" : "");
  }
  return "unknown";
}

/// The route run_beep_trials takes for `trials` trials of `protocols` on
/// `graphs`, with the TrialConfig fields the figures experiments set.
std::string route_of(const harness::GraphFactory& graphs,
                     const harness::BeepProtocolFactory& protocols,
                     const harness::ExperimentConfig& config, bool shared_graph) {
  harness::TrialConfig tc;
  tc.trials = config.trials;
  tc.threads = config.threads;
  tc.shared_graph = shared_graph;
  return route_name(harness::plan_sweep(graphs, protocols, tc));
}

std::string fit_json(const support::LinearFit& fit) {
  std::ostringstream out;
  out << "{\"slope\": " << fit.slope << ", \"intercept\": " << fit.intercept
      << ", \"r_squared\": " << fit.r_squared << ", \"rms\": " << fit.residual_rms << "}";
  return out.str();
}

std::string series_json(const Series& s) {
  std::ostringstream out;
  out << "{\"workload\": " << json_string(s.workload)
      << ", \"protocol\": " << json_string(s.protocol)
      << ", \"impl\": " << json_string(s.route)
      << ", \"mode\": \"scalar-order\", \"metric\": " << json_string(s.metric)
      << ", \"n\": " << s.ns.back() << ", \"points\": [";
  for (std::size_t i = 0; i < s.ns.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "[" << s.ns[i] << ", " << s.means[i] << ", "
        << s.stddevs[i] << "]";
  }
  out << "], \"fit_log2\": " << fit_json(s.fit.vs_log)
      << ", \"fit_log2_squared\": " << fit_json(s.fit.vs_log_squared)
      << ", \"prefers\": " << json_string(s.fit.prefers_log_squared ? "log2_squared" : "log2")
      << ", \"wall_s\": " << s.wall_s << "}";
  return out.str();
}

template <typename Run>
double wall_seconds(Run&& run) {
  const auto start = std::chrono::steady_clock::now();
  run();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

void add_point(Series& s, std::size_t n, double mean, double stddev) {
  s.ns.push_back(static_cast<double>(n));
  s.means.push_back(mean);
  s.stddevs.push_back(stddev);
}

void finish(Series& s, double wall_s) {
  s.wall_s = wall_s;
  s.fit = support::compare_growth(s.ns, s.means);
}

}  // namespace

int main(int argc, char** argv) {
  support::Options options;
  options.add("trials", "100", "trials per point for Figures 3 and 5 (paper: 100)");
  options.add("ks", "8,16,24,32,48,64", "Theorem 1 family parameters k (n = k^2(k+1)/2)");
  options.add("fig3-ns", "20,50,100,150,200,300,400,500,600,700,800,900,1000",
              "Figure 3 graph sizes");
  options.add("fig5-ns", "20,50,100,200,400,600,800,1000", "Figure 5 graph sizes");
  options.add("grid-sides", "8,12,16,20,24,28", "side lengths of the §5 grid series");
  options.add("git-rev", "unknown", "git revision recorded in the JSON header");
  options.add("out", "BENCH_paper.json", "JSON report path ('-' = stdout only)");
  if (!options.parse(argc, argv)) {
    std::cerr << options.error() << '\n' << options.usage("bench_paper");
    return 1;
  }
  if (options.help_requested()) {
    std::cout << options.usage("bench_paper");
    return 0;
  }

  const std::vector<std::size_t> ks = parse_size_list("ks", options.get("ks"));
  const std::vector<std::size_t> fig3_ns = parse_size_list("fig3-ns", options.get("fig3-ns"));
  const std::vector<std::size_t> fig5_ns = parse_size_list("fig5-ns", options.get("fig5-ns"));
  const std::vector<std::size_t> sides =
      parse_size_list("grid-sides", options.get("grid-sides"));
  constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();
  harness::ExperimentConfig config;
  config.trials = count_flag("trials", options.get("trials"), 1, kU64Max);
  config.base_seed = kSeed;
  harness::ExperimentConfig thm1_config = config;
  thm1_config.trials = kThm1Trials;

  const harness::BeepProtocolFactory local = [] {
    return std::make_unique<mis::LocalFeedbackMis>();
  };
  // Also the route of Figure 5's increasing schedule: both are
  // GlobalScheduleMis, which routing sees only through its capabilities.
  const harness::BeepProtocolFactory global = [] {
    return std::make_unique<mis::GlobalScheduleMis>(mis::make_global_sweep_mis());
  };
  const auto gnp_graphs = [&](std::size_t n) -> harness::GraphFactory {
    return [n, p = config.edge_probability](support::Xoshiro256StarStar& rng) {
      return graph::gnp(static_cast<graph::NodeId>(n), p, rng);
    };
  };
  Series fig3_global{"figure3", "global-sweep", "rounds"};
  Series fig3_local{"figure3", "local-feedback", "rounds"};
  Series fig5_global{"figure5", "global-sweep", "beeps_per_node"};
  Series fig5_increasing{"figure5", "global-increasing", "beeps_per_node"};
  Series fig5_local{"figure5", "local-feedback", "beeps_per_node"};
  Series grid_local{"grid", "local-feedback", "beeps_per_node"};
  Series thm1_global{"theorem1", "global-sweep", "rounds"};
  Series thm1_local{"theorem1", "local-feedback", "rounds"};

  // ---- Figure 3 ---------------------------------------------------------
  std::vector<harness::Figure3Row> fig3;
  const double fig3_s = wall_seconds([&] { fig3 = harness::figure3_experiment(fig3_ns, config); });
  std::cout << "=== Figure 3: MIS time steps on G(n, 1/2), " << config.trials
            << " trials/point ===\n\n";
  harness::print_with_csv(std::cout, harness::figure3_table(fig3));
  std::cout << harness::figure3_plot(fig3) << '\n' << harness::figure3_fit_report(fig3) << '\n';
  fig3_global.route = route_of(gnp_graphs(fig3_ns.back()), global, config, false);
  fig3_local.route = route_of(gnp_graphs(fig3_ns.back()), local, config, false);
  for (const harness::Figure3Row& r : fig3) {
    add_point(fig3_global, r.n, r.global_mean, r.global_stddev);
    add_point(fig3_local, r.n, r.local_mean, r.local_stddev);
  }
  for (Series* s : {&fig3_global, &fig3_local}) finish(*s, fig3_s);

  // ---- Figure 5 and the grid remark -------------------------------------
  std::vector<harness::Figure5Row> fig5;
  // Reuses Figure 3's global and local trials at the sizes both figures run.
  const double fig5_s =
      wall_seconds([&] { fig5 = harness::figure5_experiment(fig5_ns, config, fig3); });
  std::cout << "=== Figure 5: mean beeps per node on G(n, 1/2), " << config.trials
            << " trials/point ===\n\n";
  harness::print_with_csv(std::cout, harness::figure5_table(fig5));
  std::cout << harness::figure5_plot(fig5) << '\n';
  fig5_global.route = route_of(gnp_graphs(fig5_ns.back()), global, config, false);
  fig5_increasing.route = fig5_global.route;
  fig5_local.route = route_of(gnp_graphs(fig5_ns.back()), local, config, false);
  for (const harness::Figure5Row& r : fig5) {
    add_point(fig5_global, r.n, r.global_mean, r.global_stddev);
    add_point(fig5_increasing, r.n, r.increasing_mean, r.increasing_stddev);
    add_point(fig5_local, r.n, r.local_mean, r.local_stddev);
  }
  for (Series* s : {&fig5_global, &fig5_increasing, &fig5_local}) finish(*s, fig5_s);
  std::vector<harness::GridBeepsRow> grid;
  const double grid_s = wall_seconds([&] { grid = harness::grid_beeps_experiment(sides, config); });
  std::cout << "=== Local-feedback beeps per node on grids (paper §5: ~1.1) ===\n\n";
  harness::print_with_csv(std::cout, harness::grid_beeps_table(grid));
  const auto side = static_cast<graph::NodeId>(sides.back());
  grid_local.route = route_of(
      [side](support::Xoshiro256StarStar&) { return graph::grid2d(side, side); }, local,
      config, true);
  for (const harness::GridBeepsRow& r : grid) {
    add_point(grid_local, r.side * r.side, r.local_mean, r.local_stddev);
  }
  finish(grid_local, grid_s);

  // ---- Theorem 1 clique family ------------------------------------------
  std::vector<harness::Theorem1Row> thm1;
  const double thm1_s =
      wall_seconds([&] { thm1 = harness::theorem1_experiment(ks, thm1_config); });
  std::cout << "=== Theorem 1 family: k copies of K_d, d = 1..k, " << thm1_config.trials
            << " trials/point ===\n\n";
  harness::print_with_csv(std::cout, harness::theorem1_table(thm1));
  std::cout << harness::theorem1_fit_report(thm1) << '\n';
  const auto k_max = static_cast<graph::NodeId>(ks.back());
  const harness::GraphFactory family = [k_max](support::Xoshiro256StarStar&) {
    return graph::clique_family(k_max, k_max);
  };
  thm1_global.route = route_of(family, global, thm1_config, true);
  thm1_local.route = route_of(family, local, thm1_config, true);
  for (const harness::Theorem1Row& r : thm1) {
    add_point(thm1_global, r.node_count, r.global_mean, r.global_stddev);
    add_point(thm1_local, r.node_count, r.local_mean, r.local_stddev);
  }
  for (Series* s : {&thm1_global, &thm1_local}) finish(*s, thm1_s);

  // ---- Claims -----------------------------------------------------------
  const auto rms_gap = [](const Series& s) {
    return s.fit.vs_log.residual_rms - s.fit.vs_log_squared.residual_rms;
  };
  double max_local_beeps = 0;
  for (const double beeps : fig5_local.means) max_local_beeps = std::max(max_local_beeps, beeps);
  const auto ratio = [](const harness::Theorem1Row& r) { return r.global_mean / r.local_mean; };
  const double ratio_growth = ratio(thm1.back()) - ratio(thm1.front());

  std::vector<Claim> claims;
  claims.push_back({"theorem1-global-prefers-log2-squared", ks.back() >= kFitGateMinK,
                    thm1_global.fit.prefers_log_squared, rms_gap(thm1_global), ">", 0.0});
  claims.push_back({"theorem1-ratio-grows", true, ratio_growth >= kMinRatioGrowth,
                    ratio_growth, ">=", kMinRatioGrowth});
  claims.push_back({"figure5-local-beeps-below-4", true,
                    max_local_beeps < kMaxLocalBeepsPerNode, max_local_beeps, "<",
                    kMaxLocalBeepsPerNode});
  claims.push_back({"figure3-global-prefers-log2-squared", false,
                    fig3_global.fit.prefers_log_squared, rms_gap(fig3_global), ">", 0.0});
  claims.push_back({"figure3-local-prefers-log2", false, !fig3_local.fit.prefers_log_squared,
                    -rms_gap(fig3_local), ">", 0.0});

  std::cout << "Theorem 1 global/local ratio by k:";
  for (const harness::Theorem1Row& r : thm1) std::cout << "  " << r.k << ": " << ratio(r);
  std::cout << "\n\nClaims (value op bound; an rms gap is the log2 fit's residual minus the "
               "log2^2 fit's):\n";
  bool ok = true;
  for (const Claim& c : claims) {
    std::cout << "  " << (c.holds ? "HOLDS " : "FAILS ")
              << (c.gated ? "[gated]    " : "[recorded] ") << c.name << ": " << c.value << ' ' << c.op << ' ' << c.bound << '\n';
    ok = ok && (c.holds || !c.gated);
  }
  std::cout << '\n';

  benchcommon::JsonReport report;
  report.bench = "bench_paper";
  report.git_rev = options.get("git-rev");
  std::ostringstream claims_json;
  claims_json << "[";
  for (std::size_t i = 0; i < claims.size(); ++i) {
    const Claim& c = claims[i];
    claims_json << (i == 0 ? "" : ", ") << "{\"claim\": " << json_string(c.name)
                << ", \"gated\": " << (c.gated ? "true" : "false")
                << ", \"holds\": " << (c.holds ? "true" : "false") << ", \"value\": " << c.value
                << ", \"op\": " << json_string(c.op) << ", \"bound\": " << c.bound << "}";
  }
  claims_json << "]";
  std::ostringstream ratios_json;
  ratios_json << "[";
  for (std::size_t i = 0; i < thm1.size(); ++i) {
    ratios_json << (i == 0 ? "" : ", ") << "[" << thm1[i].k << ", " << ratio(thm1[i]) << "]";
  }
  ratios_json << "]";
  report.header = {
      {"seed", json_number(config.base_seed)},
      {"trials", json_number(config.trials)},
      {"thm1_trials", json_number(thm1_config.trials)},
      {"hardware_threads", json_number(std::max(1u, std::thread::hardware_concurrency()))},
      {"theorem1_ratio_by_k", ratios_json.str()},
      {"claims", claims_json.str()},
      {"ok", ok ? "true" : "false"},
  };
  for (const Series* s : {&fig3_global, &fig3_local, &fig5_global, &fig5_increasing, &fig5_local,
                         &grid_local, &thm1_global, &thm1_local}) {
    report.rows.push_back(series_json(*s));
  }
  if (!report.write_to(options.get("out"), std::cout)) return 1;
  if (!ok) std::cerr << "bench_paper: a gated paper claim failed\n";
  return ok ? 0 : 1;
}
