#include "exp/figures.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "exp/report.hpp"

namespace beepmis::harness {
namespace {

ExperimentConfig fast_config() {
  ExperimentConfig config;
  config.trials = 8;  // keep unit tests quick; benches use paper-scale trials
  config.base_seed = 99;
  return config;
}

TEST(Figure3, ProducesRowPerN) {
  const std::vector<std::size_t> ns{20, 40, 80};
  const auto rows = figure3_experiment(ns, fast_config());
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].n, ns[i]);
    EXPECT_GT(rows[i].global_mean, 0.0);
    EXPECT_GT(rows[i].local_mean, 0.0);
    EXPECT_GT(rows[i].reference_log2_squared, rows[i].reference_25_log2 / 3);
  }
  // Headline shape: global slower than local already at n = 80.
  EXPECT_GT(rows.back().global_mean, rows.back().local_mean);
}

TEST(Figure3, TableAndPlotRender) {
  const std::vector<std::size_t> ns{20, 40};
  const auto rows = figure3_experiment(ns, fast_config());
  const support::Table table = figure3_table(rows);
  EXPECT_EQ(table.rows(), 2u);
  const std::string plot = figure3_plot(rows);
  EXPECT_NE(plot.find("Figure 3"), std::string::npos);
  EXPECT_NE(plot.find('G'), std::string::npos);
  EXPECT_NE(plot.find('L'), std::string::npos);
}

TEST(Figure3, FitReportMentionsModels) {
  const std::vector<std::size_t> ns{20, 40, 80, 160};
  const auto rows = figure3_experiment(ns, fast_config());
  const std::string report = figure3_fit_report(rows);
  EXPECT_NE(report.find("log2(n)"), std::string::npos);
  EXPECT_NE(report.find("local feedback"), std::string::npos);
}

TEST(Figure5, BeepsPerNodeColumns) {
  const std::vector<std::size_t> ns{20, 60};
  const auto rows = figure5_experiment(ns, fast_config());
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GT(row.global_mean, 0.0);
    EXPECT_GT(row.local_mean, 0.0);
    // Theorem 6: local feedback beeps/node is a small constant.
    EXPECT_LT(row.local_mean, 4.0);
    // §5 remark: the Science'11 increasing schedule also keeps beeps low.
    EXPECT_GT(row.increasing_mean, 0.0);
    EXPECT_LT(row.increasing_mean, 4.0);
  }
  const support::Table table = figure5_table(rows);
  EXPECT_EQ(table.rows(), 2u);
  EXPECT_NE(figure5_plot(rows).find("Figure 5"), std::string::npos);
}

TEST(Figure5, ReusesFigure3TrialsBitIdentically) {
  // Given Figure 3's rows, the shared sizes (20, 40) read their global and
  // local points from them; 30 is run afresh.  Every field must equal a
  // run that re-simulates everything.
  const std::vector<std::size_t> fig3_ns{20, 40};
  const std::vector<std::size_t> fig5_ns{20, 30, 40};
  const auto fig3 = figure3_experiment(fig3_ns, fast_config());
  const auto reused = figure5_experiment(fig5_ns, fast_config(), fig3);
  const auto fresh = figure5_experiment(fig5_ns, fast_config());
  ASSERT_EQ(reused.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(reused[i].n, fresh[i].n);
    EXPECT_EQ(reused[i].global_mean, fresh[i].global_mean) << "n=" << fresh[i].n;
    EXPECT_EQ(reused[i].global_stddev, fresh[i].global_stddev) << "n=" << fresh[i].n;
    EXPECT_EQ(reused[i].increasing_mean, fresh[i].increasing_mean) << "n=" << fresh[i].n;
    EXPECT_EQ(reused[i].increasing_stddev, fresh[i].increasing_stddev) << "n=" << fresh[i].n;
    EXPECT_EQ(reused[i].local_mean, fresh[i].local_mean) << "n=" << fresh[i].n;
    EXPECT_EQ(reused[i].local_stddev, fresh[i].local_stddev) << "n=" << fresh[i].n;
  }
}

TEST(GridBeeps, SmallConstantOnGrids) {
  const std::vector<std::size_t> sides{6, 10};
  const auto rows = grid_beeps_experiment(sides, fast_config());
  ASSERT_EQ(rows.size(), 2u);
  for (const auto& row : rows) {
    EXPECT_GT(row.local_mean, 0.5);
    EXPECT_LT(row.local_mean, 3.0);
  }
  EXPECT_EQ(grid_beeps_table(rows).rows(), 2u);
}

TEST(Theorem1Experiment, GlobalSlowerThanLocalOnCliqueFamily) {
  ExperimentConfig config = fast_config();
  const std::vector<std::size_t> ks{6, 10};
  const auto rows = theorem1_experiment(ks, config);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].node_count, 6u * 21u);
  for (const auto& row : rows) {
    EXPECT_GT(row.global_mean, row.local_mean);
  }
  EXPECT_EQ(theorem1_table(rows).rows(), 2u);
  EXPECT_NE(theorem1_fit_report(rows).find("Theorem 1"), std::string::npos);
}

TEST(PrintWithCsv, EmitsBothRenderings) {
  support::Table table({"a"});
  table.new_row().cell("x");
  std::ostringstream out;
  print_with_csv(out, table);
  EXPECT_NE(out.str().find("csv:"), std::string::npos);
  EXPECT_NE(out.str().find('x'), std::string::npos);
}

}  // namespace
}  // namespace beepmis::harness
