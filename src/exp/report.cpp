#include "exp/report.hpp"

#include <sstream>
#include <vector>

#include "support/ascii_plot.hpp"

namespace beepmis::harness {

support::Table figure3_table(std::span<const Figure3Row> rows) {
  support::Table table({"n", "global mean", "global sd", "local mean", "local sd",
                        "(log2 n)^2", "2.5 log2 n"});
  for (const Figure3Row& r : rows) {
    table.new_row()
        .cell(r.n)
        .cell(r.global_mean)
        .cell(r.global_stddev)
        .cell(r.local_mean)
        .cell(r.local_stddev)
        .cell(r.reference_log2_squared)
        .cell(r.reference_25_log2);
  }
  return table;
}

std::string figure3_plot(std::span<const Figure3Row> rows) {
  support::Series global{"global sweep (mean rounds)", {}, {}, 'G'};
  support::Series local{"local feedback (mean rounds)", {}, {}, 'L'};
  support::Series ref_sq{"(log2 n)^2", {}, {}, '-'};
  support::Series ref_lin{"2.5 log2 n", {}, {}, '.'};
  for (const Figure3Row& r : rows) {
    const auto n = static_cast<double>(r.n);
    global.x.push_back(n);
    global.y.push_back(r.global_mean);
    local.x.push_back(n);
    local.y.push_back(r.local_mean);
    ref_sq.x.push_back(n);
    ref_sq.y.push_back(r.reference_log2_squared);
    ref_lin.x.push_back(n);
    ref_lin.y.push_back(r.reference_25_log2);
  }
  support::PlotOptions options;
  options.title = "Figure 3: time steps to compute an MIS on G(n, 1/2)";
  options.x_label = "n";
  options.y_label = "time steps";
  return support::render_plot({global, local, ref_sq, ref_lin}, options);
}

namespace {

struct FitInputs {
  std::vector<double> ns;
  std::vector<double> global_means;
  std::vector<double> local_means;
};

FitInputs fit_inputs(std::span<const Figure3Row> rows) {
  FitInputs in;
  for (const Figure3Row& r : rows) {
    in.ns.push_back(static_cast<double>(r.n));
    in.global_means.push_back(r.global_mean);
    in.local_means.push_back(r.local_mean);
  }
  return in;
}

}  // namespace

std::string figure3_fit_report(std::span<const Figure3Row> rows) {
  const FitInputs in = fit_inputs(rows);
  std::ostringstream out;

  const auto global_cmp = support::compare_growth(in.ns, in.global_means);
  const auto local_cmp = support::compare_growth(in.ns, in.local_means);

  out << "Growth-model fits (E5):\n";
  out << "  global sweep  vs log2 n   : "
      << support::describe_fit(global_cmp.vs_log, "log2(n)") << '\n';
  out << "  global sweep  vs log2^2 n : "
      << support::describe_fit(global_cmp.vs_log_squared, "log2(n)^2") << '\n';
  out << "  local feedback vs log2 n  : "
      << support::describe_fit(local_cmp.vs_log, "log2(n)") << '\n';
  out << "  local feedback vs log2^2 n: "
      << support::describe_fit(local_cmp.vs_log_squared, "log2(n)^2") << '\n';
  out << "  paper expectation: global prefers log2^2 ("
      << (global_cmp.prefers_log_squared ? "CONFIRMED" : "NOT CONFIRMED")
      << "), local prefers log2 ("
      << (!local_cmp.prefers_log_squared ? "CONFIRMED" : "NOT CONFIRMED") << ")\n";
  out << "  paper: local slope ~ 2.5; measured " << local_cmp.vs_log.slope << '\n';
  return out.str();
}

support::Table figure5_table(std::span<const Figure5Row> rows) {
  support::Table table({"n", "sweep beeps/node", "sd", "increasing beeps/node", "sd",
                        "local beeps/node", "sd"});
  for (const Figure5Row& r : rows) {
    table.new_row()
        .cell(r.n)
        .cell(r.global_mean)
        .cell(r.global_stddev)
        .cell(r.increasing_mean)
        .cell(r.increasing_stddev)
        .cell(r.local_mean)
        .cell(r.local_stddev);
  }
  return table;
}

std::string figure5_plot(std::span<const Figure5Row> rows) {
  support::Series global{"global sweep (mean beeps/node)", {}, {}, 'G'};
  support::Series increasing{"global increasing [Science'11] (mean beeps/node)", {}, {}, 'I'};
  support::Series local{"local feedback (mean beeps/node)", {}, {}, 'L'};
  for (const Figure5Row& r : rows) {
    const auto n = static_cast<double>(r.n);
    global.x.push_back(n);
    global.y.push_back(r.global_mean);
    increasing.x.push_back(n);
    increasing.y.push_back(r.increasing_mean);
    local.x.push_back(n);
    local.y.push_back(r.local_mean);
  }
  support::PlotOptions options;
  options.title = "Figure 5: mean beeps per node on G(n, 1/2)";
  options.x_label = "n";
  options.y_label = "beeps/node";
  return support::render_plot({global, increasing, local}, options);
}

support::Table grid_beeps_table(std::span<const GridBeepsRow> rows) {
  support::Table table({"grid", "n", "local mean beeps/node", "local sd"});
  for (const GridBeepsRow& r : rows) {
    table.new_row()
        .cell(std::to_string(r.side) + "x" + std::to_string(r.side))
        .cell(r.side * r.side)
        .cell(r.local_mean)
        .cell(r.local_stddev);
  }
  return table;
}

support::Table theorem1_table(std::span<const Theorem1Row> rows) {
  support::Table table(
      {"k", "nodes", "global mean", "global sd", "local mean", "local sd"});
  for (const Theorem1Row& r : rows) {
    table.new_row()
        .cell(r.k)
        .cell(r.node_count)
        .cell(r.global_mean)
        .cell(r.global_stddev)
        .cell(r.local_mean)
        .cell(r.local_stddev);
  }
  return table;
}

std::string theorem1_fit_report(std::span<const Theorem1Row> rows) {
  std::vector<double> ns, global_means, local_means;
  for (const Theorem1Row& r : rows) {
    ns.push_back(static_cast<double>(r.node_count));
    global_means.push_back(r.global_mean);
    local_means.push_back(r.local_mean);
  }
  const auto global_cmp = support::compare_growth(ns, global_means);
  const auto local_cmp = support::compare_growth(ns, local_means);

  std::ostringstream out;
  out << "Theorem 1 family growth fits:\n";
  out << "  global sweep  vs log2 n   : "
      << support::describe_fit(global_cmp.vs_log, "log2(n)") << '\n';
  out << "  global sweep  vs log2^2 n : "
      << support::describe_fit(global_cmp.vs_log_squared, "log2(n)^2") << '\n';
  out << "  local feedback vs log2 n  : "
      << support::describe_fit(local_cmp.vs_log, "log2(n)") << '\n';
  out << "  Theorem 1 predicts the global series needs the log^2 model: "
      << (global_cmp.prefers_log_squared ? "CONFIRMED" : "NOT CONFIRMED") << '\n';
  return out.str();
}

void print_with_csv(std::ostream& out, const support::Table& table) {
  table.print(out);
  out << "\ncsv:\n";
  table.write_csv(out);
  out << '\n';
}

}  // namespace beepmis::harness
