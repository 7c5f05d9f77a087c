// Rendering helpers: turn experiment rows into paper-style tables, ASCII
// figures and growth-model fits (bench_paper prints the paper's).
#pragma once

#include <ostream>
#include <span>
#include <string>

#include "exp/figures.hpp"
#include "support/fit.hpp"
#include "support/table.hpp"

namespace beepmis::harness {

/// Figure 3 table: n, both algorithms' mean +/- stddev, reference curves.
[[nodiscard]] support::Table figure3_table(std::span<const Figure3Row> rows);
/// Figure 3 ASCII scatter (global = 'G', local = 'L', references '-'/'.').
[[nodiscard]] std::string figure3_plot(std::span<const Figure3Row> rows);
/// Growth-fit report: checks global ~ log^2 n and local ~ c log n (E5).
[[nodiscard]] std::string figure3_fit_report(std::span<const Figure3Row> rows);

[[nodiscard]] support::Table figure5_table(std::span<const Figure5Row> rows);
[[nodiscard]] std::string figure5_plot(std::span<const Figure5Row> rows);

[[nodiscard]] support::Table grid_beeps_table(std::span<const GridBeepsRow> rows);
[[nodiscard]] support::Table theorem1_table(std::span<const Theorem1Row> rows);
[[nodiscard]] std::string theorem1_fit_report(std::span<const Theorem1Row> rows);

/// Prints a table plus its CSV twin separated by a blank line.
void print_with_csv(std::ostream& out, const support::Table& table);

}  // namespace beepmis::harness
