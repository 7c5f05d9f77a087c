// Correctness oracle for simulator runs.  Checks the three MIS conditions
// plus internal consistency of node fates, and counts each violation kind
// separately so fault-injection experiments can report *how* an execution
// degraded rather than a bare pass/fail.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/result.hpp"

namespace beepmis::mis {

struct VerificationReport {
  bool terminated = false;  ///< all nodes inactive within the round cap
  /// Edges with both endpoints in the MIS (must be 0 for independence).
  std::size_t independence_violations = 0;
  /// Inactive non-MIS nodes with no MIS neighbour (break maximality).
  std::size_t uncovered_nodes = 0;
  /// Nodes still active at the end of the run.
  std::size_t still_active = 0;
  /// Fail-stopped nodes (fault injection); exempt from coverage checks.
  std::size_t crashed = 0;
  std::size_t mis_size = 0;

  [[nodiscard]] bool independent() const noexcept { return independence_violations == 0; }
  /// Maximality in the fate-consistency sense: every inactive non-member is
  /// dominated.  Together with terminated this implies set-maximality.
  [[nodiscard]] bool maximal() const noexcept {
    return uncovered_nodes == 0 && still_active == 0;
  }
  [[nodiscard]] bool valid() const noexcept {
    return terminated && independent() && maximal();
  }
  [[nodiscard]] std::string summary() const;
};

/// Verifies `result` (produced on graph `g`).  Throws std::invalid_argument
/// if sizes do not match the graph.
[[nodiscard]] VerificationReport verify_mis_run(const graph::Graph& g,
                                                const sim::RunResult& result);

/// Shorthand: true iff the run terminated with a valid MIS.
[[nodiscard]] bool is_valid_mis_run(const graph::Graph& g, const sim::RunResult& result);

/// One lane's share of a plane verification (verify_mis_planes): the
/// verifier's counts plus the beep reductions the trial harness reports.
struct LaneVerification {
  VerificationReport report;
  std::uint64_t total_beeps = 0;
  std::uint32_t max_beeps = 0;

  /// Adds another node range's counts.  All counts are integers, so
  /// merging range results in any order is exact.
  void merge(const LaneVerification& other) noexcept;
};

/// Verifies every lane of a finished batched run at once, over the nodes
/// [begin, end) only: one CSR pass reads the status planes in place (the
/// precedence crashed, in-MIS, dominated, else active of
/// sim::extract_lane_results), so no per-lane RunResult is built.  An
/// independence violation is counted at the edge's lower endpoint, as
/// verify_mis_run counts it.  Returns one entry per lane; merged over
/// disjoint ranges covering [0, n), entry l equals verify_mis_run on lane
/// l's extracted RunResult, and total_beeps / max_beeps equal its
/// total_beeps and largest beep count.  Throws std::invalid_argument if
/// the planes do not match the graph (a status or counter plane of the
/// wrong length, more than sim::kMaxBeepPlanes counter planes, per-lane
/// arrays not sized to `lanes`) or the range is out of bounds.
///
/// Cost: one neighbour load per edge of the range when no lane crashed at
/// any node of the graph (one sequential pass over the crashed plane
/// decides that per call), else two (in-MIS and crashed); an edge that
/// joins two members is counted only after a node's scan finds one.  Per
/// node, a fixed number of word operations per counter plane reduce the
/// beeps, and the rare nonzero crashed, active, uncovered and violation
/// masks cost one step per set bit.  No per-node scratch is allocated.
[[nodiscard]] std::vector<LaneVerification> verify_mis_planes(const graph::Graph& g,
                                                              const sim::LanePlanes& planes,
                                                              graph::NodeId begin,
                                                              graph::NodeId end);

}  // namespace beepmis::mis
