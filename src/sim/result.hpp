// Common result type for simulator runs: node fates plus the resource
// metrics the paper reports (rounds = "time steps", beeps per node,
// message bits for the LOCAL-model baseline).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace beepmis::sim {

/// Fate of a node during a distributed MIS execution.
enum class NodeStatus : std::uint8_t {
  kActive,     ///< still undecided (possibly not yet awake)
  kInMis,      ///< joined the independent set (inactive)
  kDominated,  ///< has a neighbour in the set (inactive)
  kCrashed,    ///< fail-stopped before deciding (fault injection only)
};

struct RunResult {
  /// True when every node became inactive before the round cap.
  bool terminated = false;
  /// Number of rounds executed, in the paper's "time step" unit (one round
  /// may comprise several beep exchanges).
  std::size_t rounds = 0;
  std::vector<NodeStatus> status;
  /// Beeps emitted per node across the whole run (beeping model only).
  std::vector<std::uint32_t> beep_counts;
  /// Total beeps across all nodes and exchanges.
  std::uint64_t total_beeps = 0;
  /// Total message bits sent (LOCAL-model runs; 0 for the beeping model,
  /// where `total_beeps` is the natural measure).
  std::uint64_t message_bits = 0;
  /// Recovery-SLA samples (SimConfig::track_recovery only): for each
  /// disruption — a round where an MIS member crashed or a crashed node
  /// revived — the number of rounds until the run was next quiescent with
  /// a valid MIS over the surviving nodes.  In disruption order.
  std::vector<std::uint32_t> recovery_rounds;
  /// Disruptions still open when the run ended (never recovered).
  std::size_t unrecovered_disruptions = 0;
  /// Total BeepContext::reactivate calls across the run (self-healing
  /// protocols; 0 otherwise).  Counted by the simulator's mutation sink so
  /// every front-end — scalar, sharded, batched — reports it without the
  /// protocol keeping a shared counter (which would break sharding).
  std::uint64_t reactivations = 0;

  /// Nodes with status kInMis, ascending.
  [[nodiscard]] std::vector<graph::NodeId> mis() const;
  /// Number of still-active nodes (0 iff terminated normally).
  [[nodiscard]] std::size_t active_count() const;
  /// Number of fail-stopped nodes.
  [[nodiscard]] std::size_t crashed_count() const;
  /// Mean beeps per node (over all nodes, including non-beepers).
  [[nodiscard]] double mean_beeps_per_node() const;
};

/// Width of the lane-plane core's bitplanes: one bit per concurrent trial.
inline constexpr unsigned kMaxBatchLanes = 64;

/// One bit per lane; bit l belongs to trial lane l.  Defined with the
/// result types (not in batch.hpp) so the plane half of the exchange
/// engine and the plane verifier can read lane planes without depending
/// on the lane-plane engine.
using LaneMask = std::uint64_t;

/// Most bit-sliced beep-counter planes a batched run keeps: counts are
/// uint32 in RunResult, so 32 planes hold any count.
inline constexpr unsigned kMaxBeepPlanes = 32;

/// Read-only view of a finished batched run
/// (ShardedBatchSimulator::run_planes): the final status planes and the
/// per-lane aggregates every lane's RunResult is built from.  Lane l's
/// status of node v follows the precedence crashed, then in-MIS, then
/// dominated, else active.  The view borrows the simulator's storage and
/// is valid until its next run or its destruction.
struct LanePlanes {
  std::span<const LaneMask> crashed;    ///< one plane per node
  std::span<const LaneMask> inmis;      ///< one plane per node
  std::span<const LaneMask> dominated;  ///< one plane per node
  /// Bit-sliced per-(node, lane) beep episodes, plane-major: bit l of
  /// beep_planes[b][v] is bit b of lane l's count at node v; bits above
  /// the last plane are zero.  At most kMaxBeepPlanes planes of n words.
  std::span<const std::vector<LaneMask>> beep_planes;
  unsigned lanes = 0;
  LaneMask terminated = 0;                       ///< lanes that ended with no active node
  std::span<const std::size_t> lane_rounds;      ///< per lane
  std::span<const std::uint64_t> reactivations;  ///< per lane

  [[nodiscard]] graph::NodeId node_count() const noexcept {
    return static_cast<graph::NodeId>(crashed.size());
  }
};

/// Materialises one RunResult per lane of `planes`: statuses by the
/// precedence above, beep counts transposed out of the counter planes.
[[nodiscard]] std::vector<RunResult> extract_lane_results(const LanePlanes& planes);

}  // namespace beepmis::sim
