#include "sim/result.hpp"

namespace beepmis::sim {

std::vector<graph::NodeId> RunResult::mis() const {
  std::vector<graph::NodeId> out;
  for (std::size_t v = 0; v < status.size(); ++v) {
    if (status[v] == NodeStatus::kInMis) out.push_back(static_cast<graph::NodeId>(v));
  }
  return out;
}

std::size_t RunResult::active_count() const {
  std::size_t count = 0;
  for (const NodeStatus s : status) {
    if (s == NodeStatus::kActive) ++count;
  }
  return count;
}

std::size_t RunResult::crashed_count() const {
  std::size_t count = 0;
  for (const NodeStatus s : status) {
    if (s == NodeStatus::kCrashed) ++count;
  }
  return count;
}

double RunResult::mean_beeps_per_node() const {
  if (beep_counts.empty()) return 0.0;
  double total = 0.0;
  for (const std::uint32_t b : beep_counts) total += static_cast<double>(b);
  return total / static_cast<double>(beep_counts.size());
}

// Node-major: the beep-count matrix and the planes are each read once
// sequentially (lane-major order would stride through the counts 64 times).
std::vector<RunResult> extract_lane_results(const LanePlanes& planes) {
  const graph::NodeId n = planes.node_count();
  const unsigned lanes = planes.lanes;
  std::vector<RunResult> results(lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    RunResult& r = results[l];
    r.terminated = ((planes.terminated >> l) & 1u) != 0;
    r.rounds = planes.lane_rounds[l];
    r.status.resize(n);
    r.beep_counts.resize(n);
    if (!planes.reactivations.empty()) r.reactivations = planes.reactivations[l];
  }
  for (graph::NodeId v = 0; v < n; ++v) {
    const LaneMask cr = planes.crashed[v];
    const LaneMask im = planes.inmis[v];
    const LaneMask dm = planes.dominated[v];
    const std::uint32_t* counts = &planes.beep_counts[static_cast<std::size_t>(v) * lanes];
    for (unsigned l = 0; l < lanes; ++l) {
      const LaneMask bit = LaneMask{1} << l;
      NodeStatus s = NodeStatus::kActive;
      if (cr & bit) {
        s = NodeStatus::kCrashed;
      } else if (im & bit) {
        s = NodeStatus::kInMis;
      } else if (dm & bit) {
        s = NodeStatus::kDominated;
      }
      results[l].status[v] = s;
      results[l].beep_counts[v] = counts[l];
      results[l].total_beeps += counts[l];
    }
  }
  return results;
}

}  // namespace beepmis::sim
