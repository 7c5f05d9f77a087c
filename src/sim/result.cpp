#include "sim/result.hpp"

#include <bit>

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

// Node-major: the status planes are each read once sequentially, and a
// node's counter words are transposed one set bit at a time.
std::vector<RunResult> extract_lane_results(const LanePlanes& planes) {
  const graph::NodeId n = planes.node_count();
  const unsigned lanes = planes.lanes;
  const LaneMask all = lanes >= kMaxBatchLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1;
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
    }
    for (std::size_t b = 0; b < planes.beep_planes.size(); ++b) {
      const std::uint32_t weight = std::uint32_t{1} << b;
      for (LaneMask m = planes.beep_planes[b][v] & all; m != 0; m &= m - 1) {
        RunResult& r = results[static_cast<unsigned>(std::countr_zero(m))];
        r.beep_counts[v] |= weight;
        r.total_beeps += weight;
      }
    }
  }
  return results;
}

}  // namespace beepmis::sim
