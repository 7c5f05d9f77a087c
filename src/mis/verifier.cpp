#include "mis/verifier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace beepmis::mis {

VerificationReport verify_mis_run(const graph::Graph& g, const sim::RunResult& result) {
  if (result.status.size() != g.node_count()) {
    throw std::invalid_argument("verify_mis_run: result does not match graph size");
  }

  VerificationReport report;
  report.terminated = result.terminated;

  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    switch (result.status[v]) {
      case sim::NodeStatus::kActive:
        ++report.still_active;
        break;
      case sim::NodeStatus::kInMis: {
        ++report.mis_size;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (v < w && result.status[w] == sim::NodeStatus::kInMis) {
            ++report.independence_violations;
          }
        }
        break;
      }
      case sim::NodeStatus::kDominated: {
        bool has_mis_neighbor = false;
        for (const graph::NodeId w : g.neighbors(v)) {
          if (result.status[w] == sim::NodeStatus::kInMis) {
            has_mis_neighbor = true;
            break;
          }
        }
        if (!has_mis_neighbor) ++report.uncovered_nodes;
        break;
      }
      case sim::NodeStatus::kCrashed:
        ++report.crashed;
        break;
    }
  }
  return report;
}

bool is_valid_mis_run(const graph::Graph& g, const sim::RunResult& result) {
  return verify_mis_run(g, result).valid();
}

void LaneVerification::merge(const LaneVerification& other) noexcept {
  report.independence_violations += other.report.independence_violations;
  report.uncovered_nodes += other.report.uncovered_nodes;
  report.still_active += other.report.still_active;
  report.crashed += other.report.crashed;
  report.mis_size += other.report.mis_size;
  total_beeps += other.total_beeps;
  max_beeps = std::max(max_beeps, other.max_beeps);
}

std::vector<LaneVerification> verify_mis_planes(const graph::Graph& g,
                                                const sim::LanePlanes& planes,
                                                graph::NodeId begin, graph::NodeId end) {
  using sim::LaneMask;
  const graph::NodeId n = g.node_count();
  const unsigned lanes = planes.lanes;
  const auto& counters = planes.beep_planes;
  if (lanes == 0 || lanes > sim::kMaxBatchLanes || planes.node_count() != n ||
      planes.inmis.size() != n || planes.dominated.size() != n ||
      planes.lane_rounds.size() != lanes ||
      (!planes.reactivations.empty() && planes.reactivations.size() != lanes) ||
      counters.size() > sim::kMaxBeepPlanes ||
      std::any_of(counters.begin(), counters.end(),
                  [n](const std::vector<LaneMask>& plane) { return plane.size() != n; })) {
    throw std::invalid_argument("verify_mis_planes: planes do not match the graph");
  }
  if (begin > end || end > n) {
    throw std::invalid_argument("verify_mis_planes: node range out of bounds");
  }
  const LaneMask all = lanes == sim::kMaxBatchLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1;
  // Effective in-MIS lanes of a node: crashed takes precedence.
  const auto mis_lanes = [&planes](graph::NodeId v) {
    return planes.inmis[v] & ~planes.crashed[v];
  };

  // Per-lane tallies in flat arrays; a node adds one per set bit, so the
  // cost follows the set bits (in a valid run: MIS members only).
  using Tally = std::array<std::size_t, sim::kMaxBatchLanes>;
  Tally mis{}, violations{}, uncovered{}, active{}, crashed{};
  const auto tally = [](LaneMask m, Tally& per_lane) {
    for (; m != 0; m &= m - 1) ++per_lane[std::countr_zero(m)];
  };
  // Beep reductions stay bit-sliced like the counters: `total` is one
  // vertical counter (bit l of total[j] is bit j of lane l's sum; plane b
  // is added at level b, so no per-lane weighting is needed) and `max` is
  // a running per-lane maximum in the counters' own layout.
  const std::size_t width = counters.size();
  std::array<LaneMask, 64> total{};
  std::array<LaneMask, sim::kMaxBeepPlanes> max{};

  for (graph::NodeId v = begin; v < end; ++v) {
    const LaneMask cr = planes.crashed[v] & all;
    const LaneMask im = planes.inmis[v] & ~cr & all;
    const LaneMask dm = planes.dominated[v] & ~cr & ~im & all;
    tally(cr, crashed);
    tally(im, mis);
    tally(all & ~(cr | im | dm), active);
    if (im | dm) {
      LaneMask covered = 0;  // lanes with an MIS neighbour
      for (const graph::NodeId w : g.neighbors(v)) {
        const LaneMask mw = mis_lanes(w);
        covered |= mw;
        if (w > v) tally(im & mw, violations);
      }
      tally(dm & ~covered, uncovered);
    }
    for (std::size_t b = 0; b < width; ++b) {
      LaneMask carry = counters[b][v] & all;
      for (std::size_t j = b; carry != 0 && j < total.size(); ++j) {
        const LaneMask t = total[j];
        total[j] = t ^ carry;
        carry &= t;
      }
    }
    // MSB-first compare against the running max: `above` collects lanes
    // whose count at v is larger, `tied` those equal so far.
    LaneMask above = 0, tied = all;
    for (std::size_t b = width; b-- > 0 && tied != 0;) {
      const LaneMask c = counters[b][v] & all;
      above |= tied & c & ~max[b];
      tied &= ~(c ^ max[b]);
    }
    if (above != 0) {
      for (std::size_t b = 0; b < width; ++b) {
        max[b] = (max[b] & ~above) | (counters[b][v] & above);
      }
    }
  }

  std::vector<LaneVerification> out(lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    VerificationReport& r = out[l].report;
    r.terminated = ((planes.terminated >> l) & 1u) != 0;
    r.independence_violations = violations[l];
    r.uncovered_nodes = uncovered[l];
    r.still_active = active[l];
    r.crashed = crashed[l];
    r.mis_size = mis[l];
    for (std::size_t j = 0; j < total.size(); ++j) {
      out[l].total_beeps |= ((total[j] >> l) & 1u) << j;
    }
    for (std::size_t b = 0; b < width; ++b) {
      out[l].max_beeps |= static_cast<std::uint32_t>((max[b] >> l) & 1u) << b;
    }
  }
  return out;
}

std::string VerificationReport::summary() const {
  std::ostringstream ss;
  ss << (valid() ? "VALID" : "INVALID") << " mis_size=" << mis_size
     << " terminated=" << (terminated ? "yes" : "no")
     << " independence_violations=" << independence_violations
     << " uncovered=" << uncovered_nodes << " still_active=" << still_active
     << " crashed=" << crashed;
  return ss.str();
}

}  // namespace beepmis::mis
