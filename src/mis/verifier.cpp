#include "mis/verifier.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <sstream>
#include <stdexcept>
#include <utility>

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

namespace {

using sim::LaneMask;
using Tally = std::array<std::size_t, sim::kMaxBatchLanes>;

/// Calls f(integral_constant<unsigned, i>) for i = 0..N-1 as straight-line
/// code, so arrays indexed by i stay in registers.
template <unsigned N, class F>
inline void unrolled(F&& f) {
  [&]<unsigned... I>(std::integer_sequence<unsigned, I...>) {
    (f(std::integral_constant<unsigned, I>{}), ...);
  }(std::make_integer_sequence<unsigned, N>{});
}

/// Adds one per set bit of `m` to its lane: the cost follows the set bits,
/// so it suits the tallies that are zero at almost every node of a valid
/// run (crashed, active, uncovered, violations).
void tally(LaneMask m, Tally& per_lane) noexcept {
  for (; m != 0; m &= m - 1) ++per_lane[std::countr_zero(m)];
}

/// A bit-sliced per-lane counter of 0/1 increments (bit l of level[j] is
/// bit j of lane l's count): one branch-free ripple per add, whatever the
/// lane pattern.  Holds at most kCapacity adds, so the scan flushes it into
/// wide per-lane sums at least that often.
struct SlicedCounter {
  static constexpr unsigned kLevels = 8;
  static constexpr std::size_t kCapacity = (std::size_t{1} << kLevels) - 1;
  std::array<LaneMask, kLevels> level{};

  void add(LaneMask m) noexcept {
    unrolled<kLevels>([&](auto j) {
      const LaneMask t = level[j];
      level[j] = t ^ m;
      m &= t;
    });
  }
  void flush_into(Tally& per_lane) noexcept {
    for (unsigned j = 0; j < kLevels; ++j) {
      for (LaneMask m = level[j]; m != 0; m &= m - 1) {
        per_lane[std::countr_zero(m)] += std::size_t{1} << j;
      }
      level[j] = 0;
    }
  }
};

/// One range's raw counts.  `carries` counts, per lane, the overflows of
/// the `sum` accumulator out of its top level, so a lane's beep total is
/// its `sum` plus `carries` shifted up by the plane count.  Bits of lanes
/// past the batch's lane count are junk and never read.
struct ScanCounts {
  Tally mis{}, violations{}, uncovered{}, active{}, crashed{}, carries{};
  std::array<LaneMask, sim::kMaxBeepPlanes> sum{}, max{};
};

/// Nodes per block of the scan: the status pass and the neighbour scan
/// run over a block, then the counter pass.  Split apart, the neighbour
/// scan's random loads overlap across nodes instead of waiting behind the
/// counters' straight-line code.
constexpr graph::NodeId kBlock = 256;

/// The verification pass over [begin, end) with W counter planes.  W is
/// fixed per instantiation, so the beep reductions run as straight-line
/// bit-sliced code: a full adder of the node's counts into a W-level
/// accumulator and an MSB-first compare against the running max, with no
/// data-dependent exit.  `any_crash` says whether some node of the whole
/// graph has a crashed lane; without one, in-MIS lanes are the inmis plane
/// itself and each edge costs one neighbour load.
template <unsigned W>
void scan(const graph::Graph& g, const sim::LanePlanes& planes, LaneMask all, bool any_crash,
          graph::NodeId begin, graph::NodeId end, ScanCounts& out) {
  const LaneMask* const crashed = planes.crashed.data();
  const LaneMask* const inmis = planes.inmis.data();
  const LaneMask* const dominated = planes.dominated.data();
  std::array<const LaneMask*, W> counters{};
  unrolled<W>([&](auto b) { counters[b] = planes.beep_planes[b].data(); });
  std::array<LaneMask, W> sum{}, max{};
  SlicedCounter mis, carries;
  std::size_t pending = 0;  // adds since the counters' last flush
  std::array<LaneMask, kBlock> block_mis{};

  for (graph::NodeId lo = begin; lo < end;) {
    const graph::NodeId hi = end - lo > kBlock ? lo + kBlock : end;
    for (graph::NodeId v = lo; v < hi; ++v) {
      const LaneMask cr = crashed[v] & all;
      const LaneMask im = inmis[v] & ~cr & all;
      const LaneMask dm = dominated[v] & ~cr & ~im & all;
      block_mis[v - lo] = im;
      tally(cr, out.crashed);
      tally(all & ~(cr | im | dm), out.active);
      if ((im | dm) == 0) continue;
      const auto neighbors = g.neighbors(v);
      LaneMask covered = 0;  // lanes with an MIS neighbour
      if (any_crash) {
        for (const graph::NodeId w : neighbors) covered |= inmis[w] & ~crashed[w];
      } else {
        for (const graph::NodeId w : neighbors) covered |= inmis[w];
      }
      // A clash is rare (an invalid run): only then count its edges, each
      // once, at the lower endpoint.
      if ((im & covered) != 0) {
        for (const graph::NodeId w : neighbors) {
          if (w > v) tally(im & inmis[w] & ~crashed[w], out.violations);
        }
      }
      tally(dm & ~covered, out.uncovered);
    }
    for (graph::NodeId v = lo; v < hi; ++v) {
      mis.add(block_mis[v - lo]);
      if constexpr (W > 0) {
        std::array<LaneMask, W> c{};
        unrolled<W>([&](auto b) { c[b] = counters[b][v]; });
        LaneMask carry = 0;
        unrolled<W>([&](auto b) {
          const LaneMask a = sum[b], half = a ^ c[b];
          sum[b] = half ^ carry;
          carry = (a & c[b]) | (carry & half);
        });
        carries.add(carry);
        // MSB first: `above` collects lanes whose count at v beats the
        // running max, `tied` those equal on every plane so far.
        LaneMask above = 0, tied = ~LaneMask{0};
        unrolled<W>([&](auto i) {
          constexpr unsigned b = W - 1 - decltype(i)::value;
          above |= tied & c[b] & ~max[b];
          tied &= ~(c[b] ^ max[b]);
        });
        unrolled<W>([&](auto b) { max[b] ^= (max[b] ^ c[b]) & above; });
      }
      if (++pending == SlicedCounter::kCapacity) {
        mis.flush_into(out.mis);
        carries.flush_into(out.carries);
        pending = 0;
      }
    }
    lo = hi;
  }
  mis.flush_into(out.mis);
  carries.flush_into(out.carries);
  std::copy(sum.begin(), sum.end(), out.sum.begin());
  std::copy(max.begin(), max.end(), out.max.begin());
}

template <std::size_t... W>
constexpr auto make_scans(std::index_sequence<W...>) {
  return std::array{&scan<static_cast<unsigned>(W)>...};
}
/// scan<W> for every plane count 0..kMaxBeepPlanes.
constexpr auto kScans = make_scans(std::make_index_sequence<sim::kMaxBeepPlanes + 1>{});

}  // namespace

std::vector<LaneVerification> verify_mis_planes(const graph::Graph& g,
                                                const sim::LanePlanes& planes,
                                                graph::NodeId begin, graph::NodeId end) {
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
  // The whole graph, not just the range: a neighbour may lie outside it.
  const bool any_crash = std::any_of(planes.crashed.begin(), planes.crashed.end(),
                                     [all](LaneMask m) { return (m & all) != 0; });
  const auto width = static_cast<unsigned>(counters.size());
  ScanCounts counts;
  kScans[width](g, planes, all, any_crash, begin, end, counts);

  std::vector<LaneVerification> out(lanes);
  for (unsigned l = 0; l < lanes; ++l) {
    VerificationReport& r = out[l].report;
    r.terminated = ((planes.terminated >> l) & 1u) != 0;
    r.independence_violations = counts.violations[l];
    r.uncovered_nodes = counts.uncovered[l];
    r.still_active = counts.active[l];
    r.crashed = counts.crashed[l];
    r.mis_size = counts.mis[l];
    out[l].total_beeps = std::uint64_t{counts.carries[l]} << width;
    for (unsigned b = 0; b < width; ++b) {
      out[l].total_beeps |= ((counts.sum[b] >> l) & 1u) << b;
      out[l].max_beeps |= static_cast<std::uint32_t>((counts.max[b] >> l) & 1u) << b;
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
