#include "mis/verifier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "support/rng.hpp"

namespace beepmis::mis {
namespace {

using sim::NodeStatus;
using sim::RunResult;

RunResult make_result(std::vector<NodeStatus> status, bool terminated = true) {
  RunResult r;
  r.status = std::move(status);
  r.terminated = terminated;
  r.beep_counts.assign(r.status.size(), 0);
  return r;
}

TEST(Verifier, AcceptsValidMisOnPath) {
  const graph::Graph g = graph::path(3);  // 0-1-2; {0, 2} is the MIS
  const RunResult r = make_result(
      {NodeStatus::kInMis, NodeStatus::kDominated, NodeStatus::kInMis});
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_TRUE(report.valid());
  EXPECT_TRUE(report.independent());
  EXPECT_TRUE(report.maximal());
  EXPECT_EQ(report.mis_size, 2u);
}

TEST(Verifier, DetectsIndependenceViolation) {
  const graph::Graph g = graph::path(2);
  const RunResult r = make_result({NodeStatus::kInMis, NodeStatus::kInMis});
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());
  EXPECT_EQ(report.independence_violations, 1u);
  EXPECT_FALSE(report.independent());
}

TEST(Verifier, CountsEachBadEdgeOnce) {
  const graph::Graph g = graph::complete(3);
  const RunResult r =
      make_result({NodeStatus::kInMis, NodeStatus::kInMis, NodeStatus::kInMis});
  EXPECT_EQ(verify_mis_run(g, r).independence_violations, 3u);
}

TEST(Verifier, DetectsUncoveredDominatedNode) {
  // Node 1 claims to be dominated but has no MIS neighbour.
  const graph::Graph g = graph::path(3);
  const RunResult r = make_result(
      {NodeStatus::kInMis, NodeStatus::kDominated, NodeStatus::kDominated});
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());
  EXPECT_EQ(report.uncovered_nodes, 1u);  // node 2 (neighbour 1 is not in MIS)
}

TEST(Verifier, DetectsStillActiveNodes) {
  const graph::Graph g = graph::path(2);
  const RunResult r =
      make_result({NodeStatus::kInMis, NodeStatus::kActive}, /*terminated=*/false);
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());
  EXPECT_EQ(report.still_active, 1u);
  EXPECT_FALSE(report.terminated);
}

TEST(Verifier, EmptyGraphIsTriviallyValid) {
  const graph::Graph g = graph::empty_graph(0);
  const RunResult r = make_result({});
  EXPECT_TRUE(verify_mis_run(g, r).valid());
}

TEST(Verifier, SizeMismatchThrows) {
  const graph::Graph g = graph::path(3);
  const RunResult r = make_result({NodeStatus::kInMis});
  EXPECT_THROW((void)verify_mis_run(g, r), std::invalid_argument);
}

TEST(Verifier, SummaryMentionsVerdictAndCounts) {
  const graph::Graph g = graph::path(2);
  const RunResult good =
      make_result({NodeStatus::kInMis, NodeStatus::kDominated});
  EXPECT_NE(verify_mis_run(g, good).summary().find("VALID"), std::string::npos);
  const RunResult bad = make_result({NodeStatus::kInMis, NodeStatus::kInMis});
  const std::string s = verify_mis_run(g, bad).summary();
  EXPECT_NE(s.find("INVALID"), std::string::npos);
  EXPECT_NE(s.find("independence_violations=1"), std::string::npos);
}

TEST(Verifier, IsValidShorthandAgrees) {
  const graph::Graph g = graph::path(2);
  EXPECT_TRUE(is_valid_mis_run(g, make_result({NodeStatus::kInMis, NodeStatus::kDominated})));
  EXPECT_FALSE(is_valid_mis_run(g, make_result({NodeStatus::kInMis, NodeStatus::kInMis})));
}

TEST(Verifier, MaximalityRequiresTermination) {
  const graph::Graph g = graph::empty_graph(1);
  RunResult r = make_result({NodeStatus::kInMis}, /*terminated=*/false);
  const VerificationReport report = verify_mis_run(g, r);
  EXPECT_FALSE(report.valid());  // not terminated
  EXPECT_TRUE(report.independent());
}

// --- plane verifier vs the scalar one -------------------------------------

/// Owning storage behind a sim::LanePlanes view.
struct PlaneState {
  unsigned lanes = 0;
  std::vector<sim::LaneMask> crashed, inmis, dominated;
  /// The drawn counts, node-major ([v * lanes + l]); the reference the
  /// bit-sliced beep_planes below encode.
  std::vector<std::uint32_t> beep_counts;
  std::vector<std::vector<sim::LaneMask>> beep_planes;
  std::vector<std::size_t> rounds;
  std::vector<std::uint64_t> reactivations;
  sim::LaneMask terminated = 0;

  [[nodiscard]] sim::LanePlanes view() const {
    return {crashed, inmis, dominated, beep_planes, lanes,
            terminated, rounds, reactivations};
  }
};

/// Rebuilds `width` bit-sliced counter planes from st.beep_counts.
void encode_counts(PlaneState& st, graph::NodeId n, unsigned width) {
  st.beep_planes.assign(width, std::vector<sim::LaneMask>(n, 0));
  for (graph::NodeId v = 0; v < n; ++v) {
    for (unsigned l = 0; l < st.lanes; ++l) {
      const std::uint32_t count = st.beep_counts[static_cast<std::size_t>(v) * st.lanes + l];
      for (unsigned b = 0; b < width; ++b) {
        if ((count >> b) & 1u) st.beep_planes[b][v] |= sim::LaneMask{1} << l;
      }
    }
  }
}

/// A random final state: per lane a greedy MIS over a random order, then
/// injected faults — adjacent members (independence violations), members
/// demoted to dominated (uncovered neighbours), still-active nodes, and
/// crashed nodes on a few lanes, some with stale in-MIS/dominated bits the
/// crashed precedence must mask.
PlaneState random_planes(const graph::Graph& g, unsigned lanes, std::uint64_t seed) {
  support::Xoshiro256StarStar rng(seed);
  const graph::NodeId n = g.node_count();
  PlaneState st;
  st.lanes = lanes;
  st.crashed.assign(n, 0);
  st.inmis.assign(n, 0);
  st.dominated.assign(n, 0);
  // Counts up to 300 span nine planes, so the bit-sliced totals carry
  // across planes and the max compare meets ties on high planes.
  st.beep_counts.resize(static_cast<std::size_t>(n) * lanes);
  for (std::uint32_t& b : st.beep_counts) b = static_cast<std::uint32_t>(rng() % 301);
  encode_counts(st, n, 9);
  st.rounds.resize(lanes);
  st.reactivations.assign(lanes, 0);
  std::vector<graph::NodeId> order(n);
  for (unsigned l = 0; l < lanes; ++l) {
    const sim::LaneMask bit = sim::LaneMask{1} << l;
    st.rounds[l] = rng() % 50;
    if (rng.bernoulli(0.8)) st.terminated |= bit;
    for (graph::NodeId v = 0; v < n; ++v) order[v] = v;
    for (graph::NodeId i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng() % i]);
    }
    for (const graph::NodeId v : order) {
      if (st.dominated[v] & bit) continue;
      st.inmis[v] |= bit;
      for (const graph::NodeId w : g.neighbors(v)) st.dominated[w] |= bit;
    }
    for (graph::NodeId v = 0; v < n; ++v) {
      if (st.inmis[v] & bit) st.dominated[v] &= ~bit;
    }
    const bool crash_lane = l % 5 == 2;
    for (graph::NodeId v = 0; v < n; ++v) {
      const double u = rng.uniform01();
      if (u < 0.03) {
        st.inmis[v] |= bit;  // may sit next to another member
        st.dominated[v] &= ~bit;
      } else if (u < 0.06) {
        st.inmis[v] &= ~bit;  // its dominated neighbours may lose cover
        st.dominated[v] |= bit;
      } else if (u < 0.08) {
        st.inmis[v] &= ~bit;
        st.dominated[v] &= ~bit;  // still active
      } else if (crash_lane && u < 0.15) {
        st.crashed[v] |= bit;  // in-MIS / dominated bits left as they were
      }
    }
  }
  return st;
}

/// Verifies `st` over the ranges between `cuts`, merges them last to
/// first, and checks every lane against verify_mis_run on the extracted
/// RunResult and against the drawn beep counts.  Stores the largest lane
/// beep total in `largest_total` when given.
void expect_state_matches_scalar(const graph::Graph& g, const PlaneState& st,
                                 const std::vector<graph::NodeId>& cuts, const std::string& what,
                                 std::uint64_t* largest_total = nullptr) {
  const unsigned lanes = st.lanes;
  const sim::LanePlanes planes = st.view();
  std::vector<graph::NodeId> bounds = cuts;
  bounds.push_back(0);
  bounds.push_back(g.node_count());
  std::sort(bounds.begin(), bounds.end());
  // Merge the ranges last to first: any order must give the same counts.
  std::vector<LaneVerification> merged(lanes);
  for (std::size_t i = bounds.size() - 1; i > 0; --i) {
    const std::vector<LaneVerification> part =
        verify_mis_planes(g, planes, bounds[i - 1], bounds[i]);
    ASSERT_EQ(part.size(), lanes) << what;
    for (unsigned l = 0; l < lanes; ++l) merged[l].merge(part[l]);
  }
  const std::vector<sim::RunResult> results = sim::extract_lane_results(planes);
  std::size_t violations = 0, uncovered = 0, active = 0, crashed = 0;
  for (unsigned l = 0; l < lanes; ++l) {
    const VerificationReport want = verify_mis_run(g, results[l]);
    const VerificationReport& got = merged[l].report;
    const std::string at = what + " lane " + std::to_string(l);
    EXPECT_EQ(((st.terminated >> l) & 1u) != 0, want.terminated) << at;
    EXPECT_EQ(verify_mis_planes(g, planes, 0, 0)[l].report.terminated, want.terminated) << at;
    EXPECT_EQ(got.mis_size, want.mis_size) << at;
    EXPECT_EQ(got.independence_violations, want.independence_violations) << at;
    EXPECT_EQ(got.uncovered_nodes, want.uncovered_nodes) << at;
    EXPECT_EQ(got.still_active, want.still_active) << at;
    EXPECT_EQ(got.crashed, want.crashed) << at;
    std::uint64_t drawn_total = 0;
    std::uint32_t drawn_max = 0;
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const std::uint32_t count = st.beep_counts[static_cast<std::size_t>(v) * lanes + l];
      ASSERT_EQ(results[l].beep_counts[v], count) << at << " node " << v;
      drawn_total += count;
      drawn_max = std::max(drawn_max, count);
    }
    EXPECT_EQ(results[l].total_beeps, drawn_total) << at;
    EXPECT_EQ(merged[l].total_beeps, drawn_total) << at;
    EXPECT_EQ(merged[l].max_beeps, drawn_max) << at;
    if (largest_total != nullptr) *largest_total = std::max(*largest_total, drawn_total);
    violations += want.independence_violations;
    uncovered += want.uncovered_nodes;
    active += want.still_active;
    crashed += want.crashed;
  }
  // The injected faults must actually show up, or the test proves nothing.
  EXPECT_GT(violations, 0u) << what;
  EXPECT_GT(uncovered, 0u) << what;
  EXPECT_GT(active, 0u) << what;
  if (lanes > 2) {
    EXPECT_GT(crashed, 0u) << what;
  }
}

void expect_matches_scalar(const graph::Graph& g, unsigned lanes, std::uint64_t seed,
                           const std::vector<graph::NodeId>& cuts, const std::string& what) {
  expect_state_matches_scalar(g, random_planes(g, lanes, seed), cuts, what);
}

TEST(Verifier, PlaneVerifierMatchesScalarOnGnp) {
  auto rng = support::Xoshiro256StarStar(0x6e9);
  const graph::Graph g = graph::gnp(400, 0.02, rng);
  for (const unsigned lanes : {1u, 37u, 64u}) {
    expect_matches_scalar(g, lanes, 11 + lanes, {}, "gnp whole lanes=" + std::to_string(lanes));
    expect_matches_scalar(g, lanes, 23 + lanes, {1, 137, 138, 290, 399},
                          "gnp split lanes=" + std::to_string(lanes));
  }
}

TEST(Verifier, PlaneVerifierMatchesScalarOnGrid) {
  const graph::Graph g = graph::grid2d(17, 23);
  for (const unsigned lanes : {1u, 37u, 64u}) {
    expect_matches_scalar(g, lanes, 31 + lanes, {}, "grid whole lanes=" + std::to_string(lanes));
    expect_matches_scalar(g, lanes, 47 + lanes, {23, 24, 200, 390},
                          "grid split lanes=" + std::to_string(lanes));
  }
}

/// Redraws every count of `st` to fill `width` planes: a quarter of them
/// are the width's largest count, 2^width - 1, the rest uniform up to it.
void fill_counts(PlaneState& st, graph::NodeId n, unsigned width, std::uint64_t seed) {
  support::Xoshiro256StarStar rng(seed);
  const std::uint64_t top = (std::uint64_t{1} << width) - 1;
  for (std::uint32_t& b : st.beep_counts) {
    b = static_cast<std::uint32_t>(rng() % 4 == 0 ? top : rng() % (top + 1));
  }
  encode_counts(st, n, width);
}

TEST(Verifier, PlaneVerifierMatchesScalarAtEveryPlaneCount) {
  // Every counter width a run can grow to, each filled up to its largest
  // count, on lane counts at and next to the word's edges.  The cuts at 3
  // and 301 sit on no power-of-two boundary, and the middle range holds
  // more nodes than a bit-sliced lane counter takes between flushes.
  auto rng = support::Xoshiro256StarStar(0x51ce);
  const graph::Graph g = graph::gnp(600, 0.01, rng);
  for (unsigned width = 0; width <= sim::kMaxBeepPlanes; ++width) {
    for (const unsigned lanes : {1u, 37u, 63u, 64u}) {
      PlaneState st = random_planes(g, lanes, 101 + width * 64 + lanes);
      fill_counts(st, g.node_count(), width, 202 + width * 64 + lanes);
      std::uint64_t largest_total = 0;
      expect_state_matches_scalar(
          g, st, {3, 301}, "width=" + std::to_string(width) + " lanes=" + std::to_string(lanes),
          &largest_total);
      if (width == sim::kMaxBeepPlanes) {
        EXPECT_GT(largest_total, std::uint64_t{1} << 32) << "lanes=" << lanes;
      }
    }
  }

  // Ranges of tens of thousands of nodes, cut off any power of two.
  const graph::Graph long_path = graph::path(70'001);
  PlaneState st = random_planes(long_path, 64, 303);
  fill_counts(st, long_path.node_count(), 12, 404);
  expect_state_matches_scalar(long_path, st, {12'345, 65'601}, "path n=70001");
}

TEST(Verifier, PlaneVerifierHonoursCrashesOutsideTheRange) {
  // Path 0-...-7, one lane.  Nodes 1 and 6 crashed with stale in-MIS bits,
  // node 4 is the only live member.  The range [2, 6) holds no crashed
  // node, yet node 2's cover would come only from crashed node 1.
  const graph::Graph g = graph::path(8);
  PlaneState st;
  st.lanes = 1;
  st.crashed = {0, 1, 0, 0, 0, 0, 1, 0};
  st.inmis = {0, 1, 0, 0, 1, 0, 1, 0};
  st.dominated = {1, 0, 1, 1, 0, 1, 0, 1};
  st.beep_counts.assign(8, 0);
  encode_counts(st, 8, 0);
  st.rounds = {3};
  st.terminated = 1;
  const LaneVerification inside = verify_mis_planes(g, st.view(), 2, 6)[0];
  EXPECT_EQ(inside.report.uncovered_nodes, 1u);  // node 2
  EXPECT_EQ(inside.report.crashed, 0u);
  EXPECT_EQ(inside.report.mis_size, 1u);
  EXPECT_EQ(inside.report.independence_violations, 0u);
  const VerificationReport whole = verify_mis_planes(g, st.view(), 0, 8)[0].report;
  const VerificationReport want = verify_mis_run(g, sim::extract_lane_results(st.view())[0]);
  EXPECT_EQ(whole.uncovered_nodes, want.uncovered_nodes);
  EXPECT_EQ(whole.uncovered_nodes, 3u);  // nodes 0, 2 and 7
  EXPECT_EQ(whole.crashed, want.crashed);
  EXPECT_EQ(whole.mis_size, want.mis_size);

  // The same on random planes: no crashed bit inside [150, 260), many
  // around it; the merged ranges must still match the scalar verifier.
  auto rng = support::Xoshiro256StarStar(0xc4a5);
  const graph::Graph gnp = graph::gnp(400, 0.02, rng);
  PlaneState random = random_planes(gnp, 64, 505);
  std::size_t stale_outside = 0;  // range nodes next to a crashed stale member
  for (graph::NodeId v = 150; v < 260; ++v) {
    random.crashed[v] = 0;
    for (const graph::NodeId w : gnp.neighbors(v)) {
      if (w < 150 || w >= 260) stale_outside += (random.crashed[w] & random.inmis[w]) != 0;
    }
  }
  EXPECT_GT(stale_outside, 0u);
  expect_state_matches_scalar(gnp, random, {150, 260}, "crashes outside [150, 260)");
}

TEST(Verifier, PlaneVerifierRejectsMismatchedInput) {
  const graph::Graph g = graph::path(4);
  const PlaneState st = random_planes(g, 3, 5);
  EXPECT_THROW((void)verify_mis_planes(graph::path(5), st.view(), 0, 5), std::invalid_argument);
  EXPECT_THROW((void)verify_mis_planes(g, st.view(), 3, 2), std::invalid_argument);
  EXPECT_THROW((void)verify_mis_planes(g, st.view(), 0, 5), std::invalid_argument);
  sim::LanePlanes wrong_lanes = st.view();
  wrong_lanes.lanes = 4;  // per-lane rounds no longer match
  EXPECT_THROW((void)verify_mis_planes(g, wrong_lanes, 0, 4), std::invalid_argument);

  PlaneState short_plane = st;
  short_plane.beep_planes[3].pop_back();  // one counter plane misses node 3
  EXPECT_THROW((void)verify_mis_planes(g, short_plane.view(), 0, 4), std::invalid_argument);
  PlaneState too_wide = st;
  too_wide.beep_planes.resize(sim::kMaxBeepPlanes + 1, std::vector<sim::LaneMask>(4, 0));
  EXPECT_THROW((void)verify_mis_planes(g, too_wide.view(), 0, 4), std::invalid_argument);
  PlaneState few_rounds = st;
  few_rounds.rounds.pop_back();
  EXPECT_THROW((void)verify_mis_planes(g, few_rounds.view(), 0, 4), std::invalid_argument);
  PlaneState few_reactivations = st;
  few_reactivations.reactivations.pop_back();
  EXPECT_THROW((void)verify_mis_planes(g, few_reactivations.view(), 0, 4),
               std::invalid_argument);
  few_reactivations.reactivations.clear();  // empty: no self-healing counts, fine
  EXPECT_NO_THROW((void)verify_mis_planes(g, few_reactivations.view(), 0, 4));
}

}  // namespace
}  // namespace beepmis::mis
