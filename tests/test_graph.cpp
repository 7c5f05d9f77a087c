#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli/registry.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/rng.hpp"

namespace beepmis::graph {
namespace {

/// The comparison-sort build GraphBuilder::build used before its counting
/// sort, kept as the oracle: canonical edges, one global sort + unique,
/// degree prefix sum, scatter through a cursor copy, then per-row sorts.
struct ReferenceCsr {
  std::vector<std::uint64_t> offsets;
  std::vector<NodeId> adjacency;
};
ReferenceCsr reference_build(NodeId n, std::vector<Edge> edges) {
  for (Edge& e : edges) e = canonical(e);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  ReferenceCsr ref;
  ref.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const Edge& e : edges) {
    ++ref.offsets[e.u + 1];
    ++ref.offsets[e.v + 1];
  }
  for (std::size_t i = 1; i < ref.offsets.size(); ++i) ref.offsets[i] += ref.offsets[i - 1];
  std::vector<std::uint64_t> cursor(ref.offsets.begin(), ref.offsets.end() - 1);
  ref.adjacency.resize(edges.size() * 2);
  for (const Edge& e : edges) {
    ref.adjacency[cursor[e.u]++] = e.v;
    ref.adjacency[cursor[e.v]++] = e.u;
  }
  for (NodeId v = 0; v < n; ++v) {
    std::sort(ref.adjacency.begin() + static_cast<std::ptrdiff_t>(ref.offsets[v]),
              ref.adjacency.begin() + static_cast<std::ptrdiff_t>(ref.offsets[v + 1]));
  }
  return ref;
}

/// Feeds `edges` (any orientation, repeats allowed) to a GraphBuilder and
/// requires the built CSR to equal the reference element by element.
void expect_builds_like_reference(NodeId n, const std::vector<Edge>& edges,
                                  const std::string& what) {
  GraphBuilder builder(n);
  for (const Edge& e : edges) builder.add_edge(e.u, e.v);
  const Graph g = builder.build();
  const ReferenceCsr ref = reference_build(n, edges);
  const AdjacencyView view = g.view();
  ASSERT_EQ(view.node_count, n) << what;
  ASSERT_FALSE(view.wide()) << what;
  for (NodeId v = 0; v <= n; ++v) ASSERT_EQ(view.offset(v), ref.offsets[v]) << what << " v=" << v;
  ASSERT_EQ(view.adjacency_count, ref.adjacency.size()) << what;
  EXPECT_TRUE(std::equal(ref.adjacency.begin(), ref.adjacency.end(), view.adjacency)) << what;
}

/// `edges` plus a repeat of every third edge in flipped orientation and of
/// every fifth in its own, shuffled: the multigraph a generator may emit.
std::vector<Edge> with_repeats(std::vector<Edge> edges, support::Xoshiro256StarStar& rng) {
  const std::size_t m = edges.size();
  for (std::size_t i = 0; i < m; ++i) {
    if (i % 3 == 0) edges.push_back({edges[i].v, edges[i].u});
    if (i % 5 == 0) edges.push_back(edges[i]);
  }
  for (std::size_t i = edges.size(); i > 1; --i) std::swap(edges[i - 1], edges[rng.below(i)]);
  return edges;
}

TEST(CountingSortBuild, MatchesSortReferenceOnRandomMultigraphs) {
  support::Xoshiro256StarStar rng(16);
  for (const NodeId n : {NodeId{3}, NodeId{17}, NodeId{200}, NodeId{1000}}) {
    for (const std::size_t m : {std::size_t{0}, std::size_t{n / 4}, std::size_t{4 * n}}) {
      std::vector<Edge> edges;
      for (std::size_t i = 0; i < m; ++i) {
        const auto u = static_cast<NodeId>(rng.below(n));
        const auto v = static_cast<NodeId>(rng.below(n - 1));
        edges.push_back({u, v < u ? v : v + 1});  // any orientation, never a loop
      }
      expect_builds_like_reference(n, with_repeats(edges, rng),
                                   "n=" + std::to_string(n) + " m=" + std::to_string(m));
    }
  }
}

TEST(CountingSortBuild, MatchesSortReferenceOnTinyGraphs) {
  expect_builds_like_reference(0, {}, "n=0");
  expect_builds_like_reference(1, {}, "n=1");
  expect_builds_like_reference(2, {}, "n=2 edgeless");
  expect_builds_like_reference(2, {{1, 0}, {0, 1}, {1, 0}}, "n=2 repeated edge");
  // Isolated nodes at both ends and between the rows that fill.
  expect_builds_like_reference(9, {{4, 2}, {2, 6}, {6, 4}, {2, 4}}, "isolated nodes");
}

TEST(CountingSortBuild, MatchesSortReferenceOnEveryFamily) {
  // family="file" reads edge-list text through read_edge_list's builder.
  const std::string text_path = ::testing::TempDir() + "counting_sort_family_" +
                                std::to_string(::getpid()) + ".txt";
  {
    std::ofstream out(text_path);
    write_edge_list(out, ring(32));
  }
  support::Xoshiro256StarStar rng(7);
  for (const std::string& family : cli::graph_families()) {
    cli::GraphSpec spec;
    spec.family = family;
    spec.n = 64;
    spec.p = family == "geometric" ? 0.3 : 0.2;
    spec.rows = 6;
    spec.cols = 7;
    spec.k = 3;
    spec.path = text_path;
    const Graph g = cli::make_graph(spec);
    const std::vector<Edge> edges = g.edges();
    // The family's own build is canonical, and a rebuild from its edges with
    // repeats in both orientations is the same CSR.
    const ReferenceCsr ref = reference_build(g.node_count(), edges);
    ASSERT_EQ(g.adjacency_size(), ref.adjacency.size()) << family;
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ASSERT_TRUE(std::equal(g.neighbors(v).begin(), g.neighbors(v).end(),
                             ref.adjacency.begin() + static_cast<std::ptrdiff_t>(ref.offsets[v]),
                             ref.adjacency.begin() + static_cast<std::ptrdiff_t>(ref.offsets[v + 1])))
          << family << " v=" << v;
    }
    expect_builds_like_reference(g.node_count(), with_repeats(edges, rng), family);
  }
  std::remove(text_path.c_str());
}

TEST(GraphBuilder, ReusableWithPendingEdgesPreserved) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(2, 1).add_edge(1, 0);
  const Graph first = b.build();
  EXPECT_EQ(b.pending_edges(), 3u);  // build() consumes nothing
  const Graph again = b.build();
  EXPECT_EQ(again.edges(), first.edges());
  b.add_edge(3, 0);
  const Graph second = b.build();
  EXPECT_EQ(b.pending_edges(), 4u);
  EXPECT_EQ(first.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
  EXPECT_EQ(second.edges(), (std::vector<Edge>{{0, 1}, {0, 3}, {1, 2}}));
}

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = GraphBuilder(0).build();
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Graph, DefaultGraphIsEmpty) {
  const Graph g;
  EXPECT_EQ(g.node_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
  EXPECT_TRUE(g.edges().empty());
  EXPECT_FALSE(g.memory_mapped());
  EXPECT_EQ(g.view().adjacency, nullptr);
}

TEST(Graph, CopiesShareStorageAndOutliveTheOriginal) {
  auto rng = support::Xoshiro256StarStar(5);
  auto original = std::make_unique<Graph>(gnp(300, 0.05, rng));
  const std::vector<Edge> edges = original->edges();
  ASSERT_FALSE(edges.empty());
  Graph copy;
  copy = *original;
  const Graph constructed(*original);
  for (const Graph* g : {static_cast<const Graph*>(&copy), &constructed}) {
    EXPECT_EQ(g->view().adjacency, original->view().adjacency);
    EXPECT_EQ(g->view().offsets32, original->view().offsets32);
  }
  original.reset();  // the copies alone keep the storage alive
  EXPECT_EQ(copy.edges(), edges);
  EXPECT_EQ(constructed.edges(), edges);
}

TEST(Graph, MovedFromGraphIsEmpty) {
  Graph source = GraphBuilder(3).add_edge(0, 1).add_edge(1, 2).build();
  const NodeId* adjacency = source.view().adjacency;
  const auto expect_empty = [](const Graph& g) {
    EXPECT_EQ(g.node_count(), 0u);
    EXPECT_EQ(g.edge_count(), 0u);
    const AdjacencyView view = g.view();
    EXPECT_EQ(view.offsets32, nullptr);
    EXPECT_EQ(view.offsets64, nullptr);
    EXPECT_EQ(view.adjacency, nullptr);
    EXPECT_EQ(view.adjacency_count, 0u);
  };

  Graph constructed(std::move(source));
  expect_empty(source);  // NOLINT(bugprone-use-after-move): the state is the contract
  EXPECT_EQ(constructed.view().adjacency, adjacency);

  Graph assigned;
  assigned = std::move(constructed);
  expect_empty(constructed);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(assigned.view().adjacency, adjacency);
  EXPECT_EQ(assigned.edges(), (std::vector<Edge>{{0, 1}, {1, 2}}));
}

TEST(GraphBuilder, NodesWithoutEdges) {
  const Graph g = GraphBuilder(5).build();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_EQ(g.edge_count(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(g.degree(v), 0u);
}

TEST(GraphBuilder, Triangle) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 3u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(GraphBuilder, DuplicateEdgesMerged) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), std::invalid_argument);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(7, 0), std::invalid_argument);
}

TEST(Graph, NeighborsAreSorted) {
  GraphBuilder b(6);
  b.add_edge(3, 5).add_edge(3, 1).add_edge(3, 4).add_edge(3, 0);
  const Graph g = b.build();
  const auto nbrs = g.neighbors(3);
  ASSERT_EQ(nbrs.size(), 4u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(Graph, EdgesAreCanonicalAndSorted) {
  GraphBuilder b(4);
  b.add_edge(3, 2).add_edge(1, 0).add_edge(2, 0);
  const auto edges = b.build().edges();
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0], (Edge{0, 1}));
  EXPECT_EQ(edges[1], (Edge{0, 2}));
  EXPECT_EQ(edges[2], (Edge{2, 3}));
}

TEST(Graph, HasEdgeOutOfRangeIsFalse) {
  const Graph g = GraphBuilder(2).add_edge(0, 1).build();
  EXPECT_FALSE(g.has_edge(0, 5));
  EXPECT_FALSE(g.has_edge(5, 0));
}

TEST(Graph, DegreeStatsHelpers) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(0, 2).add_edge(0, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 6.0 / 4.0);
}

TEST(Graph, DescribeMentionsCounts) {
  const Graph g = GraphBuilder(7).add_edge(0, 1).build();
  const std::string d = g.describe();
  EXPECT_NE(d.find("n=7"), std::string::npos);
  EXPECT_NE(d.find("m=1"), std::string::npos);
}

TEST(Canonical, OrdersEndpoints) {
  EXPECT_EQ(canonical({5, 2}), (Edge{2, 5}));
  EXPECT_EQ(canonical({2, 5}), (Edge{2, 5}));
}

TEST(DisjointUnion, RelabelsSecondGraph) {
  const Graph a = GraphBuilder(2).add_edge(0, 1).build();
  const Graph b = GraphBuilder(3).add_edge(0, 2).build();
  const Graph u = disjoint_union(a, b);
  EXPECT_EQ(u.node_count(), 5u);
  EXPECT_EQ(u.edge_count(), 2u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(2, 4));
  EXPECT_FALSE(u.has_edge(1, 2));
}

TEST(InducedSubgraph, KeepsInternalEdgesOnly) {
  GraphBuilder b(5);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3).add_edge(3, 4);
  const Graph g = b.build();
  const std::vector<NodeId> keep{1, 2, 4};
  const InducedSubgraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.node_count(), 3u);
  EXPECT_EQ(sub.graph.edge_count(), 1u);  // only 1-2 survives
  EXPECT_EQ(sub.original_ids, (std::vector<NodeId>{1, 2, 4}));
  EXPECT_TRUE(sub.graph.has_edge(0, 1));
}

TEST(InducedSubgraph, DeduplicatesAndValidates) {
  const Graph g = GraphBuilder(3).add_edge(0, 1).build();
  const std::vector<NodeId> keep{1, 1, 0};
  const InducedSubgraph sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.node_count(), 2u);
  const std::vector<NodeId> bad{9};
  EXPECT_THROW(induced_subgraph(g, bad), std::invalid_argument);
}

TEST(Complement, TriangleBecomesEmpty) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(0, 2);
  const Graph c = complement(b.build());
  EXPECT_EQ(c.edge_count(), 0u);
}

TEST(Complement, EmptyBecomesComplete) {
  const Graph c = complement(GraphBuilder(4).build());
  EXPECT_EQ(c.edge_count(), 6u);
}

}  // namespace
}  // namespace beepmis::graph
