#include "graph/graph.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "graph/csr_rows.hpp"

namespace beepmis::graph {

std::size_t Graph::max_degree() const noexcept {
  std::size_t best = 0;
  for (NodeId v = 0; v < node_count(); ++v) best = std::max(best, degree(v));
  return best;
}

double Graph::mean_degree() const noexcept {
  if (node_count() == 0) return 0.0;
  return static_cast<double>(adjacency_size()) / static_cast<double>(node_count());
}

bool Graph::has_edge(NodeId u, NodeId v) const noexcept {
  if (u >= node_count() || v >= node_count()) return false;
  const auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::edges() const {
  std::vector<Edge> out;
  out.reserve(edge_count());
  for (NodeId u = 0; u < node_count(); ++u) {
    for (NodeId v : neighbors(u)) {
      if (u < v) out.push_back({u, v});
    }
  }
  return out;
}

std::string Graph::describe() const {
  std::ostringstream ss;
  ss << "Graph(n=" << node_count() << ", m=" << edge_count() << ")";
  return ss.str();
}

GraphBuilder& GraphBuilder::add_edge(NodeId u, NodeId v) {
  detail::check_edge(node_count_, u, v);
  edges_.push_back(canonical({u, v}));
  return *this;
}

namespace {

/// GraphBuilder's heap-owned CSR: exactly one of the offset vectors is
/// filled, the other stays empty.
struct CsrStorage {
  std::vector<std::uint32_t> offsets32;
  std::vector<std::uint64_t> offsets64;
  std::vector<NodeId> adjacency;
};

/// Counting-sort CSR over `edges` in offset width Index; returns the n+1
/// offsets and fills `adjacency`.  Degrees land two places right, so after
/// the prefix sum offsets[v + 1] is row v's first slot, as fill_rows wants.
template <class Index>
std::vector<Index> counting_sort_csr(NodeId n, const std::vector<Edge>& edges,
                                     std::vector<NodeId>& adjacency) {
  std::vector<Index> offsets(static_cast<std::size_t>(n) + 2, 0);
  for (const Edge& e : edges) {
    ++offsets[std::size_t{e.u} + 2];
    ++offsets[std::size_t{e.v} + 2];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  adjacency.resize(offsets.back());
  detail::fill_rows(NodeId{0}, n, offsets.data(), adjacency.data(), [&](const auto& add) {
    for (const Edge& e : edges) add(e.u, e.v);
  });
  offsets.pop_back();
  adjacency.resize(offsets.back());
  adjacency.shrink_to_fit();  // a no-op unless duplicates merged
  return offsets;
}

}  // namespace

Graph GraphBuilder::build() const {
  // Built in the width the pre-merge slot count needs, stored in the merged one.
  constexpr std::size_t kNarrow = std::numeric_limits<std::uint32_t>::max();
  auto csr = std::make_shared<CsrStorage>();
  if (2 * edges_.size() <= kNarrow) {
    csr->offsets32 = counting_sort_csr<std::uint32_t>(node_count_, edges_, csr->adjacency);
  } else {
    csr->offsets64 = counting_sort_csr<std::uint64_t>(node_count_, edges_, csr->adjacency);
    if (csr->adjacency.size() <= kNarrow) {
      csr->offsets32.assign(csr->offsets64.begin(), csr->offsets64.end());
      std::vector<std::uint64_t>().swap(csr->offsets64);
    }
  }
  AdjacencyView view;
  view.node_count = node_count_;
  view.offsets32 = csr->offsets32.empty() ? nullptr : csr->offsets32.data();
  view.offsets64 = csr->offsets64.empty() ? nullptr : csr->offsets64.data();
  view.adjacency = csr->adjacency.data();
  view.adjacency_count = csr->adjacency.size();
  return Graph(std::move(csr), view, false);
}

Graph disjoint_union(const Graph& a, const Graph& b) {
  const NodeId na = a.node_count();
  GraphBuilder builder(na + b.node_count());
  for (const Edge& e : a.edges()) builder.add_edge(e.u, e.v);
  for (const Edge& e : b.edges()) builder.add_edge(e.u + na, e.v + na);
  return builder.build();
}

InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> keep) {
  std::vector<NodeId> ids(keep.begin(), keep.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  for (NodeId v : ids) {
    if (v >= g.node_count()) {
      throw std::invalid_argument("induced_subgraph: node id out of range");
    }
  }

  std::vector<NodeId> remap(g.node_count(), static_cast<NodeId>(-1));
  for (std::size_t i = 0; i < ids.size(); ++i) remap[ids[i]] = static_cast<NodeId>(i);

  GraphBuilder builder(static_cast<NodeId>(ids.size()));
  for (NodeId v : ids) {
    for (NodeId w : g.neighbors(v)) {
      if (v < w && remap[w] != static_cast<NodeId>(-1)) {
        builder.add_edge(remap[v], remap[w]);
      }
    }
  }
  return {builder.build(), std::move(ids)};
}

Graph complement(const Graph& g) {
  const NodeId n = g.node_count();
  GraphBuilder builder(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v)) builder.add_edge(u, v);
    }
  }
  return builder.build();
}

}  // namespace beepmis::graph
