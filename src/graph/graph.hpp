// Immutable simple undirected graph in compressed sparse row (CSR) form.
//
// All simulators and algorithms in this library operate on this one graph
// type.  Construction goes through GraphBuilder, which deduplicates edges,
// rejects self-loops and sorts adjacency lists, so a constructed Graph
// always satisfies the simple-graph invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace beepmis::graph {

using NodeId = std::uint32_t;

/// Undirected edge; canonical form has u < v.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;

  friend constexpr bool operator==(const Edge&, const Edge&) = default;
  friend constexpr auto operator<=>(const Edge&, const Edge&) = default;
};

/// Returns the canonical (min, max) orientation of an edge.
[[nodiscard]] constexpr Edge canonical(Edge e) noexcept {
  return e.u <= e.v ? e : Edge{e.v, e.u};
}

class GraphBuilder;

/// Backend-independent read view of a CSR adjacency structure: (n+1)
/// offsets (narrow 32-bit or wide 64-bit — exactly one pointer set when
/// node_count > 0) delimiting slices of one concatenated sorted-neighbour
/// array.  This is the tier interface of the memory-tiered storage layer
/// (src/graph/README.md): the on-disk CSR writer (csr_file.hpp) consumes a
/// view, so it serialises an in-RAM and a memory-mapped graph identically,
/// and differential tests compare tiers element-by-element through it.
/// Non-owning — valid only while the Graph (or mapping) it came from lives.
struct AdjacencyView {
  NodeId node_count = 0;
  const std::uint32_t* offsets32 = nullptr;  ///< (n+1) narrow offsets, or
  const std::uint64_t* offsets64 = nullptr;  ///< (n+1) wide-fallback offsets
  const NodeId* adjacency = nullptr;
  std::uint64_t adjacency_count = 0;  ///< == offsets[node_count] == 2m

  [[nodiscard]] bool wide() const noexcept { return offsets64 != nullptr; }
  [[nodiscard]] std::uint64_t offset(NodeId i) const noexcept {
    return offsets32 != nullptr ? offsets32[i] : offsets64[i];
  }
  /// Sorted neighbours of `v`.  Precondition: v < node_count.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return {adjacency + offset(v), adjacency + offset(v + 1)};
  }
};

/// Immutable simple undirected graph.  Neighbour lists are sorted, so
/// adjacency tests are O(log deg) and neighbour iteration is cache-friendly.
///
/// CSR offsets are stored as 32-bit values (halving offset-array memory
/// traffic on large graphs); a graph whose adjacency array exceeds the
/// 32-bit range — more than ~2.1 billion undirected edges — transparently
/// falls back to 64-bit offsets.  The fallback branch is perfectly
/// predicted (one representation per graph), so the common case pays only
/// the smaller cache footprint.
///
/// Storage tiers: besides the in-RAM vectors filled by GraphBuilder, a
/// Graph can be backed by a read-only memory-mapped on-disk CSR file
/// (graph/csr_file.hpp's load_csr_file).  The accessors branch once per
/// call on the backend — one representation per graph, perfectly
/// predicted — so every simulator runs unmodified against either tier.
/// Copies of a mapped Graph share the mapping (shared_ptr keep-alive);
/// the mapping is released when the last copy goes away.
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return adjacency_size() / 2; }

  /// Length of the concatenated adjacency array (== 2m), whichever backend
  /// holds it.
  [[nodiscard]] std::size_t adjacency_size() const noexcept {
    return mapping_ == nullptr ? adjacency_.size()
                               : static_cast<std::size_t>(map_adjacency_count_);
  }

  /// Whether this graph reads from a memory-mapped on-disk CSR file.
  [[nodiscard]] bool memory_mapped() const noexcept { return mapping_ != nullptr; }

  /// Sorted neighbours of `v`.  Precondition: v < node_count().
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    if (mapping_ == nullptr) [[likely]] {
      if (wide_offsets_.empty()) [[likely]] {
        return {adjacency_.data() + offsets_[v], adjacency_.data() + offsets_[v + 1]};
      }
      return {adjacency_.data() + wide_offsets_[v], adjacency_.data() + wide_offsets_[v + 1]};
    }
    if (map_offsets32_ != nullptr) {
      return {map_adjacency_ + map_offsets32_[v], map_adjacency_ + map_offsets32_[v + 1]};
    }
    return {map_adjacency_ + map_offsets64_[v], map_adjacency_ + map_offsets64_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(NodeId v) const noexcept {
    if (mapping_ == nullptr) [[likely]] {
      if (wide_offsets_.empty()) [[likely]] {
        return offsets_[v + 1] - offsets_[v];
      }
      return wide_offsets_[v + 1] - wide_offsets_[v];
    }
    if (map_offsets32_ != nullptr) {
      return map_offsets32_[v + 1] - map_offsets32_[v];
    }
    return static_cast<std::size_t>(map_offsets64_[v + 1] - map_offsets64_[v]);
  }

  /// Uniform read view of the active backend (see AdjacencyView).
  [[nodiscard]] AdjacencyView view() const noexcept;

  [[nodiscard]] std::size_t max_degree() const noexcept;
  [[nodiscard]] double mean_degree() const noexcept;

  /// O(log deg) adjacency test.
  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const noexcept;

  /// All edges in canonical (u < v) order, sorted.
  [[nodiscard]] std::vector<Edge> edges() const;

  /// Human-readable one-line description ("Graph(n=20, m=95)").
  [[nodiscard]] std::string describe() const;

 private:
  friend class GraphBuilder;
  friend class MappedGraphFactory;  ///< csr_file.cpp's loader seam

  NodeId node_count_ = 0;
  /// Size n+1; offsets_[v]..offsets_[v+1] delimit v's slice of adjacency_.
  /// Empty iff wide_offsets_ is engaged (adjacency beyond 32-bit range) or
  /// the graph is memory-mapped.
  std::vector<std::uint32_t> offsets_;
  std::vector<std::size_t> wide_offsets_;  ///< 64-bit fallback, usually empty
  std::vector<NodeId> adjacency_;          ///< concatenated sorted neighbour lists

  /// Memory-mapped backend: an opaque keep-alive of the mapped region (a
  /// csr_file.cpp CsrMapping) plus raw pointers into it.  The pointers
  /// never point into this object's own vectors, so default copy/move keep
  /// them valid — copies just share the mapping.
  std::shared_ptr<const void> mapping_;
  const std::uint32_t* map_offsets32_ = nullptr;
  const std::uint64_t* map_offsets64_ = nullptr;
  const NodeId* map_adjacency_ = nullptr;
  std::uint64_t map_adjacency_count_ = 0;
};

/// Mutable edge accumulator that produces an immutable Graph.
///
/// Self-loops are rejected (throw); duplicate edges are merged silently so
/// generators can add edges without bookkeeping.  build() is a counting
/// sort, O(n + m) plus one sort per row: a degree pass, a prefix sum, then
/// the scatter/row-finish core it shares with write_csr_file_streaming
/// (graph/csr_rows.hpp), which merges duplicates here and rejects them
/// there.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId node_count) : node_count_(node_count) {}

  /// Adds undirected edge {u, v}.  Throws std::invalid_argument on a
  /// self-loop or out-of-range endpoint.
  GraphBuilder& add_edge(NodeId u, NodeId v);

  [[nodiscard]] NodeId node_count() const noexcept { return node_count_; }
  [[nodiscard]] std::size_t pending_edges() const noexcept { return edges_.size(); }

  /// Finalises into a Graph.  The builder may be reused afterwards (its
  /// pending edges are preserved).
  [[nodiscard]] Graph build() const;

 private:
  NodeId node_count_;
  std::vector<Edge> edges_;
};

/// Disjoint union: relabels `b`'s nodes to follow `a`'s.
[[nodiscard]] Graph disjoint_union(const Graph& a, const Graph& b);

/// Induced subgraph on `keep` (ids into `g`); returns the subgraph and the
/// mapping new-id -> old-id.
struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> original_ids;
};
[[nodiscard]] InducedSubgraph induced_subgraph(const Graph& g, std::span<const NodeId> keep);

/// Complement graph (useful for tests: MIS(G) == max clique side-checks on
/// tiny instances).  Quadratic; intended for small graphs only.
[[nodiscard]] Graph complement(const Graph& g);

}  // namespace beepmis::graph
