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
/// Non-owning — valid only while the Graph it came from, or a copy, lives.
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
/// One representation for every storage tier: an AdjacencyView into
/// immutable storage plus an opaque keep-alive of that storage — the
/// heap block GraphBuilder fills, or the read-only mapping of an on-disk
/// CSR file (graph/csr_file.hpp's load_csr_file).  No accessor branches
/// on the tier, so every simulator runs unmodified against either.
/// Copies share the storage (O(1), a refcount bump), and the storage is
/// released when the last copy goes away; a moved-from Graph is empty.
class Graph {
 public:
  Graph() = default;
  Graph(const Graph&) = default;
  Graph& operator=(const Graph&) = default;
  Graph(Graph&& other) noexcept
      : storage_(std::move(other.storage_)),
        view_(std::exchange(other.view_, {})),
        mapped_(std::exchange(other.mapped_, false)) {}
  Graph& operator=(Graph&& other) noexcept {
    storage_ = std::move(other.storage_);
    view_ = std::exchange(other.view_, {});
    mapped_ = std::exchange(other.mapped_, false);
    return *this;
  }

  [[nodiscard]] NodeId node_count() const noexcept { return view_.node_count; }
  [[nodiscard]] std::size_t edge_count() const noexcept { return adjacency_size() / 2; }

  /// Length of the concatenated adjacency array (== 2m).
  [[nodiscard]] std::size_t adjacency_size() const noexcept {
    return static_cast<std::size_t>(view_.adjacency_count);
  }

  /// Whether this graph reads from a memory-mapped on-disk CSR file.
  [[nodiscard]] bool memory_mapped() const noexcept { return mapped_; }

  /// Sorted neighbours of `v`.  Precondition: v < node_count().
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const noexcept {
    return view_.neighbors(v);
  }

  [[nodiscard]] std::size_t degree(NodeId v) const noexcept {
    return static_cast<std::size_t>(view_.offset(v + 1) - view_.offset(v));
  }

  /// Read view of the storage (see AdjacencyView); valid while this Graph
  /// or any copy of it lives.
  [[nodiscard]] AdjacencyView view() const noexcept { return view_; }

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

  Graph(std::shared_ptr<const void> storage, AdjacencyView view, bool mapped) noexcept
      : storage_(std::move(storage)), view_(view), mapped_(mapped) {}

  std::shared_ptr<const void> storage_;  ///< keeps view_'s arrays alive
  AdjacencyView view_;
  bool mapped_ = false;
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
