#include "graph/generators.hpp"

#include <cmath>
#include <functional>
#include <queue>
#include <stdexcept>
#include <vector>

namespace beepmis::graph {

// Deterministic and seed-replayable families share one sink-templated edge
// enumeration each: the Graph generator feeds a GraphBuilder, the edge
// stream feeds the streaming CSR writer, and both walk the identical
// sequence — the bit-identity contract between the RAM and disk tiers
// hangs on this sharing, so add edges only inside the emit_* functions.
namespace {

template <typename Sink>
void emit_complete_edges(NodeId n, Sink&& sink) {
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) sink(u, v);
  }
}

/// Skip-based G(n,p) edge enumeration (Batagelj & Brandes 2005): walks the
/// implicit list of all C(n,2) edges, jumping Geometric(p) positions at a
/// time, so the cost is proportional to the number of generated edges.
template <typename Sink>
void emit_gnp_edges_sparse(NodeId n, double p, support::Xoshiro256StarStar& rng,
                           Sink&& sink) {
  const double log_1p = std::log(1.0 - p);
  std::int64_t v = 1;
  std::int64_t w = -1;
  const auto nn = static_cast<std::int64_t>(n);
  while (v < nn) {
    const double r = 1.0 - rng.uniform01();  // (0, 1]
    const auto skip = static_cast<std::int64_t>(std::floor(std::log(r) / log_1p));
    w += 1 + skip;
    while (w >= v && v < nn) {
      w -= v;
      ++v;
    }
    if (v < nn) {
      sink(static_cast<NodeId>(w), static_cast<NodeId>(v));
    }
  }
}

template <typename Sink>
void emit_gnp_edges(NodeId n, double p, support::Xoshiro256StarStar& rng, Sink&& sink) {
  if (n < 2 || p == 0.0) return;
  if (p == 1.0) {
    emit_complete_edges(n, sink);
    return;
  }
  if (p <= 0.25) {
    emit_gnp_edges_sparse(n, p, rng, sink);
  } else {
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = u + 1; v < n; ++v) {
        if (rng.bernoulli(p)) sink(u, v);
      }
    }
  }
}

template <typename Sink>
void emit_ring_edges(NodeId n, Sink&& sink) {
  for (NodeId v = 0; v < n; ++v) sink(v, (v + 1) % n);
}

template <typename Sink>
void emit_path_edges(NodeId n, Sink&& sink) {
  for (NodeId v = 0; v + 1 < n; ++v) sink(v, v + 1);
}

template <typename Sink>
void emit_star_edges(NodeId n, Sink&& sink) {
  for (NodeId v = 1; v < n; ++v) sink(0, v);
}

template <typename Sink>
void emit_grid2d_edges(NodeId rows, NodeId cols, Sink&& sink) {
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) sink(id(r, c), id(r, c + 1));
      if (r + 1 < rows) sink(id(r, c), id(r + 1, c));
    }
  }
}

template <typename Sink>
void emit_hex_grid_edges(NodeId rows, NodeId cols, Sink&& sink) {
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) sink(id(r, c), id(r, c + 1));
      if (r + 1 < rows) sink(id(r, c), id(r + 1, c));
      // One diagonal per cell turns the square grid into a triangular
      // lattice, whose dual is the hexagonal cell packing.
      if (r + 1 < rows && c + 1 < cols) sink(id(r, c + 1), id(r + 1, c));
    }
  }
}

template <typename Sink>
void emit_hypercube_edges(unsigned dimension, Sink&& sink) {
  const NodeId n = static_cast<NodeId>(1) << dimension;
  for (NodeId v = 0; v < n; ++v) {
    for (unsigned b = 0; b < dimension; ++b) {
      const NodeId w = v ^ (static_cast<NodeId>(1) << b);
      if (v < w) sink(v, w);
    }
  }
}

template <typename Sink>
void emit_clique_family_edges(NodeId max_clique, NodeId copies, Sink&& sink) {
  NodeId next = 0;
  for (NodeId d = 1; d <= max_clique; ++d) {
    for (NodeId c = 0; c < copies; ++c) {
      const NodeId base = next;
      for (NodeId i = 0; i < d; ++i) {
        for (NodeId j = i + 1; j < d; ++j) sink(base + i, base + j);
      }
      next += d;
    }
  }
}

template <typename Sink>
void emit_caterpillar_edges(NodeId spine, NodeId legs_per_node, Sink&& sink) {
  for (NodeId s = 0; s + 1 < spine; ++s) sink(s, s + 1);
  NodeId next = spine;
  for (NodeId s = 0; s < spine; ++s) {
    for (NodeId l = 0; l < legs_per_node; ++l) sink(s, next++);
  }
}

template <typename Sink>
void emit_random_bipartite_edges(NodeId left, NodeId right, double p,
                                 support::Xoshiro256StarStar& rng, Sink&& sink) {
  for (NodeId u = 0; u < left; ++u) {
    for (NodeId v = 0; v < right; ++v) {
      if (rng.bernoulli(p)) sink(u, left + v);
    }
  }
}

/// Builds a Graph by piping a sink-templated enumeration into GraphBuilder.
template <typename Emit>
Graph build_from_emitter(NodeId n, Emit&& emit) {
  GraphBuilder builder(n);
  emit([&builder](NodeId u, NodeId v) { builder.add_edge(u, v); });
  return builder.build();
}

/// `total` as a NodeId; throws when it does not fit.
NodeId checked_node_count(const char* who, std::uint64_t total) {
  if (total > 0xffffffffULL) throw std::invalid_argument(std::string(who) + ": too many nodes");
  return static_cast<NodeId>(total);
}

void check_probability(const char* who, double p) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument(std::string(who) + ": p must be in [0, 1]");
  }
}

}  // namespace

Graph gnp(NodeId n, double p, support::Xoshiro256StarStar& rng) {
  check_probability("gnp", p);
  return build_from_emitter(n, [&](auto&& sink) { emit_gnp_edges(n, p, rng, sink); });
}

Graph complete(NodeId n) {
  return build_from_emitter(n, [&](auto&& sink) { emit_complete_edges(n, sink); });
}

Graph empty_graph(NodeId n) { return GraphBuilder(n).build(); }

NodeId clique_family_node_count(NodeId max_clique, NodeId copies) {
  // Total nodes: copies * (1 + 2 + ... + max_clique).
  const std::uint64_t per_copy_set =
      static_cast<std::uint64_t>(max_clique) * (static_cast<std::uint64_t>(max_clique) + 1) / 2;
  return checked_node_count("clique_family", per_copy_set * copies);
}

Graph clique_family(NodeId max_clique, NodeId copies) {
  const NodeId total = clique_family_node_count(max_clique, copies);
  return build_from_emitter(
      total, [&](auto&& sink) { emit_clique_family_edges(max_clique, copies, sink); });
}

Graph clique_family_for_n(NodeId n) {
  const auto k = static_cast<NodeId>(std::cbrt(static_cast<double>(n)));
  return clique_family(std::max<NodeId>(k, 1), std::max<NodeId>(k, 1));
}

Graph grid2d(NodeId rows, NodeId cols) {
  const NodeId total = checked_node_count("grid2d", std::uint64_t{rows} * cols);
  return build_from_emitter(total, [&](auto&& sink) { emit_grid2d_edges(rows, cols, sink); });
}

Graph hex_grid(NodeId rows, NodeId cols) {
  const NodeId total = checked_node_count("hex_grid", std::uint64_t{rows} * cols);
  return build_from_emitter(total, [&](auto&& sink) { emit_hex_grid_edges(rows, cols, sink); });
}

Graph ring(NodeId n) {
  if (n < 3) throw std::invalid_argument("ring: need n >= 3");
  return build_from_emitter(n, [&](auto&& sink) { emit_ring_edges(n, sink); });
}

Graph path(NodeId n) {
  return build_from_emitter(n, [&](auto&& sink) { emit_path_edges(n, sink); });
}

Graph star(NodeId n) {
  return build_from_emitter(n, [&](auto&& sink) { emit_star_edges(n, sink); });
}

Graph random_tree(NodeId n, support::Xoshiro256StarStar& rng) {
  GraphBuilder builder(n);
  if (n <= 1) return builder.build();
  if (n == 2) return builder.add_edge(0, 1).build();

  // Decode a uniformly random Prüfer sequence of length n-2.
  std::vector<NodeId> prufer(n - 2);
  for (auto& x : prufer) x = static_cast<NodeId>(rng.below(n));

  std::vector<NodeId> degree(n, 1);
  for (NodeId x : prufer) ++degree[x];

  std::priority_queue<NodeId, std::vector<NodeId>, std::greater<>> leaves;
  for (NodeId v = 0; v < n; ++v) {
    if (degree[v] == 1) leaves.push(v);
  }
  for (NodeId x : prufer) {
    const NodeId leaf = leaves.top();
    leaves.pop();
    builder.add_edge(leaf, x);
    if (--degree[x] == 1) leaves.push(x);
  }
  const NodeId u = leaves.top();
  leaves.pop();
  builder.add_edge(u, leaves.top());
  return builder.build();
}

Graph hypercube(unsigned dimension) {
  if (dimension > 20) throw std::invalid_argument("hypercube: dimension too large");
  const NodeId n = static_cast<NodeId>(1) << dimension;
  return build_from_emitter(n, [&](auto&& sink) { emit_hypercube_edges(dimension, sink); });
}

GeometricGraph random_geometric(NodeId n, double radius,
                                support::Xoshiro256StarStar& rng) {
  GeometricGraph out;
  out.x.resize(n);
  out.y.resize(n);
  for (NodeId v = 0; v < n; ++v) {
    out.x[v] = rng.uniform01();
    out.y[v] = rng.uniform01();
  }
  GraphBuilder builder(n);
  const double r2 = radius * radius;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = out.x[u] - out.x[v];
      const double dy = out.y[u] - out.y[v];
      if (dx * dx + dy * dy <= r2) builder.add_edge(u, v);
    }
  }
  out.graph = builder.build();
  return out;
}

Graph barabasi_albert(NodeId n, NodeId attach_edges, support::Xoshiro256StarStar& rng) {
  if (attach_edges == 0) throw std::invalid_argument("barabasi_albert: attach_edges >= 1");
  const NodeId seed_nodes = attach_edges + 1;
  if (n < seed_nodes) throw std::invalid_argument("barabasi_albert: n too small");

  GraphBuilder builder(n);
  // Endpoint multiset: sampling a uniform element is degree-proportional.
  std::vector<NodeId> endpoints;
  for (NodeId u = 0; u < seed_nodes; ++u) {
    for (NodeId v = u + 1; v < seed_nodes; ++v) {
      builder.add_edge(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (NodeId v = seed_nodes; v < n; ++v) {
    std::vector<NodeId> chosen;
    while (chosen.size() < attach_edges) {
      const NodeId target = endpoints[rng.below(endpoints.size())];
      bool duplicate = false;
      for (NodeId c : chosen) duplicate = duplicate || (c == target);
      if (!duplicate) chosen.push_back(target);
    }
    for (NodeId target : chosen) {
      builder.add_edge(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return builder.build();
}

Graph random_bipartite(NodeId left, NodeId right, double p,
                       support::Xoshiro256StarStar& rng) {
  check_probability("random_bipartite", p);
  return build_from_emitter(left + right, [&](auto&& sink) {
    emit_random_bipartite_edges(left, right, p, rng, sink);
  });
}

Graph caterpillar(NodeId spine, NodeId legs_per_node) {
  const NodeId total =
      checked_node_count("caterpillar", std::uint64_t{spine} * (1 + std::uint64_t{legs_per_node}));
  return build_from_emitter(total, [&](auto&& sink) {
    emit_caterpillar_edges(spine, legs_per_node, sink);
  });
}

// --- replayable edge streams ---------------------------------------------

EdgeStream gnp_edge_stream(NodeId n, double p, std::uint64_t seed) {
  check_probability("gnp_edge_stream", p);
  return [n, p, seed](const EdgeEmitter& emit) {
    auto rng = support::Xoshiro256StarStar(seed);  // fresh per replay
    emit_gnp_edges(n, p, rng, emit);
  };
}

EdgeStream complete_edge_stream(NodeId n) {
  return [n](const EdgeEmitter& emit) { emit_complete_edges(n, emit); };
}

EdgeStream empty_edge_stream() {
  return [](const EdgeEmitter&) {};
}

EdgeStream ring_edge_stream(NodeId n) {
  if (n < 3) throw std::invalid_argument("ring: need n >= 3");
  return [n](const EdgeEmitter& emit) { emit_ring_edges(n, emit); };
}

EdgeStream path_edge_stream(NodeId n) {
  return [n](const EdgeEmitter& emit) { emit_path_edges(n, emit); };
}

EdgeStream star_edge_stream(NodeId n) {
  return [n](const EdgeEmitter& emit) { emit_star_edges(n, emit); };
}

EdgeStream grid2d_edge_stream(NodeId rows, NodeId cols) {
  (void)checked_node_count("grid2d", std::uint64_t{rows} * cols);
  return [rows, cols](const EdgeEmitter& emit) { emit_grid2d_edges(rows, cols, emit); };
}

EdgeStream hex_grid_edge_stream(NodeId rows, NodeId cols) {
  (void)checked_node_count("hex_grid", std::uint64_t{rows} * cols);
  return [rows, cols](const EdgeEmitter& emit) { emit_hex_grid_edges(rows, cols, emit); };
}

EdgeStream hypercube_edge_stream(unsigned dimension) {
  if (dimension > 20) throw std::invalid_argument("hypercube: dimension too large");
  return [dimension](const EdgeEmitter& emit) { emit_hypercube_edges(dimension, emit); };
}

EdgeStream clique_family_edge_stream(NodeId max_clique, NodeId copies) {
  (void)clique_family_node_count(max_clique, copies);  // overflow check up front
  return [max_clique, copies](const EdgeEmitter& emit) {
    emit_clique_family_edges(max_clique, copies, emit);
  };
}

EdgeStream caterpillar_edge_stream(NodeId spine, NodeId legs_per_node) {
  (void)checked_node_count("caterpillar",
                           std::uint64_t{spine} * (1 + std::uint64_t{legs_per_node}));
  return [spine, legs_per_node](const EdgeEmitter& emit) {
    emit_caterpillar_edges(spine, legs_per_node, emit);
  };
}

EdgeStream random_bipartite_edge_stream(NodeId left, NodeId right, double p,
                                        std::uint64_t seed) {
  check_probability("random_bipartite", p);
  return [left, right, p, seed](const EdgeEmitter& emit) {
    auto rng = support::Xoshiro256StarStar(seed);  // fresh per replay
    emit_random_bipartite_edges(left, right, p, rng, emit);
  };
}

}  // namespace beepmis::graph
