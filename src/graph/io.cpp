#include "graph/io.hpp"

#include <algorithm>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace beepmis::graph {

namespace {

[[noreturn]] void parse_fail(std::size_t line_number, const std::string& message) {
  throw std::runtime_error("read_edge_list: line " + std::to_string(line_number) + ": " +
                           message);
}

/// Strict decimal NodeId: digits only, no sign, no overflow.
bool parse_node_token(const std::string& token, NodeId& out) {
  if (token.empty() || token.size() > 10) return false;  // NodeId max has 10 digits
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  if (value > std::numeric_limits<NodeId>::max()) return false;
  out = static_cast<NodeId>(value);
  return true;
}

/// Shared strict scanner behind read_edge_list and edge_list_file_stream:
/// validates the header and every edge line (naming the 1-based line
/// number in every error), passes the node count to `on_header` (which
/// returns whether to go on) and then each edge to `on_edge`, and returns
/// the node count.
template <typename HeaderFn, typename EdgeFn>
NodeId scan_edge_list(std::istream& in, HeaderFn&& on_header, EdgeFn&& on_edge) {
  std::string line;
  std::string token;
  std::vector<std::string> tokens;
  std::size_t line_number = 0;
  bool have_header = false;
  NodeId n = 0;

  while (std::getline(in, line)) {
    ++line_number;
    // Strip comments; blank (or comment-only) lines are skipped below.
    if (const auto hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    tokens.clear();
    std::istringstream ls(line);
    while (ls >> token) tokens.push_back(token);
    if (tokens.empty()) continue;

    if (!have_header) {
      if (tokens[0] != "n") {
        parse_fail(line_number, "expected 'n <count>' header before any edges");
      }
      if (tokens.size() != 2) parse_fail(line_number, "header must be exactly 'n <count>'");
      if (!parse_node_token(tokens[1], n)) {
        parse_fail(line_number, "bad node count '" + tokens[1] + "'");
      }
      have_header = true;
      if (!on_header(n)) return n;
      continue;
    }

    if (tokens[0] == "n") parse_fail(line_number, "duplicate 'n' header");
    if (tokens.size() != 2) {
      parse_fail(line_number, "expected exactly two endpoints, got " +
                                  std::to_string(tokens.size()) + " tokens");
    }
    NodeId u = 0;
    NodeId v = 0;
    if (!parse_node_token(tokens[0], u)) {
      parse_fail(line_number, "bad endpoint '" + tokens[0] + "'");
    }
    if (!parse_node_token(tokens[1], v)) {
      parse_fail(line_number, "bad endpoint '" + tokens[1] + "'");
    }
    if (u >= n || v >= n) {
      parse_fail(line_number, "endpoint " + std::to_string(std::max(u, v)) +
                                  " out of range (n=" + std::to_string(n) + ")");
    }
    if (u == v) parse_fail(line_number, "self-loop at node " + std::to_string(u));
    on_edge(u, v);
  }
  if (!have_header) throw std::runtime_error("read_edge_list: missing 'n <count>' header");
  return n;
}

std::ifstream open_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_edge_list: cannot open " + path);
  return in;
}

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "n " << g.node_count() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

Graph read_edge_list(std::istream& in) {
  std::optional<GraphBuilder> builder;
  scan_edge_list(
      in, [&builder](NodeId n) {
        builder.emplace(n);
        return true;
      },
      [&builder](NodeId u, NodeId v) { builder->add_edge(u, v); });
  return builder->build();
}

NodeId read_edge_list_node_count(const std::string& path) {
  auto in = open_text_file(path);
  try {
    return scan_edge_list(in, [](NodeId) { return false; }, [](NodeId, NodeId) {});
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(std::string(e.what()) + " (" + path + ")");
  }
}

EdgeStream edge_list_file_stream(const std::string& path) {
  (void)read_edge_list_node_count(path);  // surface open/header errors now
  return [path](const EdgeEmitter& emit) {
    auto in = open_text_file(path);
    scan_edge_list(in, [](NodeId) { return true; }, [&emit](NodeId u, NodeId v) { emit(u, v); });
  };
}

Graph load_graph_file(const std::string& path) {
  if (is_csr_file(path)) return load_csr_file(path);
  auto in = open_text_file(path);
  return read_edge_list(in);
}

std::string to_edge_list_string(const Graph& g) {
  std::ostringstream ss;
  write_edge_list(ss, g);
  return ss.str();
}

Graph from_edge_list_string(const std::string& text) {
  std::istringstream ss(text);
  return read_edge_list(ss);
}

void write_dot(std::ostream& out, const Graph& g, std::span<const NodeId> highlight) {
  std::vector<bool> is_highlighted(g.node_count(), false);
  for (NodeId v : highlight) {
    if (v < g.node_count()) is_highlighted[v] = true;
  }
  out << "graph G {\n  node [shape=circle];\n";
  for (NodeId v = 0; v < g.node_count(); ++v) {
    out << "  " << v;
    if (is_highlighted[v]) out << " [style=filled, fillcolor=lightblue]";
    out << ";\n";
  }
  for (const Edge& e : g.edges()) out << "  " << e.u << " -- " << e.v << ";\n";
  out << "}\n";
}

std::string adjacency_matrix_string(const Graph& g) {
  std::ostringstream ss;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      ss << (g.has_edge(u, v) ? '1' : '0');
      if (v + 1 < g.node_count()) ss << ' ';
    }
    ss << '\n';
  }
  return ss.str();
}

}  // namespace beepmis::graph
