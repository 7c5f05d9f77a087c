// The counting-sort CSR core shared by GraphBuilder::build (RAM tier) and
// write_csr_file_streaming (disk tier).
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "graph/graph.hpp"

namespace beepmis::graph::detail {

/// The edge checks of both builders: throws std::invalid_argument on a
/// self-loop or an endpoint outside [0, n).
inline void check_edge(NodeId n, NodeId u, NodeId v) {
  if (u == v) throw std::invalid_argument("CSR build: self-loop at node " + std::to_string(u));
  if (u >= n || v >= n) {
    throw std::invalid_argument("CSR build: endpoint " + std::to_string(std::max(u, v)) +
                                " out of range (n=" + std::to_string(n) + ")");
  }
}

/// Fills rows [lo, hi) of a CSR whose degrees its caller counted and
/// prefix-summed.  `bound` (hi - lo + 1 slot indices into `slots`) enters
/// one place right of the row starts: bound[i + 1] is row lo + i's first
/// slot and bound[0] == bound[1].  bound[i + 1] is then row lo + i's cursor
/// while `for_each_edge(add)` calls add(u, v) once per edge, appending v to
/// row u and u to row v (other rows skipped), so bound[i], bound[i + 1]
/// end up delimiting row lo + i; every row is then sorted.  Without
/// `row_end` repeated neighbours merge, rows sliding down in place and
/// `bound` rewritten.  With `row_end(r)` (row r's counted end) a row that
/// overflows, ends short or repeats a neighbour throws
/// std::invalid_argument.
template <class Index, class ForEachEdge, class RowEnd = std::nullptr_t>
void fill_rows(NodeId lo, NodeId hi, Index* bound, NodeId* slots,
               const ForEachEdge& for_each_edge, const RowEnd& row_end = nullptr) {
  constexpr bool kChecked = !std::is_null_pointer_v<RowEnd>;
  const auto reject = [](NodeId r, const std::string& what) {
    throw std::invalid_argument("CSR build: node " + std::to_string(r) + ": " + what);
  };
  const auto place = [&](NodeId owner, NodeId neighbor) {
    if (owner - lo >= hi - lo) return;  // outside [lo, hi) (unsigned wrap)
    Index& next = bound[owner - lo + 1];
    if constexpr (kChecked) {
      if (next == row_end(owner)) reject(owner, "grew a neighbour on replay");
    }
    slots[next++] = neighbor;
  };
  for_each_edge([&](NodeId u, NodeId v) {
    place(u, v);
    place(v, u);
  });

  Index begin = bound[0];
  Index dropped = 0;  // merged neighbours so far: how far rows slide down
  for (NodeId r = lo; r < hi; ++r) {
    const Index end = bound[r - lo + 1];
    NodeId* first = slots + begin;
    NodeId* last = slots + end;
    std::sort(first, last);
    if constexpr (kChecked) {
      if (end != row_end(r)) reject(r, "lost a neighbour on replay");
      if (const NodeId* d = std::adjacent_find(first, last); d != last) {
        reject(r, "duplicate edge " + std::to_string(r) + "-" + std::to_string(*d));
      }
    } else {
      NodeId* kept = std::unique(first, last);
      if (dropped != 0) std::copy(first, kept, first - dropped);
      dropped += static_cast<Index>(last - kept);
    }
    bound[r - lo + 1] = end - dropped;
    begin = end;
  }
}

}  // namespace beepmis::graph::detail
