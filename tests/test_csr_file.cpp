// BMCSR on-disk container contract tests (src/graph/csr_file.hpp):
//   * round trips — write → mmap-load → identical adjacency, for both the
//     narrow and (forced) wide offset layouts, including the empty graph;
//   * reject-whole validation — truncation, trailing garbage, bad magic,
//     unknown version, header and payload corruption all refuse the file
//     loudly instead of returning a best-effort graph;
//   * atomicity — no temp droppings after success, no target file after a
//     failed write;
//   * streaming builds — write_csr_file_streaming is byte-identical to
//     GraphBuilder + write_csr_file for the same edge set, at any memory
//     budget, and rejects self-loops, duplicates, out-of-range endpoints
//     and streams that do not replay identically.
#include "graph/csr_file.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "support/hash.hpp"
#include "support/rng.hpp"

namespace beepmis::graph {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "bmcsr_test_" + std::to_string(::getpid()) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.is_open()) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Re-stamps the header checksum over bytes [0, 40) so header-field edits
/// (e.g. the version test) are caught by the *field* check, not masked by
/// the checksum check.
void restamp_header_checksum(std::string& bytes) {
  ASSERT_GE(bytes.size(), 64u);
  support::StableHash h;
  h.update_bytes(bytes.data(), 40);
  const std::uint64_t digest = h.digest();
  for (int i = 0; i < 8; ++i) {
    bytes[40 + i] = static_cast<char>((digest >> (8 * i)) & 0xff);
  }
}

void expect_load_rejects(const std::string& path, const std::string& needle) {
  try {
    (void)load_csr_file(path);
    FAIL() << "expected load_csr_file to reject " << path << " (" << needle << ")";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what() << "\nexpected to mention: " << needle;
  }
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (NodeId v = 0; v < a.node_count(); ++v) {
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "node " << v;
    for (std::size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "node " << v << " slot " << i;
    }
  }
}

TEST(CsrFile, RoundTripPreservesGraph) {
  auto rng = support::Xoshiro256StarStar(11);
  const Graph g = gnp(500, 0.04, rng);
  const std::string path = tmp_path("roundtrip.bmcsr");
  write_csr_file(g, path);

  const Graph loaded = load_csr_file(path);
  EXPECT_FALSE(g.memory_mapped());
  EXPECT_TRUE(loaded.memory_mapped());
  expect_same_graph(g, loaded);
  std::filesystem::remove(path);
}

TEST(CsrFile, RoundTripEmptyAndEdgelessGraphs) {
  for (const NodeId n : {NodeId{0}, NodeId{1}, NodeId{7}}) {
    const Graph g = empty_graph(n);
    const std::string path = tmp_path("edgeless_" + std::to_string(n) + ".bmcsr");
    write_csr_file(g, path);
    const Graph loaded = load_csr_file(path);
    expect_same_graph(g, loaded);
    std::filesystem::remove(path);
  }
}

TEST(CsrFile, CopiesOutliveTheLoadingGraph) {
  const std::string path = tmp_path("keepalive.bmcsr");
  write_csr_file(ring(64), path);

  Graph copy;
  {
    const Graph loaded = load_csr_file(path);
    copy = loaded;  // shares the mapping, must keep it alive
  }
  std::filesystem::remove(path);  // mapping survives unlink too
  EXPECT_TRUE(copy.memory_mapped());
  expect_same_graph(ring(64), copy);
}

TEST(CsrFile, CopiesShareTheMappingAndMovesEmptyTheSource) {
  const std::string path = tmp_path("share.bmcsr");
  write_csr_file(ring(64), path);
  Graph loaded = load_csr_file(path);
  std::filesystem::remove(path);

  const Graph copy = loaded;
  EXPECT_TRUE(copy.memory_mapped());
  EXPECT_EQ(copy.view().adjacency, loaded.view().adjacency);
  EXPECT_EQ(copy.view().offsets32, loaded.view().offsets32);

  const Graph moved = std::move(loaded);
  EXPECT_TRUE(moved.memory_mapped());
  EXPECT_EQ(moved.view().adjacency, copy.view().adjacency);
  EXPECT_FALSE(loaded.memory_mapped());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(loaded.node_count(), 0u);
  EXPECT_EQ(loaded.view().adjacency, nullptr);
  expect_same_graph(ring(64), moved);
}

TEST(CsrFile, RewritingAMappedGraphIsByteIdentical) {
  const std::string path_a = tmp_path("rewrite_a.bmcsr");
  const std::string path_b = tmp_path("rewrite_b.bmcsr");
  auto rng = support::Xoshiro256StarStar(3);
  write_csr_file(gnp(200, 0.1, rng), path_a);

  const Graph mapped = load_csr_file(path_a);
  write_csr_file(mapped, path_b);
  EXPECT_EQ(read_file(path_a), read_file(path_b));
  std::filesystem::remove(path_a);
  std::filesystem::remove(path_b);
}

TEST(CsrFile, SniffRecognisesOnlyBmcsrContent) {
  const std::string csr = tmp_path("sniff.bmcsr");
  write_csr_file(ring(8), csr);
  EXPECT_TRUE(is_csr_file(csr));

  const std::string text = tmp_path("sniff.edges");
  write_file(text, "n 3\n0 1\n1 2\n");
  EXPECT_FALSE(is_csr_file(text));
  EXPECT_FALSE(is_csr_file(tmp_path("does_not_exist")));

  const std::string tiny = tmp_path("sniff.tiny");
  write_file(tiny, "BM");
  EXPECT_FALSE(is_csr_file(tiny));
  std::filesystem::remove(csr);
  std::filesystem::remove(text);
  std::filesystem::remove(tiny);
}

TEST(CsrFile, SkippingTheChecksumStillRunsStructuralChecks) {
  const std::string path = tmp_path("nocheck.bmcsr");
  write_csr_file(ring(32), path);

  CsrLoadOptions trusting;
  trusting.verify_checksum = false;
  expect_same_graph(ring(32), load_csr_file(path, trusting));

  // Structural checks (exact size) still run without the checksum pass.
  std::string bytes = read_file(path);
  bytes.pop_back();
  write_file(path, bytes);
  EXPECT_THROW((void)load_csr_file(path, trusting), std::runtime_error);
  std::filesystem::remove(path);
}

// --- reject-whole validation ----------------------------------------------

TEST(CsrFile, RejectsTruncatedFiles) {
  const std::string path = tmp_path("trunc.bmcsr");
  write_csr_file(ring(32), path);
  const std::string whole = read_file(path);

  // Shorter than the header, a torn header boundary, and a torn payload.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{17}, std::size_t{63},
                                 std::size_t{64}, whole.size() - 5}) {
    write_file(path, whole.substr(0, keep));
    EXPECT_THROW((void)load_csr_file(path), std::runtime_error) << "kept " << keep;
  }
  std::filesystem::remove(path);
}

TEST(CsrFile, RejectsTrailingGarbage) {
  const std::string path = tmp_path("trailing.bmcsr");
  write_csr_file(ring(32), path);
  std::string bytes = read_file(path);
  bytes.push_back('\0');
  write_file(path, bytes);
  expect_load_rejects(path, "size");
  std::filesystem::remove(path);
}

TEST(CsrFile, RejectsBadMagic) {
  const std::string path = tmp_path("magic.bmcsr");
  write_csr_file(ring(8), path);
  std::string bytes = read_file(path);
  bytes[0] = 'X';
  write_file(path, bytes);
  expect_load_rejects(path, "magic");
  std::filesystem::remove(path);
}

TEST(CsrFile, RejectsUnknownVersion) {
  const std::string path = tmp_path("version.bmcsr");
  write_csr_file(ring(8), path);
  std::string bytes = read_file(path);
  bytes[8] = 2;  // version field; restamp so the header checksum passes
  restamp_header_checksum(bytes);
  write_file(path, bytes);
  expect_load_rejects(path, "version");
  std::filesystem::remove(path);
}

TEST(CsrFile, RejectsHeaderCorruption) {
  const std::string path = tmp_path("header.bmcsr");
  write_csr_file(ring(8), path);
  std::string bytes = read_file(path);
  bytes[20] = static_cast<char>(bytes[20] + 1);  // node_count byte
  write_file(path, bytes);
  expect_load_rejects(path, "header checksum");
  std::filesystem::remove(path);
}

TEST(CsrFile, RejectsPayloadCorruption) {
  const std::string path = tmp_path("payload.bmcsr");
  auto rng = support::Xoshiro256StarStar(5);
  write_csr_file(gnp(100, 0.1, rng), path);
  std::string bytes = read_file(path);
  bytes[bytes.size() - 3] = static_cast<char>(bytes[bytes.size() - 3] ^ 0x40);
  write_file(path, bytes);
  EXPECT_THROW((void)load_csr_file(path), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(CsrFile, FailedWritesLeaveNothingBehind) {
  const std::string dir = tmp_path("no_such_dir");
  const std::string path = dir + "/out.bmcsr";
  EXPECT_THROW(write_csr_file(ring(8), path), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(CsrFile, SuccessfulWritesLeaveNoTempFiles) {
  const std::string dir = tmp_path("atomic_dir");
  std::filesystem::create_directory(dir);
  write_csr_file(ring(8), dir + "/out.bmcsr");
  std::size_t entries = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++entries;
    EXPECT_EQ(entry.path().filename().string(), "out.bmcsr");
  }
  EXPECT_EQ(entries, 1u);
  std::filesystem::remove_all(dir);
}

// --- streaming builds -----------------------------------------------------

TEST(CsrFileStreaming, MatchesBuilderByteForByteAcrossFamilies) {
  struct Case {
    std::string name;
    Graph built;
    EdgeStream stream;
  };
  auto rng = support::Xoshiro256StarStar(7);
  std::vector<Case> cases;
  cases.push_back({"ring", ring(64), ring_edge_stream(64)});
  cases.push_back({"path", path(33), path_edge_stream(33)});
  cases.push_back({"star", star(40), star_edge_stream(40)});
  cases.push_back({"complete", complete(24), complete_edge_stream(24)});
  cases.push_back({"grid", grid2d(9, 7), grid2d_edge_stream(9, 7)});
  cases.push_back({"hex", hex_grid(5, 6), hex_grid_edge_stream(5, 6)});
  cases.push_back({"hypercube", hypercube(6), hypercube_edge_stream(6)});
  cases.push_back({"cliques", clique_family(5, 4), clique_family_edge_stream(5, 4)});
  cases.push_back({"caterpillar", caterpillar(10, 3), caterpillar_edge_stream(10, 3)});
  cases.push_back({"gnp", gnp(300, 0.05, rng), gnp_edge_stream(300, 0.05, 7)});
  {
    auto rng2 = support::Xoshiro256StarStar(9);
    cases.push_back({"bipartite", random_bipartite(40, 50, 0.2, rng2),
                     random_bipartite_edge_stream(40, 50, 0.2, 9)});
  }

  for (const Case& c : cases) {
    // gnp/bipartite consume the rng exactly like the stream's fresh replay
    // rng, so the built graph and the stream describe the same edge set.
    const std::string built_path = tmp_path("family_" + c.name + "_built.bmcsr");
    const std::string streamed_path = tmp_path("family_" + c.name + "_streamed.bmcsr");
    write_csr_file(c.built, built_path);
    const StreamCsrStats stats =
        write_csr_file_streaming(c.built.node_count(), c.stream, streamed_path);
    EXPECT_EQ(stats.adjacency_count, 2 * c.built.edge_count()) << c.name;
    EXPECT_GE(stats.stream_passes, 2u) << c.name;
    EXPECT_EQ(read_file(built_path), read_file(streamed_path)) << c.name;
    std::filesystem::remove(built_path);
    std::filesystem::remove(streamed_path);
  }
}

TEST(CsrFileStreaming, TinyMemoryBudgetTradesPassesNotBytes) {
  auto rng = support::Xoshiro256StarStar(13);
  const Graph g = gnp(200, 0.08, rng);
  const std::string reference = tmp_path("budget_ref.bmcsr");
  const std::string squeezed = tmp_path("budget_small.bmcsr");
  write_csr_file(g, reference);

  StreamCsrOptions tight;
  tight.memory_budget_bytes = 256;  // a handful of nodes per chunk
  const StreamCsrStats stats =
      write_csr_file_streaming(200, gnp_edge_stream(200, 0.08, 13), squeezed, tight);
  EXPECT_GT(stats.stream_passes, 4u);
  EXPECT_EQ(read_file(reference), read_file(squeezed));
  std::filesystem::remove(reference);
  std::filesystem::remove(squeezed);
}

TEST(CsrFileStreaming, ForcedWideLayoutRoundTrips) {
  const std::string narrow_path = tmp_path("wide_narrow.bmcsr");
  const std::string wide_path = tmp_path("wide_wide.bmcsr");
  write_csr_file_streaming(100, ring_edge_stream(100), narrow_path);

  StreamCsrOptions opts;
  opts.force_wide_offsets = true;
  write_csr_file_streaming(100, ring_edge_stream(100), wide_path, opts);

  // The wide layout spends 4 extra bytes per offset entry.
  EXPECT_EQ(std::filesystem::file_size(wide_path),
            std::filesystem::file_size(narrow_path) + 101 * 4);

  const Graph narrow = load_csr_file(narrow_path);
  const Graph wide = load_csr_file(wide_path);
  expect_same_graph(ring(100), narrow);
  expect_same_graph(ring(100), wide);

  // Rewriting the wide-mapped graph preserves its layout (view().wide()).
  const std::string rewide = tmp_path("wide_rewrite.bmcsr");
  write_csr_file(wide, rewide);
  EXPECT_EQ(read_file(wide_path), read_file(rewide));
  std::filesystem::remove(narrow_path);
  std::filesystem::remove(wide_path);
  std::filesystem::remove(rewide);
}

TEST(CsrFileStreaming, EmptyAndSingleNodeStreams) {
  const EdgeStream nothing = [](const EdgeEmitter&) {};
  for (const NodeId n : {NodeId{0}, NodeId{1}}) {
    const std::string path = tmp_path("tiny_stream_" + std::to_string(n) + ".bmcsr");
    const StreamCsrStats stats = write_csr_file_streaming(n, nothing, path);
    EXPECT_EQ(stats.adjacency_count, 0u);
    expect_same_graph(empty_graph(n), load_csr_file(path));
    std::filesystem::remove(path);
  }
}

TEST(CsrFileStreaming, RejectsBadEdges) {
  const std::string path = tmp_path("bad_edges.bmcsr");
  const auto expect_invalid = [&](const EdgeStream& stream, const std::string& what) {
    EXPECT_THROW((void)write_csr_file_streaming(4, stream, path), std::invalid_argument)
        << what;
    EXPECT_FALSE(std::filesystem::exists(path)) << what;
  };
  expect_invalid([](const EdgeEmitter& emit) { emit(1, 1); }, "self-loop");
  expect_invalid([](const EdgeEmitter& emit) { emit(0, 4); }, "out of range");
  expect_invalid(
      [](const EdgeEmitter& emit) {
        emit(0, 1);
        emit(0, 1);
      },
      "duplicate, same orientation");
  expect_invalid(
      [](const EdgeEmitter& emit) {
        emit(0, 1);
        emit(1, 0);
      },
      "duplicate, flipped orientation");
}

TEST(CsrFileStreaming, RejectsStreamsThatDoNotReplayIdentically) {
  const std::string path = tmp_path("unstable_stream.bmcsr");
  StreamCsrOptions opts;
  opts.memory_budget_bytes = 64;  // several fill chunks, so replay happens

  // Grows an edge after the counting pass.
  {
    auto passes = std::make_shared<unsigned>(0);
    const EdgeStream growing = [passes](const EdgeEmitter& emit) {
      emit(0, 1);
      emit(2, 3);
      if ((*passes)++ > 0) emit(1, 2);
    };
    EXPECT_THROW((void)write_csr_file_streaming(8, growing, path, opts),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  // Loses an edge after the counting pass.
  {
    auto passes = std::make_shared<unsigned>(0);
    const EdgeStream shrinking = [passes](const EdgeEmitter& emit) {
      emit(0, 1);
      if ((*passes)++ == 0) emit(2, 3);
    };
    EXPECT_THROW((void)write_csr_file_streaming(8, shrinking, path, opts),
                 std::invalid_argument);
    EXPECT_FALSE(std::filesystem::exists(path));
  }
}

TEST(CsrFileStreaming, RejectionsFireFromTheSharedRowCore) {
  // Each rejection must come from the counting-sort row core it shares with
  // GraphBuilder::build, in whichever fill chunk the bad row lands, not
  // only from the degree pass's n-1 cap.
  const std::string path = tmp_path("row_core_rejections.bmcsr");
  const auto expect_rejection = [&](const EdgeStream& stream, std::size_t budget,
                                    const std::string& cause) {
    StreamCsrOptions opts;
    opts.memory_budget_bytes = budget;
    try {
      (void)write_csr_file_streaming(8, stream, path, opts);
      ADD_FAILURE() << "accepted; expected " << cause;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(cause), std::string::npos) << e.what();
    }
    EXPECT_FALSE(std::filesystem::exists(path)) << cause;
  };
  for (const std::size_t budget : {std::size_t{64} << 20, std::size_t{16}}) {
    expect_rejection(
        [](const EdgeEmitter& emit) {
          emit(0, 1);
          emit(6, 7);
          emit(7, 6);
        },
        budget, "duplicate edge 6-7");
    auto grow = std::make_shared<unsigned>(0);
    expect_rejection(
        [grow](const EdgeEmitter& emit) {
          emit(5, 6);
          if ((*grow)++ > 0) emit(6, 7);
        },
        budget, "grew a neighbour");
    auto lose = std::make_shared<unsigned>(0);
    expect_rejection(
        [lose](const EdgeEmitter& emit) {
          emit(0, 1);
          if ((*lose)++ == 0) emit(6, 7);
        },
        budget, "lost a neighbour");
  }
}

}  // namespace
}  // namespace beepmis::graph
