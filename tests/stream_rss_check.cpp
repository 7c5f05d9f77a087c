// Bounded-memory acceptance check for the streaming BMCSR builder
// (src/graph/csr_file.hpp): builds an n = 2^22, average-degree-16 G(n, p)
// on-disk CSR and asserts the process peak RSS stays well below the size
// the materialised edge list alone would need.  Registered as its own
// ctest binary (NOT part of beepmis_tests) because getrusage peak RSS is
// process-wide — the combined gtest binary's other suites would dominate
// the measurement.
#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "graph/csr_file.hpp"
#include "graph/generators.hpp"
// Under a sanitizer the check degrades to a small smoke of the streaming
// path — still worth running there, since the chunked scatter buffers are
// exactly what ASan should be watching.
#include "sanitized_build.hpp"

namespace {

std::uint64_t peak_rss_bytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
}

}  // namespace

int main() {
  using beepmis::graph::NodeId;

#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
  constexpr NodeId kNodes = 1u << 16;  // small smoke; RSS bound not asserted
#else
  constexpr NodeId kNodes = 1u << 22;  // 4,194,304
#endif
  constexpr double kAvgDegree = 16.0;
  const double p = kAvgDegree / static_cast<double>(kNodes - 1);

  const std::string path =
      (std::filesystem::temp_directory_path() / "beepmis_stream_rss_check.bmcsr").string();

  beepmis::graph::StreamCsrOptions options;
  options.memory_budget_bytes = 48ull << 20;

  const beepmis::graph::EdgeStream stream =
      beepmis::graph::gnp_edge_stream(kNodes, p, /*seed=*/97);
  const beepmis::graph::StreamCsrStats stats =
      beepmis::graph::write_csr_file_streaming(kNodes, stream, path, options);

  const std::uint64_t file_bytes = std::filesystem::file_size(path);
  std::filesystem::remove(path);

  // What holding the edge list in RAM would have cost: m edges as u32
  // endpoint pairs.  The streamed build must beat half of it, and an
  // absolute ceiling (index arrays + chunk budget + slack) besides.
  const std::uint64_t edge_list_bytes = (stats.adjacency_count / 2) * 8;
  const std::uint64_t peak = peak_rss_bytes();
  constexpr std::uint64_t kAbsoluteCeiling = 140ull << 20;

  std::printf("stream_rss_check: n=%u adjacency=%llu passes=%u file=%.1f MiB\n", kNodes,
              static_cast<unsigned long long>(stats.adjacency_count), stats.stream_passes,
              static_cast<double>(file_bytes) / (1 << 20));
  std::printf("stream_rss_check: peak_rss=%.1f MiB edge_list=%.1f MiB budget=%.0f MiB\n",
              static_cast<double>(peak) / (1 << 20),
              static_cast<double>(edge_list_bytes) / (1 << 20),
              static_cast<double>(options.memory_budget_bytes) / (1 << 20));

  if (peak == 0) {
    std::fprintf(stderr, "stream_rss_check: getrusage failed, cannot measure\n");
    return 1;
  }
  const double expected_adjacency = static_cast<double>(kNodes) * kAvgDegree;
  if (static_cast<double>(stats.adjacency_count) < 0.9 * expected_adjacency ||
      static_cast<double>(stats.adjacency_count) > 1.1 * expected_adjacency) {
    std::fprintf(stderr, "stream_rss_check: adjacency count far from n*avg_degree\n");
    return 1;
  }
#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
  std::printf("stream_rss_check: PASS (sanitized build: streaming smoke only, RSS bound skipped)\n");
  return 0;
#endif
  if (peak >= edge_list_bytes / 2) {
    std::fprintf(stderr,
                 "stream_rss_check: FAIL peak RSS %.1f MiB >= half the edge list "
                 "(%.1f MiB) — the build is not bounded-memory\n",
                 static_cast<double>(peak) / (1 << 20),
                 static_cast<double>(edge_list_bytes / 2) / (1 << 20));
    return 1;
  }
  if (peak >= kAbsoluteCeiling) {
    std::fprintf(stderr, "stream_rss_check: FAIL peak RSS %.1f MiB >= ceiling %.0f MiB\n",
                 static_cast<double>(peak) / (1 << 20),
                 static_cast<double>(kAbsoluteCeiling) / (1 << 20));
    return 1;
  }
  std::printf("stream_rss_check: PASS\n");
  return 0;
}
