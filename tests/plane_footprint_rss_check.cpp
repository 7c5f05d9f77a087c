// Memory-footprint check for the lane-plane engine: one 64-lane
// statistical ShardedBatchSimulator batch (local feedback, K = 2) on an
// n = 2^18 G(n, 8/n) must grow the process peak RSS by less than
// kBudgetPerNode bytes per node.  A node-major uint32 beep-count matrix
// alone costs 64 · 4 = 256 bytes per node, so the budget rules it out;
// the bit-sliced counter planes cost 8 bytes per plane per node.  The
// batch measures ~185 B/node with round-bounded exponent planes (only
// the widths its rounds reach) and no MIS union without keep-alive; with
// a fixed 11 exponent planes and the union it measured ~239, so the
// budget (~12% above 185) pins that saving.
// Registered as its own ctest binary (NOT part of beepmis_tests) for the
// same reason as stream_rss_check: peak RSS is process-wide.
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/verifier.hpp"
#include "sim/sharded_batch.hpp"
#include "sanitized_build.hpp"
#include "support/rng.hpp"

namespace {

/// One "<key>: <n> kB" field of /proc/self/status, in bytes (0 if absent).
std::uint64_t status_bytes(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::stoull(line.substr(key.size() + 1)) * 1024;
    }
  }
  return 0;
}

/// Resets the peak-RSS watermark (VmHWM) to the current RSS; false where
/// the kernel does not allow it.
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace

int main() {
  using namespace beepmis;

#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
  constexpr graph::NodeId kNodes = 1u << 12;
#else
  constexpr graph::NodeId kNodes = 1u << 18;
#endif
  constexpr unsigned kLanes = 64;
  constexpr unsigned kShards = 2;
  constexpr std::uint64_t kBudgetPerNode = 208;

  support::Xoshiro256StarStar graph_rng(18);
  const graph::Graph g = graph::gnp(kNodes, 8.0 / kNodes, graph_rng);
  sim::ShardedBatchSimulator simulator(g, kShards, sim::SimConfig{},
                                       sim::BatchRngMode::kStatisticalLanes);
  const mis::LocalFeedbackMis scalar;
  const auto kernel = scalar.make_batch_protocol(sim::BatchRngMode::kStatisticalLanes);
  if (kernel == nullptr) {
    std::fprintf(stderr, "plane_footprint_rss_check: no statistical local-feedback kernel\n");
    return 1;
  }

  // Graph and partition are built; only the batch's own allocations count.
  const bool reset = reset_peak_rss();
  const std::uint64_t before = status_bytes("VmRSS");
  const sim::LanePlanes planes =
      simulator.run_planes(*kernel, support::Xoshiro256StarStar(1), kLanes);
  const std::uint64_t peak = status_bytes("VmHWM");
  const std::vector<mis::LaneVerification> lanes =
      mis::verify_mis_planes(g, planes, 0, g.node_count());

  for (unsigned l = 0; l < kLanes; ++l) {
    if (!lanes[l].report.valid()) {
      std::fprintf(stderr, "plane_footprint_rss_check: FAIL lane %u: %s\n", l,
                   lanes[l].report.summary().c_str());
      return 1;
    }
  }
  if (before == 0 || peak == 0) {
    std::fprintf(stderr, "plane_footprint_rss_check: /proc/self/status unreadable\n");
    return 1;
  }
  const std::uint64_t growth = peak > before ? peak - before : 0;
  const double per_node = static_cast<double>(growth) / kNodes;
  std::printf(
      "plane_footprint_rss_check: n=%u lanes=%u shards=%u growth=%.1f MiB (%.1f B/node, "
      "budget %llu B/node)%s\n",
      kNodes, kLanes, kShards, static_cast<double>(growth) / (1 << 20), per_node,
      static_cast<unsigned long long>(kBudgetPerNode),
      reset ? "" : " [peak not resettable: growth includes the graph build]");
#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
  std::printf("plane_footprint_rss_check: PASS (sanitized build: smoke only, bound skipped)\n");
  return 0;
#endif
  if (growth >= kBudgetPerNode * kNodes) {
    std::fprintf(stderr,
                 "plane_footprint_rss_check: FAIL batch grew peak RSS by %.1f B/node >= "
                 "%llu B/node\n",
                 per_node, static_cast<unsigned long long>(kBudgetPerNode));
    return 1;
  }
  std::printf("plane_footprint_rss_check: PASS\n");
  return 0;
}
