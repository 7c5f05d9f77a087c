// Memory-footprint checks for the lane-plane engine, on an n = 2^18
// G(n, 8/n).  Each mode is its own ctest, since peak RSS is process-wide.
//
// `plane_footprint_rss_check` (PlaneFootprintRss): one 64-lane statistical
// ShardedBatchSimulator batch (local feedback, K = 2) must grow the process
// peak RSS by less than 208 bytes per node.  A node-major uint32
// beep-count matrix alone costs 64 · 4 = 256 bytes per node, so the budget
// rules it out; the bit-sliced counter planes cost 8 bytes per plane per
// node.  The batch measures ~185 B/node with round-bounded exponent planes
// (only the widths its rounds reach) and no MIS union without keep-alive;
// with a fixed 11 exponent planes and the union it measured ~239, so the
// budget (~12% above 185) pins that saving.
//
// `plane_footprint_rss_check sweep` (SweepFootprintRss): a whole
// run_beep_trials sweep — 128 statistical trials, 2 threads, auto route
// (lane planes at K = 2) — whose factory returns a copy of the caller's
// graph, as the CLI and the perfbench driver do.  The sweep must grow peak
// RSS by less than 230 bytes per node.  It measures ~213 B/node when graph
// copies share storage; a deep copy of the CSR for trial 0's graph adds
// (n + 1) · 4 + 2m · 4 ≈ 36 B/node at average degree 8 and measured ~249.
// This mode fixes glibc's mmap threshold at its 128 KiB default first, so
// every plane is its own mapping, returned on free: otherwise which
// thread's arena kept the first batch's freed planes decides whether the
// second batch reuses them, and about one run in three reads ~72 B/node
// more on either side.
// Registered as separate ctest processes (NOT part of beepmis_tests) for
// the same reason as stream_rss_check: peak RSS is process-wide.
#include <malloc.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/verifier.hpp"
#include "sim/sharded_batch.hpp"
#include "sanitized_build.hpp"
#include "support/rng.hpp"

namespace {

using namespace beepmis;

#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
constexpr graph::NodeId kNodes = 1u << 12;
#else
constexpr graph::NodeId kNodes = 1u << 18;
#endif
constexpr unsigned kLanes = 64;
constexpr unsigned kShards = 2;

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

/// Peak-RSS growth of `work()` over the RSS before it, in bytes; 0 (after
/// a message) if /proc/self/status is unreadable.  `reset` reports whether
/// the watermark could be reset first.
template <typename Work>
std::uint64_t peak_growth(const Work& work, bool& reset) {
  reset = reset_peak_rss();
  const std::uint64_t before = status_bytes("VmRSS");
  work();
  const std::uint64_t peak = status_bytes("VmHWM");
  if (before == 0 || peak == 0) {
    std::fprintf(stderr, "plane_footprint_rss_check: /proc/self/status unreadable\n");
    return 0;
  }
  return peak > before ? peak - before : 0;
}

/// Prints the measurement and applies the per-node budget (skipped under
/// sanitizers); the process exit code.
int judge(const char* what, std::uint64_t growth, bool reset, std::uint64_t budget_per_node) {
  const double per_node = static_cast<double>(growth) / kNodes;
  std::printf(
      "plane_footprint_rss_check: %s n=%u lanes=%u shards=%u growth=%.1f MiB (%.1f B/node, "
      "budget %llu B/node)%s\n",
      what, kNodes, kLanes, kShards, static_cast<double>(growth) / (1 << 20), per_node,
      static_cast<unsigned long long>(budget_per_node),
      reset ? "" : " [peak not resettable: growth includes the graph build]");
#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
  std::printf("plane_footprint_rss_check: PASS (sanitized build: smoke only, bound skipped)\n");
  return 0;
#endif
  if (growth >= budget_per_node * kNodes) {
    std::fprintf(stderr,
                 "plane_footprint_rss_check: FAIL %s grew peak RSS by %.1f B/node >= "
                 "%llu B/node\n",
                 what, per_node, static_cast<unsigned long long>(budget_per_node));
    return 1;
  }
  std::printf("plane_footprint_rss_check: PASS\n");
  return 0;
}

int batch_check(const graph::Graph& g) {
  sim::ShardedBatchSimulator simulator(g, kShards, sim::SimConfig{},
                                       sim::BatchRngMode::kStatisticalLanes);
  const mis::LocalFeedbackMis scalar;
  const auto kernel = scalar.make_batch_protocol(sim::BatchRngMode::kStatisticalLanes);
  if (kernel == nullptr) {
    std::fprintf(stderr, "plane_footprint_rss_check: no statistical local-feedback kernel\n");
    return 1;
  }

  // Graph and partition are built; only the batch's own allocations count.
  sim::LanePlanes planes;
  bool reset = false;
  const std::uint64_t growth = peak_growth(
      [&] { planes = simulator.run_planes(*kernel, support::Xoshiro256StarStar(1), kLanes); },
      reset);
  const std::vector<mis::LaneVerification> lanes =
      mis::verify_mis_planes(g, planes, 0, g.node_count());
  for (unsigned l = 0; l < kLanes; ++l) {
    if (!lanes[l].report.valid()) {
      std::fprintf(stderr, "plane_footprint_rss_check: FAIL lane %u: %s\n", l,
                   lanes[l].report.summary().c_str());
      return 1;
    }
  }
  return growth == 0 ? 1 : judge("batch", growth, reset, 208);
}

int sweep_check(const graph::Graph& g) {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  harness::TrialConfig config;
  config.trials = 2 * kLanes;
  config.threads = kShards;
  config.shared_graph = true;
  config.rng_mode = sim::BatchRngMode::kStatisticalLanes;
#if defined(BEEPMIS_RSS_CHECK_SANITIZED)
  config.auto_shard_min_nodes = kNodes;  // keep the full-size route at smoke size
#endif
  const harness::GraphFactory graphs = [&g](support::Xoshiro256StarStar&) { return g; };
  const harness::BeepProtocolFactory protocols = [] {
    return std::make_unique<mis::LocalFeedbackMis>();
  };

  // The graph is built; the sweep's own allocations count, trial 0's
  // graph included.
  harness::TrialStats stats;
  bool reset = false;
  const std::uint64_t growth =
      peak_growth([&] { stats = harness::run_beep_trials(graphs, protocols, config); }, reset);
  if (stats.valid != config.trials) {
    std::fprintf(stderr, "plane_footprint_rss_check: FAIL sweep: %zu of %zu trials valid\n",
                 stats.valid, config.trials);
    return 1;
  }
  return growth == 0 ? 1 : judge("sweep", growth, reset, 230);
}

}  // namespace

int main(int argc, char** argv) {
  const bool sweep = argc > 1 && std::string(argv[1]) == "sweep";
  if (argc > 2 || (argc == 2 && !sweep)) {
    std::fprintf(stderr, "usage: plane_footprint_rss_check [sweep]\n");
    return 1;
  }
  support::Xoshiro256StarStar graph_rng(18);
  const graph::Graph g = graph::gnp(kNodes, 8.0 / kNodes, graph_rng);
  return sweep ? sweep_check(g) : batch_check(g);
}
