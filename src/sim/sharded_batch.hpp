// The lane-plane simulator: K contiguous node-range shards execute up to
// 64 trials (one per bit lane) in lock-step — every core (sharding) and
// every bit lane (batching) of one exchange engine.  This is the only
// lane-plane run loop; BatchSimulator (below) is its K = 1 spelling.
//
// Lanes: every per-node flag of the scalar BeepSimulator becomes a
// per-node LaneMask *bitplane* whose bit l is lane l's flag, so one pass
// over the CSR adjacency delivers beeps for all lanes at once (see
// batch.hpp for the kernel-facing BatchContext).  Shards: the node id
// space is split into K degree-balanced ranges (graph/partition.hpp) and
// each shard sweeps its own slice of all lane planes per exchange.
//
//   emit     each shard runs the batched kernel's emit over its slice of
//            the union active frontier, bulk planes drawn from its own
//            bulk stream, per-lane draws from its own lane streams;
//   deliver  listener-partitioned: a shard writes only its own heard
//            rows, either pushing from its local beeper list and then
//            the other shards' boundary beepers through the partition's
//            per-shard adjacency slices, or — when beeps are dense
//            (detail::gather_heard) — gathering each live frontier
//            node's full neighbourhood from beeped planes that no shard
//            writes until the reacts are done; race-free without atomics;
//   react    each shard runs the kernel's react over its own slice
//            (BatchContext::node_begin/node_end is the shard range);
//   merge    at round boundaries the coordinator (shard 0) merges
//            per-shard MIS joins into the global union (keep-alive runs
//            only), ORs the shards' nonempty-lane masks, retires finished
//            lanes with the shared detail::retire_finished_lanes and calls
//            the kernel's begin_round hook.
//
// At K = 1 the lone shard covers [0, n), builds no partition and reads
// the full adjacency; a lone worker runs inline, so no thread is spawned.
//
// ## RNG contracts
//
// K = 1 accepts both modes.  kScalarOrder takes one rng per lane, and lane
// l is bit-identical to scalar BeepSimulator::run(g, protocol, rngs[l]):
// each lane consumes its stream in exactly the scalar order (reset draws,
// ascending-id emit draws, lossy deliveries in ascending beeper order,
// then keep-alive deliveries in that lane's MIS join order).
// kStatisticalLanes is seeded by one base stream (below); results are
// deterministic per (seed, lane count) and distributed like independent
// scalar runs.  src/sim/README.md ("Batched lanes") has the full contract.
//
// K >= 2 is statistical-lanes only — construction with kScalarOrder
// throws, because the scalar draw order cannot be reproduced across
// shards and lanes at once.  Results are deterministic per (seed, shard
// count, lane count) but not bit-comparable across shard counts.
// Statistical streams are jump()-partitioned per (shard, lane): shard s's
// bulk stream is the base advanced by s·(lanes+1) jumps, and its lane-l
// stream is one more jump per lane — disjoint 2^128-output windows for
// every (shard, lane) pair.
//
// Keep-alive reads cross shard lines, so at K >= 2 the coordinator
// snapshots the in-MIS planes of the union MIS (mis_mask_) whenever
// membership changes; shards deliver keep-alive from that stable snapshot
// while others are already reacting, which is what makes the
// deliver-then-react sequence barrier-free.  The lone K = 1 shard reads
// inmis_ directly.
//
// Not supported (callers fall back to the scalar core): event traces,
// round observers, fault scenarios, recovery tracking, and protocols
// without a batched kernel (BeepProtocol::make_batch_protocol() returns
// nullptr).
#pragma once

#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <optional>
#include <utility>
#include <vector>

#include "graph/partition.hpp"
#include "sim/batch.hpp"

namespace beepmis::sim {

class ShardedBatchSimulator {
 public:
  /// Same bound (and rationale) as ShardedSimulator::kMaxShards: a shard
  /// is a worker thread plus n·(K+1)·4 bytes of partition slice index.
  static constexpr unsigned kMaxShards = 256;

  /// Binds `g` and, for `shards` >= 2, partitions it into (at most)
  /// `shards` contiguous ranges; the count is clamped to [1, n].  Worker
  /// threads are spawned per run, one per shard, through
  /// support::run_workers.  Throws std::invalid_argument for kScalarOrder
  /// with `shards` >= 2 (see the RNG contracts above).
  ShardedBatchSimulator(const graph::Graph& g, unsigned shards, SimConfig config = {},
                        BatchRngMode rng_mode = BatchRngMode::kStatisticalLanes);
  /// The simulator stores a reference; a temporary graph would dangle.
  ShardedBatchSimulator(graph::Graph&&, unsigned, SimConfig = {},
                        BatchRngMode = BatchRngMode::kStatisticalLanes) = delete;
  /// Unbound simulator: only usable through the graph-taking run overloads.
  explicit ShardedBatchSimulator(unsigned shards, SimConfig config = {},
                                 BatchRngMode rng_mode = BatchRngMode::kStatisticalLanes);

  /// kStatisticalLanes only (throws std::logic_error otherwise): runs
  /// `lanes` (1..kMaxBatchLanes) lanes of `protocol` on the bound graph,
  /// seeded from `base` (see the stream layout above), to per-lane
  /// termination (or the round cap) and returns the finished lane planes,
  /// valid until the next run.
  [[nodiscard]] LanePlanes run_planes(BatchProtocol& protocol,
                                      support::Xoshiro256StarStar base, unsigned lanes);
  /// kScalarOrder only (throws std::logic_error otherwise, so K = 1): runs
  /// rngs.size() lanes (1..kMaxBatchLanes), lane l bit-identical to scalar
  /// BeepSimulator::run(g, scalar_protocol, rngs[l]).
  [[nodiscard]] LanePlanes run_planes(BatchProtocol& protocol,
                                      std::vector<support::Xoshiro256StarStar> rngs);
  /// Rebind to `g`, then run as above.  At K = 1 a rebind to a graph with
  /// the bound node count is O(1) (the binding depends only on the config
  /// and n); at K >= 2 it rebuilds the partition, which depends on edge
  /// data.  The caller must keep `g` alive for the duration of the call.
  [[nodiscard]] LanePlanes run_planes(const graph::Graph& g, BatchProtocol& protocol,
                                      support::Xoshiro256StarStar base, unsigned lanes) {
    bind_graph(g);
    return run_planes(protocol, std::move(base), lanes);
  }
  [[nodiscard]] LanePlanes run_planes(const graph::Graph& g, BatchProtocol& protocol,
                                      std::vector<support::Xoshiro256StarStar> rngs) {
    bind_graph(g);
    return run_planes(protocol, std::move(rngs));
  }
  template <typename... Args>
  LanePlanes run_planes(graph::Graph&&, Args&&...) = delete;

  /// run_planes, then one RunResult per lane (extract_lane_results).
  [[nodiscard]] std::vector<RunResult> run(BatchProtocol& protocol,
                                           support::Xoshiro256StarStar base, unsigned lanes) {
    return extract_lane_results(run_planes(protocol, std::move(base), lanes));
  }
  [[nodiscard]] std::vector<RunResult> run(const graph::Graph& g, BatchProtocol& protocol,
                                           support::Xoshiro256StarStar base, unsigned lanes) {
    return extract_lane_results(run_planes(g, protocol, std::move(base), lanes));
  }
  [[nodiscard]] std::vector<RunResult> run(const graph::Graph& g, BatchProtocol& protocol,
                                           std::vector<support::Xoshiro256StarStar> rngs) {
    return extract_lane_results(run_planes(g, protocol, std::move(rngs)));
  }
  template <typename... Args>
  std::vector<RunResult> run(graph::Graph&&, Args&&...) = delete;

  /// The active partition (K >= 2 once a graph is bound; throws
  /// std::logic_error otherwise — one shard builds no partition).
  [[nodiscard]] const graph::Partition& partition() const;
  /// Actual shard count after clamping (valid once a graph is bound).
  [[nodiscard]] unsigned shard_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  /// Shard s's node range [first, second) (valid once a graph is bound).
  [[nodiscard]] std::pair<graph::NodeId, graph::NodeId> shard_range(unsigned s) const {
    return {shards_[s].lo, shards_[s].hi};
  }
  [[nodiscard]] const SimConfig& config() const noexcept { return config_; }
  [[nodiscard]] BatchRngMode rng_mode() const noexcept { return rng_mode_; }

 private:
  /// Per-shard execution state: the shard's slice of the frontier
  /// bookkeeping plus its (shard, lane) rng streams.  Cache-line aligned
  /// so shards hammering their own counters do not false-share.
  struct alignas(64) Shard {
    graph::NodeId lo = 0, hi = 0;
    detail::FaultSchedule faults;
    detail::FaultCursor cursor;
    LaneMask mis_crashed = 0;  ///< lanes whose MIS lost a member this round
    std::vector<graph::NodeId> active;  ///< union frontier, this range only
    std::vector<graph::NodeId> beepers;
    /// beepers filtered to boundary nodes, rebuilt every exchange when
    /// K > 1, so the cross-shard merge scans only beeps that can cross a
    /// shard line.
    std::vector<graph::NodeId> boundary_beepers;
    std::vector<graph::NodeId> prev_beepers;
    std::vector<graph::NodeId> heard_dirty;
    std::vector<graph::NodeId> joined;       ///< new MIS joins this round (keep-alive only)
    std::vector<graph::NodeId> reactivated;  ///< self-healing, this range
    /// Reliable keep-alive cache: listeners in this range with any
    /// keep-alive lane, masks in the shared mis_hear_mask_ (disjoint
    /// writes per shard).
    std::vector<graph::NodeId> mis_hear;
    bool mis_hear_stale = true;
    /// Lanes live at some node of `active` (OR of its live planes), as of
    /// the last round-end compaction; lane retirement reads the union.
    LaneMask active_lanes = 0;
    std::vector<std::uint64_t> reactivation_counts;  ///< per lane, this slice
    support::Xoshiro256StarStar bulk{0};
    std::vector<support::Xoshiro256StarStar> rngs;
    /// First exception this shard's work raised; the shard keeps
    /// arriving at every barrier and the coordinator aborts at the next
    /// round boundary (same discipline as ShardedSimulator::Lane).
    std::exception_ptr error;
  };

  /// Whether shards read partition slices (a requested K >= 2, even if
  /// clamped to one range); the K = 1 core reads the full adjacency.
  [[nodiscard]] bool partitioned() const noexcept { return requested_shards_ >= 2; }
  void bind_graph(const graph::Graph& g);
  [[nodiscard]] LanePlanes run_lanes(BatchProtocol& protocol, unsigned lanes);
  void shard_worker(unsigned s);
  void coordinate_round_boundary();
  void coordinate_exchange_top(unsigned exchange);
  void deliver_shard(Shard& shard, unsigned s);
  void deliver_lossy_scalar_order(Shard& shard);

  const graph::Graph* graph_ = nullptr;
  unsigned requested_shards_ = 1;
  SimConfig config_;
  BatchRngMode rng_mode_ = BatchRngMode::kStatisticalLanes;
  graph::Partition partition_;  ///< built only when partitioned()
  std::vector<Shard> shards_;

  // Per-node bitplanes (bit l = lane l's flag); each shard touches only
  // its own [lo, hi) rows during parallel phases.
  std::vector<LaneMask> live_;       ///< on lane's active list
  std::vector<LaneMask> inmis_;      ///< joined the MIS (live members only)
  std::vector<LaneMask> dominated_;
  std::vector<LaneMask> crashed_;    ///< fail-stopped
  std::vector<LaneMask> beeped_;
  std::vector<LaneMask> prev_beeped_;
  std::vector<LaneMask> heard_;
  std::vector<std::uint8_t> in_active_;

  /// Global MIS union (any lane, ever) in join-merge order; mutated only
  /// by the coordinator between parallel phases.  Keep-alive is its only
  /// reader, so without SimConfig::mis_keepalive it stays empty and the
  /// shards record no joins.
  std::vector<graph::NodeId> mis_union_;
  std::vector<std::uint8_t> in_mis_union_;
  /// Per-lane live MIS in join order, kept only when keep_join_order_
  /// (scalar-order lossy keep-alive draws iterate it); crashed members are
  /// compacted out each round.
  std::vector<std::vector<graph::NodeId>> mis_lists_;
  /// Coordinator's snapshot of inmis_ over the union, re-taken whenever
  /// membership changes (joins merged, members crashed): shards read the
  /// snapshot during keep-alive delivery while others are reacting, so
  /// no shard ever reads a remote in-MIS plane mid-mutation.  Allocated
  /// only at K >= 2 with SimConfig::mis_keepalive.
  std::vector<LaneMask> mis_mask_;
  /// Shared reliable keep-alive masks, per listener; each shard's
  /// mis_hear list owns the entries in its own range.
  std::vector<LaneMask> mis_hear_mask_;

  // Per-(node, lane) and per-lane aggregates.
  /// Bit-sliced beep counters (LanePlanes::beep_planes): shards write
  /// their own rows during emit; only the coordinator grows them, between
  /// barriers, into capacity reserved per run.
  std::vector<std::vector<LaneMask>> beep_planes_;
  std::vector<std::size_t> lane_rounds_;
  std::vector<std::uint64_t> reactivation_totals_;   ///< summed over shards
  LaneMask running_ = 0;     ///< lanes still executing their round loop
  LaneMask terminated_ = 0;  ///< lanes that finished with an empty active set

  // Run-scoped coordination state.
  BatchProtocol* protocol_ = nullptr;
  std::optional<std::barrier<>> sync_;
  std::atomic<bool> failed_{false};
  bool first_pass_ = true;
  bool mis_dirty_ = false;
  bool lossy_ = false;
  /// kScalarOrder, lossy and keep-alive: the one regime that reads join order.
  bool keep_join_order_ = false;
  double keep_ = 1.0;
  unsigned exchanges_ = 2;
  unsigned lane_count_ = 0;
  std::size_t round_ = 0;
};

/// The one-shard lane-plane core under its historical name, defaulting to
/// kScalarOrder: a constructor spelling of ShardedBatchSimulator(1, ...)
/// with no state or run loop of its own.
class BatchSimulator : public ShardedBatchSimulator {
 public:
  explicit BatchSimulator(SimConfig config = {},
                          BatchRngMode rng_mode = BatchRngMode::kScalarOrder)
      : ShardedBatchSimulator(1, std::move(config), rng_mode) {}
};

}  // namespace beepmis::sim
