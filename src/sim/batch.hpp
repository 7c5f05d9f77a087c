// Batched-kernel interface: up to 64 independent trials (one per bit
// lane) of the *same* graph and SimConfig advance in lock-step through one
// structure-of-arrays sweep.  This header holds what kernels see
// (BatchContext, BatchProtocol); the engine that drives them is
// ShardedBatchSimulator (sharded_batch.hpp), whose one-shard spelling is
// BatchSimulator.
//
// Layout: every per-node flag of the scalar BeepSimulator (beeped, heard,
// prev-beeped, live/active, in-MIS, dominated, crashed) becomes a per-node
// std::uint64_t *bitplane* whose bit l is lane l's flag.  A single pass
// over the CSR adjacency then delivers beeps for all lanes at once —
// heard[w] |= beeped[v] is one 8-byte OR where the scalar core performs up
// to 64 separate byte stores — so the trial sweep is memory-bandwidth-bound
// instead of lane-bound.  A union-of-lanes frontier (nodes active in at
// least one lane) drives the activity-bound tail exactly as in the scalar
// core.
//
// Kernels must honour both rng modes: in BatchRngMode::kScalarOrder lane l
// consumes its own stream exactly as the scalar protocol consumes its run
// RNG; in kStatisticalLanes kernels may instead draw one 64-bit word per
// Bernoulli *plane* from the shared bulk stream.  See sharded_batch.hpp
// and src/sim/README.md ("Batched lanes", "Statistical lanes").
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "sim/beep.hpp"
#include "sim/exchange_core.hpp"
#include "sim/result.hpp"
#include "support/rng.hpp"

namespace beepmis::sim {

// kMaxBatchLanes, LaneMask and the LanePlanes result view live in
// sim/result.hpp (included above) with the other result types.

class ShardedBatchSimulator;

/// Per-exchange view handed to batched protocols.  Mirrors BeepContext but
/// every query answers for all lanes at once via a LaneMask.  Like the
/// scalar context it is wired at a *sink*: the engine wires one context per
/// shard (covering [0, n) at K = 1), which is what lets K shards run one
/// kernel's emit/react concurrently over disjoint node ranges.
class BatchContext {
 public:
  [[nodiscard]] const graph::Graph& graph() const noexcept { return *graph_; }
  [[nodiscard]] std::size_t round() const noexcept { return round_; }
  [[nodiscard]] unsigned exchange() const noexcept { return exchange_; }
  [[nodiscard]] unsigned lane_count() const noexcept { return lane_count_; }

  /// Union frontier: nodes active in at least one lane, ascending.  Like
  /// the scalar active list it is compacted only at round boundaries, so
  /// entries may have an empty live_mask(); protocols must skip those.
  [[nodiscard]] const std::vector<graph::NodeId>& active_nodes() const noexcept {
    return *active_;
  }

  /// The id range [node_begin, node_end) this context may mutate: one
  /// shard's slice (the whole graph at K = 1).  Kernels whose react scans
  /// *all* nodes (not just active ones — e.g. self-healing silence
  /// counters) must restrict that scan to this range or K shards would
  /// visit each node K times.
  [[nodiscard]] graph::NodeId node_begin() const noexcept { return lo_; }
  [[nodiscard]] graph::NodeId node_end() const noexcept { return hi_; }

  /// Lanes in which v is active and awake (i.e. on lane l's active list).
  [[nodiscard]] LaneMask live_mask(graph::NodeId v) const { return (*live_)[v]; }
  /// Lanes in which v beeped this exchange (valid during react).
  [[nodiscard]] LaneMask beeped_mask(graph::NodeId v) const { return (*beeped_)[v]; }
  /// Lanes in which v heard at least one beep this exchange (valid during
  /// react; accounts for injected beep loss).
  [[nodiscard]] LaneMask heard_mask(graph::NodeId v) const { return (*heard_)[v]; }
  /// Lanes in which v is dominated (maintenance protocols inspect these
  /// between the usual frontier sweeps; crashed lanes are never dominated).
  [[nodiscard]] LaneMask dominated_mask(graph::NodeId v) const { return (*dominated_)[v]; }
  /// Lanes still executing their round loop.  A lane that left the loop
  /// (scalar termination point) has frozen planes; maintenance protocols
  /// must mask any state they keep per round — silence counters,
  /// reactivations — with this, or they would keep mutating lanes whose
  /// scalar run has already returned.
  [[nodiscard]] LaneMask running_mask() const noexcept { return *running_; }

  /// Emit-phase only: v beeps in `lanes` (must be a subset of live_mask(v)).
  /// Beep-episode accounting matches the scalar core: a lane's beep
  /// continuing from the previous exchange of the same round is one episode.
  void beep(graph::NodeId v, LaneMask lanes);
  /// React-phase only: v joins the MIS in `lanes` (subset of live_mask(v)).
  void join_mis(graph::NodeId v, LaneMask lanes);
  /// React-phase only: v becomes dominated in `lanes` (subset of
  /// live_mask(v), disjoint from any lanes joined this call site).
  void deactivate(graph::NodeId v, LaneMask lanes);
  /// React-phase only: *dominated* node v resumes competing in `lanes`
  /// (subset of dominated_mask(v) & running_mask(); self-healing
  /// protocols).  Mirrors the scalar BeepContext::reactivate: takes effect
  /// from the next round, when v rejoins the union active frontier.
  void reactivate(graph::NodeId v, LaneMask lanes);

  /// Lane l's private RNG stream.  In kScalarOrder mode it is identical to
  /// the scalar run's rng; in kStatisticalLanes mode it is the lane's
  /// jump()-partitioned stream (for draws that cannot be vectorised, e.g.
  /// per-lane heterogeneous probabilities).
  [[nodiscard]] support::Xoshiro256StarStar& rng(unsigned lane) noexcept {
    return (*rngs_)[lane];
  }
  /// Every lane's stream at once (rngs()[l] is rng(l)), for kernels that
  /// step lanes side by side (support::XoshiroLanes).
  [[nodiscard]] std::span<support::Xoshiro256StarStar> rngs() noexcept { return *rngs_; }

  /// The simulator's draw-entropy mode; kernels that vectorise draws must
  /// branch on this (the bulk-plane APIs below throw in kScalarOrder).
  [[nodiscard]] BatchRngMode rng_mode() const noexcept { return rng_mode_; }

  // --- Bulk-plane draws (kStatisticalLanes only) -----------------------
  // One shared stream serves all lanes: every call consumes whole 64-bit
  // outputs, bit l of a plane is an independent fair bit for lane l.  The
  // draw *count* of the masked variants depends on the mask (early exit
  // once every requested lane is decided), which is fine — statistical
  // mode has no draw-order contract — but it is why results depend on the
  // lane count as well as the seed.

  /// 64 independent fair bits, one per lane (callers mask as needed).
  [[nodiscard]] LaneMask random_plane();
  /// Independent Bernoulli(2^-k) bits for the lanes in `lanes` (zero
  /// elsewhere): the AND of k planes, early-exiting once no requested lane
  /// survives, so the expected cost is min(k, ~log2(popcount(lanes)) + 1)
  /// draws.  k >= 1075 returns the empty plane without drawing, matching
  /// bernoulli_pow2's underflow-to-never endpoint.
  [[nodiscard]] LaneMask bernoulli_plane_pow2(unsigned k, LaneMask lanes);
  /// Independent Bernoulli(p) bits for the lanes in `lanes`: each lane's
  /// uniform bit stream is compared against the binary expansion of p and
  /// the first differing bit decides, so the draw is exact for every
  /// double p at ~log2(popcount(lanes)) + 2 expected planes — where the
  /// scalar path spends popcount(lanes) serially dependent rng() calls.
  [[nodiscard]] LaneMask bernoulli_plane(double p, LaneMask lanes);

 private:
  friend class ShardedBatchSimulator;
  enum class Phase { kEmit, kReact };

  // The context is a bundle of direct pointers into the engine's
  // bookkeeping (no simulator backpointer): one per shard, pointing the
  // mutable lists (beepers, joins, reactivations) at
  // per-shard storage while the planes stay global (each shard writes
  // only its own [lo, hi) rows).
  const graph::Graph* graph_ = nullptr;
  const std::vector<graph::NodeId>* active_ = nullptr;
  std::vector<LaneMask>* live_ = nullptr;
  std::vector<LaneMask>* inmis_ = nullptr;
  std::vector<LaneMask>* dominated_ = nullptr;
  std::vector<LaneMask>* beeped_ = nullptr;
  const std::vector<LaneMask>* prev_beeped_ = nullptr;
  const std::vector<LaneMask>* heard_ = nullptr;
  std::vector<graph::NodeId>* beepers_ = nullptr;
  /// Bit-sliced beep counters (LanePlanes::beep_planes); the engine
  /// grows them at round boundaries, shards write only their own rows.
  std::vector<std::vector<LaneMask>>* beep_planes_ = nullptr;
  /// Per-lane live-MIS join-order lists; nullptr unless the run is
  /// kScalarOrder, lossy and keep-alive, the one regime that reads them.
  std::vector<std::vector<graph::NodeId>>* mis_lists_ = nullptr;
  /// This shard's new-joins list, merged (and deduplicated) into the
  /// global MIS union by the coordinator at the round boundary; nullptr
  /// without keep-alive, the union's one reader.
  std::vector<graph::NodeId>* mis_joins_ = nullptr;
  std::vector<graph::NodeId>* reactivated_ = nullptr;
  std::uint64_t* reactivation_counts_ = nullptr;  ///< per-lane
  const LaneMask* running_ = nullptr;
  /// Bulk-plane stream (kStatisticalLanes): this shard's own bulk stream
  /// (the run's base stream at K = 1).
  support::Xoshiro256StarStar* bulk_rng_ = nullptr;
  std::vector<support::Xoshiro256StarStar>* rngs_ = nullptr;
  BatchRngMode rng_mode_ = BatchRngMode::kScalarOrder;
  graph::NodeId lo_ = 0, hi_ = 0;
  std::size_t round_ = 0;
  unsigned exchange_ = 0;
  unsigned lane_count_ = 0;
  Phase phase_ = Phase::kEmit;
};

/// Batched counterpart of BeepProtocol.  Implementations must reproduce the
/// scalar protocol's per-lane behaviour exactly, including every RNG draw:
/// lane l of reset()/emit()/react() consumes rngs[l] precisely as the
/// scalar protocol would consume its run RNG.
class BatchProtocol {
 public:
  virtual ~BatchProtocol() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual unsigned exchanges_per_round() const = 0;
  /// Called once before each batched run; must fully (re)initialise all
  /// per-lane state.  `rngs[l]` is lane l's stream (draw order per lane
  /// must match the scalar reset).
  virtual void reset(const graph::Graph& g,
                     std::span<support::Xoshiro256StarStar> rngs) = 0;
  /// Called serially at the top of every round the run executes (round 0
  /// included), before any shard's emit and while no shard runs: the
  /// place to grow round-bounded state, so the hot path takes no lock.
  virtual void begin_round(std::size_t /*round*/) {}
  /// Decide which (node, lane) pairs beep this exchange (ctx.beep).
  virtual void emit(BatchContext& ctx) = 0;
  /// Observe heard/beeped planes; request joins/deactivations.
  virtual void react(BatchContext& ctx) = 0;
  /// Whether react reads heard_mask(v) only for nodes v on the context's
  /// active_nodes() with a nonzero live_mask(v).  Declaring true lets the
  /// engine gather heard masks on that frontier when beeps are dense
  /// (detail::gather_heard); heard masks elsewhere then carry keep-alive
  /// only.  The conservative default pushes from every beeper, so heard
  /// is complete on every node.
  [[nodiscard]] virtual bool reads_heard_only_on_live_frontier() const { return false; }
};

// --- Inline hot paths -------------------------------------------------------
// BatchContext::beep and the bulk-plane draws run once per (node, exchange)
// or per exponent chunk in the kernel sweeps; defining them here lets the
// kernel translation units inline them.  The plane arithmetic itself lives
// in sim/exchange_core.hpp (detail::plane_bernoulli*); these wrappers add
// only the mode check.

inline LaneMask BatchContext::random_plane() {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error("BatchContext::random_plane requires kStatisticalLanes");
  }
  return (*bulk_rng_)();
}

inline LaneMask BatchContext::bernoulli_plane_pow2(unsigned k, LaneMask lanes) {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error("BatchContext::bernoulli_plane_pow2 requires kStatisticalLanes");
  }
  return detail::plane_bernoulli_pow2(*bulk_rng_, k, lanes);
}

inline LaneMask BatchContext::bernoulli_plane(double p, LaneMask lanes) {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error("BatchContext::bernoulli_plane requires kStatisticalLanes");
  }
  return detail::plane_bernoulli(*bulk_rng_, p, lanes);
}

inline void BatchContext::beep(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kEmit) {
    throw std::logic_error("BatchContext::beep called outside the emit phase");
  }
  if (v < lo_ || v >= hi_ || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::beep outside the node's live lanes or this shard's range");
  }
  LaneMask& plane = (*beeped_)[v];
  const LaneMask fresh = lanes & ~plane;
  if (!fresh) return;
  if (!plane) beepers_->push_back(v);
  plane |= fresh;
  // Scalar episode rule: a beep continuing from the previous exchange of
  // the same round is one signal episode, not two.  Every new episode
  // adds one to its lane's bit-sliced count: one ripple carry over the
  // counter planes serves all lanes (~2 expected word ops).  The engine
  // grows the planes to the round's bound first, so the carry dies inside
  // them; past kMaxBeepPlanes it wraps like a uint32 count would.
  LaneMask carry = fresh & ~(*prev_beeped_)[v];
  for (std::vector<LaneMask>& counter : *beep_planes_) {
    if (carry == 0) break;
    const LaneMask t = counter[v];
    counter[v] = t ^ carry;
    carry &= t;
  }
}

}  // namespace beepmis::sim
