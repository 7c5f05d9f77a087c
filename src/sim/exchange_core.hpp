// Shared per-exchange machinery of the frontier-driven simulators — ONE
// exchange engine behind every front-end.
//
// The flag half: BeepSimulator (one lane covering [0, n)) and
// ShardedSimulator (K lanes, one per contiguous node range) execute the
// same exchange — clear flags through dirty lists, deliver beeps by
// walking an explicit beeper frontier, apply presorted fault events,
// compact the active list at round boundaries.  The plane half (bottom of
// this header) is the 64-lane bitplane analogue driving the lane-plane
// core, ShardedBatchSimulator: LaneMask planes instead of uint8_t flags,
// bulk Bernoulli planes instead of per-lane draws, per-lane retirement
// instead of one while-condition.  Holding both halves here, parameterised over
// the node range and the adjacency view (the full CSR for the unsharded
// cores, a Partition slice for one shard), is what keeps the three
// front-ends from drifting — the determinism contract in src/sim/README.md
// is implemented here.
//
// Everything operates on ranges of the *global* per-node arrays: a lane
// touches only ids in [lo, hi), which is what makes the sharded cores'
// listener-partitioned delivery race-free without atomics.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/flag_buffer.hpp"
#include "sim/result.hpp"
#include "support/rng.hpp"

namespace beepmis::sim::detail {

// clear_flag_range / clear_flags live in flag_buffer.hpp (included above):
// one home for the sparse/dense clearing policy, shared by every core.

/// Presorted fault events and the round-0 active frontier for one node
/// range — the per-lane form of what BeepSimulator builds at graph binding.
struct FaultSchedule {
  /// Sleeping nodes (kActive but not yet awake), sorted by (round, node).
  std::vector<std::pair<std::uint32_t, graph::NodeId>> wakeups;
  /// Fail-stop events, sorted by (round, node); UINT32_MAX entries included
  /// for exact parity with a dense scan (they are simply never reached).
  std::vector<std::pair<std::uint32_t, graph::NodeId>> crashes;
  /// Nodes awake at round 0, ascending.
  std::vector<graph::NodeId> initial_active;
};

/// Builds the schedule for ids [lo, hi) from the per-node config vectors
/// (either may be empty = no such faults).  Restricting a global build to a
/// subrange and concatenating preserves the (round, node) order globally,
/// because ranges are contiguous and ascending.
inline FaultSchedule build_fault_schedule(const std::vector<std::uint32_t>& wake_round,
                                          const std::vector<std::uint32_t>& crash_round,
                                          graph::NodeId lo, graph::NodeId hi) {
  FaultSchedule sched;
  for (graph::NodeId v = lo; v < hi; ++v) {
    if (wake_round.empty() || wake_round[v] == 0) {
      sched.initial_active.push_back(v);
    } else {
      sched.wakeups.emplace_back(wake_round[v], v);
    }
  }
  std::sort(sched.wakeups.begin(), sched.wakeups.end());
  if (!crash_round.empty()) {
    for (graph::NodeId v = lo; v < hi; ++v) {
      sched.crashes.emplace_back(crash_round[v], v);
    }
    std::sort(sched.crashes.begin(), sched.crashes.end());
  }
  return sched;
}

struct FaultCursor {
  std::size_t next_wakeup = 0;
  std::size_t next_crash = 0;
};

struct FaultOutcome {
  bool active_crashed = false;  ///< some kActive node fail-stopped
  bool mis_crashed = false;     ///< some MIS member fail-stopped
};

/// Fires this round's wake then crash events over one range, mutating
/// status / active / in_active exactly like the scalar core: wakes before
/// crashes, equal-round events in ascending node id, a crashed sleeper
/// dropped at its wake round.  `on_wake` / `on_crash` are notification
/// hooks (trace recording in the scalar core; no-ops in a shard lane).
/// The caller handles the consequences of the returned flags (MIS-list
/// pruning, active compaction) so lane-local and global bookkeeping both
/// work.
template <typename OnWake, typename OnCrash>
FaultOutcome apply_fault_events(const FaultSchedule& sched, FaultCursor& cursor,
                                std::size_t round, std::vector<NodeStatus>& status,
                                std::vector<graph::NodeId>& active,
                                std::vector<std::uint8_t>& in_active, OnWake&& on_wake,
                                OnCrash&& on_crash) {
  FaultOutcome outcome;
  bool active_dirty = false;
  while (cursor.next_wakeup < sched.wakeups.size() &&
         sched.wakeups[cursor.next_wakeup].first <= round) {
    const graph::NodeId v = sched.wakeups[cursor.next_wakeup].second;
    ++cursor.next_wakeup;
    if (status[v] != NodeStatus::kActive) continue;  // crashed while asleep
    if (in_active[v]) continue;  // already woken early by a fault scenario
    active.push_back(v);
    in_active[v] = 1;
    active_dirty = true;
    on_wake(v);
  }
  if (active_dirty) std::sort(active.begin(), active.end());

  // Fail-stop hits any node that has not already crashed — including MIS
  // members (whose keep-alive then falls silent) and dominated nodes.
  while (cursor.next_crash < sched.crashes.size() &&
         sched.crashes[cursor.next_crash].first <= round) {
    const graph::NodeId v = sched.crashes[cursor.next_crash].second;
    ++cursor.next_crash;
    if (status[v] == NodeStatus::kCrashed) continue;
    outcome.active_crashed = outcome.active_crashed || status[v] == NodeStatus::kActive;
    outcome.mis_crashed = outcome.mis_crashed || status[v] == NodeStatus::kInMis;
    status[v] = NodeStatus::kCrashed;
    on_crash(v);
  }
  return outcome;
}

/// Round-boundary compaction: drops no-longer-active ids from the list and
/// their bits from the membership bitmap, preserving order.
inline void compact_active(std::vector<graph::NodeId>& active,
                           std::vector<std::uint8_t>& in_active,
                           const std::vector<NodeStatus>& status) {
  std::erase_if(active, [&](graph::NodeId v) {
    if (status[v] == NodeStatus::kActive) return false;
    in_active[v] = 0;
    return true;
  });
}

/// Round-boundary re-entry of reactivated nodes.  A node deactivated and
/// reactivated within the same round is still on the active list (it
/// survived compaction as kActive), so it is skipped here — inserting it
/// again would duplicate its emit/react visits.
inline void merge_reactivated(std::vector<graph::NodeId>& active,
                              std::vector<std::uint8_t>& in_active,
                              std::vector<graph::NodeId>& reactivated) {
  if (reactivated.empty()) return;
  for (const graph::NodeId v : reactivated) {
    if (in_active[v]) continue;
    active.push_back(v);
    in_active[v] = 1;
  }
  std::sort(active.begin(), active.end());
  reactivated.clear();
}

/// Frontier delivery: walks `beepers` (must be ascending; the caller
/// re-sorts if a protocol beeped out of order) and sets heard on each
/// neighbour returned by `neighbors_of` (full adjacency for the scalar
/// core, one shard's listener slice for a lane).  A beeper outside the
/// active list (a node reactivated earlier in this round) does not
/// deliver.  In lossy mode every *potential* delivery (listener not yet
/// hearing, in iteration order) consumes exactly one Bernoulli draw —
/// part of the determinism contract.  `on_hear(w)` marks the listener
/// (set flag + push the owning dirty list).
template <typename NeighborsFn, typename OnHear>
void deliver_from_beepers(const std::vector<graph::NodeId>& beepers,
                          const std::vector<std::uint8_t>& in_active,
                          NeighborsFn&& neighbors_of, const std::uint8_t* heard, bool lossy,
                          double keep, support::Xoshiro256StarStar* rng, OnHear&& on_hear) {
  for (const graph::NodeId v : beepers) {
    if (!in_active[v]) continue;
    for (const graph::NodeId w : neighbors_of(v)) {
      if (heard[w]) continue;  // already hearing a beep; extra losses moot
      if (!lossy || rng->bernoulli(keep)) on_hear(w);
    }
  }
}

/// Lossy keep-alive delivery: live MIS members beep forever; every
/// potential delivery consumes one Bernoulli draw, iterating members in
/// **join order** (the contract; no caching possible).
template <typename NeighborsFn, typename OnHear>
void deliver_keepalive_lossy(const std::vector<graph::NodeId>& mis_nodes,
                             NeighborsFn&& neighbors_of, const std::uint8_t* heard,
                             double keep, support::Xoshiro256StarStar& rng,
                             OnHear&& on_hear) {
  for (const graph::NodeId v : mis_nodes) {
    for (const graph::NodeId w : neighbors_of(v)) {
      if (heard[w]) continue;
      if (rng.bernoulli(keep)) on_hear(w);
    }
  }
}

/// Reliable-channel keep-alive cache: appends the not-yet-cached neighbours
/// of mis_nodes[from..) to the dedup set (membership bitmap + list).  With
/// from == 0 and a cleared set this is the scalar core's full rebuild;
/// incremental appends produce the same *set* (order within the cache list
/// is irrelevant — reliable delivery is idempotent).
template <typename NeighborsFn>
void extend_mis_hear(const std::vector<graph::NodeId>& mis_nodes, std::size_t from,
                     NeighborsFn&& neighbors_of, std::vector<std::uint8_t>& in_mis_hear,
                     std::vector<graph::NodeId>& mis_hear) {
  for (std::size_t i = from; i < mis_nodes.size(); ++i) {
    for (const graph::NodeId w : neighbors_of(mis_nodes[i])) {
      if (in_mis_hear[w]) continue;
      in_mis_hear[w] = 1;
      mis_hear.push_back(w);
    }
  }
}

// ---------------------------------------------------------------------------
// Plane engine: the 64-lane bitplane half of the exchange machinery,
// driven by ShardedBatchSimulator (one context per shard; one context
// covering [0, n) at K = 1).  Everything below is the lane-plane analogue of the
// flag helpers above: per-node LaneMask planes instead of uint8_t flags,
// per-lane counters instead of one list size.
// ---------------------------------------------------------------------------

/// Independent Bernoulli(2^-k) bits for the lanes in `lanes` (zero
/// elsewhere): the AND of k uniform planes, early-exiting once no requested
/// lane survives, so the expected cost is min(k, ~log2(popcount(lanes)) + 1)
/// draws.  k >= 1075 returns the empty plane without drawing, matching
/// bernoulli_pow2's underflow-to-never endpoint.
[[nodiscard]] inline LaneMask plane_bernoulli_pow2(support::Xoshiro256StarStar& rng,
                                                   unsigned k, LaneMask lanes) noexcept {
  if (k >= 1075) return 0;
  LaneMask plane = lanes;
  for (unsigned i = 0; i < k && plane != 0; ++i) plane &= rng();
  return plane;
}

/// Independent Bernoulli(p) bits for the lanes in `lanes`: arithmetic-
/// decoding against the binary expansion of p — each plane supplies one
/// uniform bit per undecided lane, and the first position where a lane's
/// bit differs from p's bit decides it (lane bit 0 under p bit 1 => its
/// uniform lies below p).  Exact for every double p; all 64 lanes resolve
/// in ~log2(lanes) + 2 expected planes.  Once p's remaining bits are all
/// zero, an undecided lane's uniform prefix equals p, so the uniform is
/// >= p: failure.
[[nodiscard]] inline LaneMask plane_bernoulli(support::Xoshiro256StarStar& rng, double p,
                                              LaneMask lanes) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return lanes;
  LaneMask undecided = lanes;
  LaneMask result = 0;
  while (undecided != 0) {
    p += p;
    const bool bit = p >= 1.0;
    if (bit) p -= 1.0;
    const LaneMask r = rng();
    if (bit) {
      result |= undecided & ~r;
      undecided &= r;
    } else {
      undecided &= ~r;
    }
    if (p == 0.0) break;
  }
  return result;
}

/// Fires this round's wake then crash events over one range of the status
/// planes — the lane-plane analogue of apply_fault_events.  Wakes add
/// running-and-not-crashed lanes to the live plane (and the union active
/// list); crashes hit every not-yet-crashed running lane, dropping it from
/// the live / in-MIS / dominated planes.  Returns the lanes in
/// which some MIS member fail-stopped; the caller prunes whatever
/// join-order bookkeeping it maintains (per-lane lists in the batched
/// front-end, the shared union list at the sharded coordinator).
inline LaneMask apply_plane_fault_events(
    const FaultSchedule& sched, FaultCursor& cursor, std::size_t round, LaneMask running,
    std::vector<LaneMask>& live, std::vector<LaneMask>& inmis,
    std::vector<LaneMask>& dominated, std::vector<LaneMask>& crashed,
    std::vector<graph::NodeId>& active, std::vector<std::uint8_t>& in_active) {
  bool active_dirty = false;
  while (cursor.next_wakeup < sched.wakeups.size() &&
         sched.wakeups[cursor.next_wakeup].first <= round) {
    const graph::NodeId v = sched.wakeups[cursor.next_wakeup].second;
    ++cursor.next_wakeup;
    // A sleeper can only be kActive or kCrashed; scalar drops the crashed.
    const LaneMask add = running & ~crashed[v];
    if (!add) continue;
    live[v] |= add;
    if (!in_active[v]) {
      in_active[v] = 1;
      active.push_back(v);
      active_dirty = true;
    }
  }
  if (active_dirty) std::sort(active.begin(), active.end());

  LaneMask mis_crashed = 0;
  while (cursor.next_crash < sched.crashes.size() &&
         sched.crashes[cursor.next_crash].first <= round) {
    const graph::NodeId v = sched.crashes[cursor.next_crash].second;
    ++cursor.next_crash;
    const LaneMask hit = running & ~crashed[v];
    if (!hit) continue;
    crashed[v] |= hit;
    live[v] &= ~hit;
    const LaneMask hit_mis = hit & inmis[v];
    if (hit_mis) {
      inmis[v] &= ~hit_mis;
      mis_crashed |= hit_mis;
    }
    dominated[v] &= ~hit;
  }
  return mis_crashed;
}

/// Round-boundary compaction of a union active frontier: drops ids whose
/// live plane went empty, clearing their membership bits.  Returns the OR
/// of the kept live planes — the lanes whose active list (this range's
/// slice of it) is nonempty, which is all lane retirement needs.
inline LaneMask compact_plane_active(std::vector<graph::NodeId>& active,
                                     std::vector<std::uint8_t>& in_active,
                                     const std::vector<LaneMask>& live) {
  LaneMask nonempty = 0;
  std::erase_if(active, [&](graph::NodeId v) {
    nonempty |= live[v];
    if (live[v] != 0) return false;
    in_active[v] = 0;
    return true;
  });
  return nonempty;
}

/// Per-lane mirror of the scalar while-condition, evaluated at the top of
/// each round: a lane leaves the loop (freezing its planes and RNG) exactly
/// when its scalar run would.  `active_lanes` must be the lanes whose
/// *global* active list is nonempty (bit l set iff some node is live in
/// lane l; the coordinator ORs its shards' compaction results) and
/// `wakeups_pending` whether any wake event remains unfired anywhere.
inline void retire_finished_lanes(std::size_t round, std::size_t run_until_round,
                                  std::size_t max_rounds, bool wakeups_pending,
                                  LaneMask active_lanes, std::size_t* lane_rounds,
                                  LaneMask& running, LaneMask& terminated) {
  if (!wakeups_pending && round >= run_until_round) {
    const LaneMask done = running & ~active_lanes;
    for (LaneMask b = done; b != 0; b &= b - 1) lane_rounds[std::countr_zero(b)] = round;
    terminated |= done;
    running &= ~done;
  }
  if (round >= max_rounds) {
    for (LaneMask b = running; b != 0; b &= b - 1) lane_rounds[std::countr_zero(b)] = round;
    if (!wakeups_pending) terminated |= running & ~active_lanes;
    running = 0;
  }
}

/// Grows a plane-major stack of bit-sliced per-node values (plane j holds
/// bit j of every lane's value at node v) to `width` planes of n rows.
/// New planes start zeroed, which is correct exactly when every value
/// already fits in the old width.
inline void grow_plane_stack(std::vector<std::vector<LaneMask>>& planes, std::size_t width,
                             graph::NodeId n) {
  while (planes.size() < width) planes.emplace_back(n, LaneMask{0});
}

/// Round-boundary growth of the bit-sliced beep counters
/// (LanePlanes::beep_planes): a node starts at most one episode per
/// exchange, so once round `round` ends every count is at most
/// (round + 1) · exchanges, and that many bits' worth of planes hold it.
/// Called before the round runs.  Front-ends reserve kMaxBeepPlanes up
/// front, so growth never moves the outer vector under a context that
/// points into it.
inline void grow_beep_planes(std::vector<std::vector<LaneMask>>& planes, std::size_t round,
                             unsigned exchanges, graph::NodeId n) {
  const auto bound = static_cast<std::uint64_t>(round + 1) * exchanges;
  grow_plane_stack(
      planes,
      std::min<std::size_t>(kMaxBeepPlanes, static_cast<std::size_t>(std::bit_width(bound))),
      n);
}

/// Reliable plane delivery: one adjacency pass serves every lane via
/// OR-accumulation — heard[w] |= beeped[v] is one 8-byte OR where the
/// scalar core performs up to 64 separate byte stores.  `neighbors_of`
/// scopes the pass (full adjacency at K = 1, one shard's listener slice
/// at K >= 2), which is what makes
/// listener-partitioned delivery race-free: a lane ORs only into its own
/// heard range.
template <typename NeighborsFn>
void deliver_planes(const std::vector<graph::NodeId>& beepers,
                    const std::vector<LaneMask>& beeped, NeighborsFn&& neighbors_of,
                    std::vector<LaneMask>& heard, std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId v : beepers) {
    const LaneMask m = beeped[v];
    for (const graph::NodeId w : neighbors_of(v)) {
      const LaneMask old = heard[w];
      if (!old) heard_dirty.push_back(w);
      heard[w] = old | m;
    }
  }
}

/// Direction rule of reliable plane delivery, evaluated per exchange and
/// per context.  Push (deliver_planes) costs one random read-modify-write
/// of heard_ per beeper edge; gather (gather_planes) reads each listener's
/// own adjacency row in order, makes random *reads* of beeped_, and stores
/// once per listener.  Gather wins once beeps are dense: the measured
/// crossover at n = 2^20 is |frontier| ≈ 2.2–2.4·|beepers|
/// (direction-optimizing BFS's push/pull trade; src/sim/README.md), and
/// at n <= 10^4 the two are within noise.
/// Gather writes heard only on the live frontier, so it needs a kernel
/// that reads heard_mask nowhere else
/// (BatchProtocol::reads_heard_only_on_live_frontier).  Lossy delivery
/// never gathers: its per-edge draw order is part of the contract, so
/// callers consult this rule on the reliable channel only.
[[nodiscard]] constexpr bool gather_heard(bool frontier_only_reads, std::size_t frontier,
                                          std::size_t beepers) noexcept {
  return frontier_only_reads && frontier <= 2 * beepers;
}

/// Reliable plane delivery, listener side: for every live node w on
/// `frontier`, heard[w] = OR of beeped[u] over u in N(w) — the same mask
/// deliver_planes leaves there, because adjacency is symmetric.
/// `neighbors_of` must be the full adjacency (a listener's beeping
/// neighbours may live in any shard); writes go only to the frontier's
/// rows, which must be clear on entry (deliver clears heard first), so
/// each listener costs one store.  Off-frontier and dead-frontier rows
/// stay clear — callers gate on gather_heard.
template <typename NeighborsFn>
void gather_planes(const std::vector<graph::NodeId>& frontier,
                   const std::vector<LaneMask>& live, const std::vector<LaneMask>& beeped,
                   NeighborsFn&& neighbors_of, std::vector<LaneMask>& heard,
                   std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId w : frontier) {
    if (!live[w]) continue;
    LaneMask m = 0;
    for (const graph::NodeId u : neighbors_of(w)) m |= beeped[u];
    if (!m) continue;
    heard[w] = m;
    heard_dirty.push_back(w);
  }
}

/// Statistical-lanes lossy plane delivery: loss bits for *all* lanes of an
/// edge come from one bulk Bernoulli plane instead of popcount(avail)
/// serially dependent per-lane draws.  `mask_of(v)` supplies the beeping
/// lanes of source v (the beeped plane for frontier delivery; the in-MIS
/// plane masked to running lanes for keep-alive, where the union MIS in
/// ascending order has the same per-lane marginals as join order).
template <typename MaskFn, typename NeighborsFn>
void deliver_planes_lossy(const std::vector<graph::NodeId>& sources, MaskFn&& mask_of,
                          NeighborsFn&& neighbors_of, double keep,
                          support::Xoshiro256StarStar& rng, std::vector<LaneMask>& heard,
                          std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId v : sources) {
    const LaneMask m = mask_of(v);
    if (!m) continue;
    for (const graph::NodeId w : neighbors_of(v)) {
      const LaneMask avail = m & ~heard[w];
      if (!avail) continue;
      const LaneMask got = plane_bernoulli(rng, keep, avail);
      if (got) {
        if (!heard[w]) heard_dirty.push_back(w);
        heard[w] |= got;
      }
    }
  }
}

/// Reliable-channel keep-alive cache over planes (lane analogue of
/// extend_mis_hear): rebuilds the (listener, lane-mask) list from the MIS
/// union.  `mask_of(v)` supplies v's member lanes — the live in-MIS plane
/// at K = 1, the coordinator's snapshot at K >= 2 (so shards read a
/// stable mask while others react).
template <typename MaskFn, typename NeighborsFn>
void rebuild_mis_hear_planes(const std::vector<graph::NodeId>& mis_union, MaskFn&& mask_of,
                             NeighborsFn&& neighbors_of,
                             std::vector<LaneMask>& mis_hear_mask,
                             std::vector<graph::NodeId>& mis_hear) {
  for (const graph::NodeId w : mis_hear) mis_hear_mask[w] = 0;
  mis_hear.clear();
  for (const graph::NodeId v : mis_union) {
    const LaneMask m = mask_of(v);
    if (!m) continue;
    for (const graph::NodeId w : neighbors_of(v)) {
      if (!mis_hear_mask[w]) mis_hear.push_back(w);
      mis_hear_mask[w] |= m;
    }
  }
}

/// Applies a cached keep-alive (listener, lane-mask) list to the heard
/// planes — one OR per cached listener serves all 64 lanes per exchange.
inline void apply_mis_hear_planes(const std::vector<graph::NodeId>& mis_hear,
                                  const std::vector<LaneMask>& mis_hear_mask,
                                  std::vector<LaneMask>& heard,
                                  std::vector<graph::NodeId>& heard_dirty) {
  for (const graph::NodeId w : mis_hear) {
    const LaneMask old = heard[w];
    if (!old) heard_dirty.push_back(w);
    heard[w] = old | mis_hear_mask[w];
  }
}

}  // namespace beepmis::sim::detail
