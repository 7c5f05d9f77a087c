#include "sim/sharded_batch.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <stdexcept>
#include <string>

#include "sim/flag_buffer.hpp"
#include "support/parallel.hpp"
#include "support/phase_timer.hpp"

namespace beepmis::sim {

// The exchange machinery is the shared plane engine (sim/exchange_core.hpp
// detail::), pointed at one shard's slice.  This file adds the SPMD
// choreography (the barrier schedule, the coordinator's merge/snapshot
// steps), the per-(shard, lane) stream layout, and the kScalarOrder
// draw-order paths of the one-shard core.

ShardedBatchSimulator::ShardedBatchSimulator(unsigned shards, SimConfig config,
                                             BatchRngMode rng_mode)
    : requested_shards_(std::max(1u, shards)),
      config_(std::move(config)),
      rng_mode_(rng_mode) {
  if (shards > kMaxShards) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: shard count " + std::to_string(shards) + " exceeds " +
        std::to_string(kMaxShards) +
        " (one worker thread and an n-scaled slice index per shard; is a "
        "negative value wrapping through unsigned?)");
  }
  if (rng_mode_ != BatchRngMode::kStatisticalLanes && partitioned()) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: kScalarOrder's draw order cannot be reproduced "
        "across shards and lanes at once; run bit-identical lanes at one shard, "
        "or kStatisticalLanes at " + std::to_string(shards));
  }
  if (config_.beep_loss_probability < 0.0 || config_.beep_loss_probability >= 1.0) {
    throw std::invalid_argument("SimConfig: beep_loss_probability must be in [0, 1)");
  }
  if (config_.record_trace) {
    throw std::invalid_argument(
        "ShardedBatchSimulator does not support record_trace; use the scalar "
        "BeepSimulator");
  }
  if (config_.scenario != nullptr) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: fault scenarios run on the scalar BeepSimulator "
        "(kStaticSchedule scenarios materialise into crash_round vectors instead)");
  }
  if (config_.track_recovery) {
    throw std::invalid_argument(
        "ShardedBatchSimulator: recovery tracking is scalar-only (use BeepSimulator)");
  }
  lossy_ = config_.beep_loss_probability > 0.0;
  keep_ = 1.0 - config_.beep_loss_probability;
  keep_join_order_ =
      rng_mode_ == BatchRngMode::kScalarOrder && lossy_ && config_.mis_keepalive;
}

ShardedBatchSimulator::ShardedBatchSimulator(const graph::Graph& g, unsigned shards,
                                             SimConfig config, BatchRngMode rng_mode)
    : ShardedBatchSimulator(shards, std::move(config), rng_mode) {
  bind_graph(g);
}

const graph::Partition& ShardedBatchSimulator::partition() const {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedBatchSimulator::partition: no graph bound");
  }
  if (!partitioned()) {
    throw std::logic_error("ShardedBatchSimulator::partition: one shard builds no partition");
  }
  return partition_;
}

void ShardedBatchSimulator::bind_graph(const graph::Graph& g) {
  const graph::NodeId n = g.node_count();
  // Unpartitioned, the binding depends only on (config_, n), so a rebind
  // to an equal-sized graph skips the rebuild, like the scalar core's.
  if (!partitioned() && graph_ != nullptr && n == shards_[0].hi) {
    graph_ = &g;
    return;
  }
  if (!config_.wake_round.empty() && config_.wake_round.size() != n) {
    throw std::invalid_argument("SimConfig: wake_round size must match the graph");
  }
  if (!config_.crash_round.empty() && config_.crash_round.size() != n) {
    throw std::invalid_argument("SimConfig: crash_round size must match the graph");
  }
  graph_ = &g;
  if (partitioned()) {
    partition_ = graph::Partition::build(g, requested_shards_);
    if (config_.shard_local_adjacency) partition_.materialize_local_adjacency();
  }
  const unsigned k = partitioned() ? partition_.shard_count() : 1;
  shards_.resize(k);
  for (unsigned s = 0; s < k; ++s) {
    Shard& shard = shards_[s];
    shard.lo = partitioned() ? partition_.begin(s) : 0;
    shard.hi = partitioned() ? partition_.end(s) : n;
    shard.faults = detail::build_fault_schedule(config_.wake_round, config_.crash_round,
                                                shard.lo, shard.hi);
  }
}

LanePlanes ShardedBatchSimulator::run_planes(BatchProtocol& protocol,
                                             support::Xoshiro256StarStar base,
                                             unsigned lanes) {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedBatchSimulator::run: no graph bound");
  }
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error(
        "ShardedBatchSimulator: base-seeded runs belong to kStatisticalLanes; a "
        "kScalarOrder run takes one rng per lane");
  }
  if (lanes == 0 || lanes > kMaxBatchLanes) {
    throw std::invalid_argument("ShardedBatchSimulator::run: need 1..64 lanes");
  }
  // Stream layout: walking the shards in order, shard s adopts the cursor
  // as its bulk stream, then takes one jump per lane stream, then one
  // more jump separates it from shard s+1.  So shard s's bulk is the base
  // advanced by s·(lanes+1) jumps and every (shard, lane) window is a
  // disjoint 2^128-output span; at K = 1 lane l's stream is the base
  // advanced by l+1 jumps, so it depends only on (seed, l).
  support::Xoshiro256StarStar cursor = std::move(base);
  for (Shard& shard : shards_) {
    shard.bulk = cursor;
    support::Xoshiro256StarStar stream = cursor;
    shard.rngs.clear();
    shard.rngs.reserve(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      stream.jump();
      shard.rngs.push_back(stream);
    }
    cursor = stream;
    cursor.jump();
  }
  return run_lanes(protocol, lanes);
}

LanePlanes ShardedBatchSimulator::run_planes(BatchProtocol& protocol,
                                             std::vector<support::Xoshiro256StarStar> rngs) {
  if (graph_ == nullptr) {
    throw std::logic_error("ShardedBatchSimulator::run: no graph bound");
  }
  if (rng_mode_ != BatchRngMode::kScalarOrder) {
    throw std::logic_error(
        "ShardedBatchSimulator: per-lane rng vectors belong to kScalarOrder; a "
        "kStatisticalLanes run is seeded by one base stream (run(protocol, base, "
        "lanes))");
  }
  if (rngs.empty() || rngs.size() > kMaxBatchLanes) {
    throw std::invalid_argument("ShardedBatchSimulator::run: need 1..64 lane RNGs");
  }
  const auto lanes = static_cast<unsigned>(rngs.size());
  shards_[0].rngs = std::move(rngs);  // kScalarOrder implies one shard
  return run_lanes(protocol, lanes);
}

LanePlanes ShardedBatchSimulator::run_lanes(BatchProtocol& protocol, unsigned lanes) {
  const graph::NodeId n = graph_->node_count();
  const auto k = static_cast<unsigned>(shards_.size());
  lane_count_ = lanes;
  const LaneMask all_lanes =
      lanes == kMaxBatchLanes ? ~LaneMask{0} : (LaneMask{1} << lanes) - 1;

  live_.assign(n, 0);
  inmis_.assign(n, 0);
  dominated_.assign(n, 0);
  crashed_.assign(n, 0);
  beeped_.assign(n, 0);
  prev_beeped_.assign(n, 0);
  heard_.assign(n, 0);
  in_active_.assign(n, 0);
  mis_union_.clear();
  if (config_.mis_keepalive) {
    in_mis_union_.assign(n, 0);
    if (partitioned()) mis_mask_.assign(n, 0);
    mis_hear_mask_.assign(n, 0);
  }
  if (keep_join_order_) {
    mis_lists_.resize(lanes);
    for (auto& list : mis_lists_) list.clear();
  }
  beep_planes_.clear();
  beep_planes_.reserve(kMaxBeepPlanes);
  lane_rounds_.assign(lanes, 0);
  reactivation_totals_.assign(lanes, 0);
  running_ = all_lanes;
  terminated_ = 0;
  round_ = 0;
  first_pass_ = true;
  mis_dirty_ = false;
  failed_.store(false, std::memory_order_relaxed);

  for (Shard& shard : shards_) {
    shard.cursor = {};
    shard.mis_crashed = 0;
    shard.active = shard.faults.initial_active;
    for (const graph::NodeId v : shard.active) {
      in_active_[v] = 1;
      live_[v] = all_lanes;
    }
    shard.beepers.clear();
    shard.boundary_beepers.clear();
    shard.prev_beepers.clear();
    shard.heard_dirty.clear();
    shard.joined.clear();
    shard.reactivated.clear();
    shard.mis_hear.clear();
    shard.mis_hear_stale = true;
    shard.active_lanes = shard.active.empty() ? 0 : all_lanes;
    shard.reactivation_counts.assign(lanes, 0);
    shard.error = nullptr;
  }

  // Serial reset: batched kernels keep per-node state only, so one reset
  // initialises all shards' slices.  The reset draws consume shard 0's
  // lane streams — at K = 1 exactly the scalar reset draws per lane — and
  // for K > 1 the other shards' streams stay untouched (their windows are
  // disjoint either way).
  protocol.reset(*graph_, std::span<support::Xoshiro256StarStar>(shards_[0].rngs));
  exchanges_ = protocol.exchanges_per_round();
  if (exchanges_ == 0) throw std::logic_error("protocol declares zero exchanges per round");
  protocol_ = &protocol;

  sync_.emplace(static_cast<std::ptrdiff_t>(k));
  std::atomic<unsigned> next_shard{0};
  support::run_workers(
      k, k, [&] { shard_worker(next_shard.fetch_add(1)); },
      [&](unsigned missing) {
        // Partial spawn: stand in for the missing shards once
        // (arrive_and_drop also removes them from every later phase) and
        // mark the run failed — shard 0 exists whenever any shard does
        // and aborts the round loop at the next boundary.
        failed_.store(true);
        for (unsigned m = 0; m < missing; ++m) sync_->arrive_and_drop();
      });
  sync_.reset();

  for (const Shard& shard : shards_) {
    for (unsigned l = 0; l < lanes; ++l) {
      reactivation_totals_[l] += shard.reactivation_counts[l];
    }
  }
  return {crashed_, inmis_, dominated_, beep_planes_, lanes,
          terminated_, lane_rounds_, reactivation_totals_};
}

void ShardedBatchSimulator::coordinate_round_boundary() {
  if (failed_.load()) {
    // Some shard's work threw; its exception is parked in the shard and
    // rethrown once every shard reaches the common exit, so end the run
    // here.  (At most one partial round of work is discarded.)
    running_ = 0;
    return;
  }
  if (!first_pass_) {
    // Merge per-shard MIS joins into the global union (keep-alive runs
    // only; other runs record no joins).  Joins happen only in the final
    // exchange (kernel contract), so merging at the round boundary
    // exposes the union before the next round's first delivery.
    // A node already in the union can join again in other lanes (later in
    // the round, or in a later round); the bitmap keeps the union a set.
    for (Shard& shard : shards_) {
      for (const graph::NodeId v : shard.joined) {
        if (!in_mis_union_[v]) {
          in_mis_union_[v] = 1;
          mis_union_.push_back(v);
        }
      }
      if (!shard.joined.empty()) mis_dirty_ = true;
      shard.joined.clear();
    }
    ++round_;
  }
  first_pass_ = false;

  if (config_.deadline_ns != nullptr &&
      steady_now_ns() > config_.deadline_ns->load(std::memory_order_relaxed)) {
    throw RunCancelled("ShardedBatchSimulator::run: deadline expired at round " +
                       std::to_string(round_));
  }

  // Lane retirement needs the lanes whose global active list is
  // nonempty: the OR of the shards' compaction results (the per-lane
  // analogue of the sharded core's active_total_ != 0).
  LaneMask active_lanes = 0;
  bool wakeups_pending = false;
  for (const Shard& shard : shards_) {
    wakeups_pending =
        wakeups_pending || shard.cursor.next_wakeup < shard.faults.wakeups.size();
    active_lanes |= shard.active_lanes;
  }
  detail::retire_finished_lanes(round_, config_.run_until_round, config_.max_rounds,
                                wakeups_pending, active_lanes, lane_rounds_.data(),
                                running_, terminated_);
  if (running_ != 0) {
    detail::grow_beep_planes(beep_planes_, round_, exchanges_, graph_->node_count());
    protocol_->begin_round(round_);
  }
}

void ShardedBatchSimulator::coordinate_exchange_top(unsigned exchange) {
  if (exchange != 0) {
    // The previous exchange's beeps become prev_beeped_ by a global
    // buffer swap; shards swap their dirty lists in the emit block.
    beeped_.swap(prev_beeped_);
    return;
  }
  LaneMask mis_crashed = 0;
  for (Shard& shard : shards_) {
    mis_crashed |= shard.mis_crashed;
    shard.mis_crashed = 0;
  }
  if (mis_crashed) {
    // A crashed member falls out of every keep-alive frontier the round
    // it fails, exactly like the scalar mis_nodes_ compaction.
    if (keep_join_order_) {
      for (LaneMask b = mis_crashed; b != 0; b &= b - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(b));
        std::erase_if(mis_lists_[l], [this, l](graph::NodeId v) {
          return ((inmis_[v] >> l) & 1u) == 0;
        });
      }
    }
    std::erase_if(mis_union_, [this](graph::NodeId v) {
      if (inmis_[v] != 0) return false;
      in_mis_union_[v] = 0;
      return true;
    });
    mis_dirty_ = true;
  }
  if (mis_dirty_) {
    if (config_.mis_keepalive) {
      // Re-snapshot the union's in-MIS planes post-fault: shards read
      // mis_mask_ (never remote inmis_) during keep-alive delivery, so
      // a shard already reacting — joining, mutating its own inmis_
      // rows — cannot race a shard still delivering.
      if (partitioned()) {
        for (const graph::NodeId v : mis_union_) mis_mask_[v] = inmis_[v];
      }
      for (Shard& shard : shards_) shard.mis_hear_stale = true;
    }
    mis_dirty_ = false;
  }
}

void ShardedBatchSimulator::deliver_shard(Shard& shard, unsigned s) {
  detail::clear_flag_range(heard_.data(), shard.lo, shard.hi, shard.heard_dirty);
  // The neighbours this shard listens to: its partition slice, or the full
  // adjacency when one unpartitioned shard covers [0, n).
  const auto listeners_in = [this, s](graph::NodeId v) {
    return partitioned() ? partition_.neighbors_in(v, s) : graph_->neighbors(v);
  };
  // Keep-alive reads the coordinator's snapshot when shards can race.
  const std::vector<LaneMask>& mis_planes = partitioned() ? mis_mask_ : inmis_;
  if (!lossy_) {
    if (detail::gather_heard(protocol_->reads_heard_only_on_live_frontier(),
                             shard.active.size(), shard.beepers.size())) {
      // Dense beeps: gather on this shard's own frontier from the full
      // adjacency.  The remote beeped_ rows it reads were final at the
      // emit barrier and are not recycled before the reacts-done barrier.
      const auto full_adjacency = [this](graph::NodeId v) { return graph_->neighbors(v); };
      detail::gather_planes(shard.active, live_, beeped_, full_adjacency, heard_,
                            shard.heard_dirty);
    } else {
      // Local beeps first, then each remote shard's boundary beeps, shards
      // ascending; OR-delivery is idempotent, so the order is free.
      detail::deliver_planes(shard.beepers, beeped_, listeners_in, heard_, shard.heard_dirty);
      for (unsigned r = 0; r < shards_.size(); ++r) {
        if (r == s) continue;
        detail::deliver_planes(shards_[r].boundary_beepers, beeped_, listeners_in, heard_,
                               shard.heard_dirty);
      }
    }
    if (config_.mis_keepalive) {
      // Join order is irrelevant on a reliable channel (no draws), so one
      // cached (listener, lane-mask) list — re-derived only when some
      // lane's MIS changed — serves every lane per exchange.
      if (shard.mis_hear_stale) {
        detail::rebuild_mis_hear_planes(
            mis_union_, [&mis_planes](graph::NodeId v) { return mis_planes[v]; },
            listeners_in, mis_hear_mask_, shard.mis_hear);
        shard.mis_hear_stale = false;
      }
      detail::apply_mis_hear_planes(shard.mis_hear, mis_hear_mask_, heard_,
                                    shard.heard_dirty);
    }
    return;
  }
  if (rng_mode_ == BatchRngMode::kScalarOrder) {
    deliver_lossy_scalar_order(shard);
    return;
  }
  // Statistical lossy delivery: every potential edge delivery into this
  // shard's heard rows draws one bulk Bernoulli plane from *this shard's*
  // bulk stream, instead of popcount(avail) serially dependent per-lane
  // draws; listener-side partitioning keeps it race-free.  Per-listener
  // marginals do not depend on the order the beeping neighbours are
  // tried, and keep-alive needs no join-order iteration either: the union
  // MIS in merge order has the same per-lane marginals.
  const auto beeped_mask = [this](graph::NodeId v) { return beeped_[v]; };
  detail::deliver_planes_lossy(shard.beepers, beeped_mask, listeners_in, keep_, shard.bulk,
                               heard_, shard.heard_dirty);
  for (unsigned r = 0; r < shards_.size(); ++r) {
    if (r == s) continue;
    detail::deliver_planes_lossy(shards_[r].boundary_beepers, beeped_mask, listeners_in,
                                 keep_, shard.bulk, heard_, shard.heard_dirty);
  }
  if (config_.mis_keepalive) {
    const LaneMask running = running_;
    detail::deliver_planes_lossy(
        mis_union_, [&mis_planes, running](graph::NodeId v) { return mis_planes[v] & running; },
        listeners_in, keep_, shard.bulk, heard_, shard.heard_dirty);
  }
}

void ShardedBatchSimulator::deliver_lossy_scalar_order(Shard& shard) {
  // Lossy channel, scalar order (one shard, so [lo, hi) = [0, n)): every
  // potential (beeper -> not-yet-hearing listener) delivery consumes
  // exactly one Bernoulli draw from that lane's RNG, in the scalar
  // iteration order (ascending beepers, CSR neighbour order).
  for (const graph::NodeId v : shard.beepers) {
    const LaneMask m = beeped_[v];
    for (const graph::NodeId w : graph_->neighbors(v)) {
      const LaneMask avail = m & ~heard_[w];
      if (!avail) continue;
      LaneMask got = 0;
      for (LaneMask b = avail; b != 0; b &= b - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(b));
        if (shard.rngs[l].bernoulli(keep_)) got |= LaneMask{1} << l;
      }
      if (got) {
        if (!heard_[w]) shard.heard_dirty.push_back(w);
        heard_[w] |= got;
      }
    }
  }
  if (!config_.mis_keepalive) return;
  // Keep-alive draws come after frontier draws and iterate each lane's
  // live MIS members in that lane's join order — both load-bearing for
  // scalar parity (see README determinism contract).
  for (LaneMask lanes = running_; lanes != 0; lanes &= lanes - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(lanes));
    const LaneMask bit = LaneMask{1} << l;
    for (const graph::NodeId v : mis_lists_[l]) {
      for (const graph::NodeId w : graph_->neighbors(v)) {
        if (heard_[w] & bit) continue;
        if (shard.rngs[l].bernoulli(keep_)) {
          if (!heard_[w]) shard.heard_dirty.push_back(w);
          heard_[w] |= bit;
        }
      }
    }
  }
}

void ShardedBatchSimulator::shard_worker(unsigned s) {
  BEEPMIS_STM_DECLARE(faults, "sharded_batch/faults");
  BEEPMIS_STM_DECLARE(emit, "sharded_batch/emit");
  BEEPMIS_STM_DECLARE(deliver, "sharded_batch/deliver");
  BEEPMIS_STM_DECLARE(react, "sharded_batch/react");
  Shard& shard = shards_[s];
  // No shard work may unwind past a barrier (the others would deadlock):
  // every inter-barrier block runs through this wrapper, parking the
  // first exception; the shard keeps arriving at every barrier as a
  // no-op participant and the coordinator ends the run at the next round
  // boundary.  Rethrown at the common exit for run_workers' capture.
  const auto guarded = [&](auto&& call) {
    if (shard.error != nullptr) return;
    try {
      call();
    } catch (...) {
      shard.error = std::current_exception();
      failed_.store(true);
    }
  };

  BatchContext ctx;
  ctx.graph_ = graph_;
  ctx.active_ = &shard.active;
  ctx.live_ = &live_;
  ctx.inmis_ = &inmis_;
  ctx.dominated_ = &dominated_;
  ctx.beeped_ = &beeped_;
  ctx.prev_beeped_ = &prev_beeped_;
  ctx.heard_ = &heard_;
  ctx.beepers_ = &shard.beepers;
  ctx.beep_planes_ = &beep_planes_;
  // Joins feed only keep-alive: the union for every keep-alive run, the
  // per-lane join order for scalar-order lossy ones.
  ctx.mis_lists_ = keep_join_order_ ? &mis_lists_ : nullptr;
  ctx.mis_joins_ = config_.mis_keepalive ? &shard.joined : nullptr;
  ctx.reactivated_ = &shard.reactivated;
  ctx.reactivation_counts_ = shard.reactivation_counts.data();
  ctx.running_ = &running_;
  ctx.bulk_rng_ = &shard.bulk;
  ctx.rngs_ = &shard.rngs;
  ctx.rng_mode_ = rng_mode_;
  ctx.lo_ = shard.lo;
  ctx.hi_ = shard.hi;
  ctx.lane_count_ = lane_count_;

  // ---- round loop (SPMD; shard 0 doubles as the coordinator) ----------
  for (;;) {
    sync_->arrive_and_wait();  // all shards idle; previous round complete
    if (s == 0) {
      // Not routed through `guarded`: the decision must run every round
      // even on an errored coordinator shard, or running_ would stay
      // nonzero forever.  Its own failure parks like any other and stops
      // the run directly.
      try {
        coordinate_round_boundary();
      } catch (...) {
        if (shard.error == nullptr) shard.error = std::current_exception();
        failed_.store(true);
        running_ = 0;
      }
    }
    sync_->arrive_and_wait();  // decision visible
    if (running_ == 0) break;

    guarded([&] {
      BEEPMIS_STM_START(faults);
      shard.mis_crashed = detail::apply_plane_fault_events(
          shard.faults, shard.cursor, round_, running_, live_, inmis_, dominated_,
          crashed_, shard.active, in_active_);
      BEEPMIS_STM_STOP(faults);
    });
    sync_->arrive_and_wait();  // fault outcomes visible to the coordinator

    for (unsigned e = 0; e < exchanges_; ++e) {
      if (s == 0) coordinate_exchange_top(e);
      sync_->arrive_and_wait();  // swap + MIS bookkeeping visible

      guarded([&] {
        BEEPMIS_STM_START(emit);
        if (e == 0) {
          detail::clear_flag_range(prev_beeped_.data(), shard.lo, shard.hi,
                                   shard.prev_beepers);
        } else {
          shard.beepers.swap(shard.prev_beepers);
        }
        detail::clear_flag_range(beeped_.data(), shard.lo, shard.hi, shard.beepers);
        ctx.round_ = round_;
        ctx.exchange_ = e;
        ctx.phase_ = BatchContext::Phase::kEmit;
        protocol_->emit(ctx);
        // Kernels emit over the ascending frontier slice, so the list is
        // normally already sorted; keep the guarantee for out-of-order
        // beeps (the delivery passes rely on it).
        if (!std::is_sorted(shard.beepers.begin(), shard.beepers.end())) {
          std::sort(shard.beepers.begin(), shard.beepers.end());
        }
        if (shards_.size() > 1) {
          // Publish only the beeps that can cross a shard line: the
          // cross-shard merge then scans O(boundary beepers) remote
          // entries instead of every remote frontier entry.
          shard.boundary_beepers.clear();
          for (const graph::NodeId v : shard.beepers) {
            if (partition_.is_boundary(v)) shard.boundary_beepers.push_back(v);
          }
        }
        BEEPMIS_STM_STOP(emit);
      });
      sync_->arrive_and_wait();  // all beeper frontiers final

      // Deliver then react with no barrier between: delivery writes only
      // this shard's heard rows and reads only exchange-frozen planes
      // (beeped_, the mis_mask_ snapshot), while react mutates only this
      // shard's status planes — so a shard may react while a neighbour
      // is still delivering.
      guarded([&] {
        BEEPMIS_STM_START(deliver);
        deliver_shard(shard, s);
        BEEPMIS_STM_STOP(deliver);
        BEEPMIS_STM_START(react);
        ctx.phase_ = BatchContext::Phase::kReact;
        protocol_->react(ctx);
        BEEPMIS_STM_STOP(react);
      });
      sync_->arrive_and_wait();  // reacts done; flags may be recycled
    }

    guarded([&] {
      shard.active_lanes = detail::compact_plane_active(shard.active, in_active_, live_);
      if (!shard.reactivated.empty()) {
        // Scalar round-boundary rule: a reactivated node re-enters the
        // frontier unless it is still on it (live in another lane, or
        // reactivated twice); compaction above kept it when any live bit
        // was set.
        for (const graph::NodeId v : shard.reactivated) {
          if (in_active_[v]) continue;
          shard.active.push_back(v);
          in_active_[v] = 1;
          shard.active_lanes |= live_[v];
        }
        std::sort(shard.active.begin(), shard.active.end());
        shard.reactivated.clear();
      }
    });
  }
  // Common exit: every shard has left the loop, no barrier is pending.
  if (shard.error != nullptr) std::rethrow_exception(shard.error);
}

}  // namespace beepmis::sim
