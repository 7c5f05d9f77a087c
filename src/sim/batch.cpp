#include "sim/batch.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "sim/exchange_core.hpp"
#include "sim/flag_buffer.hpp"
#include "support/phase_timer.hpp"

namespace beepmis::sim {

// Plane clearing goes through the shared dirty-list policy in
// sim/flag_buffer.hpp (templated over the flag value), the wake/crash
// loop, lane retirement and plane delivery live in sim/exchange_core.hpp,
// and per-lane RunResult extraction in sim/result.cpp — this file is only
// the batched *front-end*:
// context wiring, the per-exchange choreography, and the kScalarOrder
// draw-order paths no other front-end shares.

void BatchContext::join_mis(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BatchContext::join_mis called outside the react phase");
  }
  if (v < lo_ || v >= hi_ || lanes == 0 || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::join_mis outside the node's live lanes or this shard's range");
  }
  (*live_)[v] &= ~lanes;
  (*inmis_)[v] |= lanes;
  for (LaneMask b = lanes; b != 0; b &= b - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(b));
    --active_count_[l];
    // Per-lane join order, like the scalar core (consumed by kScalarOrder
    // lossy keep-alive; absent in the statistical-only sharded core).
    if (mis_lists_ != nullptr) (*mis_lists_)[l].push_back(v);
  }
  if (in_mis_union_ == nullptr) {
    // Per-shard new-joins list: the coordinator merges and dedups into the
    // global union at the round boundary.
    mis_joins_->push_back(v);
  } else if (!(*in_mis_union_)[v]) {
    (*in_mis_union_)[v] = 1;
    mis_joins_->push_back(v);
  }
  *mis_hear_valid_ = false;
}

void BatchContext::deactivate(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BatchContext::deactivate called outside the react phase");
  }
  if (v < lo_ || v >= hi_ || lanes == 0 || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::deactivate outside the node's live lanes or this shard's range");
  }
  (*live_)[v] &= ~lanes;
  (*dominated_)[v] |= lanes;
  for (LaneMask b = lanes; b != 0; b &= b - 1) {
    --active_count_[std::countr_zero(b)];
  }
}

void BatchContext::reactivate(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BatchContext::reactivate called outside the react phase");
  }
  if (v < lo_ || v >= hi_ || lanes == 0 || (lanes & ~(*dominated_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::reactivate outside the node's dominated lanes or this shard's "
        "range");
  }
  // A lane that left the round loop has frozen planes; reactivating into it
  // would corrupt the lane's already-final RunResult.
  if ((lanes & ~*running_) != 0) {
    throw std::logic_error("BatchContext::reactivate on a terminated lane");
  }
  (*dominated_)[v] &= ~lanes;
  (*live_)[v] |= lanes;
  for (LaneMask b = lanes; b != 0; b &= b - 1) {
    const unsigned l = static_cast<unsigned>(std::countr_zero(b));
    ++active_count_[l];
    ++reactivation_counts_[l];
  }
  reactivated_->push_back(v);
}

BatchSimulator::BatchSimulator(SimConfig config, BatchRngMode rng_mode)
    : config_(std::move(config)), rng_mode_(rng_mode) {
  if (config_.beep_loss_probability < 0.0 || config_.beep_loss_probability >= 1.0) {
    throw std::invalid_argument("SimConfig: beep_loss_probability must be in [0, 1)");
  }
  if (config_.record_trace) {
    throw std::invalid_argument(
        "BatchSimulator does not support record_trace; use the scalar BeepSimulator");
  }
  if (config_.scenario != nullptr) {
    throw std::invalid_argument(
        "BatchSimulator: fault scenarios run on the scalar BeepSimulator "
        "(kStaticSchedule scenarios materialise into crash_round vectors instead)");
  }
  if (config_.track_recovery) {
    throw std::invalid_argument(
        "BatchSimulator: recovery tracking is scalar-only (use BeepSimulator)");
  }
}

void BatchSimulator::bind_graph(const graph::Graph& g) {
  const graph::NodeId n = g.node_count();
  // Identical to the scalar binding: the schedules depend only on
  // (config_, n), so a rebind to an equal-sized graph skips the rebuild.
  if (graph_ != nullptr && n == bound_node_count_) {
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
  faults_ = detail::build_fault_schedule(config_.wake_round, config_.crash_round, 0, n);
  bound_node_count_ = n;
}

void BatchSimulator::apply_wakeups_and_crashes() {
  const LaneMask mis_crashed = detail::apply_plane_fault_events(
      faults_, fault_cursor_, round_, running_, live_, inmis_, dominated_, crashed_,
      active_, in_active_, active_count_.data());
  if (mis_crashed) {
    // A crashed member falls out of its lane's keep-alive frontier the
    // round it fails, exactly like the scalar mis_nodes_ compaction.
    for (LaneMask b = mis_crashed; b != 0; b &= b - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(b));
      std::erase_if(mis_lists_[l], [this, l](graph::NodeId v) {
        return ((inmis_[v] >> l) & 1u) == 0;
      });
    }
    std::erase_if(mis_union_, [this](graph::NodeId v) {
      if (inmis_[v] != 0) return false;
      in_mis_union_[v] = 0;
      return true;
    });
    mis_hear_valid_ = false;
  }
}

void BatchSimulator::deliver_beeps(bool frontier_only_reads) {
  detail::clear_flags(heard_, heard_dirty_);

  const bool lossy = config_.beep_loss_probability > 0.0;
  const double keep = 1.0 - config_.beep_loss_probability;
  // Protocols emit over the ascending union frontier, so the beeper list is
  // normally already sorted; keep the guarantee for out-of-order beeps.
  if (!std::is_sorted(beepers_.begin(), beepers_.end())) {
    std::sort(beepers_.begin(), beepers_.end());
  }
  const auto full_adjacency = [this](graph::NodeId v) { return graph_->neighbors(v); };
  if (!lossy) {
    // The batched payoff: one CSR pass serves every lane via OR-accumulation,
    // pushed from the beepers or, when they are dense, gathered on the
    // listener frontier.
    if (detail::gather_heard(frontier_only_reads, active_.size(), beepers_.size())) {
      detail::gather_planes(active_, live_, beeped_, full_adjacency, heard_, heard_dirty_);
    } else {
      detail::deliver_planes(beepers_, beeped_, full_adjacency, heard_, heard_dirty_);
    }
    if (config_.mis_keepalive) {
      // Join order is irrelevant on a reliable channel (no draws), so one
      // cached (listener, lane-mask) list — re-derived only when some
      // lane's MIS changed — serves every lane per exchange.
      if (!mis_hear_valid_) {
        detail::rebuild_mis_hear_planes(
            mis_union_, [this](graph::NodeId v) { return inmis_[v]; }, full_adjacency,
            mis_hear_mask_, mis_hear_);
        mis_hear_valid_ = true;
      }
      detail::apply_mis_hear_planes(mis_hear_, mis_hear_mask_, heard_, heard_dirty_);
    }
    return;
  }

  if (rng_mode_ == BatchRngMode::kStatisticalLanes) {
    // Statistical lanes: loss bits for *all* lanes of an edge come from
    // one bulk Bernoulli plane instead of popcount(avail) serially
    // dependent per-lane draws — this is what flips the lossy-tail rows
    // back above 1x (BENCH_core.json).  Keep-alive needs no join-order
    // iteration either: the union MIS in ascending order has the same
    // per-lane marginals.
    detail::deliver_planes_lossy(
        beepers_, [this](graph::NodeId v) { return beeped_[v]; }, full_adjacency, keep,
        bulk_rng_, heard_, heard_dirty_);
    if (config_.mis_keepalive) {
      const LaneMask running = running_;
      detail::deliver_planes_lossy(
          mis_union_, [this, running](graph::NodeId v) { return inmis_[v] & running; },
          full_adjacency, keep, bulk_rng_, heard_, heard_dirty_);
    }
    return;
  }

  // Lossy channel, scalar order: every potential (beeper -> not-yet-hearing
  // listener) delivery consumes exactly one Bernoulli draw from that
  // lane's RNG, in the scalar iteration order (ascending beepers, CSR
  // neighbour order).  This path is the one piece of delivery no other
  // front-end shares — the draw interleaving across lanes has no scalar
  // analogue.
  for (const graph::NodeId v : beepers_) {
    const LaneMask m = beeped_[v];
    for (const graph::NodeId w : graph_->neighbors(v)) {
      const LaneMask avail = m & ~heard_[w];
      if (!avail) continue;
      LaneMask got = 0;
      for (LaneMask b = avail; b != 0; b &= b - 1) {
        const unsigned l = static_cast<unsigned>(std::countr_zero(b));
        if (rngs_[l].bernoulli(keep)) got |= LaneMask{1} << l;
      }
      if (got) {
        if (!heard_[w]) heard_dirty_.push_back(w);
        heard_[w] |= got;
      }
    }
  }
  if (config_.mis_keepalive) {
    // Keep-alive draws come after frontier draws and iterate each lane's
    // live MIS members in that lane's join order — both load-bearing for
    // scalar parity (see README determinism contract).
    for (LaneMask lanes = running_; lanes != 0; lanes &= lanes - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(lanes));
      const LaneMask bit = LaneMask{1} << l;
      for (const graph::NodeId v : mis_lists_[l]) {
        for (const graph::NodeId w : graph_->neighbors(v)) {
          if (heard_[w] & bit) continue;
          if (rngs_[l].bernoulli(keep)) {
            if (!heard_[w]) heard_dirty_.push_back(w);
            heard_[w] |= bit;
          }
        }
      }
    }
  }
}

void BatchSimulator::compact_active() {
  detail::compact_plane_active(active_, in_active_, live_);
}

LanePlanes BatchSimulator::run_planes(const graph::Graph& g, BatchProtocol& protocol,
                                      std::vector<support::Xoshiro256StarStar> rngs) {
  if (rng_mode_ != BatchRngMode::kScalarOrder) {
    throw std::logic_error(
        "BatchSimulator: per-lane rng vectors belong to kScalarOrder; a "
        "kStatisticalLanes run is seeded by one base stream (run(g, protocol, "
        "base, lanes))");
  }
  return run_lanes(g, protocol, std::move(rngs));
}

LanePlanes BatchSimulator::run_planes(const graph::Graph& g, BatchProtocol& protocol,
                                      support::Xoshiro256StarStar base, unsigned lanes) {
  if (rng_mode_ != BatchRngMode::kStatisticalLanes) {
    throw std::logic_error(
        "BatchSimulator: base-seeded runs belong to kStatisticalLanes; a "
        "kScalarOrder run takes one rng per lane");
  }
  if (lanes == 0 || lanes > kMaxBatchLanes) {
    throw std::invalid_argument("BatchSimulator::run: need 1..64 lanes");
  }
  // Lane l's stream is the base advanced by l+1 jumps, so it depends only
  // on (seed, l); the base itself serves the bulk planes.  Windows of
  // 2^128 outputs apart can never overlap in any realistic run.
  bulk_rng_ = base;
  std::vector<support::Xoshiro256StarStar> rngs;
  rngs.reserve(lanes);
  support::Xoshiro256StarStar stream = base;
  for (unsigned l = 0; l < lanes; ++l) {
    stream.jump();
    rngs.push_back(stream);
  }
  return run_lanes(g, protocol, std::move(rngs));
}

std::vector<RunResult> BatchSimulator::run(const graph::Graph& g, BatchProtocol& protocol,
                                           std::vector<support::Xoshiro256StarStar> rngs) {
  return extract_lane_results(run_planes(g, protocol, std::move(rngs)));
}

std::vector<RunResult> BatchSimulator::run(const graph::Graph& g, BatchProtocol& protocol,
                                           support::Xoshiro256StarStar base,
                                           unsigned lanes) {
  return extract_lane_results(run_planes(g, protocol, std::move(base), lanes));
}

LanePlanes BatchSimulator::run_lanes(const graph::Graph& g, BatchProtocol& protocol,
                                     std::vector<support::Xoshiro256StarStar> rngs) {
  BEEPMIS_STM_DECLARE(faults, "batch/faults");
  BEEPMIS_STM_DECLARE(emit, "batch/emit");
  BEEPMIS_STM_DECLARE(deliver, "batch/deliver");
  BEEPMIS_STM_DECLARE(react, "batch/react");
  const unsigned lanes = static_cast<unsigned>(rngs.size());
  if (lanes == 0 || lanes > kMaxBatchLanes) {
    throw std::invalid_argument("BatchSimulator::run: need 1..64 lane RNGs");
  }
  bind_graph(g);
  const graph::NodeId n = graph_->node_count();
  lane_count_ = lanes;
  rngs_ = std::move(rngs);
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
  in_mis_union_.assign(n, 0);
  beepers_.clear();
  prev_beepers_.clear();
  heard_dirty_.clear();
  mis_union_.clear();
  if (config_.mis_keepalive) mis_hear_mask_.assign(n, 0);
  mis_hear_.clear();
  mis_hear_valid_ = false;
  reactivated_.clear();
  beep_planes_.clear();
  beep_planes_.reserve(kMaxBeepPlanes);
  reactivation_counts_.assign(lanes, 0);
  mis_lists_.resize(lanes);
  for (auto& list : mis_lists_) list.clear();
  active_count_.assign(lanes, static_cast<std::uint32_t>(faults_.initial_active.size()));
  lane_rounds_.assign(lanes, 0);
  running_ = all_lanes;
  terminated_ = 0;
  fault_cursor_ = {};
  round_ = 0;

  active_ = faults_.initial_active;
  for (const graph::NodeId v : active_) {
    in_active_[v] = 1;
    live_[v] = all_lanes;
  }

  protocol.reset(*graph_, std::span<support::Xoshiro256StarStar>(rngs_));
  const unsigned exchanges = protocol.exchanges_per_round();
  if (exchanges == 0) throw std::logic_error("protocol declares zero exchanges per round");
  const bool frontier_only_reads = protocol.reads_heard_only_on_live_frontier();

  BatchContext ctx;
  ctx.graph_ = graph_;
  ctx.active_ = &active_;
  ctx.live_ = &live_;
  ctx.inmis_ = &inmis_;
  ctx.dominated_ = &dominated_;
  ctx.beeped_ = &beeped_;
  ctx.prev_beeped_ = &prev_beeped_;
  ctx.heard_ = &heard_;
  ctx.beepers_ = &beepers_;
  ctx.beep_planes_ = &beep_planes_;
  ctx.active_count_ = active_count_.data();
  ctx.mis_lists_ = &mis_lists_;
  ctx.mis_joins_ = &mis_union_;
  ctx.in_mis_union_ = &in_mis_union_;
  ctx.mis_hear_valid_ = &mis_hear_valid_;
  ctx.reactivated_ = &reactivated_;
  ctx.reactivation_counts_ = reactivation_counts_.data();
  ctx.running_ = &running_;
  ctx.bulk_rng_ = &bulk_rng_;
  ctx.rngs_ = &rngs_;
  ctx.rng_mode_ = rng_mode_;
  ctx.lo_ = 0;
  ctx.hi_ = n;
  ctx.lane_count_ = lanes;

  while (running_ != 0) {
    if (config_.deadline_ns != nullptr &&
        steady_now_ns() > config_.deadline_ns->load(std::memory_order_relaxed)) {
      throw RunCancelled("BatchSimulator::run: deadline expired at round " +
                         std::to_string(round_));
    }
    const bool wakeups_pending = fault_cursor_.next_wakeup < faults_.wakeups.size();
    detail::retire_finished_lanes(round_, config_.run_until_round, config_.max_rounds,
                                  wakeups_pending, active_count_.data(),
                                  lane_rounds_.data(), running_, terminated_);
    if (running_ == 0) break;
    detail::grow_beep_planes(beep_planes_, round_, exchanges, n);

    {
      BEEPMIS_STM_START(faults);
      apply_wakeups_and_crashes();
      BEEPMIS_STM_STOP(faults);
    }

    for (exchange_ = 0; exchange_ < exchanges; ++exchange_) {
      if (exchange_ == 0) {
        detail::clear_flags(prev_beeped_, prev_beepers_);
      } else {
        beeped_.swap(prev_beeped_);
        beepers_.swap(prev_beepers_);
      }
      detail::clear_flags(beeped_, beepers_);
      ctx.round_ = round_;
      ctx.exchange_ = exchange_;

      ctx.phase_ = BatchContext::Phase::kEmit;
      BEEPMIS_STM_START(emit);
      protocol.emit(ctx);
      BEEPMIS_STM_STOP(emit);

      BEEPMIS_STM_START(deliver);
      deliver_beeps(frontier_only_reads);
      BEEPMIS_STM_STOP(deliver);

      ctx.phase_ = BatchContext::Phase::kReact;
      BEEPMIS_STM_START(react);
      protocol.react(ctx);
      BEEPMIS_STM_STOP(react);
    }
    compact_active();
    if (!reactivated_.empty()) {
      // Scalar round-boundary rule: a reactivated node re-enters the active
      // list unless it is still on it (live in another lane, or reactivated
      // twice); compaction above kept it when any live bit was set.
      for (const graph::NodeId v : reactivated_) {
        if (in_active_[v]) continue;
        active_.push_back(v);
        in_active_[v] = 1;
      }
      std::sort(active_.begin(), active_.end());
      reactivated_.clear();
    }
    ++round_;
  }

  return {crashed_, inmis_, dominated_, beep_planes_, lanes,
          terminated_, lane_rounds_, reactivation_counts_};
}

}  // namespace beepmis::sim
