#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/journal.hpp"
#include "mis/verifier.hpp"
#include "sim/sharded.hpp"
#include "sim/sharded_batch.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

namespace beepmis::harness {

void TrialStats::merge(const TrialStats& other) {
  rounds.merge(other.rounds);
  beeps_per_node.merge(other.beeps_per_node);
  max_beeps_any_node.merge(other.max_beeps_any_node);
  mis_size.merge(other.mis_size);
  message_bits.merge(other.message_bits);
  trials += other.trials;
  terminated += other.terminated;
  valid += other.valid;
  independence_violations += other.independence_violations;
  uncovered_nodes += other.uncovered_nodes;
  recovery_rounds.insert(recovery_rounds.end(), other.recovery_rounds.begin(),
                         other.recovery_rounds.end());
  disruptions += other.disruptions;
  unrecovered_disruptions += other.unrecovered_disruptions;
  if (scalar_fallback_reason.empty()) scalar_fallback_reason = other.scalar_fallback_reason;
  requested_trials += other.requested_trials;
  attempted += other.attempted;
  quarantined += other.quarantined;
  retries += other.retries;
  failed_trials.insert(failed_trials.end(), other.failed_trials.begin(),
                       other.failed_trials.end());
  truncated = truncated || other.truncated;
  resumed_trials += other.resumed_trials;
  if (resume_discarded_reason.empty()) resume_discarded_reason = other.resume_discarded_reason;
}

TrialStats::RecoveryQuantiles TrialStats::recovery_quantiles() const {
  RecoveryQuantiles q;
  if (recovery_rounds.empty()) return q;
  std::vector<double> sorted = recovery_rounds;
  std::sort(sorted.begin(), sorted.end());
  q.p50 = support::quantile_sorted(sorted, 0.50);
  q.p95 = support::quantile_sorted(sorted, 0.95);
  q.p99 = support::quantile_sorted(sorted, 0.99);
  return q;
}

TrialStats::Interval TrialStats::ci95(const support::RunningStats& s) {
  const double half = 1.96 * s.stderr_mean();
  return {s.mean() - half, s.mean() + half};
}

namespace {

/// Raw metrics of one trial; collected into trial-indexed slots so the
/// final aggregation order (and hence floating-point result) is identical
/// for every thread count.
struct TrialRecord {
  enum class Status { kCompleted, kQuarantined };

  double rounds = 0;
  double beeps_per_node = 0;
  double max_beeps = 0;
  double mis_size = 0;
  double message_bits = 0;
  bool terminated = false;
  bool valid = false;
  std::size_t independence_violations = 0;
  std::size_t uncovered_nodes = 0;
  std::vector<std::uint32_t> recovery_rounds;
  std::size_t unrecovered_disruptions = 0;
  // Fault-isolation bookkeeping (TrialConfig::isolate_trial_faults).
  Status status = Status::kCompleted;
  unsigned attempts = 1;
  std::string error;  ///< final attempt's exception text when quarantined
};

/// The record fields read off a verification report; shared by both
/// record builders below so scalar and batched records are field-identical.
void fill_verified(TrialRecord& rec, const mis::VerificationReport& report) {
  rec.terminated = report.terminated;
  rec.mis_size = static_cast<double>(report.mis_size);
  rec.valid = report.valid();
  rec.independence_violations = report.independence_violations;
  rec.uncovered_nodes = report.uncovered_nodes;
}

/// Metric extraction + MIS verification for one finished scalar or sharded
/// trial.
void fill_record(TrialRecord& rec, const graph::Graph& g, const sim::RunResult& result) {
  rec.rounds = static_cast<double>(result.rounds);
  rec.beeps_per_node = result.mean_beeps_per_node();
  std::uint32_t max_beeps = 0;
  for (const std::uint32_t b : result.beep_counts) max_beeps = std::max(max_beeps, b);
  rec.max_beeps = static_cast<double>(max_beeps);
  rec.message_bits = static_cast<double>(result.message_bits);
  fill_verified(rec, mis::verify_mis_run(g, result));
  rec.recovery_rounds = result.recovery_rounds;
  rec.unrecovered_disruptions = result.unrecovered_disruptions;
}

/// The records of one finished batch, trials [first, first + planes.lanes),
/// from the plane verifier's merged per-lane counts — the same values
/// fill_record derives from each lane's RunResult.  The mean is exact:
/// RunResult::mean_beeps_per_node sums uint32 counts in a double, and
/// every partial sum stays an integer below 2^53, so it equals total / n.
void fill_batch_records(std::vector<TrialRecord>& records, std::size_t first,
                        const sim::LanePlanes& planes,
                        const std::vector<mis::LaneVerification>& lanes) {
  const graph::NodeId n = planes.node_count();
  for (unsigned l = 0; l < planes.lanes; ++l) {
    TrialRecord& rec = records[first + l];
    rec.rounds = static_cast<double>(planes.lane_rounds[l]);
    rec.beeps_per_node =
        n == 0 ? 0.0 : static_cast<double>(lanes[l].total_beeps) / static_cast<double>(n);
    rec.max_beeps = static_cast<double>(lanes[l].max_beeps);
    rec.message_bits = 0.0;
    fill_verified(rec, lanes[l].report);
  }
}

// run_workers — the shared worker-pool + exception-capture helper — lives
// in support/parallel.hpp so the sharded simulator's per-run worker pool
// funnels through the same policy.
using support::run_workers;

/// Per-worker cooperative trial-timeout handle: the worker re-arms it
/// before every attempt; the worker's simulator checks it at round
/// boundaries (SimConfig::deadline_ns).  nullptr when no timeout is set.
using DeadlinePtr = std::shared_ptr<std::atomic<std::int64_t>>;

DeadlinePtr make_trial_deadline(const TrialConfig& config) {
  if (config.trial_timeout_seconds <= 0.0) return nullptr;
  return std::make_shared<std::atomic<std::int64_t>>(INT64_MAX);
}

void arm_deadline(const DeadlinePtr& deadline, double timeout_seconds) {
  if (deadline == nullptr) return;
  deadline->store(sim::steady_now_ns() + static_cast<std::int64_t>(timeout_seconds * 1e9),
                  std::memory_order_relaxed);
}

/// Chunk-local aggregation of records[first, last) in ascending trial
/// order.  The sweep-wide result is the in-index-order merge of these
/// chunk aggregates — on *every* execution path, journaled or not — which
/// is what makes interrupted-and-resumed sweeps bit-identical to one-shot
/// runs: a chunk's aggregate depends only on its own trials, and the merge
/// order is fixed.  A sweep that fits in one chunk degenerates to exactly
/// the historical single-pass aggregation (merging into an empty
/// accumulator is a copy).
TrialStats aggregate_chunk(const std::vector<TrialRecord>& records, std::size_t first,
                           std::size_t last, std::uint64_t base_seed) {
  TrialStats total;
  for (std::size_t t = first; t < last; ++t) {
    const TrialRecord& rec = records[t];
    ++total.attempted;
    total.retries += rec.attempts > 0 ? rec.attempts - 1 : 0;
    if (rec.status == TrialRecord::Status::kQuarantined) {
      ++total.quarantined;
      total.failed_trials.push_back({t, base_seed, rec.attempts, rec.error});
      continue;
    }
    total.rounds.push(rec.rounds);
    total.beeps_per_node.push(rec.beeps_per_node);
    total.max_beeps_any_node.push(rec.max_beeps);
    total.mis_size.push(rec.mis_size);
    total.message_bits.push(rec.message_bits);
    ++total.trials;
    if (rec.terminated) ++total.terminated;
    if (rec.valid) ++total.valid;
    total.independence_violations += rec.independence_violations;
    total.uncovered_nodes += rec.uncovered_nodes;
    for (const std::uint32_t r : rec.recovery_rounds) {
      total.recovery_rounds.push_back(static_cast<double>(r));
    }
    total.disruptions += rec.recovery_rounds.size() + rec.unrecovered_disruptions;
    total.unrecovered_disruptions += rec.unrecovered_disruptions;
  }
  return total;
}

/// Shared mutable state of one sweep invocation: the chunk ledger, the
/// journal, and the stop signals.  Created by run_beep_trials /
/// run_local_trials and read by the work-unit loop (run_units).
struct SweepState {
  const TrialConfig* config = nullptr;
  std::size_t chunk_size = 0;
  std::size_t num_chunks = 0;
  /// Trial-indexed records of the current invocation (slots of resumed
  /// chunks stay untouched).
  std::vector<TrialRecord> records;
  /// Completed-chunk aggregates, indexed by chunk; null = not done.
  /// Written/read under checkpoint_mutex during the run; read freely after
  /// the worker join.
  std::vector<std::unique_ptr<TrialStats>> chunk_stats;
  /// Per-chunk count of work units (trials, or batches on the batched
  /// path) still outstanding; the worker that takes it to zero aggregates
  /// and checkpoints the chunk.
  std::unique_ptr<std::atomic<std::size_t>[]> remaining;
  std::unique_ptr<SweepJournal> journal;
  std::mutex checkpoint_mutex;
  std::size_t checkpoints = 0;           ///< chunks completed this invocation
  std::int64_t budget_deadline_ns = 0;   ///< 0 = no budget
  std::atomic<bool> stopped{false};      ///< budget/stop_request observed
  std::size_t resumed_trials = 0;
  std::string resume_discarded_reason;

  [[nodiscard]] std::size_t chunk_first(std::size_t chunk) const noexcept {
    return chunk * chunk_size;
  }
  [[nodiscard]] std::size_t chunk_last(std::size_t chunk) const noexcept {
    return std::min(chunk_first(chunk) + chunk_size, config->trials);
  }

  /// Checked at trial/batch claim boundaries: in-flight work always
  /// finishes, so a stop truncates the sweep at clean boundaries only.
  [[nodiscard]] bool should_stop() noexcept {
    if (stopped.load(std::memory_order_relaxed)) return true;
    const bool expired =
        (budget_deadline_ns != 0 && sim::steady_now_ns() > budget_deadline_ns) ||
        (config->stop_request != nullptr &&
         config->stop_request->load(std::memory_order_relaxed));
    if (expired) stopped.store(true, std::memory_order_relaxed);
    return expired;
  }
};

/// Aggregates a freshly completed chunk, appends it to the journal, and
/// fires the on_checkpoint hook — in that order, so a reported checkpoint
/// is already on disk.  Called by exactly one worker per chunk (the one
/// whose claim took SweepState::remaining[chunk] to zero).
void finish_chunk(SweepState& sweep, std::size_t chunk) {
  JournalChunk done{chunk, aggregate_chunk(sweep.records, sweep.chunk_first(chunk),
                                           sweep.chunk_last(chunk), sweep.config->base_seed)};
  const std::lock_guard<std::mutex> lock(sweep.checkpoint_mutex);
  if (sweep.journal != nullptr) sweep.journal->append(done);
  sweep.chunk_stats[chunk] = std::make_unique<TrialStats>(std::move(done.stats));
  ++sweep.checkpoints;
  if (sweep.config->on_checkpoint) sweep.config->on_checkpoint(sweep.checkpoints);
}

/// Final assembly: completed chunks merged in ascending index order.
TrialStats assemble(SweepState& sweep) {
  TrialStats total;
  std::size_t done = 0;
  for (std::size_t chunk = 0; chunk < sweep.num_chunks; ++chunk) {
    if (sweep.chunk_stats[chunk] == nullptr) continue;
    total.merge(*sweep.chunk_stats[chunk]);
    ++done;
  }
  total.requested_trials = sweep.config->trials;
  total.truncated = done < sweep.num_chunks;
  total.resumed_trials = sweep.resumed_trials;
  total.resume_discarded_reason = sweep.resume_discarded_reason;
  return total;
}

/// The journal's request key: every knob of the sweep the harness can see
/// that affects the numeric result, plus the caller's fingerprint for
/// everything it cannot (graph family, protocol, scenario parameters).
/// `plan` is null for a LOCAL-model sweep.  Thread count is deliberately
/// excluded — results are thread-count independent, so a sweep may be
/// resumed with different parallelism.
std::uint64_t compute_request_hash(const TrialConfig& c, const SweepPlan* plan,
                                   std::size_t chunk_size) {
  support::StableHash h;
  h.update(plan == nullptr ? "beepmis-local-sweep-v1" : "beepmis-beep-sweep-v1");
  h.update_u64(c.request_fingerprint);
  h.update_u64(c.trials);
  h.update_u64(c.base_seed);
  // Engine knobs (allow_batched, allow_sharded, shards) are excluded like
  // the thread count: every scalar-order engine is bit-identical, so a
  // journal written by one may be finished by another.  What the plan
  // decides about the sample is hashed instead: statistical lanes, and at
  // K >= 2 the shard count, since those streams are partitioned per
  // (shard, lane).  An auto K follows the thread count, so such a journal
  // resumed on another core count is rejected whole and the sweep
  // restarts: correct, just not incremental (pin TrialConfig::shards to
  // keep it incremental).  An explicit K >= 2 has always been keyed by
  // its shard count alone, with the statistical bit clear; keeping that
  // keeps those journals resumable.
  const bool statistical = plan != nullptr && plan->statistical;
  const unsigned sharded_k = statistical && plan->shards >= 2 ? plan->shards : 0;
  h.update_u64(statistical && (sharded_k == 0 || c.shards == 0) ? 1 : 0);
  h.update_u64(sharded_k);
  h.update_u64(c.shared_graph ? 1 : 0);
  h.update_u64(chunk_size);
  h.update_u64(c.sim.max_rounds);
  h.update_double(c.sim.beep_loss_probability);
  h.update_u64(c.sim.record_trace ? 1 : 0);
  h.update_u64(c.sim.mis_keepalive ? 1 : 0);
  h.update_u64(c.sim.run_until_round);
  h.update_u64(c.sim.track_recovery ? 1 : 0);
  h.update_u64(c.sim.wake_round.size());
  for (const std::uint32_t w : c.sim.wake_round) h.update_u64(w);
  h.update_u64(c.sim.crash_round.size());
  for (const std::uint32_t r : c.sim.crash_round) h.update_u64(r);
  h.update_u64(c.scenario ? 1 : 0);
  h.update_u64(c.local_sim.max_rounds);
  return h.digest();
}

void validate_sweep_config(const TrialConfig& config, const char* who) {
  const auto bad = [&](const std::string& what) {
    throw std::invalid_argument(std::string(who) + ": " + what);
  };
  if (!(config.budget_seconds >= 0.0)) bad("budget_seconds must be >= 0 (and not NaN)");
  if (!(config.trial_timeout_seconds >= 0.0)) {
    bad("trial_timeout_seconds must be >= 0 (and not NaN)");
  }
  if (config.checkpoint_interval == 0) bad("checkpoint_interval must be >= 1");
  if (config.resume && config.journal_path.empty()) {
    bad("resume requires journal_path (nothing to resume from)");
  }
}

void init_sweep(SweepState& sweep, const TrialConfig& config, const SweepPlan* plan) {
  sweep.config = &config;
  sweep.chunk_size = effective_checkpoint_interval(config.checkpoint_interval);
  sweep.num_chunks = checkpoint_chunk_count(config.trials, config.checkpoint_interval);
  sweep.records.resize(config.trials);
  sweep.chunk_stats.resize(sweep.num_chunks);
  sweep.remaining = std::make_unique<std::atomic<std::size_t>[]>(sweep.num_chunks);
  for (std::size_t i = 0; i < sweep.num_chunks; ++i) {
    sweep.remaining[i].store(0, std::memory_order_relaxed);
  }
  if (!config.journal_path.empty()) {
    const std::uint64_t request = compute_request_hash(config, plan, sweep.chunk_size);
    sweep.journal = std::make_unique<SweepJournal>(config.journal_path, request, config.trials,
                                                   sweep.chunk_size);
    std::vector<JournalChunk> resumed;
    if (config.resume) {
      JournalLoadResult loaded = sweep.journal->load();
      // A rejected journal is discarded whole and the sweep restarts from
      // scratch; the final stats still converge to the uninterrupted run's
      // because every chunk is recomputed from its seeds.
      if (loaded.status == JournalLoadResult::Status::kRejected) {
        sweep.resume_discarded_reason = std::move(loaded.reason);
      }
      resumed = std::move(loaded.chunks);  // empty unless kValid
    }
    // Publish the header plus every resumed chunk once, atomically and
    // durably; this also drops a torn tail left by a crash.  From here on
    // finish_chunk only appends.
    sweep.journal->save(resumed);
    for (JournalChunk& chunk : resumed) {
      sweep.resumed_trials += sweep.chunk_last(chunk.index) - sweep.chunk_first(chunk.index);
      sweep.chunk_stats[chunk.index] = std::make_unique<TrialStats>(std::move(chunk.stats));
    }
  }
  if (config.budget_seconds > 0.0) {
    sweep.budget_deadline_ns =
        sim::steady_now_ns() + static_cast<std::int64_t>(config.budget_seconds * 1e9);
  }
}

/// Runs `attempt` under the sweep's fault-isolation policy: without
/// isolate_trial_faults the first exception propagates (fail-fast, the
/// historical behaviour); with it, failed attempts are retried with
/// bounded exponential backoff and the outcome reports quarantine.
struct AttemptOutcome {
  bool completed = true;
  unsigned attempts = 1;
  std::string error;
};

template <typename Attempt>
AttemptOutcome run_with_isolation(const TrialConfig& config, const DeadlinePtr& deadline,
                                  Attempt&& attempt) {
  const unsigned attempts_allowed =
      config.isolate_trial_faults ? 1 + config.max_retries : 1;
  unsigned backoff_ms = std::min(config.retry_backoff_ms, config.max_retry_backoff_ms);
  for (unsigned attempt_no = 1;; ++attempt_no) {
    try {
      arm_deadline(deadline, config.trial_timeout_seconds);
      attempt();
      return {true, attempt_no, {}};
    } catch (...) {
      if (!config.isolate_trial_faults) throw;
      if (attempt_no >= attempts_allowed) {
        return {false, attempt_no,
                support::detail::exception_message(std::current_exception())};
      }
      if (backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      }
      backoff_ms = std::min(backoff_ms == 0 ? 1u : backoff_ms * 2, config.max_retry_backoff_ms);
    }
  }
}

/// The one work loop behind every engine.  A work unit is up to `unit`
/// consecutive trials of a chunk the journal has not restored — one trial,
/// or one lane batch; chunks hold whole batches, so no unit straddles two.
/// `make_runner(deadline)` is called once per worker and returns
/// `run(first, last)`, which fills records [first, last) with the worker's
/// own simulator and protocol, reused across units (a run is a pure
/// function of graph, protocol and seed, so reuse only saves allocations).
/// Workers check the stop signals before every claim, so a stop truncates
/// at unit boundaries; a unit that exhausts its retries quarantines all of
/// its trials; the worker that finishes a chunk's last unit checkpoints it.
template <typename MakeRunner>
void run_units(SweepState& sweep, std::size_t unit, unsigned workers,
               MakeRunner&& make_runner) {
  const TrialConfig& config = *sweep.config;
  struct Unit {
    std::size_t first = 0, last = 0;
  };
  std::vector<Unit> pending;
  pending.reserve((config.trials + unit - 1) / unit);
  for (std::size_t chunk = 0; chunk < sweep.num_chunks; ++chunk) {
    if (sweep.chunk_stats[chunk] != nullptr) continue;
    const std::size_t last = sweep.chunk_last(chunk);
    std::size_t units = 0;
    for (std::size_t first = sweep.chunk_first(chunk); first < last; first += unit, ++units) {
      pending.push_back({first, std::min(first + unit, last)});
    }
    sweep.remaining[chunk].store(units, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> next{0};
  run_workers(workers, pending.size(), [&] {
    const DeadlinePtr deadline = make_trial_deadline(config);
    auto run = make_runner(deadline);
    for (;;) {
      if (sweep.should_stop()) break;
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      const auto [first, last] = pending[i];
      const AttemptOutcome outcome =
          run_with_isolation(config, deadline, [&] { run(first, last); });
      for (std::size_t t = first; t < last; ++t) {
        TrialRecord& rec = sweep.records[t];
        if (outcome.completed) {
          rec.status = TrialRecord::Status::kCompleted;
          rec.attempts = outcome.attempts;
        } else {
          rec = TrialRecord{};  // drop any partial metrics from the failed attempt
          rec.status = TrialRecord::Status::kQuarantined;
          rec.attempts = outcome.attempts;
          rec.error = outcome.error;
        }
      }
      const std::size_t chunk = first / sweep.chunk_size;
      if (sweep.remaining[chunk].fetch_sub(1) == 1) finish_chunk(sweep, chunk);
    }
  });
}

/// Trial 0's graph: every trial's graph comes from root.child(t).child(0),
/// and a shared graph is trial 0's.
std::unique_ptr<const graph::Graph> trial0_graph(const GraphFactory& graphs,
                                                 std::uint64_t base_seed) {
  auto rng = support::SeedSequence(base_seed).child(0).child(0).generator();
  return std::make_unique<const graph::Graph>(graphs(rng));
}

/// A worker's simulator config: its own deadline handle and, on a forced
/// scalar scenario sweep, its own stateful scenario instance.
sim::SimConfig worker_sim_config(const TrialConfig& config, const DeadlinePtr& deadline) {
  sim::SimConfig sim_config = config.sim;
  sim_config.deadline_ns = deadline;
  if (config.scenario) sim_config.scenario = config.scenario();
  return sim_config;
}

/// One trial per work unit (the scalar, sharded and LOCAL engines):
/// `make_simulator(deadline)` builds the worker's simulator, which rebinds
/// to each trial's graph.  That graph is `trial0` when the sweep shares
/// one (and for trial 0 whenever planning built it), else the factory's.
template <typename ProtocolFactory, typename MakeSimulator>
void run_trial_units(const GraphFactory& graphs, const graph::Graph* trial0, SweepState& sweep,
                     unsigned workers, const ProtocolFactory& protocols,
                     MakeSimulator&& make_simulator) {
  const TrialConfig& config = *sweep.config;
  const support::SeedSequence root(config.base_seed);
  run_units(sweep, 1, workers, [&](const DeadlinePtr& deadline) {
    return [&, simulator = make_simulator(deadline), protocol = protocols()](
               std::size_t trial, std::size_t) mutable {
      const support::SeedSequence seed = root.child(trial);
      graph::Graph own;
      const graph::Graph* g = config.shared_graph || trial == 0 ? trial0 : nullptr;
      if (g == nullptr) {
        auto graph_rng = seed.child(0).generator();
        own = graphs(graph_rng);
        g = &own;
      }
      fill_record(sweep.records[trial], *g,
                  simulator.run(*g, *protocol, seed.child(1).generator()));
    };
  });
}

/// One lane batch per work unit on the plan's graph, swept by plan.shards
/// threads per run.  In kScalarOrder (K = 1) lane l runs trial first + l's
/// own seed, bit-identical to its scalar run; in kStatisticalLanes each
/// batch draws from one base stream keyed by its first trial index.
void run_batch_units(const BeepProtocolFactory& protocols, const SweepPlan& plan,
                     SweepState& sweep, unsigned workers) {
  const TrialConfig& config = plan.config;
  const support::SeedSequence root(config.base_seed);
  const graph::Graph& g = *plan.graph;
  run_units(sweep, sim::kMaxBatchLanes, workers, [&](const DeadlinePtr& deadline) {
    std::unique_ptr<sim::BatchProtocol> protocol =
        protocols()->make_batch_protocol(config.rng_mode);
    if (!protocol) {
      // The plan's probe saw a kernel but this worker's instance refuses
      // one: the factory returns protocols of varying dynamic type.
      throw std::logic_error(
          "run_beep_trials: protocol factory is inconsistent about make_batch_protocol");
    }
    return [&, protocol = std::move(protocol),
            simulator = sim::ShardedBatchSimulator(g, plan.shards,
                                                   worker_sim_config(config, deadline),
                                                   config.rng_mode),
            parts = std::vector<std::vector<mis::LaneVerification>>()](
               std::size_t first, std::size_t last) mutable {
      sim::LanePlanes planes;
      if (plan.statistical) {
        planes = simulator.run_planes(*protocol, root.child(first).child(1).generator(),
                                      static_cast<unsigned>(last - first));
      } else {
        std::vector<support::Xoshiro256StarStar> rngs;
        rngs.reserve(last - first);
        for (std::size_t t = first; t < last; ++t) {
          rngs.push_back(root.child(t).child(1).generator());
        }
        planes = simulator.run_planes(*protocol, std::move(rngs));
      }
      // Verification fans out like the run: one worker per shard range.
      const unsigned k = simulator.shard_count();
      parts.resize(k);
      std::atomic<unsigned> next_range{0};
      run_workers(k, k, [&] {
        for (unsigned s = next_range.fetch_add(1); s < k; s = next_range.fetch_add(1)) {
          const auto [lo, hi] = simulator.shard_range(s);
          parts[s] = mis::verify_mis_planes(g, planes, lo, hi);
        }
      });
      for (unsigned s = 1; s < k; ++s) {
        for (unsigned l = 0; l < planes.lanes; ++l) parts[0][l].merge(parts[s][l]);
      }
      fill_batch_records(sweep.records, first, planes, parts[0]);
    };
  });
}

}  // namespace

std::size_t effective_checkpoint_interval(std::size_t checkpoint_interval) {
  const std::size_t lanes = sim::kMaxBatchLanes;
  const std::size_t requested = std::max<std::size_t>(checkpoint_interval, 1);
  return ((requested + lanes - 1) / lanes) * lanes;
}

std::size_t checkpoint_chunk_count(std::size_t trials, std::size_t checkpoint_interval) {
  const std::size_t chunk = effective_checkpoint_interval(checkpoint_interval);
  return trials == 0 ? 0 : (trials + chunk - 1) / chunk;
}

SweepPlan plan_sweep(const GraphFactory& graphs, const BeepProtocolFactory& protocols,
                     const TrialConfig& config) {
  using Engine = SweepPlan::Engine;
  SweepPlan plan;
  plan.config = config;
  TrialConfig& c = plan.config;
  std::string& fallback = plan.fallback_reason;
  if (c.scenario) {
    const std::unique_ptr<sim::FaultScenario> probe = c.scenario();
    if (probe == nullptr) {
      throw std::invalid_argument("run_beep_trials: scenario factory returned nullptr");
    }
    const std::string name(probe->name());
    switch (probe->kind()) {
      case sim::ScenarioKind::kStaticSchedule:
        if (c.shared_graph && c.sim.crash_round.empty()) {
          // The schedule is a pure function of (graph, scenario config), so
          // folding it into the static crash vectors keeps every route open
          // and is bit-identical to running the scenario live.  The journal
          // key hashes the folded vector, so a resume agrees with the run.
          plan.graph = trial0_graph(graphs, c.base_seed);
          c.sim.crash_round = probe->materialize_crash_rounds(*plan.graph);
          c.scenario = nullptr;
        } else {
          fallback = "scenario '" + name +
                     "' runs live on the scalar simulator (materialising needs "
                     "shared_graph and an empty crash_round)";
        }
        break;
      case sim::ScenarioKind::kObliviousStream:
        fallback = "scenario '" + name +
                   "' emits dynamic events (revives/churn): scalar simulator only";
        break;
      case sim::ScenarioKind::kAdaptive:
        fallback = "scenario '" + name +
                   "' is adaptive (observes live run state): batched/sharded fast "
                   "paths refused, scalar simulator only";
        break;
    }
  }
  if (c.sim.track_recovery && fallback.empty()) {
    fallback = "recovery tracking is scalar-only: batched/sharded fast paths refused";
  }
  if (c.shared_graph && plan.graph == nullptr) plan.graph = trial0_graph(graphs, c.base_seed);
  if (!fallback.empty()) return plan;

  const auto route = [&plan](Engine engine, unsigned shards, bool statistical) {
    plan.engine = engine;
    plan.shards = shards;
    plan.statistical = statistical;
    return std::move(plan);
  };
  const unsigned threads =
      c.threads != 0 ? c.threads : std::max(1u, std::thread::hardware_concurrency());
  const std::unique_ptr<sim::BeepProtocol> probe = protocols();
  const bool shardable = probe->shard_support().supported;
  const bool batchable = probe->make_batch_protocol(c.rng_mode) != nullptr;
  const bool statistical = c.rng_mode == sim::BatchRngMode::kStatisticalLanes;
  const bool trace = c.sim.record_trace;

  // Statistical mode is an explicit opt-in to a different sample, so the
  // K >= 2 lane planes outrank the scalar-order sharded engine.  Explicit
  // shard counts are requests: values beyond the simulator's ceiling
  // throw at construction; auto counts are clamped.
  if (statistical && c.allow_batched && c.allow_sharded && c.shared_graph && !trace &&
      c.trials > sim::kMaxBatchLanes && c.shards != 1 && (c.shards >= 2 || threads >= 2) &&
      shardable && batchable) {
    if (c.shards >= 2) return route(Engine::kPlanes, c.shards, true);
    if (plan.graph->node_count() >= c.auto_shard_min_nodes) {
      return route(Engine::kPlanes, std::min(threads, sim::ShardedBatchSimulator::kMaxShards),
                   true);
    }
  }
  if (c.allow_sharded && !trace && c.trials > 0 && c.shards != 1 && shardable) {
    if (c.shards >= 2) return route(Engine::kSharded, c.shards, false);
    // Auto: with several trials the trial-level parallelism already
    // saturates the machine, so only a lone large run shards.
    if (c.trials == 1 && threads >= 2) {
      if (plan.graph == nullptr) plan.graph = trial0_graph(graphs, c.base_seed);
      if (plan.graph->node_count() < c.auto_shard_min_nodes) return plan;
      return route(Engine::kSharded, std::min(threads, sim::ShardedSimulator::kMaxShards),
                   false);
    }
  }
  const bool lossy_tail = c.sim.beep_loss_probability > 0.0 && c.sim.mis_keepalive &&
                          c.sim.run_until_round > 0;
  if (c.allow_batched && c.shared_graph && c.trials > 0 && !trace &&
      (statistical || !lossy_tail) && batchable) {
    return route(Engine::kPlanes, 1, statistical);
  }
  return plan;
}

TrialStats run_beep_trials(const GraphFactory& graphs, const BeepProtocolFactory& protocols,
                           const TrialConfig& config) {
  if (config.sim.scenario != nullptr) {
    throw std::invalid_argument(
        "run_beep_trials: set TrialConfig::scenario (a factory), not "
        "SimConfig::scenario — every worker thread needs its own stateful instance");
  }
  if (config.sim.deadline_ns != nullptr) {
    throw std::invalid_argument(
        "run_beep_trials: set TrialConfig::trial_timeout_seconds, not "
        "SimConfig::deadline_ns — each worker thread arms its own per-attempt deadline");
  }
  validate_sweep_config(config, "run_beep_trials");
  const SweepPlan plan = plan_sweep(graphs, protocols, config);
  const TrialConfig& cfg = plan.config;
  SweepState sweep;
  init_sweep(sweep, cfg, &plan);
  // A sharded run already fans out across `shards` threads.
  const unsigned workers = plan.shards >= 2 ? 1 : cfg.threads;
  switch (plan.engine) {
    case SweepPlan::Engine::kScalar:
      run_trial_units(graphs, plan.graph.get(), sweep, workers, protocols,
                      [&](const DeadlinePtr& d) {
                        return sim::BeepSimulator(worker_sim_config(cfg, d));
                      });
      break;
    case SweepPlan::Engine::kSharded:
      run_trial_units(graphs, plan.graph.get(), sweep, workers, protocols,
                      [&](const DeadlinePtr& d) {
                        return sim::ShardedSimulator(plan.shards, worker_sim_config(cfg, d));
                      });
      break;
    case SweepPlan::Engine::kPlanes:
      run_batch_units(protocols, plan, sweep, workers);
      break;
  }
  TrialStats stats = assemble(sweep);
  stats.scalar_fallback_reason = plan.fallback_reason;
  return stats;
}

TrialStats run_local_trials(const GraphFactory& graphs, const LocalProtocolFactory& protocols,
                            const TrialConfig& config) {
  if (config.scenario || config.sim.scenario != nullptr) {
    throw std::invalid_argument(
        "run_local_trials: fault scenarios are a beeping-model feature");
  }
  validate_sweep_config(config, "run_local_trials");
  SweepState sweep;
  init_sweep(sweep, config, /*plan=*/nullptr);
  const auto trial0 = config.shared_graph ? trial0_graph(graphs, config.base_seed) : nullptr;
  // The LOCAL-model simulator has no cooperative deadline hook, so
  // trial_timeout_seconds is not enforced here; budget expiry still
  // truncates at trial boundaries.
  run_trial_units(graphs, trial0.get(), sweep, config.threads, protocols,
                  [&](const DeadlinePtr&) { return sim::LocalSimulator(config.local_sim); });
  return assemble(sweep);
}

}  // namespace beepmis::harness
