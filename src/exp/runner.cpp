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
/// run_local_trials and threaded through every execution path.
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
/// Thread count is deliberately excluded — results are thread-count
/// independent, so a sweep may be resumed with different parallelism.
std::uint64_t compute_request_hash(const TrialConfig& c, bool local, std::size_t chunk_size,
                                   unsigned sharded_batch_k) {
  support::StableHash h;
  h.update(local ? "beepmis-local-sweep-v1" : "beepmis-beep-sweep-v1");
  h.update_u64(c.request_fingerprint);
  h.update_u64(c.trials);
  h.update_u64(c.base_seed);
  // Execution-path knobs (allow_batched, allow_sharded, shards) are
  // excluded like the thread count: every path draws in scalar order and
  // is bit-identical, so a journal written by a scalar run may be finished
  // by a batched or sharded one.  The one path choice that *does* change
  // the numbers is the statistical-lanes entropy policy, which engages
  // exactly when the batched path's preconditions hold — hash that
  // effective bit, not the raw knobs.
  const bool statistical = c.rng_mode == sim::BatchRngMode::kStatisticalLanes &&
                           c.allow_batched && c.shared_graph && !c.sim.record_trace &&
                           c.shards <= 1;
  h.update_u64(statistical ? 1 : 0);
  // The sharded-batched path partitions the statistical streams per
  // (shard, lane), so its sample depends on the effective shard count —
  // hash it (0 = path disengaged).  Auto-selected counts follow the
  // thread count, so a sharded-batched journal resumed on a different
  // core count is rejected whole and the sweep restarts: correct, just
  // not incremental.  Pin TrialConfig::shards explicitly to keep resumes
  // incremental across machines.
  h.update_u64(sharded_batch_k);
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

/// Rounds the checkpoint interval up to a multiple of the batched
/// simulator's lane count so chunk boundaries coincide with batch
/// boundaries: the statistical-lanes mode keys each 64-trial batch's RNG
/// stream by its first trial index, so chunks must contain whole batches
/// for resumed runs to replay the exact same batches.
std::size_t effective_chunk_size(const TrialConfig& config) {
  return effective_checkpoint_interval(config.checkpoint_interval);
}

void init_sweep(SweepState& sweep, const TrialConfig& config, bool local,
                unsigned sharded_batch_k = 0) {
  sweep.config = &config;
  sweep.chunk_size = effective_chunk_size(config);
  sweep.num_chunks =
      config.trials == 0 ? 0 : (config.trials + sweep.chunk_size - 1) / sweep.chunk_size;
  sweep.records.resize(config.trials);
  sweep.chunk_stats.resize(sweep.num_chunks);
  sweep.remaining = std::make_unique<std::atomic<std::size_t>[]>(sweep.num_chunks);
  for (std::size_t i = 0; i < sweep.num_chunks; ++i) {
    sweep.remaining[i].store(0, std::memory_order_relaxed);
  }
  if (!config.journal_path.empty()) {
    const std::uint64_t request =
        compute_request_hash(config, local, sweep.chunk_size, sharded_batch_k);
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

void quarantine_record(TrialRecord& rec, const AttemptOutcome& outcome) {
  rec = TrialRecord{};  // drop any partial metrics from the failed attempt
  rec.status = TrialRecord::Status::kQuarantined;
  rec.attempts = outcome.attempts;
  rec.error = outcome.error;
}

/// Shared trial-loop machinery.  `make_runner(deadline)` is invoked once
/// per worker thread and returns a `run_one(graph, run_rng) -> RunResult`
/// callable that owns that worker's simulator (and protocol) instance;
/// reusing it across trials amortises all per-node scratch allocations.
/// Results are unaffected: a run is a pure function of (graph, protocol,
/// seed).  Workers claim individual trials (trial-granular load balance)
/// but aggregate per chunk: the worker that completes a chunk's last
/// pending trial checkpoints it.
template <typename MakeRunner>
void run_trials_chunked(const GraphFactory& graphs, const TrialConfig& config,
                        SweepState& sweep, MakeRunner&& make_runner) {
  const support::SeedSequence root(config.base_seed);

  // When the graph is shared, build it once up front from trial 0's seed.
  graph::Graph shared;
  if (config.shared_graph) {
    auto rng = root.child(0).child(0).generator();
    shared = graphs(rng);
  }

  // Pending trials: every trial of every not-yet-completed chunk (resumed
  // chunks are skipped whole).
  std::vector<std::size_t> pending;
  pending.reserve(config.trials);
  for (std::size_t chunk = 0; chunk < sweep.num_chunks; ++chunk) {
    if (sweep.chunk_stats[chunk] != nullptr) continue;
    const std::size_t first = sweep.chunk_first(chunk);
    const std::size_t last = sweep.chunk_last(chunk);
    sweep.remaining[chunk].store(last - first, std::memory_order_relaxed);
    for (std::size_t t = first; t < last; ++t) pending.push_back(t);
  }
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    const DeadlinePtr deadline = make_trial_deadline(config);
    auto run_one = make_runner(deadline);
    for (;;) {
      if (sweep.should_stop()) break;
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      const std::size_t trial = pending[i];

      const support::SeedSequence trial_seed = root.child(trial);
      TrialRecord& rec = sweep.records[trial];
      graph::Graph own;
      const AttemptOutcome outcome = run_with_isolation(config, deadline, [&] {
        const graph::Graph* g = &shared;
        if (!config.shared_graph) {
          auto graph_rng = trial_seed.child(0).generator();
          own = graphs(graph_rng);
          g = &own;
        }
        const sim::RunResult result = run_one(*g, trial_seed.child(1).generator());
        fill_record(rec, *g, result);
      });
      if (outcome.completed) {
        rec.status = TrialRecord::Status::kCompleted;
        rec.attempts = outcome.attempts;
      } else {
        quarantine_record(rec, outcome);
      }

      const std::size_t chunk = trial / sweep.chunk_size;
      if (sweep.remaining[chunk].fetch_sub(1) == 1) finish_chunk(sweep, chunk);
    }
  };
  run_workers(config.threads, pending.size(), worker);
}

/// Lane-plane path (sim/sharded_batch.hpp): 64 trials share one
/// structure-of-arrays sweep of the shared graph, swept by `shards` worker
/// threads per run.  Per-trial seeds, records and the chunked aggregation
/// are identical to the scalar path, and in kScalarOrder (shards = 1) each
/// lane is bit-identical to its scalar run, so TrialStats match exactly.
/// In kStatisticalLanes each batch runs from one base stream keyed by its
/// first trial index; at shards >= 2 the per-(shard, lane) stream
/// partition yields a different (equally distributed) sample.  Chunks
/// contain whole batches (effective_chunk_size), so fault isolation and
/// resume operate at batch granularity: a batch that exhausts its retries
/// quarantines all of its trials.
void run_beep_trials_planes(const graph::Graph& shared, const BeepProtocolFactory& protocols,
                            const TrialConfig& config, SweepState& sweep, unsigned shards) {
  const support::SeedSequence root(config.base_seed);

  struct Batch {
    std::size_t first = 0, last = 0;
  };
  std::vector<Batch> pending;
  for (std::size_t chunk = 0; chunk < sweep.num_chunks; ++chunk) {
    if (sweep.chunk_stats[chunk] != nullptr) continue;
    const std::size_t first = sweep.chunk_first(chunk);
    const std::size_t last = sweep.chunk_last(chunk);
    std::size_t batches_in_chunk = 0;
    for (std::size_t b = first; b < last; b += sim::kMaxBatchLanes) {
      pending.push_back({b, std::min(b + sim::kMaxBatchLanes, last)});
      ++batches_in_chunk;
    }
    sweep.remaining[chunk].store(batches_in_chunk, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> next{0};

  auto worker = [&] {
    // One simulator, bound once to the shared graph, and one batched kernel
    // per worker, reused across batches (scratch planes recycled).
    const DeadlinePtr deadline = make_trial_deadline(config);
    sim::SimConfig sim_config = config.sim;
    sim_config.deadline_ns = deadline;
    sim::ShardedBatchSimulator simulator(shared, shards, std::move(sim_config),
                                         config.rng_mode);
    const std::unique_ptr<sim::BatchProtocol> protocol =
        protocols()->make_batch_protocol(config.rng_mode);
    if (!protocol) {
      // The dispatch probe saw a kernel but this worker's instance refuses
      // one: the factory returns protocols of varying dynamic type.
      throw std::logic_error(
          "run_beep_trials: protocol factory is inconsistent about make_batch_protocol");
    }
    const unsigned k = simulator.shard_count();
    std::vector<std::vector<mis::LaneVerification>> parts(k);
    for (;;) {
      if (sweep.should_stop()) break;
      const std::size_t i = next.fetch_add(1);
      if (i >= pending.size()) break;
      const std::size_t first = pending[i].first;
      const std::size_t last = pending[i].last;

      const AttemptOutcome outcome = run_with_isolation(config, deadline, [&] {
        sim::LanePlanes planes;
        if (config.rng_mode == sim::BatchRngMode::kStatisticalLanes) {
          planes = simulator.run_planes(*protocol, root.child(first).child(1).generator(),
                                        static_cast<unsigned>(last - first));
        } else {
          std::vector<support::Xoshiro256StarStar> rngs;
          rngs.reserve(last - first);
          for (std::size_t trial = first; trial < last; ++trial) {
            rngs.push_back(root.child(trial).child(1).generator());
          }
          planes = simulator.run_planes(*protocol, std::move(rngs));
        }
        // Verification fans out like the run: one worker per shard range.
        std::atomic<unsigned> next_range{0};
        run_workers(k, k, [&] {
          for (;;) {
            const unsigned s = next_range.fetch_add(1);
            if (s >= k) break;
            const auto [lo, hi] = simulator.shard_range(s);
            parts[s] = mis::verify_mis_planes(shared, planes, lo, hi);
          }
        });
        for (unsigned s = 1; s < k; ++s) {
          for (unsigned l = 0; l < planes.lanes; ++l) parts[0][l].merge(parts[s][l]);
        }
        fill_batch_records(sweep.records, first, planes, parts[0]);
      });
      for (std::size_t trial = first; trial < last; ++trial) {
        TrialRecord& rec = sweep.records[trial];
        if (outcome.completed) {
          rec.status = TrialRecord::Status::kCompleted;
          rec.attempts = outcome.attempts;
        } else {
          quarantine_record(rec, outcome);
        }
      }

      const std::size_t chunk = first / sweep.chunk_size;
      if (sweep.remaining[chunk].fetch_sub(1) == 1) finish_chunk(sweep, chunk);
    }
  };
  // Each sharded run already fans out across `shards` threads.
  run_workers(shards >= 2 ? 1 : config.threads, pending.size(), worker);
}

/// Decides whether the sweep routes to the sharded-batched path and
/// returns its shard count (0 = disengaged).  Engages only for
/// statistical-lanes sweeps whose batch size amortises the per-exchange
/// barriers: a shared graph, a shard-supporting protocol with a batched
/// kernel, more than one batch of trials, and either an explicit
/// TrialConfig::shards >= 2 or — in auto mode — at least two threads and
/// a graph of auto_shard_min_nodes or more.  The auto branch needs the
/// graph's node count, so it materialises trial 0's shared graph into
/// `shared` (unless the scenario materialisation already did) and
/// repoints `graphs` at it; every downstream path builds trial 0's graph
/// from the identical seed, so the substitution is invisible.
unsigned resolve_sharded_batch_shards(const GraphFactory*& graphs, GraphFactory& prebuilt,
                                      std::shared_ptr<const graph::Graph>& shared,
                                      const BeepProtocolFactory& protocols,
                                      const TrialConfig& c) {
  if (c.rng_mode != sim::BatchRngMode::kStatisticalLanes) return 0;
  if (!c.allow_batched || !c.allow_sharded || !c.shared_graph) return 0;
  if (c.sim.record_trace) return 0;
  if (c.trials <= sim::kMaxBatchLanes) return 0;
  if (c.shards == 1) return 0;
  const unsigned threads = c.threads != 0
                               ? c.threads
                               : std::max(1u, std::thread::hardware_concurrency());
  if (c.shards == 0 && threads < 2) return 0;
  const std::unique_ptr<sim::BeepProtocol> probe = protocols();
  if (!probe->shard_support().supported) return 0;
  if (probe->make_batch_protocol(c.rng_mode) == nullptr) return 0;
  // Explicit shard counts are requests: values beyond the simulator's
  // ceiling throw at construction, exactly like the scalar-order sharded
  // path.
  if (c.shards >= 2) return c.shards;
  if (shared == nullptr) {
    auto rng = support::SeedSequence(c.base_seed).child(0).child(0).generator();
    shared = std::make_shared<const graph::Graph>((*graphs)(rng));
    prebuilt = [shared](support::Xoshiro256StarStar&) { return *shared; };
    graphs = &prebuilt;
  }
  if (shared->node_count() < c.auto_shard_min_nodes) return 0;
  return std::min(threads, sim::ShardedBatchSimulator::kMaxShards);
}

/// Sharded execution paths (see TrialConfig::shards).  Returns true when a
/// sharded path ran (filling the sweep state); false = use the
/// scalar/batched paths.  Both sharded paths draw in scalar order, so
/// TrialStats are bit-identical to the other execution paths.
bool run_beep_trials_sharded(const GraphFactory& graphs, const BeepProtocolFactory& protocols,
                             const TrialConfig& config, SweepState& sweep) {
  if (!config.allow_sharded || config.sim.record_trace || config.trials == 0 ||
      config.shards == 1) {
    return false;
  }
  if (!protocols()->shard_support().supported) return false;

  if (config.shards >= 2) {
    // Explicit shard count: every trial runs sharded; the outer trial loop
    // is single-worker because each run already uses `shards` threads.
    TrialConfig outer = config;
    outer.threads = 1;
    run_trials_chunked(graphs, outer, sweep, [&](const DeadlinePtr& deadline) {
      sim::SimConfig sim_config = config.sim;
      sim_config.deadline_ns = deadline;
      return [simulator = sim::ShardedSimulator(config.shards, std::move(sim_config)),
              protocol = protocols()](const graph::Graph& g,
                                      support::Xoshiro256StarStar rng) mutable {
        return simulator.run(g, *protocol, rng);
      };
    });
    return true;
  }

  // Auto mode: only a lone large run benefits — with several trials the
  // trial-level parallelism already saturates the machine.
  const unsigned threads = config.threads != 0
                               ? config.threads
                               : std::max(1u, std::thread::hardware_concurrency());
  if (config.trials != 1 || threads < 2) return false;

  if (sweep.chunk_stats[0] != nullptr) return true;  // resumed: nothing to run
  if (sweep.should_stop()) return true;              // budget spent before starting

  const support::SeedSequence trial_seed = support::SeedSequence(config.base_seed).child(0);
  // Shared or not, trial 0's graph comes from root.child(0).child(0) —
  // the same seed path either way.
  auto graph_rng = trial_seed.child(0).generator();
  const graph::Graph g = graphs(graph_rng);

  const std::unique_ptr<sim::BeepProtocol> protocol = protocols();
  const DeadlinePtr deadline = make_trial_deadline(config);
  TrialRecord& rec = sweep.records[0];
  sim::SimConfig sim_config = config.sim;
  sim_config.deadline_ns = deadline;
  const AttemptOutcome outcome = run_with_isolation(config, deadline, [&] {
    sim::RunResult result;
    if (g.node_count() >= config.auto_shard_min_nodes) {
      // Auto mode must never reject a config that worked before sharding
      // existed, so clamp to the simulator's shard ceiling (explicit
      // TrialConfig::shards beyond it still throws — that is a request).
      const unsigned k = std::min(threads, sim::ShardedSimulator::kMaxShards);
      sim::ShardedSimulator simulator(g, k, sim_config);
      result = simulator.run(*protocol, trial_seed.child(1).generator());
    } else {
      // Too small for the per-exchange barriers to pay off — but the graph
      // is already built, so run the lone trial scalar here rather than
      // rebuilding it from the same seed in the generic trial loop.
      sim::BeepSimulator simulator(g, sim_config);
      result = simulator.run(*protocol, trial_seed.child(1).generator());
    }
    fill_record(rec, g, result);
  });
  if (outcome.completed) {
    rec.status = TrialRecord::Status::kCompleted;
    rec.attempts = outcome.attempts;
  } else {
    quarantine_record(rec, outcome);
  }
  finish_chunk(sweep, 0);
  return true;
}

/// The pre-scenario dispatch pipeline: sharded, then batched, then the
/// scalar trial loop.  Callers route scenario configs before this point —
/// only a materialised (or absent) scenario may reach it.  `prebuilt` is
/// trial 0's shared graph when routing already built it (nullptr
/// otherwise); the lane paths run on it in place instead of a copy.
void dispatch_beep_trials(const GraphFactory& graphs, const graph::Graph* prebuilt,
                          const BeepProtocolFactory& protocols, const TrialConfig& config,
                          SweepState& sweep, unsigned sharded_batch_k) {
  graph::Graph built;
  const auto trial0_graph = [&]() -> const graph::Graph& {
    if (prebuilt != nullptr) return *prebuilt;
    auto rng = support::SeedSequence(config.base_seed).child(0).child(0).generator();
    built = graphs(rng);
    return built;
  };
  // Lane-plane path at K >= 2: every core and every lane at once.  Routed
  // before the scalar-order sharded path because statistical mode is an
  // explicit opt-in to a different sample (resolve_sharded_batch_shards
  // gates on it), and its k is already folded into the journal's request
  // hash.
  if (sharded_batch_k > 0) {
    run_beep_trials_planes(trial0_graph(), protocols, config, sweep, sharded_batch_k);
    return;
  }
  // Sharded path: parallelism *within* one run (TrialConfig::shards).
  // Bit-identical to the scalar path, like the batched path below.
  if (run_beep_trials_sharded(graphs, protocols, config, sweep)) return;
  // Lane-plane path at K = 1 (batched): one graph shared by every trial, a
  // protocol with a batched kernel, and no per-run event trace.  In
  // kScalarOrder it is bit-identical to the scalar path (lane-for-lane),
  // so callers never observe the switch; in kStatisticalLanes it is an
  // explicit opt-in trade (TrialConfig::rng_mode).
  if (config.allow_batched && config.shared_graph && config.trials > 0 &&
      !config.sim.record_trace) {
    // Lossy tail-dominated sweeps (loss + keep-alive + a run_until tail):
    // in kScalarOrder every potential keep-alive delivery consumes its own
    // per-lane Bernoulli, nothing amortises, and the batched path *loses*
    // to scalar (0.6-0.9x in BENCH_core.json) — skip it.  In
    // kStatisticalLanes the bulk loss planes flip the trade back, so those
    // workloads prefer the batched path like everything else.
    const bool statistical = config.rng_mode == sim::BatchRngMode::kStatisticalLanes;
    const bool lossy_tail_dominated = config.sim.beep_loss_probability > 0.0 &&
                                      config.sim.mis_keepalive &&
                                      config.sim.run_until_round > 0;
    if ((statistical || !lossy_tail_dominated) &&
        protocols()->make_batch_protocol(config.rng_mode) != nullptr) {
      run_beep_trials_planes(trial0_graph(), protocols, config, sweep, 1);
      return;
    }
  }
  run_trials_chunked(graphs, config, sweep, [&](const DeadlinePtr& deadline) {
    // One simulator and one protocol per worker, reused for every trial the
    // worker claims; the simulator rebinds to each trial's graph.
    sim::SimConfig sim_config = config.sim;
    sim_config.deadline_ns = deadline;
    return [simulator = sim::BeepSimulator(std::move(sim_config)), protocol = protocols()](
               const graph::Graph& g, support::Xoshiro256StarStar rng) mutable {
      return simulator.run(g, *protocol, rng);
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
  TrialConfig cfg = config;
  const GraphFactory* effective_graphs = &graphs;
  // Trial 0's shared graph, once the scenario materialisation or the
  // routing probe has built it; effective_graphs then hands out copies.
  std::shared_ptr<const graph::Graph> shared;
  GraphFactory prebuilt_graphs;
  std::string fallback;

  if (cfg.scenario) {
    const std::unique_ptr<sim::FaultScenario> probe = cfg.scenario();
    if (probe == nullptr) {
      throw std::invalid_argument("run_beep_trials: scenario factory returned nullptr");
    }
    const std::string name(probe->name());
    switch (probe->kind()) {
      case sim::ScenarioKind::kStaticSchedule:
        if (cfg.shared_graph && cfg.sim.crash_round.empty()) {
          // The schedule is a pure function of (graph, scenario config),
          // so fold it into the static crash vectors once and keep every
          // fast path — the run is bit-identical to executing the
          // scenario live through the scalar driver.
          const support::SeedSequence root(cfg.base_seed);
          auto rng = root.child(0).child(0).generator();
          shared = std::make_shared<const graph::Graph>(graphs(rng));
          cfg.sim.crash_round = probe->materialize_crash_rounds(*shared);
          cfg.scenario = nullptr;
          prebuilt_graphs = [shared](support::Xoshiro256StarStar&) { return *shared; };
          effective_graphs = &prebuilt_graphs;
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
  if (cfg.sim.track_recovery && fallback.empty()) {
    fallback = "recovery tracking is scalar-only: batched/sharded fast paths refused";
  }

  // The sharded-batched routing decision is part of the journal's request
  // key (its shard count changes the statistical sample), so resolve it
  // before the sweep state is initialised.
  unsigned sharded_batch_k = 0;
  if (!cfg.scenario && !cfg.sim.track_recovery) {
    sharded_batch_k = resolve_sharded_batch_shards(effective_graphs, prebuilt_graphs, shared,
                                                   protocols, cfg);
  }

  // The request hash keys the journal to the routed config.  The scenario
  // materialisation above is a pure function of the caller's config, so an
  // interrupted invocation and its resume hash identical knobs (including
  // the materialised crash_round) and agree on the journal's request key.
  SweepState sweep;
  init_sweep(sweep, cfg, /*local=*/false, sharded_batch_k);

  if (!cfg.scenario && !cfg.sim.track_recovery) {
    dispatch_beep_trials(*effective_graphs, shared.get(), protocols, cfg, sweep,
                         sharded_batch_k);
  } else {
    // Forced-scalar path: each worker owns a private scenario instance
    // (fresh from the factory; BeepSimulator::run resets it every trial).
    run_trials_chunked(*effective_graphs, cfg, sweep, [&](const DeadlinePtr& deadline) {
      sim::SimConfig sim_config = cfg.sim;
      sim_config.deadline_ns = deadline;
      if (cfg.scenario) sim_config.scenario = cfg.scenario();
      return [simulator = sim::BeepSimulator(std::move(sim_config)), protocol = protocols()](
                 const graph::Graph& g, support::Xoshiro256StarStar rng) mutable {
        return simulator.run(g, *protocol, rng);
      };
    });
  }
  TrialStats stats = assemble(sweep);
  stats.scalar_fallback_reason = std::move(fallback);
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
  init_sweep(sweep, config, /*local=*/true);
  // The LOCAL-model simulator has no cooperative deadline hook, so
  // trial_timeout_seconds is not enforced here; budget expiry still
  // truncates at trial boundaries.
  run_trials_chunked(graphs, config, sweep, [&](const DeadlinePtr&) {
    return [simulator = sim::LocalSimulator(config.local_sim), protocol = protocols()](
               const graph::Graph& g, support::Xoshiro256StarStar rng) mutable {
      return simulator.run(g, *protocol, rng);
    };
  });
  return assemble(sweep);
}

}  // namespace beepmis::harness
