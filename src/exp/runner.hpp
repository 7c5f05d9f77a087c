// Multi-threaded trial runner: executes many independent (graph, protocol)
// trials and aggregates the metrics the paper reports.  Results are
// deterministic in the base seed regardless of thread count, because each
// trial derives its own seed tree and writes into its own slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "sim/beep.hpp"
#include "sim/local.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace beepmis::harness {

/// Builds the trial's graph from the trial's graph RNG.  Called once per
/// trial (each trial gets a fresh random graph, matching the paper's
/// methodology of averaging over random networks) unless
/// TrialConfig::shared_graph is set.
using GraphFactory = std::function<graph::Graph(support::Xoshiro256StarStar&)>;

/// Creates a fresh protocol instance (protocols are stateful per run).
using BeepProtocolFactory = std::function<std::unique_ptr<sim::BeepProtocol>()>;
using LocalProtocolFactory = std::function<std::unique_ptr<sim::LocalProtocol>()>;
/// Creates a fresh fault-scenario instance (scenarios are stateful per
/// run, so every worker thread needs its own; see TrialConfig::scenario).
using FaultScenarioFactory = std::function<std::unique_ptr<sim::FaultScenario>()>;

struct TrialConfig {
  std::size_t trials = 100;
  std::uint64_t base_seed = 0x5eed;
  /// 0 = use hardware concurrency.
  unsigned threads = 0;
  /// Generate the graph once (from trial 0's graph seed) and reuse it for
  /// every trial instead of resampling per trial.
  bool shared_graph = false;
  /// Permit the 64-lane batched engine (plan_sweep decides when it runs).
  /// In kScalarOrder results are bit-identical either way, so this exists
  /// only for A/B testing and benchmarking the engines.
  bool allow_batched = true;
  /// Draw-entropy policy of the batched engine.  kScalarOrder (the
  /// default) keeps every trial bit-identical to the scalar engine.
  /// kStatisticalLanes opts into jump()-partitioned per-lane streams and
  /// bulk cross-lane Bernoulli planes: the same per-trial marginal
  /// distributions from a different sample.  TrialStats stay deterministic
  /// per (base_seed, trials, mode, lane-plane shard count) and thread
  /// count, but are not comparable seed-for-seed with kScalarOrder runs.
  /// The scalar and scalar-order sharded engines always draw in scalar
  /// order.
  sim::BatchRngMode rng_mode = sim::BatchRngMode::kScalarOrder;
  /// Threads per run (sim/sharded.hpp, sim/sharded_batch.hpp): 0 = auto,
  /// 1 = never shard, >= 2 = that shard count.  plan_sweep turns this into
  /// an engine and a shard count; sharded engines run the outer trial loop
  /// single-worker, since each run already uses `shards` threads.
  unsigned shards = 0;
  /// Opt-out mirror of allow_batched for both sharded engines.
  bool allow_sharded = true;
  /// Auto-sharding size threshold: below this a run is too small for the
  /// per-exchange barriers to pay off.  Exposed for tests.
  std::size_t auto_shard_min_nodes = std::size_t{1} << 18;
  /// Fault scenario for every trial (see sim/scenario.hpp).  Set this —
  /// not SimConfig::scenario, which run_beep_trials rejects — so the
  /// harness can hand each worker thread its own instance.  plan_sweep
  /// folds a static schedule into SimConfig::crash_round when it can and
  /// otherwise forces the scalar engine, with the reason in
  /// TrialStats::scalar_fallback_reason.
  FaultScenarioFactory scenario;
  sim::SimConfig sim;
  sim::LocalSimConfig local_sim;

  // --- Crash-safe sweep controls (see src/exp/README.md, "Crash-safe
  // sweeps").  All default to off, preserving the historical fail-fast,
  // run-to-completion semantics exactly. ---

  /// Durable checkpoint journal (exp/journal.hpp).  Empty = no journaling.
  /// The sweep publishes the journal's header (plus any resumed chunks)
  /// once at start, then appends and fdatasyncs one record every time a
  /// chunk of `checkpoint_interval` trials completes.
  std::string journal_path;
  /// Load `journal_path` before running and skip every chunk it already
  /// holds.  A journal whose request hash does not match this config (or
  /// that fails a checksum) is rejected *whole* — never half loaded; only
  /// a torn final record is dropped — and the sweep restarts from scratch,
  /// with the reason surfaced in TrialStats::resume_discarded_reason.  A
  /// resumed sweep's final stats are bit-identical to an uninterrupted
  /// run's.
  bool resume = false;
  /// Caller-supplied identity of everything the harness cannot see: graph
  /// family + parameters, protocol identity, scenario parameters.  Mixed
  /// into the journal's request hash so a journal from a different sweep is
  /// rejected instead of silently merged.  (The harness hashes its own
  /// visible knobs — trials, base_seed, rng_mode, fault vectors, … — on top
  /// of this.)
  std::uint64_t request_fingerprint = 0;
  /// Trials per checkpoint chunk.  Rounded up to a multiple of the batched
  /// simulator's 64 lanes so chunk boundaries coincide with batch
  /// boundaries on every execution path (aggregation is chunked
  /// identically everywhere — that is what makes resumed, interrupted and
  /// cross-path runs bit-identical; see src/exp/README.md).
  std::size_t checkpoint_interval = 64;
  /// Wall-clock budget for this invocation (0 = unlimited).  When it
  /// expires, workers stop claiming trials, in-flight trials finish, and
  /// the sweep returns the chunks completed so far with truncated = true —
  /// an honest partial answer (fewer samples => wider confidence
  /// intervals) instead of no answer.  Resume later to finish.
  double budget_seconds = 0.0;
  /// Per-trial-attempt wall-clock timeout (0 = unlimited), enforced
  /// cooperatively by the simulators at round boundaries via
  /// SimConfig::deadline_ns.  A timed-out attempt throws sim::RunCancelled:
  /// with isolate_trial_faults it is retried / quarantined like any other
  /// trial fault; without it, it fails the sweep (fail-fast).
  double trial_timeout_seconds = 0.0;
  /// Per-trial fault isolation.  false (default): the first trial exception
  /// aborts the sweep (historical fail-fast semantics).  true: a throwing
  /// trial is retried up to `max_retries` times with bounded exponential
  /// backoff, then quarantined — recorded in TrialStats::failed_trials and
  /// excluded from the metric aggregates, while the sweep completes.
  /// Retries rerun the identical (seed-pure) computation, so they help with
  /// transient faults (timeouts under load, resource exhaustion), not
  /// deterministic protocol bugs — those quarantine after max_retries.
  bool isolate_trial_faults = false;
  /// Extra attempts after the first failure (isolate_trial_faults only).
  unsigned max_retries = 2;
  /// First retry backoff; doubles per retry, capped at max_retry_backoff_ms.
  unsigned retry_backoff_ms = 1;
  unsigned max_retry_backoff_ms = 100;
  /// Cooperative external stop (e.g. a signal handler): when set to true,
  /// workers stop claiming trials at the next trial boundary and the sweep
  /// returns truncated, exactly like budget expiry.
  std::shared_ptr<std::atomic<bool>> stop_request;
  /// Test/observability hook: invoked after every completed chunk (after
  /// its journal record is fdatasync'd, when journaling) with the number
  /// of chunks completed by this invocation so far.  Called under the
  /// checkpoint lock — keep it cheap and do not call back into the harness.
  std::function<void(std::size_t chunks_completed)> on_checkpoint;
};

/// A trial that exhausted its retry budget and was excluded from the
/// metric aggregates (TrialConfig::isolate_trial_faults).
struct FailedTrial {
  std::size_t trial = 0;        ///< trial index within the sweep
  std::uint64_t base_seed = 0;  ///< sweep base seed (trial seed = child(trial))
  unsigned attempts = 0;        ///< attempts consumed (1 + retries)
  std::string error;            ///< what() of the final attempt's exception
};

/// Aggregated metrics across trials.
struct TrialStats {
  support::RunningStats rounds;
  support::RunningStats beeps_per_node;
  support::RunningStats max_beeps_any_node;
  support::RunningStats mis_size;
  support::RunningStats message_bits;
  std::size_t trials = 0;
  std::size_t terminated = 0;
  /// Trials whose final state passed full MIS verification.
  std::size_t valid = 0;
  /// Total violation counts summed over trials (nonzero only under faults).
  std::size_t independence_violations = 0;
  std::size_t uncovered_nodes = 0;
  /// Recovery-SLA samples across all trials, in trial order (populated
  /// only when SimConfig::track_recovery is set): rounds from each
  /// disruption to the next quiescent-and-valid state.
  std::vector<double> recovery_rounds;
  /// Disruptions opened across trials (== recovery_rounds.size() +
  /// unrecovered_disruptions).
  std::size_t disruptions = 0;
  /// Disruptions still unhealed when their runs ended.
  std::size_t unrecovered_disruptions = 0;
  /// Why the batched/sharded fast paths were refused and the scalar
  /// simulator ran instead (empty = no forced fallback).  E.g. an adaptive
  /// fault scenario or recovery tracking.
  std::string scalar_fallback_reason;

  // --- Crash-safe sweep accounting (see TrialConfig's sweep controls).
  // `trials` above counts *completed* trials — the ones contributing to
  // the metric aggregates; the fields below reconcile it against what was
  // asked for and what went wrong. ---

  /// TrialConfig::trials of the request (== trials unless the sweep was
  /// truncated or trials were quarantined).
  std::size_t requested_trials = 0;
  /// Trials attempted by this result (completed + quarantined).
  std::size_t attempted = 0;
  /// Trials that exhausted their retry budget (== failed_trials.size()).
  std::size_t quarantined = 0;
  /// Total retry attempts performed across all trials.
  std::size_t retries = 0;
  /// Per-quarantined-trial report, ascending trial index.
  std::vector<FailedTrial> failed_trials;
  /// The sweep stopped early (budget expiry or stop_request) at a clean
  /// checkpoint boundary: the aggregates cover only the completed chunks.
  /// The confidence intervals below widen honestly with the smaller n.
  bool truncated = false;
  /// Trials restored from a resumed journal rather than re-run.
  std::size_t resumed_trials = 0;
  /// Why a resume journal was rejected and the sweep restarted from
  /// scratch (empty = no journal was rejected).
  std::string resume_discarded_reason;

  struct RecoveryQuantiles {
    double p50 = 0, p95 = 0, p99 = 0;
  };
  /// p50/p95/p99 of recovery_rounds (zeros when there are no samples).
  [[nodiscard]] RecoveryQuantiles recovery_quantiles() const;

  struct Interval {
    double lo = 0, hi = 0;
  };
  /// 95% normal-approximation confidence interval for a metric's mean
  /// (mean ± 1.96 · stderr).  Collapses to [mean, mean] below two samples.
  /// Truncated/quarantined sweeps report honestly through this: fewer
  /// completed trials => larger stderr => wider interval.
  [[nodiscard]] static Interval ci95(const support::RunningStats& s);

  void merge(const TrialStats& other);
};

/// The chunk geometry a sweep will actually use: `checkpoint_interval`
/// rounded up to a multiple of the batched simulator's lane width (see
/// TrialConfig::checkpoint_interval), and the resulting number of
/// checkpoint chunks for `trials`.  Exposed so external observers (the
/// beepmisd progress stream) can turn on_checkpoint's chunk counts into
/// an honest "done / total" without re-deriving the rounding rule.
[[nodiscard]] std::size_t effective_checkpoint_interval(std::size_t checkpoint_interval);
[[nodiscard]] std::size_t checkpoint_chunk_count(std::size_t trials,
                                                 std::size_t checkpoint_interval);

/// How run_beep_trials executes a sweep, decided once by plan_sweep.  The
/// journal's request key hashes what the plan decides about the sample
/// (`statistical`, and the shard count of a K >= 2 lane-plane run).
struct SweepPlan {
  enum class Engine {
    kScalar,   ///< BeepSimulator, one trial per work unit
    kSharded,  ///< scalar-order ShardedSimulator, one trial per work unit
    kPlanes,   ///< ShardedBatchSimulator, one batch of up to 64 lanes per unit
  };
  Engine engine = Engine::kScalar;
  /// Threads inside one run (1 = unsharded).
  unsigned shards = 1;
  /// The lanes draw kStatisticalLanes streams: a different sample from
  /// scalar order.
  bool statistical = false;
  /// Why a fault scenario or recovery tracking forced the scalar engine
  /// (empty otherwise); becomes TrialStats::scalar_fallback_reason.
  std::string fallback_reason;
  /// Trial 0's graph (seed path root.child(0).child(0)): built whenever the
  /// sweep shares one graph, and for a lone auto-sharded trial, whose route
  /// depends on its size.  The engines run on it rather than on a copy.
  std::unique_ptr<const graph::Graph> graph;
  /// The config the engines run: the caller's, with a materialised static
  /// scenario folded into sim.crash_round.
  TrialConfig config;
};

/// The routing table of run_beep_trials, first match wins:
///  1. A static-schedule scenario on a shared graph with an empty
///     crash_round is materialised into crash_round (every route stays
///     open).  Any other scenario, and track_recovery, force kScalar with
///     a fallback reason.
///  2. kPlanes at K >= 2, statistical: kStatisticalLanes, allow_batched,
///     allow_sharded, shared_graph, no trace, more than one batch of
///     trials, a protocol with shard support and a batched kernel, and
///     either an explicit shards >= 2 or auto with >= 2 threads on a graph
///     of >= auto_shard_min_nodes nodes (K = threads, clamped).
///  3. kSharded, scalar order: allow_sharded, no trace, shard support, and
///     an explicit shards >= 2.  In auto mode only a lone trial with >= 2
///     threads shards, when its graph has >= auto_shard_min_nodes nodes;
///     a smaller lone trial runs kScalar, not as a one-lane batch.
///  4. kPlanes at K = 1: allow_batched, shared_graph, trials > 0, no trace,
///     a batched kernel, and — in kScalarOrder — not a lossy tail-dominated
///     sweep (loss + keep-alive + run_until_round), whose per-lane delivery
///     draws make batching slower than scalar.
///  5. kScalar.
[[nodiscard]] SweepPlan plan_sweep(const GraphFactory& graphs,
                                   const BeepProtocolFactory& protocols,
                                   const TrialConfig& config);

/// Runs `config.trials` beeping-model trials.
[[nodiscard]] TrialStats run_beep_trials(const GraphFactory& graphs,
                                         const BeepProtocolFactory& protocols,
                                         const TrialConfig& config);

/// Runs LOCAL-model trials (Luby baseline).
[[nodiscard]] TrialStats run_local_trials(const GraphFactory& graphs,
                                          const LocalProtocolFactory& protocols,
                                          const TrialConfig& config);

}  // namespace beepmis::harness
