// SweepService — the beepmisd experiment server (protocol and design in
// src/svc/README.md).
//
// One persistent process owns a Unix socket and a state directory and
// turns serialized SweepSpec lines (cli/sweep_spec.hpp — THE request
// API) into harness::TrialStats:
//
//   * requests are keyed by cli::sweep_fingerprint — a repeated request
//     is answered from the result cache (memory, then disk) without
//     re-running, and a duplicate submitted while the first is still
//     running *attaches* to the in-flight job and receives the same
//     bit-identical result;
//   * queued work is scheduled by svc::JobQueue (priority buckets,
//     per-client round-robin fair share) onto a worker pool
//     (support::run_workers);
//   * every accepted job is durable before it is runnable: a pending
//     request file plus a per-job SweepJournal in the state directory,
//     so a killed server re-queues and *resumes* unfinished sweeps on
//     restart, bit-identical to an uninterrupted run;
//   * subscribers stream progress (completed-checkpoint counts from
//     cli::SweepHooks::on_checkpoint) while the sweep runs;
//   * drain() finishes the backlog then shuts down; stop() halts at the
//     next checkpoint boundary, persisting everything for restart.
//
// The class is fully in-process (start()/stop()/join() from tests); the
// beepmisd example wraps it with signal handling.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cli/registry.hpp"
#include "svc/queue.hpp"
#include "svc/socket.hpp"

namespace beepmis::svc {

struct ServiceConfig {
  /// Unix socket to listen on (mind the ~107-byte sun_path limit).
  std::string socket_path;
  /// Durable state: pending-<hex16>.req, journal-<hex16>.journal,
  /// result-<hex16>.stats.  Created if missing.
  std::string state_dir;
  /// Concurrent sweeps (each sweep additionally parallelises per its own
  /// spec `threads=` key).
  unsigned job_workers = 1;
  /// Poll slice for accept/read/subscribe loops — the latency bound on
  /// noticing drain/stop.
  int poll_ms = 100;
};

/// Monotonic service counters (tests and the `stats` verb).
struct ServiceCounters {
  std::size_t submitted = 0;       ///< submit requests parsed successfully
  std::size_t cache_hits = 0;      ///< answered from memory or disk cache
  std::size_t attached = 0;        ///< duplicates joined to an in-flight job
  std::size_t queued = 0;          ///< new jobs enqueued
  std::size_t completed = 0;       ///< jobs finished clean (exit 0)
  std::size_t truncated = 0;       ///< jobs finished truncated (exit 3)
  std::size_t quarantined = 0;     ///< jobs finished with quarantined trials (exit 2)
  std::size_t degraded = 0;        ///< jobs finished with valid < trials (exit 1)
  std::size_t failed = 0;          ///< jobs whose run_sweep threw
  std::size_t recovered_pending = 0;  ///< pending files re-queued at start()
  std::size_t rejected_pending = 0;   ///< pending files that failed validation
};

class SweepService {
 public:
  explicit SweepService(ServiceConfig config);
  /// stop() + join() if still running.
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Creates the state dir, re-queues surviving pending requests, binds
  /// the socket and spawns the listener + worker threads.  Throws on
  /// socket/filesystem errors.
  void start();

  /// Graceful: stop accepting submits, run the queued backlog to
  /// completion (streaming results to still-connected subscribers), then
  /// wind down.  Returns immediately; join() waits.
  void drain();

  /// Fast: interrupt running sweeps at their next checkpoint boundary
  /// (their journals keep the finished chunks) and leave every queued or
  /// interrupted job's pending file in place for the next start().
  /// Returns immediately; join() waits.
  void stop();

  /// Joins all service threads.  Call after drain() or stop().
  void join();

  /// Holds job dispatch: submits are still accepted, made durable and
  /// acked, but no worker starts a job until resume_dispatch().  Queueing
  /// under a pause makes the dispatch order a pure function of the submit
  /// sequence (the fair-share tests rely on it).  drain() releases a pause.
  void pause_dispatch() { queue_.pause(); }
  void resume_dispatch() { queue_.resume(); }

  /// True once the service is winding down (stop()/drain() finished its
  /// backlog, a `stop`/`drain` verb arrived, or an internal error tore
  /// the listener down) — the daemon's cue to join and exit.
  [[nodiscard]] bool stopped() const { return phase_.load() >= kStopping; }

  [[nodiscard]] ServiceCounters counters() const;
  /// Fingerprints in dispatch order (fair-share tests; deterministic with
  /// job_workers = 1).
  [[nodiscard]] std::vector<std::uint64_t> started_order() const;
  /// Error that tore down the listener/scheduler, if any ("" = clean).
  [[nodiscard]] std::string internal_error() const;

  [[nodiscard]] std::string pending_path(std::uint64_t fingerprint) const;
  [[nodiscard]] std::string journal_path(std::uint64_t fingerprint) const;
  [[nodiscard]] std::string result_path(std::uint64_t fingerprint) const;

 private:
  enum Phase : int { kIdle = 0, kRunning = 1, kDraining = 2, kStopping = 3 };

  struct Job {
    std::uint64_t fingerprint = 0;
    cli::SweepSpec spec;  ///< with the server's journal/resume overrides
    std::string client;
    int priority = 0;
    std::size_t chunks_total = 0;

    std::mutex m;
    std::condition_variable cv;
    std::size_t chunks_done = 0;  ///< completed by the current invocation
    bool done = false;
    std::string status;  ///< complete|degraded|quarantined|truncated|failed|stopped
    int exit_code = 0;
    std::string payload;  ///< framed TrialStats ("" for failed/stopped)
    std::string reason;   ///< failure/stop detail ("" otherwise)
  };

  void recover_pending();
  void listener_loop();
  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void finish_job(const std::shared_ptr<Job>& job, std::string status, int exit_code,
                  std::string payload, std::string reason);
  void handle_connection(UnixStream stream);
  void handle_submit(UnixStream& stream, const std::string& rest);
  void subscribe(UnixStream& stream, const std::shared_ptr<Job>& job);
  void send_result(UnixStream& stream, std::uint64_t fingerprint, const std::string& status,
                   int exit_code, bool cached, const std::string& payload,
                   const std::string& reason);
  void record_internal_error(const std::string& where, const std::string& what);
  void begin_stop();

  ServiceConfig config_;
  std::atomic<int> phase_{kIdle};
  std::shared_ptr<std::atomic<bool>> stop_flag_;
  JobQueue queue_;
  std::unique_ptr<UnixListener> listener_;

  mutable std::mutex registry_m_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  /// fingerprint -> framed TrialStats payload (clean results only).
  std::unordered_map<std::uint64_t, std::shared_ptr<const std::string>> cache_;
  ServiceCounters counters_;
  std::vector<std::uint64_t> started_order_;
  std::string internal_error_;

  std::thread scheduler_thread_;
  std::thread listener_thread_;
  std::mutex conn_m_;
  std::vector<std::thread> conn_threads_;
};

}  // namespace beepmis::svc
