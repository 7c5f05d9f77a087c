// Priority + fair-share FIFO job queue for the beepmisd scheduler.
//
// Jobs (identified by their sweep fingerprint) are grouped into priority
// buckets; within a bucket each submitting client gets its own FIFO lane
// and pop() round-robins across the lanes, so one client queueing fifty
// sweeps cannot starve another client's single request: with clients A
// and B both at priority 0, the service dispatch order is A1 B1 A2 A3 …
// no matter how many jobs A enqueued first.  Higher priority values win
// outright across buckets.  The whole discipline is deterministic given
// the push sequence — tests pin exact pop orders.
//
// Shutdown has the two shapes the server needs: close() lets poppers
// drain everything already queued and then return nullopt (graceful
// drain), shutdown_now() makes pop() return nullopt immediately and
// leaves the queued jobs in place for inspection / durable re-queue
// (fast stop — beepmisd persists pending requests on disk anyway).
// pause()/resume() hold and release dispatch without touching the lanes.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace beepmis::svc {

class JobQueue {
 public:
  /// Enqueues a job.  Throws std::logic_error after close()/shutdown_now()
  /// (the server stops accepting submits before closing the queue).
  void push(std::uint64_t fingerprint, int priority, const std::string& client);

  /// Blocks until a job is available or the queue is finished; returns
  /// nullopt when closed-and-drained or shut down.
  [[nodiscard]] std::optional<std::uint64_t> pop();

  /// Non-blocking pop (tests and drain accounting).
  [[nodiscard]] std::optional<std::uint64_t> try_pop();

  /// No more pushes; poppers drain the backlog, then pop() returns nullopt.
  void close();

  /// No more pushes or pops; pop() returns nullopt immediately.  Queued
  /// jobs stay in the lanes (size() still reports them).
  void shutdown_now();

  /// Holds dispatch: while paused, pop() blocks and try_pop() returns
  /// nullopt even with jobs queued (shutdown_now() still releases pop()).
  /// Lets a caller queue several jobs and then release them at once, so
  /// the dispatch order depends only on the push sequence.
  void pause();
  void resume();

  [[nodiscard]] std::size_t size() const;

 private:
  struct Bucket {
    /// Lane rotation order (first-push order); parallel to `lanes`.
    std::vector<std::string> rotation;
    std::map<std::string, std::deque<std::uint64_t>> lanes;
    std::size_t next = 0;  ///< rotation cursor
    std::size_t jobs = 0;
  };

  [[nodiscard]] std::optional<std::uint64_t> pop_locked();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  // Highest priority first.
  std::map<int, Bucket, std::greater<int>> buckets_;
  std::size_t total_ = 0;
  bool closed_ = false;
  bool shutdown_ = false;
  bool paused_ = false;
};

}  // namespace beepmis::svc
