// svc::JobQueue scheduling discipline: FIFO within one client, strict
// priority across buckets, round-robin fair share across clients inside
// a bucket (one client's backlog cannot starve another's single
// request), and the two shutdown shapes (close = drain then stop,
// shutdown_now = stop immediately, keep the backlog durable).  The
// discipline is deterministic given the push sequence, so these tests
// pin exact pop orders.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "svc/queue.hpp"

namespace beepmis::svc {
namespace {

std::vector<std::uint64_t> drain_all(JobQueue& q) {
  std::vector<std::uint64_t> order;
  while (const auto fp = q.try_pop()) order.push_back(*fp);
  return order;
}

TEST(JobQueue, FifoWithinOneClient) {
  JobQueue q;
  q.push(1, 0, "alice");
  q.push(2, 0, "alice");
  q.push(3, 0, "alice");
  EXPECT_EQ(drain_all(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(JobQueue, HigherPriorityWinsAcrossBuckets) {
  JobQueue q;
  q.push(10, 0, "alice");
  q.push(20, 5, "alice");
  q.push(30, 9, "bob");
  q.push(40, 5, "alice");
  EXPECT_EQ(drain_all(q), (std::vector<std::uint64_t>{30, 20, 40, 10}));
}

TEST(JobQueue, FairShareRoundRobinsAcrossClients) {
  // Alice floods fifty jobs before Bob submits one; Bob still runs second,
  // not fifty-first.
  JobQueue q;
  for (std::uint64_t i = 0; i < 50; ++i) q.push(100 + i, 0, "alice");
  q.push(7, 0, "bob");
  const std::vector<std::uint64_t> order = drain_all(q);
  ASSERT_EQ(order.size(), 51u);
  EXPECT_EQ(order[0], 100u);  // alice was first in the rotation
  EXPECT_EQ(order[1], 7u);    // bob's single job is interleaved immediately
  EXPECT_EQ(order[2], 101u);
}

TEST(JobQueue, RotationInterleavesThreeClientsDeterministically) {
  JobQueue q;
  q.push(1, 0, "a");
  q.push(2, 0, "a");
  q.push(3, 0, "b");
  q.push(4, 0, "b");
  q.push(5, 0, "c");
  q.push(6, 0, "a");
  EXPECT_EQ(drain_all(q), (std::vector<std::uint64_t>{1, 3, 5, 2, 4, 6}));
}

TEST(JobQueue, EmptyLaneKeepsItsRotationSlot) {
  JobQueue q;
  q.push(1, 0, "a");
  q.push(2, 0, "b");
  EXPECT_EQ(q.try_pop(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(q.try_pop(), std::optional<std::uint64_t>(2));
  // Both lanes empty but remembered; new pushes resume the rotation.
  q.push(3, 0, "b");
  q.push(4, 0, "a");
  EXPECT_EQ(q.try_pop(), std::optional<std::uint64_t>(4));  // cursor is back at "a"
  EXPECT_EQ(q.try_pop(), std::optional<std::uint64_t>(3));
}

TEST(JobQueue, CloseDrainsBacklogThenReturnsNull) {
  JobQueue q;
  q.push(1, 0, "a");
  q.push(2, 0, "a");
  q.close();
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(1));
  EXPECT_EQ(q.pop(), std::optional<std::uint64_t>(2));
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_THROW(q.push(3, 0, "a"), std::logic_error);
}

TEST(JobQueue, ShutdownNowStopsPopsButKeepsBacklog) {
  JobQueue q;
  q.push(1, 0, "a");
  q.push(2, 0, "a");
  q.shutdown_now();
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.try_pop(), std::nullopt);
  // The backlog stays countable — beepmisd's durable pending files remain
  // the source of truth for the next start().
  EXPECT_EQ(q.size(), 2u);
}

TEST(JobQueue, BlockingPopWakesOnPush) {
  JobQueue q;
  std::atomic<bool> got{false};
  std::thread popper([&] {
    const auto fp = q.pop();
    ASSERT_TRUE(fp.has_value());
    EXPECT_EQ(*fp, 42u);
    got.store(true);
  });
  q.push(42, 0, "a");
  popper.join();
  EXPECT_TRUE(got.load());
}

TEST(JobQueue, BlockingPopWakesOnShutdown) {
  JobQueue q;
  std::thread popper([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.shutdown_now();
  popper.join();
}

TEST(JobQueue, PauseHoldsDispatchUntilResume) {
  JobQueue q;
  q.pause();
  q.push(1, 0, "a");
  q.push(2, 0, "a");
  q.push(3, 0, "b");
  EXPECT_EQ(q.try_pop(), std::nullopt);
  EXPECT_EQ(q.size(), 3u);
  // A popper blocked across the pause sees the full backlog on resume, so
  // the order is the fair-share order of the whole push sequence.
  std::vector<std::uint64_t> order;
  std::thread popper([&] {
    for (int i = 0; i < 3; ++i) order.push_back(*q.pop());
  });
  q.resume();
  popper.join();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(JobQueue, ShutdownReleasesAPausedPop) {
  JobQueue q;
  q.pause();
  q.push(1, 0, "a");
  std::thread popper([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  q.shutdown_now();
  popper.join();
}

}  // namespace
}  // namespace beepmis::svc
