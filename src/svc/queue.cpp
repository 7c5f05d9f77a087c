#include "svc/queue.hpp"

#include <stdexcept>

namespace beepmis::svc {

void JobQueue::push(std::uint64_t fingerprint, int priority, const std::string& client) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || shutdown_) throw std::logic_error("JobQueue: push after close");
    Bucket& bucket = buckets_[priority];
    auto [lane, inserted] = bucket.lanes.try_emplace(client);
    if (inserted) bucket.rotation.push_back(client);
    lane->second.push_back(fingerprint);
    ++bucket.jobs;
    ++total_;
  }
  cv_.notify_one();
}

std::optional<std::uint64_t> JobQueue::pop_locked() {
  for (auto& [priority, bucket] : buckets_) {
    if (bucket.jobs == 0) continue;
    // Round-robin over the lane rotation, starting at the cursor.  Empty
    // lanes stay in the rotation (a client that submits again resumes its
    // slot) — skip them.
    for (std::size_t step = 0; step < bucket.rotation.size(); ++step) {
      const std::size_t idx = (bucket.next + step) % bucket.rotation.size();
      std::deque<std::uint64_t>& lane = bucket.lanes[bucket.rotation[idx]];
      if (lane.empty()) continue;
      const std::uint64_t fingerprint = lane.front();
      lane.pop_front();
      --bucket.jobs;
      --total_;
      bucket.next = (idx + 1) % bucket.rotation.size();
      return fingerprint;
    }
  }
  return std::nullopt;
}

std::optional<std::uint64_t> JobQueue::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return shutdown_ || (!paused_ && (closed_ || total_ > 0)); });
  if (shutdown_) return std::nullopt;
  return pop_locked();  // nullopt only when closed-and-drained
}

std::optional<std::uint64_t> JobQueue::try_pop() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (shutdown_ || paused_) return std::nullopt;
  return pop_locked();
}

void JobQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

void JobQueue::shutdown_now() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    closed_ = true;
  }
  cv_.notify_all();
}

void JobQueue::pause() {
  const std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void JobQueue::resume() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  cv_.notify_all();
}

std::size_t JobQueue::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

}  // namespace beepmis::svc
