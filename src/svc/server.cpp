#include "svc/server.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "cli/sweep_spec.hpp"
#include "exp/stats_io.hpp"
#include "support/atomic_file.hpp"
#include "support/hash.hpp"
#include "support/parallel.hpp"

namespace beepmis::svc {

namespace fs = std::filesystem;

namespace {

using harness::statsio::escape_text;
using harness::statsio::split_tokens;
using harness::statsio::unescape_text;
using support::parse_hex_u64;
using support::stable_hash_bytes;
using support::to_hex_u64;

constexpr std::string_view kPendingMagic = "beepmis-pending v1";

/// Strict 0..9 priority parse (the protocol's whole range).
bool parse_priority(const std::string& token, int& out) {
  if (token.size() != 1 || token[0] < '0' || token[0] > '9') return false;
  out = token[0] - '0';
  return true;
}

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  out = buffer.str();
  return true;
}

/// Durable request record (checksummed like every other state file here):
///
///   beepmis-pending v1
///   client <hex-escaped id>
///   priority <0..9>
///   spec <serialized sweepspec line>
///   checksum <hex16>
std::string encode_pending(const std::string& client, int priority, const std::string& spec_text) {
  std::ostringstream out;
  out << kPendingMagic << "\n";
  out << "client " << escape_text(client) << "\n";
  out << "priority " << priority << "\n";
  out << "spec " << spec_text << "\n";
  std::string body = out.str();
  body += "checksum " + to_hex_u64(stable_hash_bytes(body)) + "\n";
  return body;
}

bool decode_pending(const std::string& file, std::string& client, int& priority,
                    std::string& spec_text) {
  if (file.empty() || file.back() != '\n') return false;
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  for (std::size_t i = 0; i < file.size(); ++i) {
    if (file[i] == '\n') {
      lines.emplace_back(file.data() + start, i - start);
      start = i + 1;
    }
  }
  if (lines.size() != 5) return false;
  const auto checksum_tokens = split_tokens(lines[4]);
  std::uint64_t stored = 0;
  if (checksum_tokens.size() != 2 || checksum_tokens[0] != "checksum" ||
      !parse_hex_u64(checksum_tokens[1], stored)) {
    return false;
  }
  const std::size_t body_len = file.size() - (lines[4].size() + 1);
  if (stable_hash_bytes(std::string_view(file.data(), body_len)) != stored) return false;
  if (lines[0] != kPendingMagic) return false;
  const auto client_tokens = split_tokens(lines[1]);
  if (client_tokens.size() != 2 || client_tokens[0] != "client" ||
      !unescape_text(client_tokens[1], client)) {
    return false;
  }
  const auto priority_tokens = split_tokens(lines[2]);
  if (priority_tokens.size() != 2 || priority_tokens[0] != "priority" ||
      !parse_priority(priority_tokens[1], priority)) {
    return false;
  }
  constexpr std::string_view kSpecKey = "spec ";
  if (lines[3].size() <= kSpecKey.size() || lines[3].substr(0, kSpecKey.size()) != kSpecKey) {
    return false;
  }
  spec_text = std::string(lines[3].substr(kSpecKey.size()));
  return true;
}

void remove_if_exists(const std::string& path) noexcept {
  std::error_code ec;
  fs::remove(path, ec);
}

}  // namespace

SweepService::SweepService(ServiceConfig config)
    : config_(std::move(config)), stop_flag_(std::make_shared<std::atomic<bool>>(false)) {
  if (config_.socket_path.empty()) throw std::invalid_argument("SweepService: empty socket_path");
  if (config_.state_dir.empty()) throw std::invalid_argument("SweepService: empty state_dir");
  if (config_.job_workers == 0) throw std::invalid_argument("SweepService: job_workers must be >= 1");
  if (config_.poll_ms <= 0) throw std::invalid_argument("SweepService: poll_ms must be positive");
}

SweepService::~SweepService() {
  if (phase_.load() != kIdle) {
    stop();
    join();
  }
}

std::string SweepService::pending_path(std::uint64_t fingerprint) const {
  return config_.state_dir + "/pending-" + to_hex_u64(fingerprint) + ".req";
}

std::string SweepService::journal_path(std::uint64_t fingerprint) const {
  return config_.state_dir + "/journal-" + to_hex_u64(fingerprint) + ".journal";
}

std::string SweepService::result_path(std::uint64_t fingerprint) const {
  return config_.state_dir + "/result-" + to_hex_u64(fingerprint) + ".stats";
}

ServiceCounters SweepService::counters() const {
  const std::lock_guard<std::mutex> lock(registry_m_);
  return counters_;
}

std::vector<std::uint64_t> SweepService::started_order() const {
  const std::lock_guard<std::mutex> lock(registry_m_);
  return started_order_;
}

std::string SweepService::internal_error() const {
  const std::lock_guard<std::mutex> lock(registry_m_);
  return internal_error_;
}

void SweepService::record_internal_error(const std::string& where, const std::string& what) {
  const std::lock_guard<std::mutex> lock(registry_m_);
  if (internal_error_.empty()) internal_error_ = where + ": " + what;
}

void SweepService::begin_stop() {
  phase_.store(kStopping);
}

void SweepService::start() {
  if (phase_.load() != kIdle) throw std::logic_error("SweepService: already started");
  fs::create_directories(config_.state_dir);
  recover_pending();
  listener_ = std::make_unique<UnixListener>(config_.socket_path);
  phase_.store(kRunning);
  scheduler_thread_ = std::thread([this] {
    try {
      support::run_workers(config_.job_workers, config_.job_workers, [this] { worker_loop(); });
    } catch (const std::exception& e) {
      record_internal_error("scheduler", e.what());
    }
    // Workers are done (queue drained-and-closed, or shut down): nothing
    // left to stream, so let the listener and connections wind down.
    begin_stop();
  });
  listener_thread_ = std::thread([this] { listener_loop(); });
}

void SweepService::recover_pending() {
  // A previous server was killed or stopped: every pending-*.req is a
  // request that was accepted but not finished.  Re-queue the valid ones
  // (their journals make the re-run a resume); anomalous files are left
  // in place for inspection but never run.
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(config_.state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 12 && name.compare(0, 8, "pending-") == 0 &&
        name.compare(name.size() - 4, 4, ".req") == 0) {
      files.push_back(entry.path().string());
    }
  }
  // Directory order is arbitrary; sort for a deterministic re-queue order
  // (by fingerprint — the original submission order is not persisted).
  std::sort(files.begin(), files.end());
  for (const std::string& path : files) {
    std::string file, client, spec_text;
    int priority = 0;
    cli::SweepSpec spec;
    bool ok = read_file(path, file) && decode_pending(file, client, priority, spec_text);
    if (ok) {
      try {
        spec = cli::parse_sweep_spec(spec_text);
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) {
      ++counters_.rejected_pending;
      continue;
    }
    const std::uint64_t fingerprint = cli::sweep_fingerprint(spec);
    auto job = std::make_shared<Job>();
    job->fingerprint = fingerprint;
    job->spec = spec;
    job->spec.journal_path = journal_path(fingerprint);
    job->spec.resume = true;
    job->client = client;
    job->priority = priority;
    job->chunks_total = harness::checkpoint_chunk_count(spec.trials, spec.checkpoint_interval);
    jobs_.emplace(fingerprint, std::move(job));
    queue_.push(fingerprint, priority, client);
    ++counters_.recovered_pending;
  }
}

void SweepService::drain() {
  int expected = kRunning;
  if (!phase_.compare_exchange_strong(expected, kDraining)) return;
  // Under the registry lock so no submit can slip between the phase check
  // and its queue_.push after the queue closes.
  const std::lock_guard<std::mutex> lock(registry_m_);
  queue_.close();
  queue_.resume();  // a paused backlog still has to run to completion
}

void SweepService::stop() {
  const int previous = phase_.exchange(kStopping);
  if (previous == kStopping || previous == kIdle) {
    if (previous == kIdle) phase_.store(kIdle);
    return;
  }
  stop_flag_->store(true);
  const std::lock_guard<std::mutex> lock(registry_m_);
  queue_.shutdown_now();
}

void SweepService::join() {
  if (scheduler_thread_.joinable()) scheduler_thread_.join();
  if (listener_thread_.joinable()) listener_thread_.join();
  std::vector<std::thread> conns;
  {
    const std::lock_guard<std::mutex> lock(conn_m_);
    conns.swap(conn_threads_);
  }
  for (std::thread& t : conns) t.join();
  listener_.reset();
}

// --- scheduling -----------------------------------------------------------

void SweepService::worker_loop() {
  while (const std::optional<std::uint64_t> fingerprint = queue_.pop()) {
    std::shared_ptr<Job> job;
    {
      const std::lock_guard<std::mutex> lock(registry_m_);
      const auto it = jobs_.find(*fingerprint);
      if (it == jobs_.end()) continue;
      job = it->second;
      started_order_.push_back(*fingerprint);
    }
    run_job(job);
  }
}

void SweepService::run_job(const std::shared_ptr<Job>& job) {
  cli::SweepHooks hooks;
  hooks.stop_request = stop_flag_;
  hooks.on_checkpoint = [job](std::size_t chunks) {
    {
      const std::lock_guard<std::mutex> lock(job->m);
      job->chunks_done = chunks;
    }
    job->cv.notify_all();
  };

  harness::TrialStats stats;
  std::string error;
  bool ok = false;
  try {
    stats = cli::run_sweep(job->spec, hooks);
    ok = true;
  } catch (const std::exception& e) {
    error = e.what();
  }

  const std::uint64_t fp = job->fingerprint;
  if (ok && stats.truncated && stop_flag_->load()) {
    // Server stop, not a client-requested budget: the journal holds the
    // finished chunks and the pending file stays — the next start()
    // resumes exactly here.  Subscribers learn the request survives.
    finish_job(job, "stopped", 1, "",
               "server stopping; request journaled and re-queued on restart");
    return;
  }

  if (!ok) {
    // Deterministic failure (bad spec reaching run_sweep, filesystem
    // refusal): retrying on every restart would be a poison pill, so the
    // pending file goes too.
    remove_if_exists(pending_path(fp));
    remove_if_exists(journal_path(fp));
    {
      const std::lock_guard<std::mutex> lock(registry_m_);
      ++counters_.failed;
    }
    finish_job(job, "failed", 1, "", error);
    return;
  }

  // beepmis_cli's documented exit contract, verbatim: 3 truncated, 2
  // quarantined, 1 incomplete validation, 0 complete-and-valid.
  std::string status;
  int exit_code = 0;
  if (stats.truncated) {
    status = "truncated";
    exit_code = 3;
  } else if (stats.quarantined > 0) {
    status = "quarantined";
    exit_code = 2;
  } else if (stats.valid != stats.trials) {
    status = "degraded";
    exit_code = 1;
  } else {
    status = "complete";
    exit_code = 0;
  }

  const std::string payload = harness::format_trial_stats(stats);
  remove_if_exists(pending_path(fp));
  if (status == "truncated") {
    // Keep the journal: a later submit of the same request resumes from
    // the truncated run's chunks instead of starting over.
  } else {
    remove_if_exists(journal_path(fp));
  }
  if (status == "complete") {
    // Cache policy: clean results only.  The fingerprint deliberately
    // excludes budget/timeout/isolation knobs, so a truncated or
    // quarantined result must never be served for a resubmission that
    // might complete cleanly under different knobs.
    try {
      support::atomic_write_file(result_path(fp), payload);
    } catch (const std::exception& e) {
      record_internal_error("result-cache", e.what());
    }
  }
  {
    const std::lock_guard<std::mutex> lock(registry_m_);
    if (status == "complete") {
      cache_[fp] = std::make_shared<const std::string>(payload);
      ++counters_.completed;
    } else if (status == "truncated") {
      ++counters_.truncated;
    } else if (status == "quarantined") {
      ++counters_.quarantined;
    } else {
      ++counters_.degraded;
    }
  }
  finish_job(job, std::move(status), exit_code, payload, "");
}

void SweepService::finish_job(const std::shared_ptr<Job>& job, std::string status, int exit_code,
                              std::string payload, std::string reason) {
  {
    const std::lock_guard<std::mutex> lock(job->m);
    job->status = std::move(status);
    job->exit_code = exit_code;
    job->payload = std::move(payload);
    job->reason = std::move(reason);
    job->done = true;
  }
  job->cv.notify_all();
  const std::lock_guard<std::mutex> lock(registry_m_);
  // Erase by identity, not by key: a submit that raced this finish may
  // already have replaced the registry entry with a NEW job for the same
  // fingerprint (a truncated run's resubmission); that job must survive.
  const auto it = jobs_.find(job->fingerprint);
  if (it != jobs_.end() && it->second == job) jobs_.erase(it);
}

// --- the socket side ------------------------------------------------------

void SweepService::listener_loop() {
  try {
    while (phase_.load() < kStopping) {
      std::optional<UnixStream> conn = listener_->accept(config_.poll_ms);
      if (!conn) continue;
      const std::lock_guard<std::mutex> lock(conn_m_);
      conn_threads_.emplace_back(
          [this](UnixStream s) { handle_connection(std::move(s)); }, std::move(*conn));
    }
  } catch (const std::exception& e) {
    record_internal_error("listener", e.what());
    begin_stop();
  }
}

void SweepService::handle_connection(UnixStream stream) {
  try {
    std::string line;
    while (phase_.load() < kStopping) {
      const UnixStream::ReadStatus rs = stream.read_line(line, config_.poll_ms);
      if (rs == UnixStream::ReadStatus::kTimeout) continue;
      if (rs == UnixStream::ReadStatus::kEof) return;
      if (line == "ping") {
        stream.write_line("pong");
      } else if (line == "stats") {
        ServiceCounters c = counters();
        std::ostringstream out;
        out << "stats submitted=" << c.submitted << " cache_hits=" << c.cache_hits
            << " attached=" << c.attached << " queued=" << c.queued
            << " completed=" << c.completed << " failed=" << c.failed
            << " backlog=" << queue_.size();
        stream.write_line(out.str());
      } else if (line == "drain") {
        drain();
        stream.write_line("ok draining");
      } else if (line == "stop") {
        stop();
        stream.write_line("ok stopping");
        return;
      } else if (line.compare(0, 7, "submit ") == 0) {
        handle_submit(stream, line.substr(7));
      } else {
        stream.write_line("error " + escape_text("unknown verb: " + line));
      }
    }
  } catch (const std::exception&) {
    // A vanished or misbehaving peer tears down its own connection only.
  }
}

void SweepService::handle_submit(UnixStream& stream, const std::string& rest) {
  // submit <client> <priority> <sweepspec line...>
  const std::size_t client_end = rest.find(' ');
  const std::size_t priority_end =
      client_end == std::string::npos ? std::string::npos : rest.find(' ', client_end + 1);
  if (client_end == std::string::npos || priority_end == std::string::npos) {
    stream.write_line("error " +
                      escape_text("usage: submit <client> <priority 0-9> <sweepspec ...>"));
    return;
  }
  const std::string client = rest.substr(0, client_end);
  int priority = 0;
  if (client.empty() || !parse_priority(rest.substr(client_end + 1, priority_end - client_end - 1),
                                        priority)) {
    stream.write_line("error " + escape_text("client id empty or priority not in 0..9"));
    return;
  }
  const std::string spec_text = rest.substr(priority_end + 1);

  cli::SweepSpec spec;
  try {
    spec = cli::parse_sweep_spec(spec_text);
  } catch (const std::exception& e) {
    stream.write_line("error " + escape_text(e.what()));
    return;
  }
  const std::uint64_t fingerprint = cli::sweep_fingerprint(spec);

  std::shared_ptr<const std::string> cached;
  std::shared_ptr<Job> job;
  std::string ack_mode;
  std::size_t chunks_total =
      harness::checkpoint_chunk_count(spec.trials, spec.checkpoint_interval);
  {
    const std::lock_guard<std::mutex> lock(registry_m_);
    if (phase_.load() != kRunning) {
      stream.write_line("error " + escape_text("server draining; not accepting new work"));
      return;
    }
    ++counters_.submitted;
    const auto cache_it = cache_.find(fingerprint);
    if (cache_it != cache_.end()) {
      cached = cache_it->second;
      ++counters_.cache_hits;
      ack_mode = "cached";
    } else {
      // Memory miss: a previous server life may have left a durable
      // result.  Validate before trusting (reject-whole, like every
      // state file here).
      std::string file;
      harness::TrialStats parsed;
      std::string parse_error;
      if (read_file(result_path(fingerprint), file) &&
          harness::parse_trial_stats(file, parsed, parse_error)) {
        cached = cache_.emplace(fingerprint, std::make_shared<const std::string>(file))
                     .first->second;
        ++counters_.cache_hits;
        ack_mode = "cached";
      }
    }
    if (!cached) {
      const auto job_it = jobs_.find(fingerprint);
      std::shared_ptr<Job> in_flight;
      if (job_it != jobs_.end()) {
        // A finished job lingers in the registry until its worker erases
        // it; attaching to one would replay a terminal (possibly
        // truncated) result for what is semantically a new request, so
        // only live jobs accept attachments.
        const std::lock_guard<std::mutex> job_lock(job_it->second->m);
        if (!job_it->second->done) in_flight = job_it->second;
      }
      if (in_flight) {
        job = std::move(in_flight);
        chunks_total = job->chunks_total;
        ++counters_.attached;
        ack_mode = "attached";
      } else {
        job = std::make_shared<Job>();
        job->fingerprint = fingerprint;
        job->spec = spec;
        job->spec.journal_path = journal_path(fingerprint);
        job->spec.resume = true;
        job->client = client;
        job->priority = priority;
        job->chunks_total = chunks_total;
        // Durable before runnable: if the pending file cannot be written
        // the request is refused, never half-accepted.
        try {
          support::atomic_write_file(pending_path(fingerprint),
                            encode_pending(client, priority, spec_text));
        } catch (const std::exception& e) {
          stream.write_line("error " + escape_text(e.what()));
          return;
        }
        // operator[] so a lingering finished entry is replaced, not kept.
        jobs_[fingerprint] = job;
        queue_.push(fingerprint, priority, client);
        ++counters_.queued;
        ack_mode = "queued";
      }
    }
  }

  stream.write_line("ack " + to_hex_u64(fingerprint) + " " + ack_mode +
                    " chunks=" + std::to_string(chunks_total));
  if (cached) {
    send_result(stream, fingerprint, "complete", 0, true, *cached, "");
    return;
  }
  subscribe(stream, job);
}

void SweepService::subscribe(UnixStream& stream, const std::shared_ptr<Job>& job) {
  std::size_t last_progress = 0;
  std::unique_lock<std::mutex> lock(job->m);
  for (;;) {
    while (job->chunks_done != last_progress) {
      last_progress = job->chunks_done;
      const std::size_t total = job->chunks_total;
      lock.unlock();
      stream.write_line("progress " + to_hex_u64(job->fingerprint) + " " +
                        std::to_string(last_progress) + " " + std::to_string(total));
      lock.lock();
    }
    if (job->done) break;
    if (phase_.load() >= kStopping) {
      // The job will never finish in this server life (stop() before its
      // worker picked it up).  Its pending file survives for restart.
      lock.unlock();
      stream.write_line("error " +
                        escape_text("server stopping; request journaled for restart"));
      return;
    }
    job->cv.wait_for(lock, std::chrono::milliseconds(config_.poll_ms));
  }
  const std::string status = job->status;
  const int exit_code = job->exit_code;
  const std::string payload = job->payload;
  const std::string reason = job->reason;
  lock.unlock();
  send_result(stream, job->fingerprint, status, exit_code, false, payload, reason);
}

void SweepService::send_result(UnixStream& stream, std::uint64_t fingerprint,
                               const std::string& status, int exit_code, bool cached,
                               const std::string& payload, const std::string& reason) {
  stream.write_line("result " + to_hex_u64(fingerprint) + " status=" + status +
                    " exit=" + std::to_string(exit_code) + " cached=" + (cached ? "1" : "0"));
  if (!payload.empty()) stream.write_all(payload);
  if (!reason.empty()) stream.write_line("reason " + escape_text(reason));
  stream.write_line("end " + to_hex_u64(fingerprint));
}

}  // namespace beepmis::svc
