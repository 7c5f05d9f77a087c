// Crash-safe sweep coverage (src/exp/README.md, "Crash-safe sweeps"):
// journal round-trip, the torn-tail and reject-whole rules, the
// journal request keys of every route, the atomic-publish crash point,
// the kill-and-resume differential oracle (resumed == one-shot, bit for
// bit, across thread counts and rng modes), budget truncation, and the
// chaos harness for per-trial fault isolation (retry, quarantine,
// cooperative timeout).
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/journal.hpp"
#include "exp/runner.hpp"
#include "graph/generators.hpp"
#include "mis/local_feedback.hpp"
#include "mis/luby.hpp"
#include "mis/verifier.hpp"
#include "sim/beep.hpp"
#include "sim/scenario.hpp"
#include "support/atomic_file.hpp"
#include "support/rng.hpp"

namespace beepmis::harness {
namespace {

// --- bit-exact comparison helpers ---------------------------------------

void expect_bits_equal(const support::RunningStats& a, const support::RunningStats& b,
                       const char* what) {
  const auto sa = a.state();
  const auto sb = b.state();
  EXPECT_EQ(sa.count, sb.count) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.mean), std::bit_cast<std::uint64_t>(sb.mean))
      << what << " mean";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.m2), std::bit_cast<std::uint64_t>(sb.m2))
      << what << " m2";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.min), std::bit_cast<std::uint64_t>(sb.min))
      << what << " min";
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sa.max), std::bit_cast<std::uint64_t>(sb.max))
      << what << " max";
}

void expect_stats_bits_equal(const TrialStats& a, const TrialStats& b) {
  expect_bits_equal(a.rounds, b.rounds, "rounds");
  expect_bits_equal(a.beeps_per_node, b.beeps_per_node, "beeps_per_node");
  expect_bits_equal(a.max_beeps_any_node, b.max_beeps_any_node, "max_beeps_any_node");
  expect_bits_equal(a.mis_size, b.mis_size, "mis_size");
  expect_bits_equal(a.message_bits, b.message_bits, "message_bits");
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(a.terminated, b.terminated);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.independence_violations, b.independence_violations);
  EXPECT_EQ(a.uncovered_nodes, b.uncovered_nodes);
  EXPECT_EQ(a.recovery_rounds, b.recovery_rounds);
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "beepmis_" + name;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// --- journal round trip and rejection ------------------------------------

TrialStats sample_chunk_stats(std::uint64_t seed) {
  TrialStats s;
  auto rng = support::Xoshiro256StarStar(seed);
  for (int i = 0; i < 7; ++i) {
    s.rounds.push(rng.uniform01() * 100.0);
    s.beeps_per_node.push(rng.uniform01());
    s.max_beeps_any_node.push(static_cast<double>(rng.below(32)));
    s.mis_size.push(static_cast<double>(rng.below(50)));
    s.message_bits.push(0.0);
  }
  s.trials = 7;
  s.terminated = 7;
  s.valid = 6;
  s.independence_violations = 1;
  s.uncovered_nodes = 2;
  s.recovery_rounds = {3.0, 11.5};
  s.disruptions = 3;
  s.unrecovered_disruptions = 1;
  s.attempted = 9;
  s.quarantined = 2;
  s.retries = 4;
  s.failed_trials.push_back({12, seed, 3, "boom: spaces, a\nnewline and \xff bytes"});
  s.failed_trials.push_back({13, seed, 3, ""});
  return s;
}

TEST(SweepJournal, RoundTripIsBitIdentical) {
  const std::string path = temp_path("journal_roundtrip.txt");
  std::remove(path.c_str());
  const SweepJournal journal(path, 0xabcdef0123456789ULL, 200, 64);
  std::vector<JournalChunk> chunks;
  chunks.push_back({2, sample_chunk_stats(7)});
  chunks.push_back({0, sample_chunk_stats(9)});
  journal.save(chunks);

  const JournalLoadResult loaded = journal.load();
  ASSERT_EQ(loaded.status, JournalLoadResult::Status::kValid) << loaded.reason;
  ASSERT_EQ(loaded.chunks.size(), 2u);
  // Persisted sorted by index regardless of save order.
  EXPECT_EQ(loaded.chunks[0].index, 0u);
  EXPECT_EQ(loaded.chunks[1].index, 2u);
  expect_stats_bits_equal(loaded.chunks[0].stats, chunks[1].stats);
  expect_stats_bits_equal(loaded.chunks[1].stats, chunks[0].stats);
  const TrialStats& back = loaded.chunks[1].stats;
  EXPECT_EQ(back.disruptions, 3u);
  EXPECT_EQ(back.unrecovered_disruptions, 1u);
  EXPECT_EQ(back.attempted, 9u);
  EXPECT_EQ(back.quarantined, 2u);
  EXPECT_EQ(back.retries, 4u);
  const auto& failed = loaded.chunks[1].stats.failed_trials;
  ASSERT_EQ(failed.size(), 2u);
  EXPECT_EQ(failed[0].trial, 12u);
  EXPECT_EQ(failed[0].attempts, 3u);
  EXPECT_EQ(failed[0].error, "boom: spaces, a\nnewline and \xff bytes");
  EXPECT_EQ(failed[1].error, "");
  std::remove(path.c_str());
}

TEST(SweepJournal, MissingFileIsFreshStart) {
  const SweepJournal journal(temp_path("journal_missing.txt"), 1, 10, 64);
  EXPECT_EQ(journal.load().status, JournalLoadResult::Status::kNoFile);
}

TEST(SweepJournal, AnyCorruptionRejectsTheWholeJournal) {
  const std::string path = temp_path("journal_corrupt.txt");
  const SweepJournal journal(path, 42, 200, 64);
  journal.save({{1, sample_chunk_stats(3)}});

  const std::string body = read_bytes(path);
  ASSERT_FALSE(body.empty());

  // Flip one payload byte: the record checksum must catch it.
  std::string flipped = body;
  flipped[body.size() / 2] ^= 0x01;
  write_bytes(path, flipped);
  JournalLoadResult r = journal.load();
  EXPECT_EQ(r.status, JournalLoadResult::Status::kRejected);
  EXPECT_FALSE(r.reason.empty());

  // Truncate inside the only record (a crash mid-append): the torn tail is
  // dropped, not rejected — the header survives and resume starts from no
  // chunks rather than from a discarded journal.
  write_bytes(path, body.substr(0, body.size() / 2));
  r = journal.load();
  EXPECT_EQ(r.status, JournalLoadResult::Status::kValid) << r.reason;
  EXPECT_TRUE(r.chunks.empty());

  // Restore intact content: a journal keyed to a different request, trial
  // count or chunk geometry is rejected even though the checksum passes.
  write_bytes(path, body);
  EXPECT_EQ(SweepJournal(path, 43, 200, 64).load().status,
            JournalLoadResult::Status::kRejected);
  EXPECT_EQ(SweepJournal(path, 42, 300, 64).load().status,
            JournalLoadResult::Status::kRejected);
  EXPECT_EQ(SweepJournal(path, 42, 200, 128).load().status,
            JournalLoadResult::Status::kRejected);
  EXPECT_EQ(journal.load().status, JournalLoadResult::Status::kValid);
  std::remove(path.c_str());
}

TEST(SweepJournal, AppendedAndSavedJournalsAreTheSameFormat) {
  const std::string appended_path = temp_path("journal_appended.txt");
  const std::string saved_path = temp_path("journal_saved.txt");
  SweepJournal appended(appended_path, 42, 200, 64);
  appended.save({{2, sample_chunk_stats(5)}});
  appended.append({0, sample_chunk_stats(6)});
  appended.append({1, sample_chunk_stats(7)});
  const JournalLoadResult loaded = appended.load();
  ASSERT_EQ(loaded.status, JournalLoadResult::Status::kValid) << loaded.reason;
  ASSERT_EQ(loaded.chunks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(loaded.chunks[i].index, i);
  expect_stats_bits_equal(loaded.chunks[0].stats, sample_chunk_stats(6));

  // Re-saving the loaded chunks is a byte-level reordering of the same
  // records: identical length, and it loads to the same chunks.
  SweepJournal saved(saved_path, 42, 200, 64);
  saved.save(loaded.chunks);
  EXPECT_EQ(read_bytes(saved_path).size(), read_bytes(appended_path).size());
  const JournalLoadResult reloaded = saved.load();
  ASSERT_EQ(reloaded.status, JournalLoadResult::Status::kValid) << reloaded.reason;
  ASSERT_EQ(reloaded.chunks.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    expect_stats_bits_equal(reloaded.chunks[i].stats, loaded.chunks[i].stats);
  }

  // save() republishes the file under the append descriptor: later
  // appends must land in the new file, not the replaced one.
  appended.save({{0, sample_chunk_stats(6)}});
  appended.append({3, sample_chunk_stats(8)});
  const JournalLoadResult after = appended.load();
  ASSERT_EQ(after.status, JournalLoadResult::Status::kValid) << after.reason;
  ASSERT_EQ(after.chunks.size(), 2u);
  EXPECT_EQ(after.chunks[1].index, 3u);
  std::remove(appended_path.c_str());
  std::remove(saved_path.c_str());
}

TEST(SweepJournal, TornTailAtEveryOffsetKeepsEveryEarlierChunk) {
  const std::string path = temp_path("journal_torn_tail.txt");
  SweepJournal journal(path, 42, 256, 64);
  journal.save({{0, sample_chunk_stats(1)}});
  journal.append({2, sample_chunk_stats(2)});
  const std::size_t last_record = read_bytes(path).size();
  journal.append({1, sample_chunk_stats(3)});
  const std::string body = read_bytes(path);
  ASSERT_GT(body.size(), last_record);

  for (std::size_t cut = last_record; cut < body.size(); ++cut) {
    write_bytes(path, body.substr(0, cut));
    const JournalLoadResult r = journal.load();
    ASSERT_EQ(r.status, JournalLoadResult::Status::kValid) << "cut at " << cut << ": " << r.reason;
    ASSERT_EQ(r.chunks.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(r.chunks[0].index, 0u);
    EXPECT_EQ(r.chunks[1].index, 2u);
    expect_stats_bits_equal(r.chunks[1].stats, sample_chunk_stats(2));
  }
  std::remove(path.c_str());
}

TEST(SweepJournal, MiddleRecordOrHeaderDamageRejectsTheWholeJournal) {
  const std::string path = temp_path("journal_middle_flip.txt");
  SweepJournal journal(path, 42, 256, 64);
  journal.save({});
  const std::size_t header_end = read_bytes(path).size();
  journal.append({0, sample_chunk_stats(1)});
  const std::size_t middle_begin = read_bytes(path).size();
  journal.append({1, sample_chunk_stats(2)});
  const std::size_t middle_end = read_bytes(path).size();
  journal.append({2, sample_chunk_stats(3)});
  const std::string body = read_bytes(path);

  // Any flipped byte in a record that has a successor is corruption, not a
  // torn tail: reject whole.
  for (std::size_t at = middle_begin; at < middle_end; ++at) {
    std::string flipped = body;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    write_bytes(path, flipped);
    const JournalLoadResult r = journal.load();
    ASSERT_EQ(r.status, JournalLoadResult::Status::kRejected) << "flip at " << at;
    EXPECT_FALSE(r.reason.empty());
  }
  // The header is published once, atomically: a flipped or torn header is
  // never a crash artefact.
  for (std::size_t at = 0; at < header_end; ++at) {
    std::string flipped = body;
    flipped[at] = static_cast<char>(flipped[at] ^ 0x01);
    write_bytes(path, flipped);
    ASSERT_EQ(journal.load().status, JournalLoadResult::Status::kRejected) << "flip at " << at;
    write_bytes(path, body.substr(0, at));
    ASSERT_EQ(journal.load().status, JournalLoadResult::Status::kRejected) << "cut at " << at;
  }
  std::remove(path.c_str());
}

TEST(SweepJournal, VersionOneJournalIsRejectedByVersion) {
  const std::string path = temp_path("journal_v1.txt");
  write_bytes(path,
              "beepmis-sweep-journal v1\nrequest 000000000000002a\ntrials 256\n"
              "chunk_size 64\nchecksum 0123456789abcdef\n");
  const JournalLoadResult r = SweepJournal(path, 42, 256, 64).load();
  EXPECT_EQ(r.status, JournalLoadResult::Status::kRejected);
  EXPECT_NE(r.reason.find("v1"), std::string::npos) << r.reason;
  std::remove(path.c_str());
}

TEST(SweepJournal, InterruptedPublishKeepsTheOldJournal) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string path = temp_path("journal_publish_crash.txt");
  const std::string tmp = path + ".tmp";
  std::remove(tmp.c_str());
  SweepJournal journal(path, 42, 256, 64);
  journal.save({{0, sample_chunk_stats(1)}});
  const std::string old_bytes = read_bytes(path);

  // Die after the temp file is written but before the rename.
  EXPECT_EXIT(support::atomic_write_file(path, "replacement bytes\n", [] { std::_Exit(7); }),
              ::testing::ExitedWithCode(7), "");
  EXPECT_EQ(read_bytes(path), old_bytes) << "the old file must stay intact";
  EXPECT_EQ(read_bytes(tmp), "replacement bytes\n") << "the crash leaves the temp file behind";

  // Readers never look at the leftover, and the next publish replaces it.
  const JournalLoadResult r = journal.load();
  ASSERT_EQ(r.status, JournalLoadResult::Status::kValid) << r.reason;
  ASSERT_EQ(r.chunks.size(), 1u);
  journal.save({{0, sample_chunk_stats(1)}, {3, sample_chunk_stats(2)}});
  EXPECT_FALSE(std::filesystem::exists(tmp));
  EXPECT_EQ(journal.load().chunks.size(), 2u);
  std::remove(path.c_str());
}

// --- kill-and-resume differential oracle ---------------------------------

GraphFactory sweep_gnp() {
  return [](support::Xoshiro256StarStar& rng) { return graph::gnp(48, 0.15, rng); };
}

BeepProtocolFactory local_feedback() {
  return [] { return std::make_unique<mis::LocalFeedbackMis>(); };
}

TrialConfig sweep_config(unsigned threads, sim::BatchRngMode mode, bool allow_batched) {
  TrialConfig config;
  config.trials = 640;  // 10 chunks: enough that in-flight claims never finish them all
  config.base_seed = 0xc0ffee;
  config.threads = threads;
  config.shared_graph = true;  // required by the batched paths
  config.allow_batched = allow_batched;
  config.rng_mode = mode;
  config.checkpoint_interval = 64;
  return config;
}

TEST(Resilience, ResumeIsBitIdenticalToOneShot) {
  struct Variant {
    unsigned threads;
    sim::BatchRngMode mode;
    bool allow_batched;
  };
  const Variant variants[] = {
      {1, sim::BatchRngMode::kScalarOrder, false},  // scalar path
      {4, sim::BatchRngMode::kScalarOrder, false},
      {4, sim::BatchRngMode::kScalarOrder, true},  // batched, bit-identical mode
      {1, sim::BatchRngMode::kStatisticalLanes, true},
      {4, sim::BatchRngMode::kStatisticalLanes, true},
  };
  const std::string path = temp_path("journal_resume.txt");
  for (const Variant& v : variants) {
    const TrialStats one_shot =
        run_beep_trials(sweep_gnp(), local_feedback(), sweep_config(v.threads, v.mode, v.allow_batched));
    ASSERT_EQ(one_shot.trials, 640u);
    EXPECT_FALSE(one_shot.truncated);

    // Interrupt at >= 3 distinct checkpoint boundaries: after each kill the
    // journal holds only complete chunks, and the final resumed aggregate
    // must match the uninterrupted run bit for bit.
    for (std::size_t interrupt_after : {1u, 2u, 3u}) {
      std::remove(path.c_str());
      TrialConfig interrupted = sweep_config(v.threads, v.mode, v.allow_batched);
      interrupted.journal_path = path;
      interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
      interrupted.on_checkpoint = [&interrupted, interrupt_after](std::size_t done) {
        if (done >= interrupt_after) interrupted.stop_request->store(true);
      };
      const TrialStats partial = run_beep_trials(sweep_gnp(), local_feedback(), interrupted);
      ASSERT_TRUE(partial.truncated);
      EXPECT_EQ(partial.requested_trials, 640u);
      EXPECT_GE(partial.trials, 64u * interrupt_after);
      EXPECT_LT(partial.trials, 640u);
      EXPECT_EQ(partial.trials % 64u, 0u) << "truncation must land on a chunk boundary";

      TrialConfig resumed_cfg = sweep_config(v.threads, v.mode, v.allow_batched);
      resumed_cfg.journal_path = path;
      resumed_cfg.resume = true;
      const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), resumed_cfg);
      EXPECT_FALSE(resumed.truncated);
      EXPECT_EQ(resumed.resumed_trials, partial.trials);
      EXPECT_TRUE(resumed.resume_discarded_reason.empty());
      expect_stats_bits_equal(resumed, one_shot);
    }
  }
  std::remove(path.c_str());
}

TEST(Resilience, ResumeAcrossThreadCountsAndPaths) {
  // A journal written by a 1-thread scalar run finishes under a 4-thread
  // batched run with identical final bits: chunk geometry, not execution
  // path, defines the aggregate.
  const std::string path = temp_path("journal_cross.txt");
  std::remove(path.c_str());
  const TrialStats one_shot = run_beep_trials(
      sweep_gnp(), local_feedback(), sweep_config(1, sim::BatchRngMode::kScalarOrder, false));

  TrialConfig interrupted = sweep_config(1, sim::BatchRngMode::kScalarOrder, false);
  interrupted.journal_path = path;
  interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
  interrupted.on_checkpoint = [&interrupted](std::size_t done) {
    if (done >= 2) interrupted.stop_request->store(true);
  };
  const TrialStats partial = run_beep_trials(sweep_gnp(), local_feedback(), interrupted);
  ASSERT_TRUE(partial.truncated);

  TrialConfig resumed_cfg = sweep_config(4, sim::BatchRngMode::kScalarOrder, true);
  resumed_cfg.journal_path = path;
  resumed_cfg.resume = true;
  const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), resumed_cfg);
  EXPECT_EQ(resumed.resumed_trials, partial.trials);
  expect_stats_bits_equal(resumed, one_shot);
  std::remove(path.c_str());
}

TEST(Resilience, ResumeAfterTornTailIsBitIdenticalToOneShot) {
  const std::string path = temp_path("journal_resume_torn.txt");
  std::remove(path.c_str());
  const auto config = [] { return sweep_config(2, sim::BatchRngMode::kScalarOrder, false); };
  const TrialStats one_shot = run_beep_trials(sweep_gnp(), local_feedback(), config());

  TrialConfig interrupted = config();
  interrupted.journal_path = path;
  interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
  interrupted.on_checkpoint = [&interrupted](std::size_t done) {
    if (done >= 3) interrupted.stop_request->store(true);
  };
  (void)run_beep_trials(sweep_gnp(), local_feedback(), interrupted);
  const std::string body = read_bytes(path);
  ASSERT_NE(body.rfind("\nchunk "), std::string::npos);
  const std::size_t last_record = body.rfind("\nchunk ") + 1;

  // A crash mid-append inside the last record: the resumed sweep drops the
  // torn record, recomputes it, and lands on the one-shot bits.  Sampled
  // offsets (TornTailAtEveryOffsetKeepsEveryEarlierChunk load-checks every
  // one).
  const std::size_t span = body.size() - last_record;
  for (const std::size_t cut : {last_record, last_record + 1, last_record + span / 2,
                                body.size() - 1}) {
    write_bytes(path, body.substr(0, cut));
    TrialConfig resumed_cfg = config();
    resumed_cfg.journal_path = path;
    resumed_cfg.resume = true;
    std::size_t resumed_checkpoints = 0;
    resumed_cfg.on_checkpoint = [&resumed_checkpoints](std::size_t done) {
      resumed_checkpoints = done;
    };
    const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), resumed_cfg);
    EXPECT_TRUE(resumed.resume_discarded_reason.empty()) << resumed.resume_discarded_reason;
    EXPECT_GT(resumed.resumed_trials, 0u) << "cut at " << cut;
    EXPECT_EQ(resumed.resumed_trials + 64 * resumed_checkpoints, 640u) << "cut at " << cut;
    expect_stats_bits_equal(resumed, one_shot);

    // The resume republished the journal without the torn tail: it now
    // holds every chunk, each exactly once.
    TrialConfig again = config();
    again.journal_path = path;
    again.resume = true;
    const TrialStats reloaded = run_beep_trials(sweep_gnp(), local_feedback(), again);
    EXPECT_EQ(reloaded.resumed_trials, 640u);
    expect_stats_bits_equal(reloaded, one_shot);
  }
  std::remove(path.c_str());
}

TEST(Resilience, CorruptJournalIsDiscardedAndSweepRestarts) {
  const std::string path = temp_path("journal_resume_corrupt.txt");
  std::remove(path.c_str());
  const TrialStats one_shot = run_beep_trials(
      sweep_gnp(), local_feedback(), sweep_config(2, sim::BatchRngMode::kScalarOrder, false));

  TrialConfig interrupted = sweep_config(2, sim::BatchRngMode::kScalarOrder, false);
  interrupted.journal_path = path;
  interrupted.stop_request = std::make_shared<std::atomic<bool>>(false);
  interrupted.on_checkpoint = [&interrupted](std::size_t) {
    interrupted.stop_request->store(true);
  };
  (void)run_beep_trials(sweep_gnp(), local_feedback(), interrupted);

  // Corrupt one byte; resume must reject the whole journal, restart from
  // scratch, and still land on the one-shot bits.
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(40);
    f.put('~');
  }
  TrialConfig resumed_cfg = sweep_config(2, sim::BatchRngMode::kScalarOrder, false);
  resumed_cfg.journal_path = path;
  resumed_cfg.resume = true;
  const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), resumed_cfg);
  EXPECT_EQ(resumed.resumed_trials, 0u);
  EXPECT_FALSE(resumed.resume_discarded_reason.empty());
  expect_stats_bits_equal(resumed, one_shot);
  std::remove(path.c_str());
}

TEST(Resilience, StatisticalJournalIsRejectedByScalarOrderResume) {
  // shards = 2 with allow_sharded = false runs statistical K = 1 lanes: a
  // different sample from the scalar-order run of the same knobs, so its
  // journal must not finish that run.
  const std::string path = temp_path("journal_statistical_key.txt");
  std::remove(path.c_str());
  TrialConfig statistical = sweep_config(2, sim::BatchRngMode::kStatisticalLanes, true);
  statistical.trials = 256;
  statistical.shards = 2;
  statistical.allow_sharded = false;
  statistical.request_fingerprint = 42;
  TrialConfig scalar_order = statistical;
  scalar_order.rng_mode = sim::BatchRngMode::kScalarOrder;
  const TrialStats fresh = run_beep_trials(sweep_gnp(), local_feedback(), scalar_order);

  statistical.journal_path = path;
  (void)run_beep_trials(sweep_gnp(), local_feedback(), statistical);
  scalar_order.journal_path = path;
  scalar_order.resume = true;
  const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), scalar_order);
  EXPECT_FALSE(resumed.resume_discarded_reason.empty());
  EXPECT_EQ(resumed.resumed_trials, 0u);
  expect_stats_bits_equal(resumed, fresh);
  std::remove(path.c_str());
}

TEST(Resilience, RequestKeysStayPinnedOnEveryRoute) {
  // Journal request keys, one tiny sweep per route.  A key that changes
  // orphans every journal already written for that route, so these
  // literals are never re-recorded.
  TrialConfig base;
  base.base_seed = 0xc0ffee;
  base.threads = 2;
  base.request_fingerprint = 42;
  const auto make = [&](std::size_t trials, sim::BatchRngMode mode, bool shared,
                        unsigned shards) {
    TrialConfig c = base;
    c.trials = trials;
    c.rng_mode = mode;
    c.shared_graph = shared;
    c.shards = shards;
    return c;
  };
  constexpr auto kScalarOrder = sim::BatchRngMode::kScalarOrder;
  constexpr auto kStatistical = sim::BatchRngMode::kStatisticalLanes;
  TrialConfig auto_k = make(130, kStatistical, true, 0);
  auto_k.auto_shard_min_nodes = 16;
  TrialConfig static_scenario = make(70, kScalarOrder, true, 0);
  static_scenario.scenario = [] {
    sim::UniformRandomCrashConfig c;
    c.fraction = 0.1;
    c.round_hi = 5;
    return std::make_unique<sim::UniformRandomCrash>(c);
  };
  TrialConfig adaptive_scenario = make(3, kScalarOrder, true, 0);
  adaptive_scenario.scenario = [] {
    return std::make_unique<sim::TargetMisMembers>(sim::TargetMisMembersConfig{});
  };
  struct Pin {
    const char* route;
    TrialConfig config;
    bool local;
    const char* request;
  };
  const Pin pins[] = {
      {"scalar", make(3, kScalarOrder, false, 0), false, "request 3b080620da198571"},
      {"scalar-order K=1 planes", make(70, kScalarOrder, true, 0), false,
       "request c2b86a4f4d8f72f5"},
      {"statistical K=1", make(70, kStatistical, true, 0), false, "request 62120d78196569b4"},
      {"statistical K=2 explicit", make(130, kStatistical, true, 2), false,
       "request fc944dfd25880e73"},
      {"statistical auto K>=2", auto_k, false, "request 9bedf125f15e0532"},
      {"scalar-order sharded explicit", make(3, kScalarOrder, false, 2), false,
       "request 3b080620da198571"},
      {"materialised static scenario", static_scenario, false, "request 0444da1122f00005"},
      {"forced-scalar adaptive scenario", adaptive_scenario, false,
       "request 2b92013425f0ccb1"},
      {"local", make(3, kScalarOrder, false, 0), true, "request b65e28c494ecb51b"},
  };
  const std::string path = temp_path("journal_request_pins.txt");
  for (const Pin& pin : pins) {
    std::remove(path.c_str());
    TrialConfig config = pin.config;
    config.journal_path = path;
    if (pin.local) {
      (void)run_local_trials(sweep_gnp(), [] { return std::make_unique<mis::LubyMis>(); },
                             config);
    } else {
      (void)run_beep_trials(sweep_gnp(), local_feedback(), config);
    }
    const std::string journal = read_bytes(path);
    const std::size_t at = journal.find("request ");
    ASSERT_NE(at, std::string::npos) << pin.route;
    EXPECT_EQ(journal.substr(at, journal.find('\n', at) - at), pin.request) << pin.route;
  }
  std::remove(path.c_str());
}

TEST(Resilience, ExpiredBudgetTruncatesImmediatelyAndResumeFinishes) {
  const std::string path = temp_path("journal_budget.txt");
  std::remove(path.c_str());
  TrialConfig config = sweep_config(2, sim::BatchRngMode::kScalarOrder, false);
  config.journal_path = path;
  config.budget_seconds = 1e-9;  // expires before the first claim
  const TrialStats partial = run_beep_trials(sweep_gnp(), local_feedback(), config);
  EXPECT_TRUE(partial.truncated);
  EXPECT_EQ(partial.trials, 0u);
  EXPECT_EQ(partial.requested_trials, 640u);
  EXPECT_EQ(partial.rounds.count(), 0u);

  const TrialStats one_shot = run_beep_trials(
      sweep_gnp(), local_feedback(), sweep_config(2, sim::BatchRngMode::kScalarOrder, false));
  TrialConfig resumed_cfg = sweep_config(2, sim::BatchRngMode::kScalarOrder, false);
  resumed_cfg.journal_path = path;
  resumed_cfg.resume = true;  // nothing was checkpointed: fresh start is fine
  const TrialStats resumed = run_beep_trials(sweep_gnp(), local_feedback(), resumed_cfg);
  EXPECT_FALSE(resumed.truncated);
  expect_stats_bits_equal(resumed, one_shot);
  std::remove(path.c_str());
}

TEST(Resilience, WiderIntervalsWhenTruncated) {
  TrialConfig full_cfg = sweep_config(2, sim::BatchRngMode::kScalarOrder, false);
  const TrialStats full = run_beep_trials(sweep_gnp(), local_feedback(), full_cfg);

  TrialConfig cut = sweep_config(2, sim::BatchRngMode::kScalarOrder, false);
  cut.stop_request = std::make_shared<std::atomic<bool>>(false);
  cut.on_checkpoint = [&cut](std::size_t done) {
    if (done >= 1) cut.stop_request->store(true);
  };
  const TrialStats partial = run_beep_trials(sweep_gnp(), local_feedback(), cut);
  ASSERT_TRUE(partial.truncated);
  ASSERT_GT(partial.rounds.count(), 1u);
  ASSERT_LT(partial.rounds.count(), full.rounds.count());

  const auto full_ci = TrialStats::ci95(full.rounds);
  const auto part_ci = TrialStats::ci95(partial.rounds);
  // Honest degradation: fewer samples never tighten the reported interval
  // relative to its own stderr (interval half-width scales with 1/sqrt(n)).
  EXPECT_GT(part_ci.hi - part_ci.lo, 0.0);
  EXPECT_GT(full_ci.hi - full_ci.lo, 0.0);
}

// --- chaos harness: per-trial fault isolation ----------------------------

/// Wraps LocalFeedbackMis and misbehaves on a chosen trial subset.  Trials
/// are identified from inside the protocol by peeking (copying, never
/// advancing) the run rng handed to reset(): trial t's run generator is
/// SeedSequence(base).child(t).child(1).generator(), still untouched when
/// reset() runs, so its first output is a per-trial fingerprint.
class ChaosLocalFeedback final : public sim::BeepProtocol {
 public:
  enum class Mode {
    kThrowOnce,    ///< fail the first attempt, succeed on retry
    kThrowAlways,  ///< fail every attempt (drives quarantine)
    kHang,         ///< sleep each exchange (drives the trial timeout)
  };
  struct Shared {
    Mode mode = Mode::kThrowOnce;
    std::set<std::uint64_t> targets;
    std::mutex mutex;
    std::set<std::uint64_t> already_failed;
  };

  explicit ChaosLocalFeedback(std::shared_ptr<Shared> shared) : shared_(std::move(shared)) {}

  [[nodiscard]] std::string_view name() const override { return "chaos-local-feedback"; }
  [[nodiscard]] unsigned exchanges_per_round() const override {
    return inner_.exchanges_per_round();
  }

  void reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override {
    auto probe = rng;  // copy: the real stream must stay untouched
    const std::uint64_t fingerprint = probe();
    hang_ = false;
    if (shared_->targets.count(fingerprint) != 0) {
      switch (shared_->mode) {
        case Mode::kThrowAlways:
          throw std::runtime_error("chaos: injected deterministic fault");
        case Mode::kThrowOnce: {
          const std::lock_guard<std::mutex> lock(shared_->mutex);
          if (shared_->already_failed.insert(fingerprint).second) {
            throw std::runtime_error("chaos: injected transient fault");
          }
          break;
        }
        case Mode::kHang:
          hang_ = true;
          break;
      }
    }
    inner_.reset(g, rng);
  }
  void emit(sim::BeepContext& ctx) override {
    if (hang_) std::this_thread::sleep_for(std::chrono::milliseconds(25));
    inner_.emit(ctx);
  }
  void react(sim::BeepContext& ctx) override { inner_.react(ctx); }

 private:
  std::shared_ptr<Shared> shared_;
  mis::LocalFeedbackMis inner_;
  bool hang_ = false;
};

/// First run-rng output of trial `t` under `base_seed` — the fingerprint
/// ChaosLocalFeedback sees in reset().
std::uint64_t trial_fingerprint(std::uint64_t base_seed, std::size_t t) {
  auto rng = support::SeedSequence(base_seed).child(t).child(1).generator();
  return rng();
}

TrialConfig chaos_config() {
  TrialConfig config;
  config.trials = 40;  // single chunk: aggregate == straight pushes in trial order
  config.base_seed = 99;
  config.threads = 2;
  config.isolate_trial_faults = true;
  config.retry_backoff_ms = 1;
  config.max_retry_backoff_ms = 4;
  return config;
}

GraphFactory chaos_gnp() {
  return [](support::Xoshiro256StarStar& rng) { return graph::gnp(40, 0.15, rng); };
}

TEST(Chaos, TransientFaultsRetryAndMatchCleanRunBitForBit) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kThrowOnce;
  const std::vector<std::size_t> chosen = {3, 17, 29};
  TrialConfig config = chaos_config();
  for (const std::size_t t : chosen) {
    shared->targets.insert(trial_fingerprint(config.base_seed, t));
  }

  const TrialStats chaotic = run_beep_trials(
      chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config);
  const TrialStats clean = run_beep_trials(chaos_gnp(), local_feedback(), chaos_config());

  EXPECT_EQ(chaotic.retries, chosen.size());
  EXPECT_EQ(chaotic.quarantined, 0u);
  EXPECT_EQ(chaotic.attempted, 40u);
  EXPECT_EQ(chaotic.trials, 40u);
  EXPECT_TRUE(chaotic.failed_trials.empty());
  // Retries rerun the identical seed-pure computation: transient faults
  // leave no trace in the aggregates.
  expect_stats_bits_equal(chaotic, clean);
}

TEST(Chaos, ExhaustedRetriesQuarantineAndSurvivorsMatchTheOracle) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kThrowAlways;
  const std::vector<std::size_t> chosen = {5, 21};
  TrialConfig config = chaos_config();
  config.max_retries = 1;  // 2 attempts per trial
  for (const std::size_t t : chosen) {
    shared->targets.insert(trial_fingerprint(config.base_seed, t));
  }

  const TrialStats stats = run_beep_trials(
      chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config);

  EXPECT_EQ(stats.requested_trials, 40u);
  EXPECT_EQ(stats.attempted, 40u);
  EXPECT_EQ(stats.quarantined, 2u);
  EXPECT_EQ(stats.trials, 38u);
  EXPECT_EQ(stats.retries, 2u);  // one retry per quarantined trial
  EXPECT_FALSE(stats.truncated);
  ASSERT_EQ(stats.failed_trials.size(), 2u);
  EXPECT_EQ(stats.failed_trials[0].trial, 5u);
  EXPECT_EQ(stats.failed_trials[1].trial, 21u);
  for (const FailedTrial& f : stats.failed_trials) {
    EXPECT_EQ(f.base_seed, config.base_seed);
    EXPECT_EQ(f.attempts, 2u);
    EXPECT_NE(f.error.find("chaos"), std::string::npos);
  }

  // Differential oracle: recompute every surviving trial directly on the
  // scalar simulator, pushing in trial order (one chunk => the sweep
  // aggregate is exactly this), and demand bit equality.
  TrialStats oracle;
  for (std::size_t t = 0; t < 40; ++t) {
    if (t == 5 || t == 21) continue;
    const support::SeedSequence trial_seed = support::SeedSequence(config.base_seed).child(t);
    auto graph_rng = trial_seed.child(0).generator();
    const graph::Graph g = graph::gnp(40, 0.15, graph_rng);
    mis::LocalFeedbackMis protocol;
    sim::BeepSimulator simulator(g);
    const sim::RunResult result = simulator.run(protocol, trial_seed.child(1).generator());
    oracle.rounds.push(static_cast<double>(result.rounds));
    oracle.beeps_per_node.push(result.mean_beeps_per_node());
    std::uint32_t max_beeps = 0;
    for (const std::uint32_t b : result.beep_counts) max_beeps = std::max(max_beeps, b);
    oracle.max_beeps_any_node.push(static_cast<double>(max_beeps));
    const mis::VerificationReport report = mis::verify_mis_run(g, result);
    oracle.mis_size.push(static_cast<double>(report.mis_size));
    oracle.message_bits.push(static_cast<double>(result.message_bits));
  }
  expect_bits_equal(stats.rounds, oracle.rounds, "rounds");
  expect_bits_equal(stats.beeps_per_node, oracle.beeps_per_node, "beeps_per_node");
  expect_bits_equal(stats.max_beeps_any_node, oracle.max_beeps_any_node, "max_beeps");
  expect_bits_equal(stats.mis_size, oracle.mis_size, "mis_size");
}

TEST(Chaos, HungTrialsHitTheTrialTimeoutAndQuarantine) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kHang;
  TrialConfig config = chaos_config();
  config.trials = 16;
  config.max_retries = 0;
  // The hung trial sleeps 25 ms per exchange: even a two-round run blows
  // this deadline, while clean trials finish in microseconds.
  config.trial_timeout_seconds = 0.1;
  shared->targets.insert(trial_fingerprint(config.base_seed, 7));

  const TrialStats stats = run_beep_trials(
      chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_EQ(stats.trials, 15u);
  ASSERT_EQ(stats.failed_trials.size(), 1u);
  EXPECT_EQ(stats.failed_trials[0].trial, 7u);
  EXPECT_NE(stats.failed_trials[0].error.find("deadline expired"), std::string::npos)
      << stats.failed_trials[0].error;
}

TEST(Chaos, WithoutIsolationTheFirstFaultFailsTheSweep) {
  auto shared = std::make_shared<ChaosLocalFeedback::Shared>();
  shared->mode = ChaosLocalFeedback::Mode::kThrowAlways;
  TrialConfig config = chaos_config();
  config.isolate_trial_faults = false;  // historical fail-fast semantics
  shared->targets.insert(trial_fingerprint(config.base_seed, 11));
  EXPECT_THROW(
      (void)run_beep_trials(
          chaos_gnp(), [shared] { return std::make_unique<ChaosLocalFeedback>(shared); }, config),
      std::runtime_error);
}

// --- knob validation ------------------------------------------------------

TEST(Resilience, InvalidSweepKnobsAreRejected) {
  const auto run = [](const TrialConfig& config) {
    return run_beep_trials(sweep_gnp(), local_feedback(), config);
  };
  TrialConfig config;
  config.trials = 1;
  config.budget_seconds = -1.0;
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.trial_timeout_seconds = std::nan("");
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.checkpoint_interval = 0;
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.resume = true;  // resume without a journal path is meaningless
  EXPECT_THROW((void)run(config), std::invalid_argument);
  config = TrialConfig{};
  config.trials = 1;
  config.sim.deadline_ns = std::make_shared<std::atomic<std::int64_t>>(0);
  EXPECT_THROW((void)run(config), std::invalid_argument);
}

}  // namespace
}  // namespace beepmis::harness
