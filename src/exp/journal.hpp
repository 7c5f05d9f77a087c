// Durable sweep journal: the persistence layer behind crash-safe trial
// sweeps (TrialConfig::journal_path / resume).
//
// The trial harness aggregates a sweep in fixed chunks of
// TrialConfig::checkpoint_interval trials.  The journal is append-only:
//
//   * at sweep start, save() publishes the header plus every resumed chunk
//     atomically and durably (support::atomic_write_file: tmp, fsync,
//     rename, directory fsync).  That snapshot also drops any torn tail a
//     crash left behind;
//   * every time a chunk completes, append() adds just that chunk — one
//     self-checksummed record, written with a single write() on a kept-open
//     O_APPEND descriptor and then fdatasync'd.  The harness fires
//     TrialConfig::on_checkpoint only after append() returns, so a reported
//     checkpoint is on disk.  A checkpoint costs O(one chunk) of I/O.
//
// A saved snapshot and an appended journal are the same format (v2,
// line-oriented text):
//
//   beepmis-sweep-journal v2
//   request <hex16>           # StableHash of the sweep request (see
//   trials <N>                #   runner.cpp's request hash: config knobs
//   chunk_size <C>            #   + TrialConfig::request_fingerprint)
//   header <hex16>            # StableHash of the four lines above
//   chunk <index>             # one record per completed chunk, in
//     stat <name> <count> <hex16 mean> <hex16 m2> <hex16 min> <hex16 max>
//     counts <...integers...> #   completion order (load() sorts)
//     recovery <k> <hex16>*k
//     failed <trial> <hex16 seed> <attempts> <hex-escaped error>
//   end <index> <hex16>       # StableHash of the record's bytes before "end"
//
// Validation on load():
//
//   * the torn-tail rule: a final record without a complete,
//     newline-terminated end line is what a crash mid-append leaves; it is
//     dropped and every earlier record is kept;
//   * everything else is reject-whole: a bad or torn header, an unknown
//     version (v1 journals included), a complete record whose checksum or
//     syntax fails, a duplicate or out-of-range chunk index, or a request
//     hash / geometry mismatch yields kRejected with the reason, and resume
//     either trusts the journal or none of it.
//
// Doubles are stored as exact bit patterns (hex), never formatted — a
// load(save(x)) round trip is bit-identical, which is what lets a resumed
// sweep's final merged TrialStats match an uninterrupted run's exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/runner.hpp"

namespace beepmis::harness {

/// One completed checkpoint chunk: the chunk-local TrialStats aggregate of
/// trials [index * chunk_size, min((index + 1) * chunk_size, trials)).
struct JournalChunk {
  std::size_t index = 0;
  TrialStats stats;
};

struct JournalLoadResult {
  enum class Status {
    kNoFile,    ///< nothing at the path — fresh sweep
    kValid,     ///< chunks restored
    kRejected,  ///< journal exists but failed validation; see reason
  };
  Status status = Status::kNoFile;
  std::string reason;               ///< human-readable, set when kRejected
  std::vector<JournalChunk> chunks; ///< ascending index, unique (kValid only)
};

class SweepJournal {
 public:
  /// `request_hash` keys the journal to one exact sweep request; `trials`
  /// and `chunk_size` pin the chunk geometry (a journal with different
  /// geometry is rejected on load).
  SweepJournal(std::string path, std::uint64_t request_hash, std::size_t trials,
               std::size_t chunk_size);
  ~SweepJournal();
  SweepJournal(const SweepJournal&) = delete;
  SweepJournal& operator=(const SweepJournal&) = delete;

  /// Atomically and durably replaces the journal with a snapshot of
  /// `chunks` (any order; persisted sorted by index).  Throws
  /// std::runtime_error when the file cannot be written or published.
  void save(const std::vector<JournalChunk>& chunks) const;

  /// Appends one chunk record to the journal last published by save() and
  /// fdatasyncs it before returning.  On failure the file is truncated
  /// back to its previous length and std::runtime_error is thrown.
  void append(const JournalChunk& chunk);

  /// Loads and validates the journal.  Never throws on bad content — a
  /// corrupt or mismatched journal yields kRejected with the reason, and
  /// the caller restarts the sweep from scratch.
  [[nodiscard]] JournalLoadResult load() const;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t request_hash() const noexcept { return request_hash_; }

 private:
  std::string path_;
  std::uint64_t request_hash_ = 0;
  std::size_t trials_ = 0;
  std::size_t chunk_size_ = 0;
  /// O_APPEND descriptor for append(), opened lazily; save() closes it
  /// because its rename replaces the file the descriptor points at.
  mutable int append_fd_ = -1;
};

}  // namespace beepmis::harness
