#include "exp/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "exp/stats_io.hpp"
#include "support/atomic_file.hpp"
#include "support/hash.hpp"

namespace beepmis::harness {

namespace {

using statsio::decode_stats_core;
using statsio::encode_stats_core;
using statsio::parse_size;
using statsio::split_tokens;
using support::parse_hex_u64;
using support::stable_hash_bytes;
using support::to_hex_u64;

constexpr std::string_view kMagic = "beepmis-sweep-journal v2";
constexpr std::string_view kMagicPrefix = "beepmis-sweep-journal ";
constexpr std::size_t kHeaderLines = 5;

std::string encode_header(std::uint64_t request_hash, std::size_t trials,
                          std::size_t chunk_size) {
  std::ostringstream out;
  out << kMagic << "\n";
  out << "request " << to_hex_u64(request_hash) << "\n";
  out << "trials " << trials << "\n";
  out << "chunk_size " << chunk_size << "\n";
  std::string header = out.str();
  header += "header " + to_hex_u64(stable_hash_bytes(header)) + "\n";
  return header;
}

// One self-checksummed record: the chunk body is the shared stats core
// (exp/stats_io.hpp), and the end line carries the StableHash of every
// record byte before it.
std::string encode_record(const JournalChunk& chunk) {
  std::ostringstream out;
  out << "chunk " << chunk.index << "\n";
  encode_stats_core(out, chunk.stats);
  std::string record = out.str();
  record += "end " + std::to_string(chunk.index) + " " +
            to_hex_u64(stable_hash_bytes(record)) + "\n";
  return record;
}

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("SweepJournal: " + what + ": " + std::strerror(errno));
}

}  // namespace

SweepJournal::SweepJournal(std::string path, std::uint64_t request_hash, std::size_t trials,
                           std::size_t chunk_size)
    : path_(std::move(path)), request_hash_(request_hash), trials_(trials),
      chunk_size_(chunk_size) {
  if (path_.empty()) throw std::invalid_argument("SweepJournal: empty path");
  if (chunk_size_ == 0) throw std::invalid_argument("SweepJournal: chunk_size must be >= 1");
}

SweepJournal::~SweepJournal() {
  if (append_fd_ >= 0) ::close(append_fd_);
}

void SweepJournal::save(const std::vector<JournalChunk>& chunks) const {
  // The rename below replaces the inode an open append descriptor points at.
  if (append_fd_ >= 0) {
    ::close(append_fd_);
    append_fd_ = -1;
  }
  std::vector<const JournalChunk*> ordered;
  ordered.reserve(chunks.size());
  for (const JournalChunk& c : chunks) ordered.push_back(&c);
  std::sort(ordered.begin(), ordered.end(),
            [](const JournalChunk* a, const JournalChunk* b) { return a->index < b->index; });

  std::string body = encode_header(request_hash_, trials_, chunk_size_);
  for (const JournalChunk* c : ordered) body += encode_record(*c);
  support::atomic_write_file(path_, body);
}

void SweepJournal::append(const JournalChunk& chunk) {
  const std::string record = encode_record(chunk);
  if (append_fd_ < 0) {
    append_fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (append_fd_ < 0) fail_errno("cannot open " + path_ + " for appending");
  }
  const off_t before = ::lseek(append_fd_, 0, SEEK_END);
  try {
    support::write_all(append_fd_, record, path_);
    if (::fdatasync(append_fd_) != 0) fail_errno("fdatasync " + path_ + " failed");
  } catch (...) {
    // Never leave a torn record for the next append to bury mid-file.
    if (before >= 0) (void)::ftruncate(append_fd_, before);
    throw;
  }
}

JournalLoadResult SweepJournal::load() const {
  JournalLoadResult result;
  std::ifstream in(path_, std::ios::binary);
  if (!in) {
    result.status = JournalLoadResult::Status::kNoFile;
    return result;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string file = buffer.str();

  const auto reject = [&result](std::string reason) {
    result.status = JournalLoadResult::Status::kRejected;
    result.reason = std::move(reason);
    result.chunks.clear();
    return result;
  };

  // Complete (newline-terminated) lines only: bytes after the last newline
  // are the unfinished part of a torn final record.
  std::vector<std::string_view> lines;
  {
    std::size_t start = 0;
    for (std::size_t i = 0; i < file.size(); ++i) {
      if (file[i] == '\n') {
        lines.emplace_back(file.data() + start, i - start);
        start = i + 1;
      }
    }
  }
  const auto offset_of = [&file](std::string_view line) {
    return static_cast<std::size_t>(line.data() - file.data());
  };

  // Header: written once, atomically, by save() — so any damage here is
  // corruption, never a crash artefact, and rejects the whole journal.
  if (!lines.empty() && lines[0] != kMagic) {
    if (lines[0].substr(0, kMagicPrefix.size()) == kMagicPrefix) {
      return reject("unsupported journal version '" +
                    std::string(lines[0].substr(kMagicPrefix.size())) + "' (this build reads " +
                    std::string(kMagic.substr(kMagicPrefix.size())) + " only)");
    }
    return reject("unrecognised journal magic");
  }
  if (lines.size() < kHeaderLines) return reject("journal header is torn");
  {
    const auto tokens = split_tokens(lines[4]);
    std::uint64_t stored = 0;
    if (tokens.size() != 2 || tokens[0] != "header" || !parse_hex_u64(tokens[1], stored)) {
      return reject("malformed header checksum line");
    }
    if (stable_hash_bytes(std::string_view(file.data(), offset_of(lines[4]))) != stored) {
      return reject("header checksum mismatch (corrupted journal)");
    }
  }
  {
    const auto tokens = split_tokens(lines[1]);
    std::uint64_t stored_request = 0;
    if (tokens.size() != 2 || tokens[0] != "request" ||
        !parse_hex_u64(tokens[1], stored_request)) {
      return reject("malformed request line");
    }
    if (stored_request != request_hash_) {
      return reject("request hash mismatch: journal belongs to a different sweep (have " +
                    to_hex_u64(stored_request) + ", want " + to_hex_u64(request_hash_) + ")");
    }
  }
  {
    const auto tokens = split_tokens(lines[2]);
    std::size_t stored_trials = 0;
    if (tokens.size() != 2 || tokens[0] != "trials" || !parse_size(tokens[1], stored_trials)) {
      return reject("malformed trials line");
    }
    if (stored_trials != trials_) return reject("trial-count mismatch");
  }
  {
    const auto tokens = split_tokens(lines[3]);
    std::size_t stored_chunk = 0;
    if (tokens.size() != 2 || tokens[0] != "chunk_size" || !parse_size(tokens[1], stored_chunk)) {
      return reject("malformed chunk_size line");
    }
    if (stored_chunk != chunk_size_) return reject("chunk-size mismatch");
  }

  const std::size_t num_chunks = trials_ == 0 ? 0 : (trials_ + chunk_size_ - 1) / chunk_size_;
  std::vector<bool> seen(num_chunks, false);

  // Records.  Each runs from its "chunk <i>" line to its "end <i> <hex16>"
  // line; core lines never start with "end ".
  std::size_t i = kHeaderLines;
  while (i < lines.size()) {
    auto tokens = split_tokens(lines[i]);
    JournalChunk chunk;
    if (tokens.size() != 2 || tokens[0] != "chunk" || !parse_size(tokens[1], chunk.index)) {
      return reject("expected chunk line");
    }
    std::size_t end = i + 1;
    while (end < lines.size() && lines[end].substr(0, 4) != "end ") ++end;
    // The torn-tail rule: the file ends inside this record (a crash
    // mid-append).  Drop it; every earlier record is complete and checked.
    if (end == lines.size()) break;

    tokens = split_tokens(lines[end]);
    std::size_t end_index = 0;
    std::uint64_t stored = 0;
    if (tokens.size() != 3 || !parse_size(tokens[1], end_index) || end_index != chunk.index ||
        !parse_hex_u64(tokens[2], stored)) {
      return reject("malformed chunk end line");
    }
    const std::size_t first = offset_of(lines[i]);
    if (stable_hash_bytes(std::string_view(file.data() + first, offset_of(lines[end]) - first)) !=
        stored) {
      return reject("record checksum mismatch for chunk " + std::to_string(chunk.index) +
                    " (corrupted journal)");
    }
    if (chunk.index >= num_chunks) return reject("chunk index out of range");
    if (seen[chunk.index]) return reject("duplicate chunk index");

    std::size_t body = i + 1;
    std::string core_error;
    if (!decode_stats_core(lines, body, end, chunk.stats, core_error)) {
      return reject(std::move(core_error));
    }
    if (body != end) return reject("unexpected line inside chunk record");

    seen[chunk.index] = true;
    result.chunks.push_back(std::move(chunk));
    i = end + 1;
  }

  std::sort(result.chunks.begin(), result.chunks.end(),
            [](const JournalChunk& a, const JournalChunk& b) { return a.index < b.index; });
  result.status = JournalLoadResult::Status::kValid;
  return result;
}

}  // namespace beepmis::harness
