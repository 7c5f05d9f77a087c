// Stable (process- and platform-independent) hashing for request keys and
// file checksums.  std::hash makes no cross-run guarantees, so everything
// that is persisted — the sweep journal's request hash and its record
// checksums (see exp/journal.hpp) — goes through this FNV-1a-based hasher
// instead.  The digest for a given update sequence is pinned by tests and
// must never change: journals written by one build must be readable (or
// cleanly rejected) by the next.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace beepmis::support {

/// Streaming 64-bit FNV-1a hasher with typed, length-delimited updates:
/// update("ab") then update("c") yields a different digest than
/// update("a") then update("bc"), because every string update folds in its
/// length first — field boundaries are part of the hash.
class StableHash {
 public:
  void update_bytes(const void* data, std::size_t len) noexcept;
  /// Length-prefixed string update (see class comment).
  void update(std::string_view s) noexcept;
  void update_u64(std::uint64_t v) noexcept;  ///< little-endian byte order
  void update_double(double v) noexcept;      ///< exact bit pattern
  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  static constexpr std::uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr std::uint64_t kPrime = 0x100000001b3ULL;
  std::uint64_t state_ = kOffsetBasis;
};

/// One-shot raw-byte hash (no length prefix): the journal's header and
/// record checksums.
[[nodiscard]] std::uint64_t stable_hash_bytes(std::string_view bytes) noexcept;

/// Fixed-width (16 digit) lowercase hex rendering of a 64-bit value; the
/// journal stores hashes and double bit-patterns in this form.
[[nodiscard]] std::string to_hex_u64(std::uint64_t v);

/// Parses exactly 16 lowercase/uppercase hex digits; returns false on any
/// other input (journal loaders must reject, never guess).
[[nodiscard]] bool parse_hex_u64(std::string_view text, std::uint64_t& out) noexcept;

}  // namespace beepmis::support
