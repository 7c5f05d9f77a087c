// Text serialization of harness::TrialStats — the one encoding shared by
// everything that persists or ships aggregates:
//
//   * the sweep journal's per-chunk records (exp/journal.cpp) use the
//     low-level "stats core" encode/decode as their body;
//   * the beepmisd experiment service (src/svc/) uses the framed
//     format_trial_stats / parse_trial_stats round trip as both its wire
//     result payload and its on-disk result-cache entry.
//
// The encoding rules are the journal's (see exp/journal.hpp): doubles as
// exact IEEE-754 bit patterns (hex16, never formatted — load(save(x)) is
// bit-identical), strings hex-escaped into single whitespace-free tokens,
// strict full-match parsing that rejects rather than guesses, and a
// whole-payload StableHash checksum on the framed form.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "exp/runner.hpp"

namespace beepmis::harness::statsio {

// --- token-level helpers (shared with the journal) ------------------------

/// Exact IEEE-754 bit pattern as 16 hex digits.
[[nodiscard]] std::string hex_double(double v);
[[nodiscard]] bool parse_hex_double(std::string_view text, double& out) noexcept;

/// Strict full-match decimal parse (loaders must reject, never guess).
[[nodiscard]] bool parse_size(std::string_view text, std::size_t& out) noexcept;

/// Hex-escapes an arbitrary byte string into one whitespace-free token
/// ("-" for empty, so every line keeps a fixed token structure).
[[nodiscard]] std::string escape_text(std::string_view s);
[[nodiscard]] bool unescape_text(std::string_view token, std::string& out);

[[nodiscard]] std::vector<std::string> split_tokens(std::string_view line);

// --- the stats core: metric aggregates + accounting -----------------------
//
// The journal's chunk-record body, exactly:
//
//   stat <name> <count> <hex16 mean> <hex16 m2> <hex16 min> <hex16 max>  x5
//   counts <10 integers>
//   recovery <k> <hex16>*k
//   failed <trial> <hex16 seed> <attempts> <hex-escaped error>           x0+
//
// Covers every TrialStats field that chunk merging aggregates; the
// sweep-level fields (requested_trials, truncated, resumed_trials, the
// reason strings) are NOT part of the core — the framed format below
// carries those.

void encode_stats_core(std::ostream& out, const TrialStats& stats);

/// Decodes one stats core from lines[i .. stop); advances `i` past the
/// consumed lines.  Returns false with a human-readable `error` (and an
/// unspecified `out` / `i`) on the first malformed line; the caller must
/// then reject the whole payload.
[[nodiscard]] bool decode_stats_core(const std::vector<std::string_view>& lines, std::size_t& i,
                                     std::size_t stop, TrialStats& out, std::string& error);

}  // namespace beepmis::harness::statsio

namespace beepmis::harness {

/// Framed, self-checksummed full TrialStats round trip:
///
///   beepmis-trial-stats v1
///   <stats core lines>
///   meta <requested_trials> <truncated 0|1> <resumed_trials>
///   fallback <hex-escaped scalar_fallback_reason>
///   discarded <hex-escaped resume_discarded_reason>
///   checksum <hex16>
///
/// parse(format(x)) reproduces every field bit-for-bit.
[[nodiscard]] std::string format_trial_stats(const TrialStats& stats);

/// Validates and decodes a framed payload.  Returns false with a reason
/// on any anomaly (bad magic, torn content, checksum mismatch, malformed
/// line) — reject whole, never half-loaded.
[[nodiscard]] bool parse_trial_stats(const std::string& text, TrialStats& out,
                                     std::string& error);

}  // namespace beepmis::harness
