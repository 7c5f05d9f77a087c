#include "cli/sweep_spec.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sim/sharded.hpp"
#include "support/hash.hpp"

namespace beepmis::cli {

namespace {

constexpr std::string_view kMagic = "sweepspec";
// v3: added graph.file to the request prefix (family="file" workloads are
// part of a sweep's identity) and shard_local to the execution suffix.
constexpr std::string_view kVersion = "v3";

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("sweepspec: " + message);
}

std::string joined(const std::vector<std::string>& names) {
  std::string out;
  for (const std::string& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

// --- typed, key-naming value parsers (full-match or throw) ---------------

std::uint64_t parse_u64_value(const std::string& key, std::string_view value,
                              std::uint64_t lo = 0,
                              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  try {
    return parse_count_flag(key, value, lo, hi);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

double parse_double_value(const std::string& key, std::string_view value, double lo, double hi) {
  try {
    return parse_real_flag(key, value, lo, hi);
  } catch (const std::invalid_argument& e) {
    fail(e.what());
  }
}

bool parse_bool_value(const std::string& key, std::string_view value) {
  if (value == "1" || value == "true") return true;
  if (value == "0" || value == "false") return false;
  fail(key + ": expected 0/1/true/false, got '" + std::string(value) + "'");
}

std::string parse_name_value(const std::string& key, std::string_view value,
                             const std::vector<std::string>& registry, const char* what) {
  const std::string name(value);
  if (std::find(registry.begin(), registry.end(), name) == registry.end()) {
    fail(key + ": unknown " + std::string(what) + " '" + name + "' (registered: " +
         joined(registry) + ")");
  }
  return name;
}

// --- canonical emission ---------------------------------------------------

void emit(std::ostringstream& out, std::string_view key, const std::string& value) {
  out << ' ' << key << '=' << value;
}

void emit_request_fields(std::ostringstream& out, const SweepSpec& s) {
  if (s.graph.path.find_first_of(" \t\r\n") != std::string::npos) {
    fail("graph.file: path contains whitespace and has no line form: '" + s.graph.path + "'");
  }
  emit(out, "graph", s.graph.family);
  emit(out, "graph.file", s.graph.path);
  emit(out, "graph.n", std::to_string(s.graph.n));
  emit(out, "graph.p", render_double(s.graph.p));
  emit(out, "graph.rows", std::to_string(s.graph.rows));
  emit(out, "graph.cols", std::to_string(s.graph.cols));
  emit(out, "graph.k", std::to_string(s.graph.k));
  emit(out, "graph.seed", std::to_string(s.graph.seed));
  emit(out, "algorithm", s.algorithm.name);
  emit(out, "algorithm.factor", render_double(s.algorithm.factor));
  emit(out, "algorithm.initial_p", render_double(s.algorithm.initial_p));
  emit(out, "sim.loss", render_double(s.algorithm.sim.beep_loss_probability));
  emit(out, "sim.keepalive", s.algorithm.sim.mis_keepalive ? "1" : "0");
  emit(out, "sim.max_rounds", std::to_string(s.algorithm.sim.max_rounds));
  emit(out, "sim.run_until", std::to_string(s.algorithm.sim.run_until_round));
  emit(out, "sim.track_recovery", s.algorithm.sim.track_recovery ? "1" : "0");
  emit(out, "scenario", s.algorithm.scenario.name);
  emit(out, "scenario.rate", render_double(s.algorithm.scenario.rate));
  emit(out, "scenario.lo", std::to_string(s.algorithm.scenario.round_lo));
  emit(out, "scenario.hi", std::to_string(s.algorithm.scenario.round_hi));
  emit(out, "scenario.budget", std::to_string(s.algorithm.scenario.budget));
  emit(out, "scenario.shards", std::to_string(s.algorithm.scenario.shards));
  emit(out, "scenario.revive_delay", render_double(s.algorithm.scenario.revive_delay_mean));
  emit(out, "scenario.seed", std::to_string(s.algorithm.scenario.seed));
  emit(out, "trials", std::to_string(s.trials));
  emit(out, "base_seed", std::to_string(s.base_seed));
  emit(out, "checkpoint_interval", std::to_string(s.checkpoint_interval));
}

void emit_execution_fields(std::ostringstream& out, const SweepSpec& s) {
  if (s.journal_path.find_first_of(" \t\r\n") != std::string::npos) {
    fail("journal: path contains whitespace and has no line form: '" + s.journal_path + "'");
  }
  emit(out, "threads", std::to_string(s.threads));
  emit(out, "shards", std::to_string(s.algorithm.shards));
  emit(out, "shard_local", s.algorithm.sim.shard_local_adjacency ? "1" : "0");
  emit(out, "journal", s.journal_path);
  emit(out, "resume", s.resume ? "1" : "0");
  emit(out, "budget", render_double(s.budget_seconds));
  emit(out, "trial_timeout", render_double(s.trial_timeout_seconds));
  emit(out, "isolate_faults", s.isolate_faults ? "1" : "0");
  emit(out, "max_retries", std::to_string(s.max_retries));
}

}  // namespace

const std::string& sweep_spec_version() {
  static const std::string version(kVersion);
  return version;
}

std::string format_sweep_request(const SweepSpec& spec) {
  std::ostringstream out;
  out << kMagic << ' ' << kVersion;
  emit_request_fields(out, spec);
  return out.str();
}

std::string format_sweep_spec(const SweepSpec& spec) {
  std::ostringstream out;
  out << format_sweep_request(spec);
  emit_execution_fields(out, spec);
  return out.str();
}

SweepSpec parse_sweep_spec(const std::string& text) {
  // Tokenize on runs of spaces/tabs (a trailing newline from a socket
  // line reader is tolerated; interior newlines are not a line).
  std::string_view view(text);
  while (!view.empty() && (view.back() == '\n' || view.back() == '\r')) view.remove_suffix(1);
  std::vector<std::string_view> tokens;
  std::size_t i = 0;
  while (i < view.size()) {
    while (i < view.size() && (view[i] == ' ' || view[i] == '\t')) ++i;
    const std::size_t start = i;
    while (i < view.size() && view[i] != ' ' && view[i] != '\t') ++i;
    if (i > start) tokens.push_back(view.substr(start, i - start));
  }
  if (tokens.size() < 2 || tokens[0] != kMagic) {
    fail("expected a line starting with '" + std::string(kMagic) + " " + std::string(kVersion) +
         "'");
  }
  if (tokens[1] != kVersion) {
    fail("unsupported schema version '" + std::string(tokens[1]) + "' (this build speaks " +
         std::string(kVersion) + ")");
  }

  SweepSpec spec;
  std::vector<std::string> seen;
  for (std::size_t t = 2; t < tokens.size(); ++t) {
    const std::string_view token = tokens[t];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) {
      fail("expected key=value, got '" + std::string(token) + "'");
    }
    const std::string key(token.substr(0, eq));
    const std::string_view value = token.substr(eq + 1);
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) {
      fail("duplicate key '" + key + "'");
    }
    seen.push_back(key);

    constexpr std::uint64_t kU32Max = std::numeric_limits<std::uint32_t>::max();
    // --- request-identity keys (the fingerprint prefix) ---
    if (key == "graph") {
      spec.graph.family = parse_name_value(key, value, graph_families(), "graph family");
    } else if (key == "graph.file") {
      spec.graph.path = std::string(value);
    } else if (key == "graph.n") {
      spec.graph.n = static_cast<graph::NodeId>(parse_u64_value(key, value, 1, kU32Max));
    } else if (key == "graph.p") {
      spec.graph.p = parse_double_value(key, value, 0.0, 1.0);
    } else if (key == "graph.rows") {
      spec.graph.rows = static_cast<graph::NodeId>(parse_u64_value(key, value, 1, kU32Max));
    } else if (key == "graph.cols") {
      spec.graph.cols = static_cast<graph::NodeId>(parse_u64_value(key, value, 1, kU32Max));
    } else if (key == "graph.k") {
      spec.graph.k = static_cast<graph::NodeId>(parse_u64_value(key, value, 1, kU32Max));
    } else if (key == "graph.seed") {
      spec.graph.seed = parse_u64_value(key, value);
    } else if (key == "algorithm") {
      spec.algorithm.name = parse_name_value(key, value, algorithm_names(), "algorithm");
    } else if (key == "algorithm.factor") {
      spec.algorithm.factor =
          parse_double_value(key, value, std::nextafter(1.0, 2.0), 1e9);
    } else if (key == "algorithm.initial_p") {
      spec.algorithm.initial_p =
          parse_double_value(key, value, std::numeric_limits<double>::min(), 1.0);
    } else if (key == "sim.loss") {
      spec.algorithm.sim.beep_loss_probability = parse_double_value(key, value, 0.0, 1.0);
    } else if (key == "sim.keepalive") {
      spec.algorithm.sim.mis_keepalive = parse_bool_value(key, value);
    } else if (key == "sim.max_rounds") {
      spec.algorithm.sim.max_rounds = parse_u64_value(key, value, 1);
    } else if (key == "sim.run_until") {
      spec.algorithm.sim.run_until_round = parse_u64_value(key, value);
    } else if (key == "sim.track_recovery") {
      spec.algorithm.sim.track_recovery = parse_bool_value(key, value);
    } else if (key == "scenario") {
      spec.algorithm.scenario.name =
          parse_name_value(key, value, scenario_names(), "fault scenario");
    } else if (key == "scenario.rate") {
      spec.algorithm.scenario.rate = parse_double_value(key, value, 0.0, 1e9);
    } else if (key == "scenario.lo") {
      spec.algorithm.scenario.round_lo =
          static_cast<std::uint32_t>(parse_u64_value(key, value, 0, kU32Max));
    } else if (key == "scenario.hi") {
      spec.algorithm.scenario.round_hi =
          static_cast<std::uint32_t>(parse_u64_value(key, value, 0, kU32Max));
    } else if (key == "scenario.budget") {
      spec.algorithm.scenario.budget = parse_u64_value(key, value);
    } else if (key == "scenario.shards") {
      spec.algorithm.scenario.shards = static_cast<std::uint32_t>(
          parse_u64_value(key, value, 1, sim::ShardedSimulator::kMaxShards));
    } else if (key == "scenario.revive_delay") {
      spec.algorithm.scenario.revive_delay_mean = parse_double_value(key, value, 0.0, kMaxDuration);
    } else if (key == "scenario.seed") {
      spec.algorithm.scenario.seed = parse_u64_value(key, value);
    } else if (key == "trials") {
      spec.trials = parse_u64_value(key, value, 1);
    } else if (key == "base_seed") {
      spec.base_seed = parse_u64_value(key, value);
    } else if (key == "checkpoint_interval") {
      spec.checkpoint_interval = parse_u64_value(key, value, 1);
      // --- execution keys (never change the numbers; not fingerprinted) ---
    } else if (key == "threads") {
      spec.threads = static_cast<unsigned>(parse_u64_value(key, value, 0, kU32Max));
    } else if (key == "shards") {
      spec.algorithm.shards = static_cast<unsigned>(
          parse_u64_value(key, value, 1, sim::ShardedSimulator::kMaxShards));
    } else if (key == "shard_local") {
      spec.algorithm.sim.shard_local_adjacency = parse_bool_value(key, value);
    } else if (key == "journal") {
      spec.journal_path = std::string(value);
    } else if (key == "resume") {
      spec.resume = parse_bool_value(key, value);
    } else if (key == "budget") {
      spec.budget_seconds = parse_double_value(key, value, 0.0, kMaxDuration);
    } else if (key == "trial_timeout") {
      spec.trial_timeout_seconds = parse_double_value(key, value, 0.0, kMaxDuration);
    } else if (key == "isolate_faults") {
      spec.isolate_faults = parse_bool_value(key, value);
    } else if (key == "max_retries") {
      spec.max_retries = static_cast<unsigned>(parse_u64_value(key, value, 0, 1000));
    } else {
      fail("unknown key '" + key + "'");
    }
  }
  return spec;
}

}  // namespace beepmis::cli
