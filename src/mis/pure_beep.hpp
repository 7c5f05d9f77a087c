// Local-feedback MIS in the *pure* beeping model (no sender-side collision
// detection).
//
// Table 1 of the paper lets a signalling node notice that a neighbour is
// signalling in the same time step — natural for continuous Notch-Delta
// signalling, but beyond the weakest radio model, where a node cannot
// listen while it beeps.  This protocol ports the algorithm to that model
// with the standard randomised-slot emulation: every paper time step
// expands into `subslots` beep slots plus one announcement slot.  A
// signalling node beeps in each slot independently with probability 1/2
// and listens in the others; it detects a signalling neighbour iff some
// slot has the neighbour beeping while it listens.  Two adjacent
// signallers miss each other only when their slot patterns are identical
// — probability 2^-subslots per pair per step — so the protocol is correct
// w.h.p. but (unlike the sender-CD version) not with certainty.  The
// residual violation rate and the ~subslots/2-fold beep cost are checked
// in tests/test_pure_beep.cpp; the emulation converges to the Table 1
// behaviour as `subslots` grows.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/beep.hpp"

namespace beepmis::mis {

class PureBeepLocalFeedbackMis final : public sim::BeepProtocol {
 public:
  explicit PureBeepLocalFeedbackMis(unsigned subslots = 8, double factor = 2.0,
                                    double max_p = 0.5);

  [[nodiscard]] std::string_view name() const override { return "local-feedback-pure-beep"; }
  /// `subslots` randomised beep slots + 1 announcement slot.
  [[nodiscard]] unsigned exchanges_per_round() const override { return subslots_ + 1; }

  void reset(const graph::Graph& g, support::Xoshiro256StarStar& rng) override;
  void emit(sim::BeepContext& ctx) override;
  void react(sim::BeepContext& ctx) override;

  [[nodiscard]] unsigned subslots() const noexcept { return subslots_; }
  [[nodiscard]] double probability_of(graph::NodeId v) const { return p_.at(v); }

 private:
  unsigned subslots_;
  double factor_;
  double max_p_;
  std::vector<double> p_;
  std::vector<std::uint8_t> signalling_;  ///< chose to signal this time step
  std::vector<std::uint8_t> detected_;    ///< heard a neighbour while listening
};

}  // namespace beepmis::mis
