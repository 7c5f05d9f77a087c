#include "sim/batch.hpp"

#include <bit>
#include <stdexcept>

namespace beepmis::sim {

// The out-of-line BatchContext react-phase mutators; the engine that wires
// the context lives in sim/sharded_batch.cpp.

void BatchContext::join_mis(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BatchContext::join_mis called outside the react phase");
  }
  if (v < lo_ || v >= hi_ || lanes == 0 || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::join_mis outside the node's live lanes or this shard's range");
  }
  (*live_)[v] &= ~lanes;
  (*inmis_)[v] |= lanes;
  // Per-lane join order, like the scalar core (wired only for kScalarOrder
  // lossy keep-alive, its one reader).
  if (mis_lists_ != nullptr) {
    for (LaneMask b = lanes; b != 0; b &= b - 1) {
      (*mis_lists_)[std::countr_zero(b)].push_back(v);
    }
  }
  if (mis_joins_ != nullptr) mis_joins_->push_back(v);
}

void BatchContext::deactivate(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BatchContext::deactivate called outside the react phase");
  }
  if (v < lo_ || v >= hi_ || lanes == 0 || (lanes & ~(*live_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::deactivate outside the node's live lanes or this shard's range");
  }
  (*live_)[v] &= ~lanes;
  (*dominated_)[v] |= lanes;
}

void BatchContext::reactivate(graph::NodeId v, LaneMask lanes) {
  if (phase_ != Phase::kReact) {
    throw std::logic_error("BatchContext::reactivate called outside the react phase");
  }
  if (v < lo_ || v >= hi_ || lanes == 0 || (lanes & ~(*dominated_)[v]) != 0) {
    throw std::logic_error(
        "BatchContext::reactivate outside the node's dominated lanes or this shard's "
        "range");
  }
  // A lane that left the round loop has frozen planes; reactivating into it
  // would corrupt the lane's already-final RunResult.
  if ((lanes & ~*running_) != 0) {
    throw std::logic_error("BatchContext::reactivate on a terminated lane");
  }
  (*dominated_)[v] &= ~lanes;
  (*live_)[v] |= lanes;
  for (LaneMask b = lanes; b != 0; b &= b - 1) ++reactivation_counts_[std::countr_zero(b)];
  reactivated_->push_back(v);
}

}  // namespace beepmis::sim
