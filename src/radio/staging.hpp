// The staging port: the two-method round-staging surface a protocol
// stepper writes broadcasts through, so one stepper implementation drives
// either a scalar RadioNetwork (which is a StagingPort) or one lane of the
// lockstep multi-trial bank (radio/lockstep.hpp).  Whole informed sets go
// through stage_many / stage_bernoulli_pow2, never one call per node.
//
// A staged broadcast is its sender and nothing else, in both engines: who
// broadcasts decides who hears, and what a broadcast carries is protocol
// state.  A protocol that ships data keeps it itself, in an array filled
// in staging order (see Delivery::plan_index in radio/network.hpp).
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace nrn::radio {

using graph::NodeId;

/// Where one round's broadcasts are staged.  Implementations must preserve
/// the staging tape exactly: stage_bernoulli_pow2 consumes the same Rng
/// draws as Rng::for_each_bernoulli_pow2 over the candidate list, and
/// staging order is the call order.
class StagingPort {
 public:
  virtual ~StagingPort() = default;

  /// Stages every node of `senders`, in order.
  virtual void stage_many(std::span<const NodeId> senders) = 0;

  /// Stages the Bernoulli(2^-i) subset of `candidates`, in candidate order,
  /// with coins from `rng` (exactly the Rng::for_each_bernoulli_pow2 tape;
  /// i == 0 stages every candidate and draws nothing).
  virtual void stage_bernoulli_pow2(std::span<const NodeId> candidates,
                                    std::int32_t i, Rng& rng) = 0;
};

}  // namespace nrn::radio
