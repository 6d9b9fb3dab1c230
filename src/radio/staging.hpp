// Staging ports: the round-staging surface a protocol stepper writes
// broadcasts through, abstracted so one stepper implementation can drive
// either a scalar RadioNetwork or a single lane of the lockstep multi-trial
// bank (radio/lockstep.hpp).  The port contract mirrors the engine's bulk
// staging API: whole informed sets go through stage_many /
// stage_bernoulli_pow2, never one set_broadcast call per node.
//
// Ports carry no packet identity: the protocols that step -- Decay and the
// FASTBC family -- track a single message and read deliveries as
// receiver-id spans, so the scalar port stages packet 0 and the bank keeps
// no ids at all.
#pragma once

#include <cstdint>
#include <span>

#include "common/rng.hpp"
#include "radio/network.hpp"

namespace nrn::radio {

/// Where one round's broadcasts are staged.  Implementations must preserve
/// the staging tape exactly: stage_bernoulli_pow2 consumes the same Rng
/// draws as Rng::for_each_bernoulli_pow2 over the candidate list, and
/// staging order is the call order.
class StagingPort {
 public:
  virtual ~StagingPort() = default;

  /// Stages every node of `senders`, in order.
  virtual void stage_many(std::span<const NodeId> senders) = 0;

  /// Stages the Bernoulli(2^-i) subset of `candidates` (coins from `rng`,
  /// exactly the Rng::for_each_bernoulli_pow2 tape); returns the number
  /// staged.
  virtual std::size_t stage_bernoulli_pow2(std::span<const NodeId> candidates,
                                           std::int32_t i, Rng& rng) = 0;
};

/// StagingPort over a scalar RadioNetwork; every broadcast carries packet 0.
class NetworkStagingPort final : public StagingPort {
 public:
  explicit NetworkStagingPort(RadioNetwork& net) : net_(&net) {}

  void stage_many(std::span<const NodeId> senders) override {
    net_->stage_broadcasts(senders, PacketId{0});
  }

  std::size_t stage_bernoulli_pow2(std::span<const NodeId> candidates,
                                   std::int32_t i, Rng& rng) override {
    return net_->stage_broadcasts_bernoulli_pow2(candidates, i, PacketId{0},
                                                 rng);
  }

 private:
  RadioNetwork* net_;
};

}  // namespace nrn::radio
