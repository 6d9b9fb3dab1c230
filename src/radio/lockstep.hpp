// Lockstep multi-trial execution: up to kMaxLanes independent trials of one
// scenario (same graph, same channel, per-trial seeds) advanced round by
// round together, sharing a single adjacency pass per round.
//
// Why this is possible: the v4 coin tape (see radio/network.hpp) is fully
// counter-based -- per active round each trial draws exactly ONE u64 salt
// from its own fault stream, and every sender/receiver coin is a stateless
// mix of that salt with a node id.  So W trials touring the same graph need
// W salt draws plus one shared traversal, not W traversals: per listener
// the bank accumulates a W-bit "touched once" / "touched twice" mask pair,
// and a lane's deliveries fall out of three bitwise ops per node.
//
// Bit-identity: a lane's receivers, round stats, and fault-stream
// consumption are exactly those of a scalar RadioNetwork driven with the
// same seed and staging sequence -- the tape-equivalence suite in
// tests/test_lockstep.cpp asserts this per round, and the Driver's
// trial-identity suite asserts it end to end per protocol.
//
// Scope: the bank is receivers-only -- it stages bare senders through the
// same StagingPort surface as the scalar engine, but it keeps no staging
// positions and reports no senders, only each lane's receiver ids.  That
// suffices for the informed-set steppers (Decay and the FASTBC family
// broadcast one message and read receiver-id spans).  Protocols that read
// a delivery's sender or plan_index run scalar.
//
// Channel models: the bank arms its channel through the same
// radio::ChannelState as the scalar engine (radio/channel_state.hpp), so
// both derive identical coin thresholds and gain tables.  Under a kSinr
// channel (radio/channel_model.hpp) the lanes share the gain pass the way
// they share adjacency -- one touch pass over the union of broadcasters,
// then one ascending row walk per touched listener accumulating every
// listening lane's interference sum at once.  Per lane the additions run in
// ascending neighbor id, the exact order of the scalar engine's
// sinr_decode, so lane results stay bit-identical to scalar trials.  The
// channel is deterministic: no salts are drawn and the lanes' rng streams
// are never consumed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "radio/channel_model.hpp"
#include "radio/channel_state.hpp"
#include "radio/network.hpp"
#include "radio/staging.hpp"

namespace nrn::radio {

class LockstepNetwork {
 public:
  /// Lanes per bank, one bit per lane of a 32-bit mask.  A bank round costs
  /// one shared adjacency pass plus one O(n) listener scan whatever its
  /// width, so wider banks spread that cost over more trials, while each
  /// lane's stepper state (about 9n bytes) grows with it.  Over 96-trial
  /// edge and SINR cells at n = 512-2048 (the width table in CHANGES.md),
  /// 8 -> 32 lanes cut wall time by 37-40%; 64 lanes cut 8-21% more but
  /// raised sweep peak memory by 12-16% over 8 lanes, against 3% for 32.
  static constexpr int kMaxLanes = 32;
  using LaneMask = std::uint32_t;

  /// The graph must outlive the bank.  `channel` may be a bare FaultModel
  /// (the edge-fault channel).  A kSinr channel requires `geometry` (kept
  /// alive by the caller alongside the graph).
  LockstepNetwork(const graph::Graph& g, const ChannelModel& channel,
                  const graph::Geometry* geometry = nullptr);

  LockstepNetwork(graph::Graph&&, const ChannelModel&,
                  const graph::Geometry* = nullptr) = delete;

  /// Rearms the bank for a fresh batch of trials on the same graph: new
  /// channel, all lanes dropped, scratch kept (the SINR gain table too,
  /// while its parameters are unchanged).
  void reset(const ChannelModel& channel);

  const graph::Graph& graph() const { return *graph_; }
  const ChannelModel& channel() const { return channel_.model; }

  /// Adds a trial lane seeded with its own fault-coin stream; returns the
  /// lane index.  At most kMaxLanes lanes per reset.
  int add_lane(Rng rng);
  int lane_count() const { return lanes_; }

  /// Stages every node of `senders` to broadcast in `lane` this round.  A
  /// node may be staged at most once per lane per round.
  void stage_many(int lane, std::span<const NodeId> senders);

  /// Stages each candidate independently with probability 2^-i, consuming
  /// this trial's protocol stream exactly as the scalar engine's
  /// stage_bernoulli_pow2 does.
  void stage_bernoulli_pow2(int lane, std::span<const NodeId> candidates,
                            std::int32_t i, Rng& rng);

  /// StagingPort view of one lane, so a protocol RoundStepper stages into
  /// the bank exactly as it would into a scalar network.
  class LanePort final : public StagingPort {
   public:
    LanePort(LockstepNetwork& bank, int lane) : bank_(&bank), lane_(lane) {}

    void stage_many(std::span<const NodeId> senders) override {
      bank_->stage_many(lane_, senders);
    }

    void stage_bernoulli_pow2(std::span<const NodeId> candidates,
                              std::int32_t i, Rng& rng) override {
      bank_->stage_bernoulli_pow2(lane_, candidates, i, rng);
    }

   private:
    LockstepNetwork* bank_;
    int lane_;
  };

  LanePort port(int lane) {
    NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
    return LanePort(*this, lane);
  }

  /// Executes one synchronized round for every lane whose bit is set in
  /// `lanes` (bit l = lane l).  Lanes outside the mask must have staged
  /// nothing (a finished trial neither stages nor advances its clock).
  void run_round(LaneMask lanes);

  /// Last round's deliveries of one lane, ascending receiver ids.  Valid
  /// until the lane's next executed round.
  std::span<const NodeId> receivers(int lane) const {
    NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
    return receivers_[static_cast<std::size_t>(lane)];
  }

  /// Last executed round's stats of one lane (same fields, same counting
  /// rules as RadioNetwork::last_round).
  const RoundStats& last_round(int lane) const {
    NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
    return stats_[static_cast<std::size_t>(lane)];
  }

 private:
  /// Marks `u` as broadcasting in the lane whose mask bit is `bit` and
  /// counts it in that lane's `staged` tally, enforcing the range and
  /// staged-once contracts.  Inline: both staging loops run it per node.
  void mark_broadcaster(LaneMask bit, std::int64_t& staged, NodeId u) {
    NRN_EXPECTS(u >= 0 && u < graph_->node_count(),
                "broadcaster out of range");
    auto& mask = bcast_mask_[static_cast<std::size_t>(u)];
    NRN_EXPECTS((mask & bit) == 0,
                "node staged to broadcast twice in one round");
    if (mask == 0) union_.push_back(u);
    mask |= bit;
    ++staged;
  }

  /// Applies the lane's batched sender/receiver fault coins to its
  /// delivery candidates (receivers_[lane] on entry), compacting the
  /// survivors in place.
  void resolve_lane(int lane);

  /// The kSinr round body: shared touch pass plus one ascending row walk
  /// per touched listener resolving all lanes at once.  Fills receivers_
  /// directly (no coin resolve follows).
  void run_round_sinr();

  const graph::Graph* graph_;
  const graph::Geometry* geometry_;
  ChannelState channel_;

  int lanes_ = 0;
  std::array<Rng, kMaxLanes> rng_;
  std::array<std::uint64_t, kMaxLanes> sender_salt_{};
  std::array<std::uint64_t, kMaxLanes> receiver_salt_{};
  std::array<std::int64_t, kMaxLanes> staged_{};  // senders staged this round
  // A lane's unique listeners, ascending: delivery candidates during the
  // round, post-coin deliveries after it.
  std::array<std::vector<NodeId>, kMaxLanes> receivers_;
  std::array<std::vector<NodeId>, kMaxLanes> cand_send_;  // their sole sender
  std::array<RoundStats, kMaxLanes> stats_{};

  // Shared per-node round scratch: which lanes this node broadcasts in,
  // and the once/twice touch masks of the shared adjacency pass.  once_ and
  // twice_ are cleared for free during the delivery scan; bcast_mask_ via
  // the union list.
  std::vector<LaneMask> bcast_mask_;
  std::vector<LaneMask> once_;
  std::vector<LaneMask> twice_;
  // sole_sender_[v * kMaxLanes + l]: the sender behind lane l's first touch
  // of listener v this round (only read where the delivery mask has bit l).
  // It exists to key the sender fault coin, so it is allocated and
  // maintained only once a channel with sender coins is armed.
  std::vector<NodeId> sole_sender_;
  std::vector<NodeId> union_;  // nodes staged in >= 1 lane, staging order
  // Full-width batched coin mixes of one lane's candidates (resolve_lane).
  std::vector<std::uint64_t> send_mix_;
  std::vector<std::uint64_t> recv_mix_;
};

}  // namespace nrn::radio
