// Round steppers: a broadcast protocol's per-round logic (stage, then
// absorb the deliveries) factored out of its run() loop, so the identical
// implementation drives both execution engines:
//
//   * scalar  -- run_stepped() loops one stepper against one RadioNetwork;
//     Decay::run, Fastbc::run (FASTBC and Robust FASTBC) and the default
//     sim::BroadcastProtocol::run are thin wrappers over this, so the
//     stepper IS the protocol, not a parallel reimplementation;
//   * lockstep -- the Driver splits a cell's trials into banks of at most
//     LockstepNetwork::kMaxLanes (32) consecutive trials, at least one bank
//     per trial thread, steps each trial's stepper once per bank round, and
//     executes all lanes' rounds in a single shared adjacency pass.
//
// Because both engines run the same stepper against the same per-trial
// seeds and the v4 coin tape is counter-based (one salt draw per active
// round per lane), lockstep trial outcomes are bit-identical to sequential
// scalar trials -- asserted protocol-by-protocol in tests/test_lockstep.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "core/run_result.hpp"
#include "radio/staging.hpp"
#include "radio/trace.hpp"

namespace nrn::core {

/// One trial's round-by-round protocol logic.  The engine drives the cycle
///   while (stage_round(port, rng)) { <execute round>; if (absorb_round(...)) break; }
/// and then reads result().  stage_round returns false -- staging nothing
/// and drawing no coins -- when the round budget is exhausted (or the run
/// was complete before the first round, e.g. n == 1); absorb_round returns
/// true when the broadcast completed this round.
class RoundStepper {
 public:
  virtual ~RoundStepper() = default;

  virtual bool stage_round(radio::StagingPort& port, Rng& rng) = 0;

  virtual bool absorb_round(std::span<const radio::NodeId> receivers,
                            const radio::RoundStats& stats) = 0;

  virtual BroadcastRunResult result() const = 0;
};

/// Shared state of the informed-set protocols (Decay, FASTBC, Robust
/// FASTBC): the informed flags and list, the executed-round counter, the
/// completion flag, and the per-round trace record.  Subclasses implement
/// stage_round and read informed_list_ / round_ for their schedules.
class InformedSetStepper : public RoundStepper {
 public:
  InformedSetStepper(std::int32_t node_count, radio::NodeId source,
                     std::int64_t budget, radio::TraceRecorder* trace)
      : n_(node_count), budget_(budget), trace_(trace) {
    NRN_EXPECTS(source >= 0 && source < n_, "source out of range");
    informed_.assign(static_cast<std::size_t>(n_), 0);
    informed_list_.reserve(static_cast<std::size_t>(n_));
    informed_list_.push_back(source);
    informed_[static_cast<std::size_t>(source)] = 1;
    completed_ = n_ == 1;
  }

  bool absorb_round(std::span<const radio::NodeId> receivers,
                    const radio::RoundStats& stats) override {
    for (const radio::NodeId v : receivers) {
      auto& flag = informed_[static_cast<std::size_t>(v)];
      if (!flag) {
        flag = 1;
        informed_list_.push_back(v);
      }
    }
    if (trace_ != nullptr)
      trace_->record(stats, static_cast<double>(informed_list_.size()));
    ++round_;
    if (static_cast<std::int32_t>(informed_list_.size()) == n_)
      completed_ = true;
    return completed_;
  }

  BroadcastRunResult result() const override {
    BroadcastRunResult r;
    r.completed = completed_;
    r.rounds = round_;
    r.informed = static_cast<std::int64_t>(informed_list_.size());
    return r;
  }

 protected:
  /// True while another round may run; stage_round implementations gate on
  /// this before staging.
  bool another_round() const { return !completed_ && round_ < budget_; }

  std::int32_t n_;
  std::int64_t budget_;
  std::int64_t round_ = 0;  ///< rounds executed so far; the next round index
  bool completed_ = false;
  std::vector<char> informed_;
  std::vector<radio::NodeId> informed_list_;
  radio::TraceRecorder* trace_;
};

/// The scalar engine loop: steps `stepper` against `net` until the budget
/// runs out or the broadcast completes, and returns the stepper's result.
BroadcastRunResult run_stepped(RoundStepper& stepper, radio::RadioNetwork& net,
                               Rng& rng);

}  // namespace nrn::core
