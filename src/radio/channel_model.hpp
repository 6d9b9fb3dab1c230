// The pluggable channel layer above the topology.
//
// A ChannelModel decides which staged broadcasts become deliveries each
// round; it is the one channel parameter of both engines and of a
// sim::Scenario.  Two instances exist:
//   * kEdgeFault -- the paper's model (Section 3.1): the classic
//     collision rule plus independent per-round sender/receiver fault
//     coins, parameterized by a FaultModel.  A FaultModel converts
//     implicitly into this channel, so a bare fault model is accepted
//     wherever a channel is wanted.  This is the tape-v4 fast path.
//   * kSinr -- an additive-gain interference model in the style of
//     ROOT-Sim's physical_layer.c (SNIPPETS.md section 1): transmitter u
//     reaches listener v with gain power_u / dist(u, v)^alpha; v decodes
//     its strongest broadcasting neighbor u iff
//         gain(u, v) >= beta * (noise_floor + interference - gain(u, v))
//     where interference sums the gains of ALL broadcasting neighbors of
//     v.  Requires a geometric topology (graph/geometry.hpp) so distances
//     exist.  The channel is deterministic: no coins are drawn, so under
//     kSinr the engine's coin tape is empty (contract point 5 degenerates
//     to every round).  Losses to interference are counted separately
//     from collision losses (RoundStats::interference_losses).
//
// The SINR rule keeps the engine's "at most one delivery per listener per
// round" invariant: only the strongest transmitter (lowest node id on a
// gain tie) is a decode candidate -- a capture model, not a multi-packet
// reception model.
//
// The engines arm a channel through radio::ChannelState
// (radio/channel_state.hpp), which derives its coin thresholds and SINR
// gain table in one place.
#pragma once

#include <string>

#include "common/contracts.hpp"
#include "common/numio.hpp"
#include "radio/fault_model.hpp"

namespace nrn::radio {

enum class ChannelKind {
  kEdgeFault,  ///< per-edge fault coins over the collision rule (paper)
  kSinr,       ///< additive-gain interference vs. noise floor + threshold
};

/// Parameters of the SINR reception rule.
struct SinrParams {
  double alpha = 2.0;        ///< path-loss exponent: gain = power / d^alpha
  double noise_floor = 0.0;  ///< ambient noise power N
  double beta = 1.0;         ///< decode threshold on signal / (N + I)

  friend bool operator==(const SinrParams&, const SinrParams&) = default;
};

struct ChannelModel {
  ChannelKind kind = ChannelKind::kEdgeFault;
  FaultModel fault;  ///< edge-fault parameters; engines price coins()
  SinrParams sinr;

  ChannelModel() = default;

  /// The edge-fault channel under `fault_model`.  Implicit on purpose: a
  /// FaultModel is the paper's whole channel.
  ChannelModel(FaultModel fault_model) : fault(fault_model) {}

  static ChannelModel sinr_channel(double alpha, double noise_floor,
                                   double beta) {
    NRN_EXPECTS(alpha > 0.0, "sinr alpha must be positive");
    NRN_EXPECTS(noise_floor >= 0.0, "sinr noise floor must be non-negative");
    NRN_EXPECTS(beta > 0.0, "sinr beta must be positive");
    ChannelModel c;
    c.kind = ChannelKind::kSinr;
    c.sinr = SinrParams{alpha, noise_floor, beta};
    return c;
  }

  bool is_edge_fault() const { return kind == ChannelKind::kEdgeFault; }

  /// The fault coins the engines price: `fault` under kEdgeFault,
  /// faultless under kSinr (a deterministic channel draws no coins).
  FaultModel coins() const {
    return is_edge_fault() ? fault : FaultModel::faultless();
  }

  /// Probability that a single uncontested transmission is lost to a
  /// fault coin (0 under kSinr); the protocols' round budgets read this.
  double effective_loss() const { return coins().effective_loss(); }

  friend bool operator==(const ChannelModel&, const ChannelModel&) = default;
};

/// Locale-independent, like to_string(FaultModel).
inline std::string to_string(const ChannelModel& channel) {
  if (channel.is_edge_fault()) return to_string(channel.fault);
  return "sinr(alpha=" + format_real_fixed(channel.sinr.alpha, 6) +
         ", noise=" + format_real_fixed(channel.sinr.noise_floor, 6) +
         ", beta=" + format_real_fixed(channel.sinr.beta, 6) + ")";
}

}  // namespace nrn::radio
