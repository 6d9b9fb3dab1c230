// The pluggable channel layer above the topology.
//
// A ChannelModel decides which staged broadcasts become deliveries each
// round.  Two instances exist:
//   * kEdgeFault -- the paper's model (Section 3.1): the classic
//     collision rule plus independent per-round sender/receiver fault
//     coins, parameterized by a FaultModel.  This is the tape-v4 fast
//     path; its semantics and coin tape are bit-identical to when the
//     engine took a bare FaultModel.
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
  /// Edge-fault parameterization; faultless under kSinr so protocol
  /// budget formulas (FaultModel::effective_loss) see zero edge loss.
  FaultModel fault;
  SinrParams sinr;

  static ChannelModel edge_fault(FaultModel fault_model) {
    ChannelModel c;
    c.kind = ChannelKind::kEdgeFault;
    c.fault = fault_model;
    return c;
  }

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
