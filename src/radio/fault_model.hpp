// Fault models of the noisy radio network (paper Section 3.1).
//
// Exactly one of three regimes applies to a simulation:
//   * Faultless  -- the classic Chlamtac-Kutten model.
//   * Sender     -- each broadcasting node transmits noise with probability
//                   p each round, independently across senders and rounds.
//                   A noisy transmission still occupies the channel (it
//                   collides like any other broadcast) but delivers noise to
//                   every would-be receiver of that sender.
//   * Receiver   -- each listening node with exactly one broadcasting
//                   neighbor receives noise with probability p,
//                   independently across receivers and rounds.
//
// In all regimes noise is indistinguishable from silence or collision at
// the receiving node: the simulator reports only successful packet
// deliveries, never noise-as-packet.
#pragma once

#include <string>

#include "common/contracts.hpp"
#include "common/numio.hpp"

namespace nrn::radio {

enum class FaultKind {
  kFaultless,
  kSender,
  kReceiver,
  /// Both fault types at once -- the setting of the paper's open problem
  /// (Section 4.2: an algorithm "robust to sender AND receiver faults"
  /// broadcasting k messages in O(D + k log n + polylog)).  Not part of
  /// the paper's model definitions; provided as an extension.
  kCombined,
};

/// The single validation gate every fault (and channel) probability goes
/// through: rejects anything outside [0, 1) with a message naming the
/// parameter.  One helper instead of a guard per factory, so the contract
/// text cannot drift between them again.
inline double checked_probability(double p, const char* what) {
  NRN_EXPECTS(p >= 0.0 && p < 1.0,
              std::string(what) + " must be in [0, 1)");
  return p;
}

struct FaultModel {
  FaultKind kind = FaultKind::kFaultless;
  double p = 0.0;         ///< sender-side probability (kSender/kCombined)
  double p_receiver = 0.0;  ///< receiver-side probability (kCombined only)

  static FaultModel faultless() { return {FaultKind::kFaultless, 0.0, 0.0}; }

  static FaultModel sender(double p) {
    return {FaultKind::kSender,
            checked_probability(p, "sender fault probability"), 0.0};
  }

  static FaultModel receiver(double p) {
    // Stored in `p`; the engine branches on `kind`.
    return {FaultKind::kReceiver,
            checked_probability(p, "receiver fault probability"), 0.0};
  }

  /// Independent sender coin (probability ps, shared by all receivers of a
  /// sender) plus an independent receiver coin (probability pr).
  static FaultModel combined(double ps, double pr) {
    return {FaultKind::kCombined,
            checked_probability(ps, "sender fault probability"),
            checked_probability(pr, "receiver fault probability")};
  }

  bool is_faultless() const {
    switch (kind) {
      case FaultKind::kFaultless:
        return true;
      case FaultKind::kCombined:
        return p == 0.0 && p_receiver == 0.0;
      default:
        return p == 0.0;
    }
  }

  friend bool operator==(const FaultModel&, const FaultModel&) = default;

  /// Probability that a single uncontested transmission is lost end to
  /// end; the budget formulas of the algorithms use this.
  double effective_loss() const {
    switch (kind) {
      case FaultKind::kFaultless:
        return 0.0;
      case FaultKind::kCombined:
        return 1.0 - (1.0 - p) * (1.0 - p_receiver);
      default:
        return p;
    }
  }
};

/// Sender-side coin probability the engines price (0 when the regime has no
/// sender coin); radio::ChannelState arms both engines' coins from it.
inline double sender_fault_probability(const FaultModel& fm) {
  return (fm.kind == FaultKind::kSender || fm.kind == FaultKind::kCombined)
             ? fm.p
             : 0.0;
}

/// Receiver-side coin probability (0 when the regime has no receiver coin).
inline double receiver_fault_probability(const FaultModel& fm) {
  switch (fm.kind) {
    case FaultKind::kReceiver:
      return fm.p;
    case FaultKind::kCombined:
      return fm.p_receiver;
    default:
      return 0.0;
  }
}

/// "receiver-faults(p=0.300000)": six fixed decimals, written the same
/// under every process locale (common/numio).
inline std::string to_string(const FaultModel& fm) {
  switch (fm.kind) {
    case FaultKind::kFaultless:
      return "faultless";
    case FaultKind::kSender:
      return "sender-faults(p=" + format_real_fixed(fm.p, 6) + ")";
    case FaultKind::kReceiver:
      return "receiver-faults(p=" + format_real_fixed(fm.p, 6) + ")";
    case FaultKind::kCombined:
      return "combined-faults(ps=" + format_real_fixed(fm.p, 6) +
             ", pr=" + format_real_fixed(fm.p_receiver, 6) + ")";
  }
  return "unknown";
}

}  // namespace nrn::radio
