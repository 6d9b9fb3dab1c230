// Fast-round schedules of the GBST wave protocols (paper Section 3.4.2,
// Theorem 11 and Lemma 13).
//
// Which fast node fires in which fast round is fixed by the GBST alone.  A
// fast node u at level l and rank r fires in fast round t (the round 2t)
//   * of FASTBC iff         t = l - 6r  (mod 6 * rank_modulus);
//   * of Robust FASTBC, and of the RLNC Lemma 13 pattern, iff
//         floor(l/S) - 6r + 6 = floor(t/(cS))  (mod 6 * rank_modulus)
//     and l = t (mod 3), for blocks of S levels and bands of cS fast rounds.
//     The +6 aligns rank-1 block 0 with band 0, so the wave starts at the
//     source immediately instead of after a full band cycle (a
//     constant-factor cold-start optimization; asymptotics unchanged).
//
// A WaveSchedule evaluates that rule once, when the protocol object is
// built: it groups the fast nodes by slot -- the class of fast rounds in
// which they fire -- as a CSR list, ascending id within a slot, shared
// read-only by every trial and lockstep lane.  A fast round then reads
// one slot: O(slot) work with no division per node.  FASTBC and Robust
// FASTBC differ only in their schedules, so one stepper
// (make_wave_stepper) runs both.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/stepper.hpp"
#include "radio/trace.hpp"
#include "trees/ranked_bfs.hpp"

namespace nrn::core {

/// ceil(log2 n), at least 1: the default rank modulus (Lemma 7's bound on
/// the realized max rank; the schedule must not depend on the realized
/// ranks).
std::int32_t default_rank_modulus(std::int32_t node_count);

/// max(2, 2 * ceil(log2 log2 n)): Robust FASTBC's default block size S.
std::int32_t default_block_size(std::int32_t node_count);

class WaveSchedule {
 public:
  /// The empty schedule: no node ever fires.
  WaveSchedule() = default;

  /// FASTBC: 6 * rank_modulus slots, fast round t reads slot t mod period.
  static WaveSchedule fastbc(const trees::RankedBfsTree& tree,
                             std::int32_t rank_modulus);

  /// Robust FASTBC and the Lemma 13 pattern: one slot per (band mod
  /// period, level mod 3) pair, so 3 * 6 * rank_modulus slots.
  static WaveSchedule robust(const trees::RankedBfsTree& tree,
                             std::int32_t rank_modulus,
                             std::int32_t block_size,
                             std::int32_t window_multiplier);

  /// The fast nodes that fire in fast round t >= 0, ascending id.
  std::span<const trees::NodeId> fast_round(std::int64_t t) const {
    const std::int64_t slot =
        window_ == 0 ? t % period_ : (t / window_ % period_) * 3 + t % 3;
    const auto s = static_cast<std::size_t>(slot);
    return std::span<const trees::NodeId>(nodes_).subspan(
        static_cast<std::size_t>(offsets_[s]),
        static_cast<std::size_t>(offsets_[s + 1] - offsets_[s]));
  }

 private:
  WaveSchedule(std::int64_t period, std::int64_t window)
      : period_(period), window_(window) {}

  /// Fills the CSR lists: every fast node of `tree` goes to slot
  /// slot_of(u) in [0, slot_count).
  template <typename SlotOf>
  void bucket(const trees::RankedBfsTree& tree, std::int64_t slot_count,
              SlotOf slot_of);

  std::int64_t period_ = 1;  ///< 6 * rank_modulus
  std::int64_t window_ = 0;  ///< fast rounds per band (cS); 0 for FASTBC
  /// CSR row starts: slot s is nodes_[offsets_[s], offsets_[s + 1]).
  std::vector<std::int32_t> offsets_{0, 0};
  std::vector<trees::NodeId> nodes_;
};

/// One trial of FASTBC or Robust FASTBC: odd rounds 2t+1 a Decay step over
/// the informed nodes (Bernoulli(2^-(t mod decay_phase)) selection fused
/// into staging), even rounds 2t the informed nodes of
/// schedule.fast_round(t), bulk-staged.  `schedule` must outlive the
/// stepper.
std::unique_ptr<RoundStepper> make_wave_stepper(const WaveSchedule& schedule,
                                                std::int32_t node_count,
                                                trees::NodeId source,
                                                std::int32_t decay_phase,
                                                std::int64_t budget,
                                                radio::TraceRecorder* trace);

}  // namespace nrn::core
