// FASTBC (Gasieniec, Peleg, Xin [22]; paper Section 3.4.2) and Robust
// FASTBC (paper Section 4.1, Theorem 11): one algorithm, two fast-round
// schedules.
//
// Known-topology, diameter-linear single-message broadcast.  A GBST is
// agreed upon in advance.  Rounds alternate:
//   * slow rounds (odd): a standard Decay step over all informed nodes,
//     pushing the message across non-fast edges;
//   * fast rounds (even, index t): the informed *fast* nodes of the
//     schedule's slot for t broadcast.  The constructor evaluates the
//     schedule once into a WaveSchedule (core/wave_schedule.hpp) that
//     every stepper reads.
//
// FASTBC's schedule: a fast node at level l and rank r fires iff
// t = l - 6r (mod 6 * rank_modulus); the GBST property makes these waves
// collision-free, so a message entering a fast stretch rides to its tail
// in D_i + O(log n) rounds.  In the faultless model this gives
// D + O(log^2 n) (Lemma 8).  Under constant-probability faults the wave
// loses its payload with probability p per hop and must wait
// ~6*rank_modulus = Theta(log n) fast rounds for the next wave, which is
// exactly the Theta(p/(1-p) D log n + D/(1-p)) degradation of Lemma 10 --
// reproduced by bench_e4.
//
// Robust FASTBC's band schedule (Fastbc::robust) repairs the fragile wave
// by retrying at the hop scale: fast stretches are partitioned into blocks
// of S = Theta(log log n) levels; an active block broadcasts for a window
// of c*S fast rounds, with nodes staggered mod 3 by level so a dropped hop
// retries 3 fast rounds later instead of waiting for a whole new wave.
// The active band of blocks advances like the original wave (one block
// per window, rank-displaced by 6 blocks):
//     fire  iff  floor(l/S) - 6r + 6 = floor(t/(cS))  (mod 6*rank_modulus)
//           and  l = t  (mod 3).
// A message that stays "active" crosses each block within its window
// except with probability 1/polylog n, and the additive overhead collapses
// from Theta(D log n) (Lemma 10) to o(D) + polylog (Theorem 11).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "core/run_result.hpp"
#include "core/stepper.hpp"
#include "core/wave_schedule.hpp"
#include "radio/network.hpp"
#include "radio/trace.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

struct FastbcParams {
  /// Modulus for the fast-round schedule; 0 selects ceil(log2 n) (the
  /// Lemma 7 bound -- the schedule must not depend on the realized ranks).
  std::int32_t rank_modulus = 0;
  /// Decay phase length for slow rounds; 0 selects ceil(log2 n) + 1.
  std::int32_t decay_phase = 0;
  /// Round budget; 0 selects a generous multiple of the Lemma 10 bound.
  std::int64_t max_rounds = 0;
};

struct RobustFastbcParams {
  /// Block size S; 0 selects max(2, 2 * ceil(log2 log2 n)).
  std::int32_t block_size = 0;
  /// Window multiplier c (window = c * S fast rounds); 0 selects 8, which
  /// keeps the per-block failure probability at 1/polylog n for p <= 1/2.
  std::int32_t window_multiplier = 0;
  /// Modulus for the band schedule; 0 selects ceil(log2 n).
  std::int32_t rank_modulus = 0;
  /// Decay phase length for slow rounds; 0 selects ceil(log2 n) + 1.
  std::int32_t decay_phase = 0;
  /// Round budget; 0 selects a generous multiple of the Theorem 11 bound.
  std::int64_t max_rounds = 0;
};

class Fastbc {
 public:
  /// FASTBC over `tree`, a GBST of `g` agreed upon in advance
  /// (known-topology assumption) and shared read-only; the tree's root is
  /// the broadcast source.  The graph must outlive the algorithm object.
  Fastbc(const graph::Graph& g,
         std::shared_ptr<const trees::RankedBfsTree> tree,
         FastbcParams params = {});

  /// Builds the GBST for (g, source) up front.
  Fastbc(const graph::Graph& g, radio::NodeId source, FastbcParams params = {});

  /// Robust FASTBC: the same algorithm over the band schedule.
  static Fastbc robust(const graph::Graph& g,
                       std::shared_ptr<const trees::RankedBfsTree> tree,
                       RobustFastbcParams params = {});

  /// Builds the GBST for (g, source) up front.
  static Fastbc robust(const graph::Graph& g, radio::NodeId source,
                       RobustFastbcParams params = {});

  /// The paper's "sufficiently large constant" c depends on the fault
  /// rate: a hop retries every 3 fast rounds, so crossing a block costs
  /// (1 + 3p/(1-p)) fast rounds per level in expectation; 30% slack on
  /// top keeps the per-block failure probability at 1/polylog for the
  /// default block size.
  static std::int32_t recommended_window_multiplier(double p) {
    NRN_EXPECTS(p >= 0.0 && p < 1.0, "fault probability out of range");
    const double mean_hop = 1.0 + 3.0 * p / (1.0 - p);
    return std::max<std::int32_t>(
        4, static_cast<std::int32_t>(1.3 * mean_hop) + 1);
  }

  const trees::RankedBfsTree& tree() const { return *tree_; }
  std::int32_t rank_modulus() const { return rank_modulus_; }
  /// Robust FASTBC's block size S; 0 for FASTBC.
  std::int32_t block_size() const { return block_size_; }
  /// Robust FASTBC's window multiplier c; 0 for FASTBC.
  std::int32_t window_multiplier() const { return window_multiplier_; }
  /// The fast-round schedule, built by the constructor.
  const WaveSchedule& schedule() const { return schedule_; }

  /// Runs the alternating schedule until everyone is informed or the
  /// budget is exhausted.  Implemented as run_stepped over make_stepper.
  BroadcastRunResult run(radio::RadioNetwork& net, Rng& rng,
                         radio::TraceRecorder* trace = nullptr) const;

  /// The schedule as a RoundStepper; `effective_loss` feeds the default
  /// budget exactly as run() derives it from the network's fault model.
  /// The algorithm object (it holds the GBST) must outlive the stepper.
  std::unique_ptr<RoundStepper> make_stepper(
      double effective_loss, radio::TraceRecorder* trace = nullptr) const;

 private:
  /// Both algorithms: resolves the rank modulus and the decay phase,
  /// checks the max rank, and builds the band schedule of (S, c) -- or
  /// FASTBC's schedule when block_size is 0.
  Fastbc(const graph::Graph& g,
         std::shared_ptr<const trees::RankedBfsTree> tree,
         FastbcParams params, std::int32_t block_size,
         std::int32_t window_multiplier);

  const graph::Graph* graph_;
  FastbcParams params_;
  std::shared_ptr<const trees::RankedBfsTree> tree_;
  std::int32_t rank_modulus_;
  std::int32_t decay_phase_;
  std::int32_t block_size_;
  std::int32_t window_multiplier_;
  WaveSchedule schedule_;
};

}  // namespace nrn::core
