// FASTBC (Gasieniec, Peleg, Xin [22]; paper Section 3.4.2).
//
// Known-topology, diameter-linear single-message broadcast.  A GBST is
// agreed upon in advance.  Rounds alternate:
//   * slow rounds (odd): a standard Decay step over all informed nodes,
//     pushing the message across non-fast edges;
//   * fast rounds (even, index t): informed *fast* nodes at level l and
//     rank r broadcast iff t = l - 6r (mod 6 * rank_modulus); the GBST
//     property makes these waves collision-free, so a message entering a
//     fast stretch rides to its tail in D_i + O(log n) rounds.  The
//     constructor evaluates this rule once into a WaveSchedule
//     (core/wave_schedule.hpp) that every stepper reads.
//
// In the faultless model this gives D + O(log^2 n) (Lemma 8).  Under
// constant-probability faults the wave loses its payload with probability
// p per hop and must wait ~6*rank_modulus = Theta(log n) fast rounds for
// the next wave, which is exactly the Theta(p/(1-p) D log n + D/(1-p))
// degradation of Lemma 10 -- reproduced by bench_e4.
#pragma once

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

class Fastbc {
 public:
  /// Runs over `tree`, a GBST of `g` agreed upon in advance
  /// (known-topology assumption) and shared read-only; the tree's root is
  /// the broadcast source.  The graph must outlive the algorithm object.
  Fastbc(const graph::Graph& g,
         std::shared_ptr<const trees::RankedBfsTree> tree,
         FastbcParams params = {});

  /// Builds the GBST for (g, source) up front.
  Fastbc(const graph::Graph& g, radio::NodeId source, FastbcParams params = {});

  const trees::RankedBfsTree& tree() const { return *tree_; }
  std::int32_t rank_modulus() const { return rank_modulus_; }
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
  const graph::Graph* graph_;
  FastbcParams params_;
  std::shared_ptr<const trees::RankedBfsTree> tree_;
  std::int32_t rank_modulus_;
  std::int32_t decay_phase_;
  WaveSchedule schedule_;
};

}  // namespace nrn::core
