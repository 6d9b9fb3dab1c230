// Robust FASTBC (paper Section 4.1, Theorem 11) -- the paper's new
// diameter-linear single-message algorithm for the noisy model.
//
// FASTBC's fragile wave is repaired by retrying at the hop scale: fast
// stretches are partitioned into blocks of S = Theta(log log n) levels; an
// active block broadcasts for a window of c*S even rounds, with nodes
// staggered mod 3 by level so a dropped hop retries 3 even-rounds later
// instead of waiting for a whole new wave.  The active band of blocks
// advances like the original wave (one block per window, rank-displaced by
// 6 blocks), so a message that stays "active" crosses each block within
// its window except with probability 1/polylog n, and the additive
// overhead collapses from Theta(D log n) (Lemma 10) to o(D) + polylog.
//
// Schedule (even round t = 2t', fast node u at level l, rank r):
//     broadcast  iff  floor(l/S) - 6r = floor(t'/(cS))  (mod 6*rank_modulus)
//                and  l = t'  (mod 3)
// Odd rounds run a standard Decay step over all informed nodes, exactly as
// in FASTBC.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "core/run_result.hpp"
#include "core/stepper.hpp"
#include "radio/network.hpp"
#include "radio/trace.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

struct RobustFastbcParams {
  /// Block size S; 0 selects max(2, ceil(2 * log2(log2 n))).
  std::int32_t block_size = 0;
  /// Window multiplier c (window = c * S even rounds); 0 selects 8, which
  /// keeps the per-block failure probability at 1/polylog n for p <= 1/2.
  std::int32_t window_multiplier = 0;
  /// Modulus for the band schedule; 0 selects ceil(log2 n).
  std::int32_t rank_modulus = 0;
  /// Decay phase length for slow rounds; 0 selects ceil(log2 n) + 1.
  std::int32_t decay_phase = 0;
  /// Round budget; 0 selects a generous multiple of the Theorem 11 bound.
  std::int64_t max_rounds = 0;
};

class RobustFastbc {
 public:
  /// Runs over `tree`, a GBST of `g` agreed upon in advance and shared
  /// read-only; the tree's root is the broadcast source.  The graph must
  /// outlive the algorithm object.
  RobustFastbc(const graph::Graph& g,
               std::shared_ptr<const trees::RankedBfsTree> tree,
               RobustFastbcParams params = {});

  /// Builds the GBST for (g, source) up front.
  RobustFastbc(const graph::Graph& g, radio::NodeId source,
               RobustFastbcParams params = {});

  /// The paper's "sufficiently large constant" c depends on the fault
  /// rate: a hop retries every 3 even rounds, so crossing a block costs
  /// (1 + 3p/(1-p)) even rounds per level in expectation; 30% slack on
  /// top keeps the per-block failure probability at 1/polylog for the
  /// default block size.
  static std::int32_t recommended_window_multiplier(double p) {
    NRN_EXPECTS(p >= 0.0 && p < 1.0, "fault probability out of range");
    const double mean_hop = 1.0 + 3.0 * p / (1.0 - p);
    return std::max<std::int32_t>(
        4, static_cast<std::int32_t>(1.3 * mean_hop) + 1);
  }

  const trees::RankedBfsTree& tree() const { return *tree_; }
  std::int32_t block_size() const { return block_size_; }
  std::int32_t window_multiplier() const { return window_multiplier_; }
  std::int32_t rank_modulus() const { return rank_modulus_; }

  /// Implemented as run_stepped over make_stepper.
  BroadcastRunResult run(radio::RadioNetwork& net, Rng& rng,
                         radio::TraceRecorder* trace = nullptr) const;

  /// The schedule as a RoundStepper; `effective_loss` feeds the default
  /// budget exactly as run() derives it from the network's fault model.
  /// The algorithm object (it holds the GBST) must outlive the stepper.
  std::unique_ptr<RoundStepper> make_stepper(
      double effective_loss, radio::TraceRecorder* trace = nullptr) const;

 private:
  const graph::Graph* graph_;
  RobustFastbcParams params_;
  std::shared_ptr<const trees::RankedBfsTree> tree_;
  std::int32_t block_size_;
  std::int32_t window_multiplier_;
  std::int32_t rank_modulus_;
  std::int32_t decay_phase_;
};

}  // namespace nrn::core
