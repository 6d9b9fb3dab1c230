// Multi-message broadcast via random linear network coding
// (paper Section 4.2, Lemmas 12 and 13).
//
// Single-message algorithms whose broadcast *pattern* does not depend on
// what a node has received compose black-box with RLNC: wherever the
// single-message algorithm would broadcast the message, the node instead
// broadcasts a uniformly random combination of the coded packets it has
// observed so far.  A node "has" the k messages when its observed subspace
// reaches rank k.  We follow Ghaffari-Haeupler-Khabbazian practice on the
// paper's "minor technical conditions": the broadcast pattern is evaluated
// obliviously, and nodes whose subspace is still empty simply have nothing
// useful to say (their slots carry no innovation; silence and a blank
// transmission are equivalent for rank progress, and we keep them silent
// to avoid manufacturing collisions the analysis does not rely on).
//
//   * Decay pattern        -> O(D log n + k log n + log^2 n) rounds,
//                             throughput Omega(1/log n)          (Lemma 12)
//   * Robust FASTBC pattern-> O(D + k log n log log n
//                                 + log^2 n log log n) rounds,
//                             throughput Omega(1/(log n loglog n)) (Lemma 13)
#pragma once

#include <cstdint>
#include <memory>

#include "common/rng.hpp"
#include "coding/rlnc.hpp"
#include "core/run_result.hpp"
#include "core/wave_schedule.hpp"
#include "radio/network.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

enum class MultiPattern {
  kDecay,         ///< Lemma 12 composition
  kRobustFastbc,  ///< Lemma 13 composition
};

struct MultiMessageParams {
  std::size_t k = 1;          ///< number of messages
  std::size_t block_len = 0;  ///< payload symbols per message; 0 = rank-only
  MultiPattern pattern = MultiPattern::kDecay;
  std::int32_t decay_phase = 0;       ///< 0 => ceil(log2 n) + 1
  std::int32_t block_size = 0;        ///< Robust FASTBC S; 0 => default
  std::int32_t window_multiplier = 0; ///< Robust FASTBC c; 0 => default
  std::int64_t max_rounds = 0;        ///< 0 => theory bound with slack
};

class RlncBroadcast {
 public:
  /// The Robust FASTBC pattern builds its fast-round schedule from `tree`,
  /// a GBST of (g, source); the Decay pattern needs none (`tree` may be
  /// null).
  RlncBroadcast(const graph::Graph& g, radio::NodeId source,
                MultiMessageParams params,
                const std::shared_ptr<const trees::RankedBfsTree>& tree);

  /// Builds the GBST here when the pattern needs one.
  RlncBroadcast(const graph::Graph& g, radio::NodeId source,
                MultiMessageParams params);

  /// The Robust FASTBC pattern's fast-round schedule (empty for kDecay).
  const WaveSchedule& schedule() const { return schedule_; }

  /// Runs until every node reaches rank k (completed) or the budget ends.
  MultiRunResult run(radio::RadioNetwork& net, Rng& rng) const;

  /// As run(), but also verifies payload decodability at every node
  /// against `messages` (requires block_len > 0).  Returns false in
  /// MultiRunResult::completed on any decode mismatch.
  MultiRunResult run_and_verify(
      radio::RadioNetwork& net, Rng& rng,
      const std::vector<std::vector<std::uint8_t>>& messages) const;

 private:
  MultiRunResult run_impl(
      radio::RadioNetwork& net, Rng& rng,
      const std::vector<std::vector<std::uint8_t>>* messages) const;

  const graph::Graph* graph_;
  radio::NodeId source_;
  MultiMessageParams params_;
  std::int32_t decay_phase_;
  std::int32_t block_size_ = 0;  ///< feeds the budget; kRobustFastbc only
  WaveSchedule schedule_;        ///< fast rounds; empty for kDecay
};

}  // namespace nrn::core
