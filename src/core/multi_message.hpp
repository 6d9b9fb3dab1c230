// Multi-message broadcast by coding over a single-message broadcast
// pattern (paper Section 4.2, Lemmas 12 and 13; arXiv:1805.04165).
//
// Single-message algorithms whose broadcast *pattern* does not depend on
// what a node has received compose black-box with coding: wherever the
// single-message algorithm would broadcast the message, the node instead
// broadcasts a coded packet.  One round loop runs the pattern for two
// codes, which differ only in per-node state: what a node can send, what a
// delivery adds, and how a node decodes.
//
//   * RLNC (MultiCode::kRlnc): every relay re-codes.  A node broadcasts a
//     uniformly random combination of the coded packets it has observed,
//     and "has" the k messages when its observed subspace reaches rank k.
//   * Reed-Solomon (MultiCode::kReedSolomon, the erasure scheme of
//     "Erasure Correction for Noisy Radio Networks"): all coding at the
//     source.  The k messages are Reed-Solomon encoded over GF(2^8) into
//     m = default_packet_count(n, k) = k + O(log nk) coded packets, relays
//     store and forward whole packets in round-robin order, and a node is
//     done once it holds any k distinct ones.  GF(2^8) caps m at 255.  The
//     code runs on the Decay pattern and always carries payloads.
//
// We follow Ghaffari-Haeupler-Khabbazian practice on the paper's "minor
// technical conditions": the broadcast pattern is evaluated obliviously,
// and nodes that hold nothing simply have nothing useful to say (their
// slots carry no innovation; silence and a blank transmission are
// equivalent for progress, and we keep them silent to avoid manufacturing
// collisions the analysis does not rely on).
//
//   * Decay pattern        -> O(D log n + k log n + log^2 n) rounds,
//                             throughput Omega(1/log n)          (Lemma 12)
//   * Robust FASTBC pattern-> O(D + k log n log log n
//                                 + log^2 n log log n) rounds,
//                             throughput Omega(1/(log n loglog n)) (Lemma 13)
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/fastbc.hpp"
#include "core/run_result.hpp"
#include "radio/network.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

enum class MultiPattern {
  kDecay,         ///< Lemma 12 composition
  kRobustFastbc,  ///< Lemma 13 composition
};

enum class MultiCode {
  kRlnc,         ///< relays re-code (Lemmas 12 and 13)
  kReedSolomon,  ///< source-side RS over GF(2^8), store-and-forward
};

struct MultiMessageParams {
  std::size_t k = 1;          ///< number of messages
  std::size_t block_len = 0;  ///< payload symbols per message; 0 = rank-only
  MultiPattern pattern = MultiPattern::kDecay;
  MultiCode code = MultiCode::kRlnc;
  std::int32_t decay_phase = 0;       ///< 0 => ceil(log2 n) + 1
  std::int32_t block_size = 0;        ///< Robust FASTBC S; 0 => default
  std::int32_t window_multiplier = 0; ///< Robust FASTBC c; 0 => 8
  std::int64_t max_rounds = 0;        ///< 0 => theory bound with slack
};

/// The Reed-Solomon code's packet count m for (n, k): k + 4 ceil(log2 nk)
/// + 8.  Any k of m packets reconstruct, and the Theta(log nk) slack makes
/// every node's coupon collection succeed w.h.p.  Callers can check it
/// against the GF(2^8) domain of 255 packets before constructing.
std::int64_t default_packet_count(std::int64_t n, std::int64_t k);

class CodedBroadcast {
 public:
  /// The Robust FASTBC pattern runs the band schedule of
  /// Fastbc::robust(g, tree, {block_size, window_multiplier}) over `tree`,
  /// a GBST of (g, source), which resolves S, c and the rank modulus; the
  /// Decay pattern needs no tree (`tree` may be null).  kReedSolomon needs
  /// the Decay pattern, block_len > 0 and at most 255 packets.
  CodedBroadcast(const graph::Graph& g, radio::NodeId source,
                 MultiMessageParams params,
                 const std::shared_ptr<const trees::RankedBfsTree>& tree);

  /// Builds the GBST here when the pattern needs one.
  CodedBroadcast(const graph::Graph& g, radio::NodeId source,
                 MultiMessageParams params);

  /// The Robust FASTBC pattern's fast-round schedule (kRobustFastbc only).
  const WaveSchedule& schedule() const { return wave_.value().schedule(); }

  /// Rank-only RLNC (block_len == 0): runs until every node reaches rank k
  /// (completed) or the budget ends.
  MultiRunResult run(radio::RadioNetwork& net, Rng& rng) const;

  /// As run(), but carries `messages` (k payloads of block_len symbols;
  /// requires block_len > 0) and, once every node is complete, decodes at
  /// every node.  Returns false in MultiRunResult::completed on any decode
  /// mismatch.
  MultiRunResult run_and_verify(
      radio::RadioNetwork& net, Rng& rng,
      const std::vector<std::vector<std::uint8_t>>& messages) const;

 private:
  /// The round loop both codes share; `Nodes` is the code's node state.
  template <typename Nodes>
  MultiRunResult run_loop(
      radio::RadioNetwork& net, Rng& rng, Nodes& nodes,
      const std::vector<std::vector<std::uint8_t>>* messages) const;

  const graph::Graph* graph_;
  radio::NodeId source_;
  MultiMessageParams params_;
  std::int32_t decay_phase_;
  std::int64_t units_;          ///< k (RLNC) or the packet count m (RS)
  std::optional<Fastbc> wave_;  ///< fast rounds and S; kRobustFastbc only
};

}  // namespace nrn::core
