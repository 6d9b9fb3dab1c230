// Multi-message broadcast via source-side erasure coding (the approach of
// "Erasure Correction for Noisy Radio Networks", arXiv:1805.04165).
//
// Where the RLNC compositions (multi_message.hpp) have every relay re-code
// its observed subspace, the erasure-coded variant keeps all coding at the
// source: the k messages are Reed-Solomon encoded over GF(2^8) into
// m = k + O(log nk) coded packets, and relays store-and-forward whole coded
// packets in round-robin order over the Decay transmission pattern.  A node
// is done once it holds any k distinct coded packets (the RS reconstruction
// condition); the run decodes at every node and verifies the payloads
// against the source messages, so completion certifies real byte delivery,
// not just counting-mode rank.
//
// GF(2^8) bounds the coded-packet domain at 255, so k plus the slack must
// stay below 255 -- the construction trades the RLNC coefficient overhead
// for a hard cap on k.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/run_result.hpp"
#include "radio/network.hpp"

namespace nrn::core {

struct ErasureParams {
  std::size_t k = 1;          ///< number of messages
  std::size_t block_len = 8;  ///< payload bytes per message
  std::int32_t decay_phase = 0;   ///< 0 => ceil(log2 n) + 1
  std::int64_t max_rounds = 0;    ///< 0 => theory bound with slack
  std::int64_t packet_count = 0;  ///< coded packets m; 0 => k + slack
};

class ErasureBroadcast {
 public:
  /// Throws ContractViolation when k plus the slack exceeds the GF(2^8)
  /// evaluation domain (255 packets).
  ErasureBroadcast(const graph::Graph& g, radio::NodeId source,
                   ErasureParams params);

  /// Coded packets the source streams (k plus the Chernoff slack).
  std::int64_t packet_count() const { return packet_count_; }

  /// The default m for (n, k): k + 4 ceil(log2 nk) + 8.  Callers can check
  /// it against ReedSolomon<Gf256>::max_packets() (255) before constructing.
  static std::int64_t default_packet_count(std::int64_t n, std::int64_t k);

  /// Runs until every node holds k distinct coded packets or the budget
  /// ends, then decodes at every node and verifies against `messages`
  /// (each a block_len-byte vector).  completed = full reception AND every
  /// decode matched.
  MultiRunResult run_and_verify(
      radio::RadioNetwork& net, Rng& rng,
      const std::vector<std::vector<std::uint8_t>>& messages) const;

 private:
  const graph::Graph* graph_;
  radio::NodeId source_;
  ErasureParams params_;
  std::int32_t decay_phase_;
  std::int64_t packet_count_;
};

}  // namespace nrn::core
