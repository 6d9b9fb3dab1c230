// Reed-Solomon erasure coding over a binary field (coding/binary_field.hpp).
//
// The paper uses Reed-Solomon as a black box (Section 5): "Given k input
// packets, Reed-Solomon coding constructs poly(nk) coded packets such that
// any k of the coded packets is sufficient to reconstruct the original k
// packets."  This file implements exactly that contract:
//
//   * Each of the k messages is a vector of `block_len` field symbols.
//   * Coded packet j is the evaluation, at evaluation point alpha^j, of the
//     degree-(k-1) polynomial whose coefficients are the messages
//     (column-wise across symbol positions).
//   * decode() takes any k packets with distinct indices and solves the
//     Vandermonde system to recover the messages.
//
// The field bounds the code: at most Field::kGroupOrder distinct coded
// packets.  ReedSolomon<Gf256> keeps symbols byte-sized (erasure-decay, per
// "Erasure Correction for Noisy Radio Networks", arXiv:1805.04165) at the
// cost of a 255-packet domain; ReedSolomon<Gf65536> offers 65535.
//
// Encoding evaluates the polynomial over whole symbol rows: one
// Field::mul_add of message i times x^i per message, the powers read off
// the antilog table.  Decoding is Gauss-Jordan elimination over a flat k x k
// Vandermonde matrix whose entries are read off alpha_pow, with the same
// two region ops for normalisation and elimination: O(k^3 + k^2 *
// block_len) symbol operations, each one table lookup in GF(2^8).  No
// per-symbol mul loop remains; the region ops are the ones RLNC uses.
// erasure-decay decodes at every node of a completed run; large throughput
// sweeps rely on the any-k-of-m property by counting distinct packet
// indices.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/binary_field.hpp"

namespace nrn::coding {

/// A coded packet: its evaluation index and symbol payload.
template <typename Field>
struct RsPacket {
  std::uint32_t index = 0;
  std::vector<typename Field::Symbol> symbols;
};

template <typename Field>
class ReedSolomon {
 public:
  using Symbol = typename Field::Symbol;
  using Messages = std::vector<std::vector<Symbol>>;

  /// k: number of source messages; block_len: symbols per message.
  ReedSolomon(std::size_t k, std::size_t block_len);

  std::size_t k() const { return k_; }
  std::size_t block_len() const { return block_len_; }

  /// Maximum number of distinct coded packets (nonzero field elements).
  static constexpr std::uint32_t max_packets() { return Field::kGroupOrder; }

  /// Encodes packet `index` (0 <= index < max_packets()).
  RsPacket<Field> encode_packet(const Messages& messages,
                                std::uint32_t index) const;

  /// Encodes packets [0, count).
  std::vector<RsPacket<Field>> encode(const Messages& messages,
                                      std::uint32_t count) const;

  /// Reconstructs the k messages from any k packets with distinct indices.
  /// Throws if fewer than k distinct indices are supplied.
  Messages decode(const std::vector<RsPacket<Field>>& packets) const;

 private:
  std::size_t k_;
  std::size_t block_len_;
  const Field& field_;
};

extern template class ReedSolomon<Gf256>;
extern template class ReedSolomon<Gf65536>;

}  // namespace nrn::coding
