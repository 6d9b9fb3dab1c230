// Random linear network coding over GF(2^8) (Lemmas 12/13).
//
// Every node maintains an RlncState: the subspace of the k-dimensional
// message space it has observed, kept in reduced row-echelon form with an
// optional payload matrix alongside (so decoding returns the actual message
// bytes, not just a rank certificate).  Nodes broadcast uniformly random
// combinations of their basis (Haeupler's "analyzing network coding gossip
// made easy" framework); a node has "received" the k messages exactly when
// its rank reaches k.
//
// Storage is two flat row-major matrices, k x k coefficients and
// k x block_len payload symbols, allocated on the first absorb (or
// seed_source), so a node that never hears anything holds no rows.  Rows
// 0..rank()-1 hold the basis in ascending pivot order; absorb eliminates a
// packet in place in the spare row rank() and rotates it into pivot order.
// Every row operation is a Gf256 region op (mul_add / scale) that starts at
// the row's pivot column: reduced echelon rows are zero before it.
//
// Sending is split in two so a broadcaster pays only for combinations that
// are heard:
//   * draw(rng, lambda) makes the coefficient draws -- rank() calls of
//     rng.next_below(256), repeated while all of them are zero.  These are
//     the only Rng calls coding makes, so callers keep the draw where the
//     random stream expects it.
//   * combine(lambda, coeffs, payload) builds sum_i lambda[i] * row i (in
//     pivot order) from the basis as it is when called.  The combination
//     equals the one the draw names as long as the basis has not changed
//     in between; a radio broadcaster does not listen in its own round, so
//     a multi-message schedule may combine on the first delivery.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "coding/binary_field.hpp"
#include "common/rng.hpp"

namespace nrn::coding {

class RlncState {
 public:
  /// k: message-space dimension.  block_len: payload symbols per message;
  /// 0 selects coefficient-only mode (throughput experiments).
  RlncState(std::size_t k, std::size_t block_len);

  std::size_t k() const { return k_; }
  std::size_t block_len() const { return block_len_; }
  std::size_t rank() const { return rank_; }
  bool complete() const { return rank_ == k_; }

  /// Installs the full standard basis with the given payloads (the source
  /// knows all k messages).  In coefficient-only mode pass an empty vector.
  void seed_source(const std::vector<std::vector<std::uint8_t>>& messages);

  /// Gaussian-eliminates the packet (k coefficients, block_len payload
  /// symbols) into the basis.  Returns true iff the packet was innovative
  /// (rank increased).
  bool absorb(std::span<const std::uint8_t> coeffs,
              std::span<const std::uint8_t> payload);

  /// Fills lambda[0, rank()) with a uniformly random nonzero draw: rank()
  /// calls of rng.next_below(256), resampled whole while all are zero.
  /// Requires rank() >= 1 and lambda.size() >= rank().
  void draw(Rng& rng, std::span<std::uint8_t> lambda) const;

  /// Writes sum_i lambda[i] * basis row i into coeffs (k symbols) and
  /// payload (block_len symbols).  Requires lambda.size() >= rank().
  void combine(std::span<const std::uint8_t> lambda,
               std::span<std::uint8_t> coeffs,
               std::span<std::uint8_t> payload) const;

  /// Returns the k decoded messages; requires complete() and payload mode.
  std::vector<std::vector<std::uint8_t>> decode() const;

 private:
  std::uint8_t* row(std::size_t i) { return rows_.data() + i * k_; }
  const std::uint8_t* row(std::size_t i) const {
    return rows_.data() + i * k_;
  }
  std::uint8_t* payload_row(std::size_t i) {
    return payloads_.data() + i * block_len_;
  }
  const std::uint8_t* payload_row(std::size_t i) const {
    return payloads_.data() + i * block_len_;
  }
  void allocate();

  std::size_t k_;
  std::size_t block_len_;
  std::size_t rank_ = 0;
  const Gf256& field_;
  // pivots_[i] is the pivot column of row i, strictly increasing over
  // i < rank_.  All three are empty until allocate().
  std::vector<std::size_t> pivots_;
  std::vector<std::uint8_t> rows_;      // k x k, row-major
  std::vector<std::uint8_t> payloads_;  // k x block_len, row-major
};

}  // namespace nrn::coding
