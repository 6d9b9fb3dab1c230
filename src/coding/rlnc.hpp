// Random linear network coding over GF(2^8) (Lemmas 12/13).
//
// Every node maintains an RlncState: the subspace of the k-dimensional
// message space it has observed, kept in reduced row-echelon form with an
// optional payload matrix alongside (so decoding returns the actual message
// bytes, not just a rank certificate).  Nodes broadcast uniformly random
// combinations of their basis (Haeupler's "analyzing network coding gossip
// made easy" framework); a node has "received" the k messages exactly when
// its rank reaches k.
#pragma once

#include <cstdint>
#include <vector>

#include "coding/binary_field.hpp"
#include "common/rng.hpp"

namespace nrn::coding {

/// A coded RLNC packet: k coefficients plus (optionally) the combined
/// payload symbols.
struct RlncPacket {
  std::vector<std::uint8_t> coeffs;
  std::vector<std::uint8_t> payload;  ///< empty in coefficient-only mode
};

class RlncState {
 public:
  /// k: message-space dimension.  block_len: payload symbols per message;
  /// 0 selects coefficient-only mode (throughput experiments).
  RlncState(std::size_t k, std::size_t block_len);

  std::size_t k() const { return k_; }
  std::size_t block_len() const { return block_len_; }
  std::size_t rank() const { return pivots_.size(); }
  bool complete() const { return rank() == k_; }

  /// Installs the full standard basis with the given payloads (the source
  /// knows all k messages).  In coefficient-only mode pass an empty vector.
  void seed_source(const std::vector<std::vector<std::uint8_t>>& messages);

  /// Gaussian-eliminates the packet into the basis.
  /// Returns true iff the packet was innovative (rank increased).
  bool absorb(const RlncPacket& packet);

  /// Emits a uniformly random nonzero combination of the basis rows.
  /// Requires rank() >= 1.
  RlncPacket emit(Rng& rng) const;

  /// Returns the k decoded messages; requires complete() and payload mode.
  std::vector<std::vector<std::uint8_t>> decode() const;

 private:
  std::size_t k_;
  std::size_t block_len_;
  const Gf256& field_;
  // Rows in reduced echelon form; pivots_[i] is the pivot column of row i,
  // strictly increasing.
  std::vector<std::size_t> pivots_;
  std::vector<std::vector<std::uint8_t>> rows_;      // coefficient rows
  std::vector<std::vector<std::uint8_t>> payloads_;  // parallel payload rows
};

}  // namespace nrn::coding
