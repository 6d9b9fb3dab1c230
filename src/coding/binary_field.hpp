// Binary extension fields GF(2^m) via log/antilog tables.
//
// One template serves both symbol widths the library uses:
//   * Gf256   -- GF(2)[x] / (x^8 + x^4 + x^3 + x^2 + 1)  (0x11D).  Random
//     linear network coding (Lemmas 12/13) and erasure-decay's
//     Reed-Solomon code: byte-sized symbols keep coefficient vectors
//     compact, and a random combination is dependent with probability
//     below 1/255 per deficient dimension.
//   * Gf65536 -- GF(2)[x] / (x^16 + x^12 + x^3 + x + 1)  (0x1100B, the CCSDS
//     polynomial).  A Reed-Solomon evaluation domain of 65535 points, for
//     codes whose k times overhead outgrows GF(2^8).
// alpha = x (the symbol 2) generates both multiplicative groups.  The
// tables are arrays inside the one instance() object, not heap vectors, so
// the RLNC inner loops index them with no extra indirection.
#pragma once

#include <array>
#include <cstdint>

#include "common/contracts.hpp"

namespace nrn::coding {

template <typename SymbolT, std::uint32_t Poly>
class BinaryField {
  static_assert(sizeof(SymbolT) <= 2, "log table entries are 16-bit");

 public:
  using Symbol = SymbolT;
  static constexpr int kFieldSize = 1 << (8 * sizeof(Symbol));
  static constexpr int kGroupOrder = kFieldSize - 1;

  /// Tables are built once, at first use.
  static const BinaryField& instance() {
    static const BinaryField field;
    return field;
  }

  Symbol add(Symbol a, Symbol b) const { return a ^ b; }
  Symbol sub(Symbol a, Symbol b) const { return a ^ b; }

  Symbol mul(Symbol a, Symbol b) const {
    if (a == 0 || b == 0) return 0;
    return exp_[log_[a] + log_[b]];
  }

  Symbol inv(Symbol a) const {
    NRN_EXPECTS(a != 0, "inverse of zero in a binary field");
    return exp_[kGroupOrder - log_[a]];
  }

  /// alpha^i; distinct for 0 <= i < kGroupOrder (the Reed-Solomon
  /// evaluation points).
  Symbol alpha_pow(std::uint32_t i) const { return exp_[i % kGroupOrder]; }

 private:
  BinaryField() {
    std::uint32_t x = 1;
    for (int i = 0; i < kGroupOrder; ++i) {
      exp_[i] = exp_[i + kGroupOrder] = static_cast<Symbol>(x);
      log_[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & kFieldSize) x ^= Poly;
    }
    NRN_ENSURES(x == 1, "field polynomial is not primitive");
  }

  // exp_ is doubled so mul skips the mod-kGroupOrder reduction; log_[0] is
  // never read (mul and inv guard zero operands).
  std::array<Symbol, 2 * kGroupOrder> exp_{};
  std::array<std::uint16_t, kFieldSize> log_{};
};

using Gf256 = BinaryField<std::uint8_t, 0x11D>;
using Gf65536 = BinaryField<std::uint16_t, 0x1100B>;

}  // namespace nrn::coding
