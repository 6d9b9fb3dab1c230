// Binary extension fields GF(2^m) via log/antilog tables, plus a full
// product table for GF(2^8).
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
// the inner loops index them with no extra indirection.
//
// Region ops.  RLNC elimination and combination and Reed-Solomon encode
// and decode spend their time in two row operations, mul_add
// (dst ^= f * src) and scale (dst = f * dst), so the field offers them over
// whole symbol rows.  GF(2^8) answers them from a 64 KiB product table,
// built with the log tables in instance(): the row product[f] maps every
// symbol x to f * x, so a row op is one lookup and one xor per byte, with
// no zero test.  GF(2^16) has no such table -- 2^32 two-byte products
// would take 8 GiB -- and keeps a log-domain row: log(f) is looked up once
// and each nonzero symbol costs one log and one antilog lookup.
#pragma once

#include <array>
#include <cstddef>
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

  /// dst[i] ^= f * src[i] for i < len (subtraction is addition, so this is
  /// also dst -= f * src).  f = 0 leaves dst unchanged.
  void mul_add(Symbol* dst, const Symbol* src, Symbol f,
               std::size_t len) const {
    if (f == 0) return;
    if constexpr (kHasProductTable) {
      const Symbol* row = &product_[std::size_t{f} << 8];
      for (std::size_t i = 0; i < len; ++i) dst[i] ^= row[src[i]];
    } else {
      const std::uint32_t lf = log_[f];
      for (std::size_t i = 0; i < len; ++i)
        if (src[i] != 0) dst[i] ^= exp_[log_[src[i]] + lf];
    }
  }

  /// dst[i] = f * dst[i] for i < len.
  void scale(Symbol* dst, Symbol f, std::size_t len) const {
    if constexpr (kHasProductTable) {
      const Symbol* row = &product_[std::size_t{f} << 8];
      for (std::size_t i = 0; i < len; ++i) dst[i] = row[dst[i]];
    } else {
      if (f == 0) {
        for (std::size_t i = 0; i < len; ++i) dst[i] = 0;
        return;
      }
      const std::uint32_t lf = log_[f];
      for (std::size_t i = 0; i < len; ++i)
        if (dst[i] != 0) dst[i] = exp_[log_[dst[i]] + lf];
    }
  }

 private:
  static constexpr bool kHasProductTable = sizeof(Symbol) == 1;

  BinaryField() {
    std::uint32_t x = 1;
    for (int i = 0; i < kGroupOrder; ++i) {
      exp_[i] = exp_[i + kGroupOrder] = static_cast<Symbol>(x);
      log_[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & kFieldSize) x ^= Poly;
    }
    NRN_ENSURES(x == 1, "field polynomial is not primitive");
    if constexpr (kHasProductTable)
      for (int f = 0; f < kFieldSize; ++f)
        for (int s = 0; s < kFieldSize; ++s)
          product_[static_cast<std::size_t>(f * kFieldSize + s)] =
              mul(static_cast<Symbol>(f), static_cast<Symbol>(s));
  }

  // exp_ is doubled so mul skips the mod-kGroupOrder reduction; log_[0] is
  // never read (mul, inv and the log-domain rows guard zero operands).
  std::array<Symbol, 2 * kGroupOrder> exp_{};
  std::array<std::uint16_t, kFieldSize> log_{};
  // product_[f * 256 + x] = f * x; GF(2^8) only (empty for GF(2^16)).
  std::array<Symbol, kHasProductTable ? kFieldSize * kFieldSize : 0>
      product_{};
};

using Gf256 = BinaryField<std::uint8_t, 0x11D>;
using Gf65536 = BinaryField<std::uint16_t, 0x1100B>;

}  // namespace nrn::coding
