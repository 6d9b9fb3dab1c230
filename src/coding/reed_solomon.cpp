#include "coding/reed_solomon.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "common/contracts.hpp"

namespace nrn::coding {

template <typename Field>
ReedSolomon<Field>::ReedSolomon(std::size_t k, std::size_t block_len)
    : k_(k), block_len_(block_len), field_(Field::instance()) {
  NRN_EXPECTS(k >= 1, "Reed-Solomon requires k >= 1");
  NRN_EXPECTS(k <= max_packets(), "k exceeds the number of evaluation points");
  NRN_EXPECTS(block_len >= 1, "block_len must be positive");
}

template <typename Field>
RsPacket<Field> ReedSolomon<Field>::encode_packet(const Messages& messages,
                                                  std::uint32_t index) const {
  NRN_EXPECTS(messages.size() == k_, "message count mismatch");
  NRN_EXPECTS(index < max_packets(), "packet index exceeds evaluation points");
  for (const auto& m : messages)
    NRN_EXPECTS(m.size() == block_len_, "message block length mismatch");

  RsPacket<Field> pkt;
  pkt.index = index;
  pkt.symbols.assign(block_len_, 0);
  // The evaluation at x = alpha^index is sum_i x^i * message i: one
  // mul_add per message, with x^i = alpha^(index * i) read off the
  // antilog table.
  for (std::size_t i = 0; i < k_; ++i)
    field_.mul_add(pkt.symbols.data(), messages[i].data(),
                   field_.alpha_pow(static_cast<std::uint32_t>(
                       std::uint64_t{index} * i % Field::kGroupOrder)),
                   block_len_);
  return pkt;
}

template <typename Field>
std::vector<RsPacket<Field>> ReedSolomon<Field>::encode(
    const Messages& messages, std::uint32_t count) const {
  std::vector<RsPacket<Field>> packets;
  packets.reserve(count);
  for (std::uint32_t j = 0; j < count; ++j)
    packets.push_back(encode_packet(messages, j));
  return packets;
}

template <typename Field>
typename ReedSolomon<Field>::Messages ReedSolomon<Field>::decode(
    const std::vector<RsPacket<Field>>& packets) const {
  // Select k packets with distinct indices.
  std::vector<const RsPacket<Field>*> chosen;
  std::set<std::uint32_t> seen;
  for (const auto& p : packets) {
    if (seen.insert(p.index).second) {
      NRN_EXPECTS(p.symbols.size() == block_len_, "packet length mismatch");
      chosen.push_back(&p);
      if (chosen.size() == k_) break;
    }
  }
  NRN_EXPECTS(chosen.size() == k_,
              "decode requires k packets with distinct indices");

  // Solve V * M = Y where V[r][c] = x_r^c over the k chosen points, with
  // x_r = alpha^index_r, so x_r^c = alpha^(index_r * c).  V is one flat
  // row-major k x k matrix; augmented elimination carries the packet
  // payloads as the right side.
  const std::size_t k = k_;
  std::vector<Symbol> v(k * k);
  Messages y(k);
  for (std::size_t r = 0; r < k; ++r) {
    const std::uint64_t index = chosen[r]->index;
    for (std::size_t c = 0; c < k; ++c)
      v[r * k + c] = field_.alpha_pow(
          static_cast<std::uint32_t>(index * c % Field::kGroupOrder));
    y[r] = chosen[r]->symbols;
  }

  // Gauss-Jordan elimination with partial pivoting (any nonzero pivot works
  // in a field; Vandermonde with distinct points is nonsingular).  Row
  // operations start at column col: the pivot row is zero before it.
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    while (pivot < k && v[pivot * k + col] == 0) ++pivot;
    NRN_ENSURES(pivot < k, "singular Vandermonde system (duplicate points?)");
    Symbol* const pivot_row = v.data() + col * k;
    if (pivot != col) {
      std::swap_ranges(pivot_row, pivot_row + k, v.data() + pivot * k);
      std::swap(y[pivot], y[col]);
    }
    const Symbol inv = field_.inv(pivot_row[col]);
    field_.scale(pivot_row + col, inv, k - col);
    field_.scale(y[col].data(), inv, block_len_);
    for (std::size_t r = 0; r < k; ++r) {
      const Symbol f = v[r * k + col];
      if (r == col || f == 0) continue;
      field_.mul_add(v.data() + r * k + col, pivot_row + col, f, k - col);
      field_.mul_add(y[r].data(), y[col].data(), f, block_len_);
    }
  }
  return y;
}

template class ReedSolomon<Gf256>;
template class ReedSolomon<Gf65536>;

}  // namespace nrn::coding
