#include "coding/reed_solomon.hpp"

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

  const Symbol x = field_.alpha_pow(index);
  RsPacket<Field> pkt;
  pkt.index = index;
  pkt.symbols.assign(block_len_, 0);
  // Horner evaluation, highest coefficient (message k-1) first.
  for (std::size_t i = k_; i-- > 0;) {
    for (std::size_t s = 0; s < block_len_; ++s) {
      pkt.symbols[s] =
          field_.add(field_.mul(pkt.symbols[s], x), messages[i][s]);
    }
  }
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

  // Solve V * M = Y where V[r][c] = x_r^c over the k chosen points.
  // Augmented elimination carries the packet payloads as the right side.
  const std::size_t k = k_;
  Messages v(k, std::vector<Symbol>(k));
  Messages y(k);
  for (std::size_t r = 0; r < k; ++r) {
    const Symbol x = field_.alpha_pow(chosen[r]->index);
    Symbol xp = 1;
    for (std::size_t c = 0; c < k; ++c) {
      v[r][c] = xp;
      xp = field_.mul(xp, x);
    }
    y[r] = chosen[r]->symbols;
  }

  // Forward elimination with partial pivoting (any nonzero pivot works in a
  // field; Vandermonde with distinct points is nonsingular).
  for (std::size_t col = 0; col < k; ++col) {
    std::size_t pivot = col;
    while (pivot < k && v[pivot][col] == 0) ++pivot;
    NRN_ENSURES(pivot < k, "singular Vandermonde system (duplicate points?)");
    std::swap(v[pivot], v[col]);
    std::swap(y[pivot], y[col]);
    const Symbol inv = field_.inv(v[col][col]);
    for (std::size_t c = col; c < k; ++c) v[col][c] = field_.mul(v[col][c], inv);
    for (auto& s : y[col]) s = field_.mul(s, inv);
    for (std::size_t r = 0; r < k; ++r) {
      if (r == col || v[r][col] == 0) continue;
      const Symbol f = v[r][col];
      for (std::size_t c = col; c < k; ++c)
        v[r][c] = field_.sub(v[r][c], field_.mul(f, v[col][c]));
      for (std::size_t s = 0; s < block_len_; ++s)
        y[r][s] = field_.sub(y[r][s], field_.mul(f, y[col][s]));
    }
  }
  return y;
}

template class ReedSolomon<Gf256>;
template class ReedSolomon<Gf65536>;

}  // namespace nrn::coding
