#include "coding/rlnc.hpp"

#include <algorithm>

namespace nrn::coding {

RlncState::RlncState(std::size_t k, std::size_t block_len)
    : k_(k), block_len_(block_len), field_(Gf256::instance()) {
  NRN_EXPECTS(k >= 1, "RLNC dimension must be positive");
}

void RlncState::allocate() {
  pivots_.assign(k_, 0);
  rows_.assign(k_ * k_, 0);
  payloads_.assign(k_ * block_len_, 0);
}

void RlncState::seed_source(
    const std::vector<std::vector<std::uint8_t>>& messages) {
  NRN_EXPECTS(rank() == 0, "seed_source on a non-empty state");
  if (block_len_ > 0) {
    NRN_EXPECTS(messages.size() == k_, "need one payload per message");
    for (const auto& m : messages)
      NRN_EXPECTS(m.size() == block_len_, "payload length mismatch");
  } else {
    NRN_EXPECTS(messages.empty(), "payloads given in coefficient-only mode");
  }
  allocate();
  for (std::size_t i = 0; i < k_; ++i) {
    pivots_[i] = i;
    row(i)[i] = 1;
    if (block_len_ > 0)
      std::copy(messages[i].begin(), messages[i].end(), payload_row(i));
  }
  rank_ = k_;
}

bool RlncState::absorb(std::span<const std::uint8_t> coeffs,
                       std::span<const std::uint8_t> payload) {
  NRN_EXPECTS(coeffs.size() == k_, "coefficient vector length mismatch");
  NRN_EXPECTS(payload.size() == block_len_, "payload length mismatch");
  if (complete()) return false;  // rank k spans every packet
  if (rows_.empty()) allocate();

  // Eliminate against the existing pivots in the spare row rank_.
  std::uint8_t* c = row(rank_);
  std::uint8_t* p = payload_row(rank_);
  std::copy(coeffs.begin(), coeffs.end(), c);
  std::copy(payload.begin(), payload.end(), p);
  for (std::size_t i = 0; i < rank_; ++i) {
    const std::size_t pc = pivots_[i];
    const std::uint8_t f = c[pc];
    if (f == 0) continue;
    field_.mul_add(c + pc, row(i) + pc, f, k_ - pc);
    field_.mul_add(p, payload_row(i), f, block_len_);
  }

  const std::size_t pivot = static_cast<std::size_t>(
      std::find_if(c, c + k_, [](std::uint8_t s) { return s != 0; }) - c);
  if (pivot == k_) return false;  // dependent packet

  // Normalize, then back-eliminate the existing rows to keep the form
  // reduced.  The new row is zero before its pivot.
  const std::uint8_t inv = field_.inv(c[pivot]);
  field_.scale(c + pivot, inv, k_ - pivot);
  field_.scale(p, inv, block_len_);
  for (std::size_t i = 0; i < rank_; ++i) {
    const std::uint8_t f = row(i)[pivot];
    if (f == 0) continue;
    field_.mul_add(row(i) + pivot, c + pivot, f, k_ - pivot);
    field_.mul_add(payload_row(i), p, f, block_len_);
  }

  // Rotate the new row from rank_ into pivot order.
  const std::size_t pos = static_cast<std::size_t>(
      std::lower_bound(pivots_.begin(),
                       pivots_.begin() + static_cast<std::ptrdiff_t>(rank_),
                       pivot) -
      pivots_.begin());
  pivots_[rank_] = pivot;
  std::rotate(pivots_.begin() + static_cast<std::ptrdiff_t>(pos),
              pivots_.begin() + static_cast<std::ptrdiff_t>(rank_),
              pivots_.begin() + static_cast<std::ptrdiff_t>(rank_ + 1));
  std::rotate(row(pos), row(rank_), row(rank_ + 1));
  std::rotate(payload_row(pos), payload_row(rank_), payload_row(rank_ + 1));
  ++rank_;
  return true;
}

void RlncState::draw(Rng& rng, std::span<std::uint8_t> lambda) const {
  NRN_EXPECTS(rank_ >= 1, "draw from an empty RLNC state");
  NRN_EXPECTS(lambda.size() >= rank_, "draw needs rank() lambda slots");
  bool nonzero = false;
  while (!nonzero) {
    for (std::size_t i = 0; i < rank_; ++i) {
      lambda[i] = static_cast<std::uint8_t>(rng.next_below(256));
      nonzero = nonzero || (lambda[i] != 0);
    }
  }
}

void RlncState::combine(std::span<const std::uint8_t> lambda,
                        std::span<std::uint8_t> coeffs,
                        std::span<std::uint8_t> payload) const {
  NRN_EXPECTS(lambda.size() >= rank_, "combine needs rank() lambda slots");
  NRN_EXPECTS(coeffs.size() == k_, "coefficient vector length mismatch");
  NRN_EXPECTS(payload.size() == block_len_, "payload length mismatch");
  std::fill(coeffs.begin(), coeffs.end(), 0);
  std::fill(payload.begin(), payload.end(), 0);
  for (std::size_t i = 0; i < rank_; ++i) {
    const std::size_t pc = pivots_[i];
    field_.mul_add(coeffs.data() + pc, row(i) + pc, lambda[i], k_ - pc);
    field_.mul_add(payload.data(), payload_row(i), lambda[i], block_len_);
  }
}

std::vector<std::vector<std::uint8_t>> RlncState::decode() const {
  NRN_EXPECTS(block_len_ > 0, "decode requires payload mode");
  NRN_EXPECTS(complete(), "decode requires full rank");
  // Full-rank reduced echelon form over k columns is the identity, with
  // pivots_ = 0..k-1, so payload rows are the messages in order.
  std::vector<std::vector<std::uint8_t>> messages(k_);
  for (std::size_t i = 0; i < k_; ++i)
    messages[i].assign(payload_row(i), payload_row(i) + block_len_);
  return messages;
}

}  // namespace nrn::coding
