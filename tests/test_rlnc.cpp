// RLNC state: rank algebra, innovation detection, decode correctness
// (the machinery behind Lemmas 12/13).
#include "coding/rlnc.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace nrn::coding {
namespace {

std::vector<std::vector<std::uint8_t>> random_messages(std::size_t k,
                                                       std::size_t len,
                                                       Rng& rng) {
  std::vector<std::vector<std::uint8_t>> msgs(
      k, std::vector<std::uint8_t>(len));
  for (auto& m : msgs)
    for (auto& s : m) s = static_cast<std::uint8_t>(rng.next_below(256));
  return msgs;
}

/// A coded packet as a sender builds it: k coefficients plus block_len
/// payload symbols (empty in coefficient-only mode).
struct Packet {
  std::vector<std::uint8_t> coeffs;
  std::vector<std::uint8_t> payload;
};

/// One send: the coefficient draw, then the combination it names.
Packet send(const RlncState& from, Rng& rng) {
  std::vector<std::uint8_t> lambda(from.k());
  from.draw(rng, lambda);
  Packet p{std::vector<std::uint8_t>(from.k()),
           std::vector<std::uint8_t>(from.block_len())};
  from.combine(lambda, p.coeffs, p.payload);
  return p;
}

bool absorb(RlncState& into, const Packet& p) {
  return into.absorb(p.coeffs, p.payload);
}

/// A coefficient-only packet with a single 1 at `column`.
Packet unit(std::size_t k, std::size_t column) {
  Packet p{std::vector<std::uint8_t>(k, 0), {}};
  p.coeffs[column] = 1;
  return p;
}

TEST(Rlnc, SourceSeedIsFullRank) {
  Rng rng(1);
  RlncState s(5, 3);
  s.seed_source(random_messages(5, 3, rng));
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(s.rank(), 5u);
}

TEST(Rlnc, DecodeRecoversMessagesDirectly) {
  Rng rng(2);
  const auto msgs = random_messages(6, 4, rng);
  RlncState src(6, 4);
  src.seed_source(msgs);
  EXPECT_EQ(src.decode(), msgs);
}

TEST(Rlnc, RelayDecodesAfterKInnovativePackets) {
  Rng rng(3);
  const auto msgs = random_messages(8, 4, rng);
  RlncState src(8, 4);
  src.seed_source(msgs);
  RlncState sink(8, 4);
  int packets = 0;
  while (!sink.complete()) {
    absorb(sink, send(src, rng));
    ++packets;
    ASSERT_LT(packets, 100);
  }
  EXPECT_EQ(sink.decode(), msgs);
  // Random GF(256) combinations are innovative with prob >= 1 - 1/255;
  // needing many retries would indicate broken elimination.
  EXPECT_LE(packets, 12);
}

TEST(Rlnc, MultiHopRelayChain) {
  Rng rng(4);
  const auto msgs = random_messages(5, 2, rng);
  RlncState a(5, 2), b(5, 2), c(5, 2);
  a.seed_source(msgs);
  // a -> b -> c, interleaved: c only hears b's re-coded packets.
  int rounds = 0;
  while (!c.complete()) {
    absorb(b, send(a, rng));
    if (b.rank() > 0) absorb(c, send(b, rng));
    ASSERT_LT(++rounds, 200);
  }
  EXPECT_EQ(c.decode(), msgs);
}

TEST(Rlnc, DependentPacketIsNotInnovative) {
  Rng rng(5);
  const auto msgs = random_messages(4, 2, rng);
  RlncState src(4, 2);
  src.seed_source(msgs);
  RlncState sink(4, 2);
  const auto pkt = send(src, rng);
  EXPECT_TRUE(absorb(sink, pkt));
  EXPECT_FALSE(absorb(sink, pkt));  // identical packet: dependent
  EXPECT_EQ(sink.rank(), 1u);
}

TEST(Rlnc, ScaledPacketIsNotInnovative) {
  Rng rng(6);
  RlncState sink(3, 0);
  EXPECT_TRUE(absorb(sink, Packet{{1, 2, 3}, {}}));
  const auto& f = Gf256::instance();
  EXPECT_FALSE(absorb(sink, Packet{{f.mul(5, 1), f.mul(5, 2), f.mul(5, 3)},
                                   {}}));
}

TEST(Rlnc, CoefficientOnlyModeTracksRank) {
  Rng rng(7);
  RlncState src(10, 0);
  src.seed_source({});
  RlncState sink(10, 0);
  while (!sink.complete()) absorb(sink, send(src, rng));
  EXPECT_EQ(sink.rank(), 10u);
  EXPECT_THROW(sink.decode(), ContractViolation);
}

TEST(Rlnc, PartialRankDecodeThrows) {
  Rng rng(8);
  const auto msgs = random_messages(4, 2, rng);
  RlncState src(4, 2);
  src.seed_source(msgs);
  RlncState sink(4, 2);
  absorb(sink, send(src, rng));
  EXPECT_FALSE(sink.complete());
  EXPECT_THROW(sink.decode(), ContractViolation);
}

TEST(Rlnc, DrawFromEmptyThrows) {
  Rng rng(9);
  RlncState s(3, 0);
  std::vector<std::uint8_t> lambda(3);
  EXPECT_THROW(s.draw(rng, lambda), ContractViolation);
}

TEST(Rlnc, AbsorbValidatesLengths) {
  RlncState s(3, 2);
  EXPECT_THROW(absorb(s, Packet{{1, 2}, {0, 0}}), ContractViolation);
  EXPECT_THROW(absorb(s, Packet{{1, 2, 3}, {0}}), ContractViolation);
}

TEST(Rlnc, DrawMakesRankCallsOfNextBelow256) {
  // The draw is part of every coded record: rank() calls of
  // next_below(256), one u64 each, in row order, and nothing past
  // lambda[rank() - 1] is written.  A shadow stream replays the calls; a
  // draw that took 8 bytes from one word would pass every algebra test
  // and still change every coded record.
  constexpr std::size_t k = 12;
  RlncState s(k, 0);
  for (std::size_t r = 1; r <= k; ++r) {
    ASSERT_TRUE(absorb(s, unit(k, (5 * r) % k)));
    ASSERT_EQ(s.rank(), r);
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      Rng rng(seed * 100 + r), shadow(seed * 100 + r);
      std::vector<std::uint8_t> lambda(k, 0xAA);
      s.draw(rng, lambda);
      std::vector<std::uint8_t> want;
      bool nonzero = false;
      for (std::size_t i = 0; i < r; ++i) {
        want.push_back(static_cast<std::uint8_t>(shadow.next_below(256)));
        nonzero = nonzero || want.back() != 0;
      }
      want.resize(k, 0xAA);
      ASSERT_TRUE(nonzero) << "seed drew all zeros; pick another";
      EXPECT_EQ(lambda, want) << "rank " << r << " seed " << seed;
      EXPECT_EQ(rng(), shadow()) << "rank " << r << " seed " << seed;
    }
  }
}

TEST(Rlnc, DrawResamplesTheAllZeroDraw) {
  // A rank-1 draw is zero with probability 1/256: find a seed whose first
  // next_below(256) is 0, and check the draw throws that call away whole
  // and keeps the next nonzero one, consuming exactly the shadow's calls.
  RlncState s(4, 0);
  ASSERT_TRUE(absorb(s, unit(4, 2)));
  std::uint64_t seed = 0;
  while (Rng(seed).next_below(256) != 0) ++seed;
  Rng rng(seed), shadow(seed);
  std::vector<std::uint8_t> lambda(4, 0xAA);
  s.draw(rng, lambda);
  std::uint8_t want = 0;
  int calls = 0;
  while (want == 0) {
    want = static_cast<std::uint8_t>(shadow.next_below(256));
    ++calls;
  }
  EXPECT_GE(calls, 2);
  EXPECT_EQ(lambda, (std::vector<std::uint8_t>{want, 0xAA, 0xAA, 0xAA}));
  EXPECT_EQ(rng(), shadow());
}

TEST(Rlnc, CombineBuildsTheDrawnCombination) {
  // combine(lambda) is sum_i lambda[i] * row i with rows in pivot order:
  // over unit rows e_2, e_5, e_7 (absorbed out of order) the coefficients
  // are lambda scattered to the pivot columns, and the payload is the same
  // combination of the payload rows.
  RlncState s(8, 2);
  const std::vector<std::uint8_t> pay7{7, 70}, pay2{2, 20}, pay5{5, 50};
  Packet e7{std::vector<std::uint8_t>(8, 0), pay7};
  e7.coeffs[7] = 1;
  Packet e2{std::vector<std::uint8_t>(8, 0), pay2};
  e2.coeffs[2] = 1;
  Packet e5{std::vector<std::uint8_t>(8, 0), pay5};
  e5.coeffs[5] = 1;
  ASSERT_TRUE(absorb(s, e7));
  ASSERT_TRUE(absorb(s, e2));
  ASSERT_TRUE(absorb(s, e5));
  const std::vector<std::uint8_t> lambda{3, 0, 9};
  Packet out{std::vector<std::uint8_t>(8, 0xFF),
             std::vector<std::uint8_t>(2, 0xFF)};
  s.combine(lambda, out.coeffs, out.payload);
  EXPECT_EQ(out.coeffs, (std::vector<std::uint8_t>{0, 0, 3, 0, 0, 0, 0, 9}));
  const auto& f = Gf256::instance();
  for (std::size_t j = 0; j < 2; ++j)
    EXPECT_EQ(out.payload[j], f.add(f.mul(3, pay2[j]), f.mul(9, pay7[j])));
  // A combination of the basis is never innovative to its own state.
  EXPECT_FALSE(absorb(s, out));
}

TEST(Rlnc, MixingTwoPartialSourcesCoversUnion) {
  // Node hears packets from two peers holding disjoint halves of the
  // basis; its rank converges to the union's dimension.
  Rng rng(10);
  RlncState half_a(6, 0), half_b(6, 0), sink(6, 0);
  // half_a spans e0..e2, half_b spans e3..e5.
  for (std::size_t i = 0; i < 3; ++i) {
    absorb(half_a, unit(6, i));
    absorb(half_b, unit(6, 3 + i));
  }
  int rounds = 0;
  while (sink.rank() < 6) {
    absorb(sink, send(half_a, rng));
    absorb(sink, send(half_b, rng));
    ASSERT_LT(++rounds, 100);
  }
  EXPECT_TRUE(sink.complete());
}

class RlncDimensionSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RlncDimensionSweep, EndToEnd) {
  const std::size_t k = GetParam();
  Rng rng(40 + k);
  const auto msgs = random_messages(k, 3, rng);
  RlncState src(k, 3), sink(k, 3);
  src.seed_source(msgs);
  int packets = 0;
  while (!sink.complete()) {
    absorb(sink, send(src, rng));
    ASSERT_LT(++packets, static_cast<int>(4 * k + 50));
  }
  EXPECT_EQ(sink.decode(), msgs);
}

INSTANTIATE_TEST_SUITE_P(Dims, RlncDimensionSweep,
                         ::testing::Values<std::size_t>(1, 2, 3, 8, 17, 32,
                                                        64, 128));

}  // namespace
}  // namespace nrn::coding
