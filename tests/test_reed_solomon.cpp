// Reed-Solomon: the any-k-of-m reconstruction contract the paper's coding
// schedules rely on (Section 5, footnote 1), as one typed suite over both
// fields -- GF(2^8) is the codec erasure-decay runs -- plus snapshot hashes
// pinning the codewords.
#include "coding/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"

namespace nrn::coding {
namespace {

template <typename Field>
typename ReedSolomon<Field>::Messages random_messages(std::size_t k,
                                                      std::size_t len,
                                                      Rng& rng) {
  using Symbol = typename Field::Symbol;
  typename ReedSolomon<Field>::Messages msgs(k, std::vector<Symbol>(len));
  for (auto& m : msgs)
    for (auto& s : m)
      s = static_cast<Symbol>(rng.next_below(Field::kFieldSize));
  return msgs;
}

template <typename Field>
class ReedSolomonTest : public ::testing::Test {
 protected:
  using Codec = ReedSolomon<Field>;
  using Packets = std::vector<RsPacket<Field>>;
};

using Fields = ::testing::Types<Gf256, Gf65536>;
TYPED_TEST_SUITE(ReedSolomonTest, Fields);

TYPED_TEST(ReedSolomonTest, RoundTripFirstK) {
  Rng rng(1);
  const typename TestFixture::Codec rs(8, 4);
  const auto msgs = random_messages<TypeParam>(8, 4, rng);
  EXPECT_EQ(rs.decode(rs.encode(msgs, 8)), msgs);
}

TYPED_TEST(ReedSolomonTest, AnyKOfM) {
  Rng rng(2);
  const typename TestFixture::Codec rs(6, 3);
  const auto msgs = random_messages<TypeParam>(6, 3, rng);
  auto packets = rs.encode(msgs, 24);
  for (int trial = 0; trial < 20; ++trial) {
    rng.shuffle(packets);
    const typename TestFixture::Packets subset(packets.begin(),
                                               packets.begin() + 6);
    EXPECT_EQ(rs.decode(subset), msgs);
  }
}

TYPED_TEST(ReedSolomonTest, ExtraPacketsAreIgnored) {
  Rng rng(3);
  const typename TestFixture::Codec rs(4, 2);
  const auto msgs = random_messages<TypeParam>(4, 2, rng);
  EXPECT_EQ(rs.decode(rs.encode(msgs, 10)), msgs);  // 10 > k supplied
}

TYPED_TEST(ReedSolomonTest, DuplicateIndicesDoNotCount) {
  Rng rng(4);
  const typename TestFixture::Codec rs(3, 2);
  const auto packets = rs.encode(random_messages<TypeParam>(3, 2, rng), 3);
  const typename TestFixture::Packets dup{packets[0], packets[0], packets[1]};
  EXPECT_THROW(rs.decode(dup), ContractViolation);
}

TYPED_TEST(ReedSolomonTest, TooFewPacketsThrow) {
  Rng rng(5);
  const typename TestFixture::Codec rs(5, 2);
  EXPECT_THROW(rs.decode(rs.encode(random_messages<TypeParam>(5, 2, rng), 4)),
               ContractViolation);
}

TYPED_TEST(ReedSolomonTest, PacketZeroIsTheMessageSum) {
  // Packet 0 evaluates at alpha^0 = 1: the sum of the messages.
  Rng rng(6);
  const typename TestFixture::Codec rs(4, 3);
  const auto msgs = random_messages<TypeParam>(4, 3, rng);
  const auto pkt = rs.encode_packet(msgs, 0);
  const auto& f = TypeParam::instance();
  for (std::size_t s = 0; s < 3; ++s) {
    typename TypeParam::Symbol expect = 0;
    for (std::size_t i = 0; i < 4; ++i) expect = f.add(expect, msgs[i][s]);
    EXPECT_EQ(pkt.symbols[s], expect);
  }
}

TYPED_TEST(ReedSolomonTest, SingleMessageDegenerateCase) {
  Rng rng(7);
  const typename TestFixture::Codec rs(1, 5);
  const auto msgs = random_messages<TypeParam>(1, 5, rng);
  const auto packets = rs.encode(msgs, 7);
  // Every packet of a k=1 code is the message itself.
  for (const auto& p : packets) EXPECT_EQ(p.symbols, msgs[0]);
  EXPECT_EQ(rs.decode({packets[5]}), msgs);
}

TYPED_TEST(ReedSolomonTest, DecodeFromRandomSubsets) {
  for (const std::size_t k : {2, 5, 16, 32, 64}) {
    for (const std::size_t overhead : {1, 8, 64}) {
      SCOPED_TRACE("k=" + std::to_string(k) +
                   " overhead=" + std::to_string(overhead));
      Rng rng(100 + k * 7 + overhead);
      const typename TestFixture::Codec rs(k, 2);
      const auto msgs = random_messages<TypeParam>(k, 2, rng);
      auto packets =
          rs.encode(msgs, static_cast<std::uint32_t>(k + overhead));
      rng.shuffle(packets);
      const typename TestFixture::Packets subset(
          packets.begin(), packets.begin() + static_cast<long>(k));
      EXPECT_EQ(rs.decode(subset), msgs);
    }
  }
}

TYPED_TEST(ReedSolomonTest, TopOfTheEvaluationDomain) {
  // max_packets() is the field's group order; the highest indices are
  // still distinct evaluation points, and the next one is out of range.
  using Codec = typename TestFixture::Codec;
  constexpr std::uint32_t m = Codec::max_packets();
  Rng rng(8);
  const Codec rs(4, 2);
  const auto msgs = random_messages<TypeParam>(4, 2, rng);
  typename TestFixture::Packets packets;
  for (const std::uint32_t idx : {m - 1, m - 2, m / 2, m / 3})
    packets.push_back(rs.encode_packet(msgs, idx));
  EXPECT_EQ(rs.decode(packets), msgs);
  EXPECT_THROW(rs.encode_packet(msgs, m), ContractViolation);
}

TYPED_TEST(ReedSolomonTest, RejectsBadParameters) {
  using Codec = typename TestFixture::Codec;
  EXPECT_THROW(Codec(0, 1), ContractViolation);
  EXPECT_THROW(Codec(1, 0), ContractViolation);
  EXPECT_THROW(Codec(Codec::max_packets() + std::size_t{1}, 1),
               ContractViolation);
  Rng rng(9);
  const Codec rs(2, 1);
  EXPECT_THROW(rs.encode_packet(random_messages<TypeParam>(3, 1, rng), 0),
               ContractViolation);
  EXPECT_THROW(rs.encode_packet(random_messages<TypeParam>(2, 2, rng), 0),
               ContractViolation);
}

TEST(ReedSolomon, MaxPacketsPerField) {
  static_assert(ReedSolomon<Gf256>::max_packets() == 255);
  static_assert(ReedSolomon<Gf65536>::max_packets() == 65535);
}

/// 64-bit FNV-1a of the packets' indices and symbols as decimal text.
template <typename Field>
std::uint64_t codeword_hash(const std::vector<RsPacket<Field>>& packets) {
  std::string text;
  for (const auto& p : packets) {
    text += std::to_string(p.index);
    text += ':';
    for (const auto s : p.symbols) {
      text += std::to_string(s);
      text += ',';
    }
    text += '|';
  }
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(ReedSolomon, SnapshotCodewordsAreUnchanged) {
  // Pinned from the separate GF(2^8) and GF(2^16) codecs this template
  // replaced (the GF(2^8) one evaluated at pow(2, i)): same points, same
  // Horner order, so every codeword is bit-identical.
  Rng rng256(2024);
  const ReedSolomon<Gf256> rs256(12, 8);
  EXPECT_EQ(codeword_hash<Gf256>(rs256.encode(
                random_messages<Gf256>(12, 8, rng256), 255)),
            0xdcd1fd220d309ac5ULL);
  Rng rng65536(2025);
  const ReedSolomon<Gf65536> rs65536(12, 8);
  EXPECT_EQ(codeword_hash<Gf65536>(rs65536.encode(
                random_messages<Gf65536>(12, 8, rng65536), 512)),
            0x5958af22ec434560ULL);
}

}  // namespace
}  // namespace nrn::coding
