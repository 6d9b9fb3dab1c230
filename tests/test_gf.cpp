// Field axioms and known values for GF(2^8) and GF(2^16): one typed suite
// over both instantiations of coding::BinaryField.
#include <gtest/gtest.h>

#include <vector>

#include "coding/binary_field.hpp"
#include "common/rng.hpp"

namespace nrn::coding {
namespace {

template <typename Field>
class BinaryFieldTest : public ::testing::Test {
 protected:
  using Symbol = typename Field::Symbol;
  const Field& f = Field::instance();

  Symbol random_symbol(Rng& rng) {
    return static_cast<Symbol>(rng.next_below(Field::kFieldSize));
  }
};

using Fields = ::testing::Types<Gf256, Gf65536>;
TYPED_TEST_SUITE(BinaryFieldTest, Fields);

TYPED_TEST(BinaryFieldTest, RandomizedFieldLaws) {
  const auto& f = this->f;
  for (const std::uint64_t seed : {1, 2, 3, 4}) {
    Rng rng(seed);
    for (int i = 0; i < 2000; ++i) {
      const auto a = this->random_symbol(rng);
      const auto b = this->random_symbol(rng);
      const auto c = this->random_symbol(rng);
      // Commutativity.
      EXPECT_EQ(f.mul(a, b), f.mul(b, a));
      EXPECT_EQ(f.add(a, b), f.add(b, a));
      // Associativity.
      EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
      // Distributivity.
      EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
      // Identities.
      EXPECT_EQ(f.mul(a, 1), a);
      EXPECT_EQ(f.add(a, 0), a);
      // Characteristic 2: subtraction is addition.
      EXPECT_EQ(f.add(a, a), 0);
      EXPECT_EQ(f.sub(a, b), f.add(a, b));
      // Inverses: multiplying by inv(a) undoes multiplying by a.
      if (a != 0) {
        EXPECT_EQ(f.mul(a, f.inv(a)), 1);
        EXPECT_EQ(f.mul(f.mul(a, b), f.inv(a)), b);
      }
    }
  }
}

TYPED_TEST(BinaryFieldTest, ZeroAnnihilatesAndHasNoInverse) {
  const auto& f = this->f;
  for (int i = 0; i < TypeParam::kFieldSize; ++i) {
    const auto a = static_cast<typename TypeParam::Symbol>(i);
    EXPECT_EQ(f.mul(a, 0), 0);
    EXPECT_EQ(f.mul(0, a), 0);
  }
  EXPECT_THROW(f.inv(0), ContractViolation);
}

TYPED_TEST(BinaryFieldTest, MultiplicationByNonzeroIsAPermutation) {
  const auto& f = this->f;
  std::vector<bool> seen(TypeParam::kFieldSize, false);
  for (int b = 0; b < TypeParam::kFieldSize; ++b) {
    const auto v = f.mul(3, static_cast<typename TypeParam::Symbol>(b));
    EXPECT_FALSE(b != 0 && v == 0);
    EXPECT_FALSE(seen[v]) << "3 * " << b << " repeats";
    seen[v] = true;
  }
}

TYPED_TEST(BinaryFieldTest, AlphaPowIsDistinctOverTheGroupOrder) {
  // alpha generates the multiplicative group (the polynomial is
  // primitive), so the Reed-Solomon evaluation points never collide.
  const auto& f = this->f;
  std::vector<bool> seen(TypeParam::kFieldSize, false);
  for (int i = 0; i < TypeParam::kGroupOrder; ++i) {
    const auto v = f.alpha_pow(static_cast<std::uint32_t>(i));
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "alpha^" << i << " repeats";
    seen[v] = true;
  }
  EXPECT_EQ(f.alpha_pow(TypeParam::kGroupOrder), 1);  // wraps around
}

TYPED_TEST(BinaryFieldTest, AlphaPowMatchesRepeatedMultiplicationByTwo) {
  const auto& f = this->f;
  typename TypeParam::Symbol acc = 1;
  for (std::uint32_t e = 0; e < 40; ++e) {
    EXPECT_EQ(f.alpha_pow(e), acc) << "e=" << e;
    acc = f.mul(acc, 2);
  }
}

TEST(Gf256, KnownValues) {
  // GF(2^8) / 0x11D: x^8 = x^4 + x^3 + x^2 + 1 = 0x1D.
  const auto& f = Gf256::instance();
  EXPECT_EQ(f.mul(2, 2), 4);
  EXPECT_EQ(f.mul(16, 16), 0x1D);
  EXPECT_EQ(f.alpha_pow(8), 0x1D);
  EXPECT_EQ(f.alpha_pow(0), 1);
}

TEST(Gf65536, KnownValues) {
  // GF(2^16) / 0x1100B: x^16 = x^12 + x^3 + x + 1 = 0x100B.
  const auto& f = Gf65536::instance();
  EXPECT_EQ(f.mul(0x100, 0x100), 0x100B);
  EXPECT_EQ(f.alpha_pow(16), 0x100B);
  EXPECT_EQ(f.alpha_pow(0), 1);
}

}  // namespace
}  // namespace nrn::coding
