// Multi-message coded broadcast (Lemmas 12/13 with RLNC, and source-side
// Reed-Solomon over the Decay pattern): completion, payload decodability
// at every node, and throughput shape.
#include "core/multi_message.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using graph::make_grid;
using graph::make_path;
using graph::make_star;
using radio::FaultModel;
using radio::RadioNetwork;

std::vector<std::vector<std::uint8_t>> random_messages(std::size_t k,
                                                       std::size_t len,
                                                       Rng& rng) {
  std::vector<std::vector<std::uint8_t>> msgs(
      k, std::vector<std::uint8_t>(len));
  for (auto& m : msgs)
    for (auto& s : m) s = static_cast<std::uint8_t>(rng.next_below(256));
  return msgs;
}

TEST(MultiMessage, DecayPatternCompletesOnPath) {
  const auto g = make_path(24);
  MultiMessageParams params;
  params.k = 8;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::receiver(0.3), Rng(1));
  Rng rng(2);
  const auto r = algo.run(net, rng);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.messages, 8);
}

TEST(MultiMessage, DecayPatternPayloadsDecodeEverywhere) {
  const auto g = make_grid(5, 5);
  MultiMessageParams params;
  params.k = 6;
  params.block_len = 4;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::receiver(0.3), Rng(3));
  Rng rng(4);
  const auto msgs = random_messages(6, 4, rng);
  const auto r = algo.run_and_verify(net, rng, msgs);
  EXPECT_TRUE(r.completed);  // includes the decode-equality check
}

TEST(MultiMessage, RobustFastbcPatternCompletesOnPath) {
  const auto g = make_path(48);
  MultiMessageParams params;
  params.k = 6;
  params.pattern = MultiPattern::kRobustFastbc;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::receiver(0.3), Rng(5));
  Rng rng(6);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(MultiMessage, RobustFastbcPatternVerifiesPayloads) {
  const auto g = make_path(32);
  MultiMessageParams params;
  params.k = 4;
  params.block_len = 3;
  params.pattern = MultiPattern::kRobustFastbc;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::sender(0.3), Rng(7));
  Rng rng(8);
  const auto msgs = random_messages(4, 3, rng);
  EXPECT_TRUE(algo.run_and_verify(net, rng, msgs).completed);
}

TEST(MultiMessage, SenderFaultsAlsoWork) {
  const auto g = make_grid(4, 6);
  MultiMessageParams params;
  params.k = 5;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::sender(0.4), Rng(9));
  Rng rng(10);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(MultiMessage, StarManyMessages) {
  const auto g = make_star(30);
  MultiMessageParams params;
  params.k = 32;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::receiver(0.5), Rng(11));
  Rng rng(12);
  const auto r = algo.run(net, rng);
  EXPECT_TRUE(r.completed);
  // Coding on a star should be near Theta(1) per message (Lemma 16 inside
  // the RLNC framework): allow a generous constant but not log n.
  EXPECT_LT(r.rounds_per_message(), 40.0);
}

TEST(MultiMessage, RoundsGrowLinearlyInK) {
  // Lemma 12: k log n term dominates for long paths and many messages, so
  // rounds/message should be roughly flat in k.
  const auto g = make_path(16);
  double rpm_small = 0, rpm_large = 0;
  {
    MultiMessageParams params;
    params.k = 8;
    CodedBroadcast algo(g, 0, params);
    RadioNetwork net(g, FaultModel::receiver(0.3), Rng(13));
    Rng rng(14);
    rpm_small = algo.run(net, rng).rounds_per_message();
  }
  {
    MultiMessageParams params;
    params.k = 64;
    CodedBroadcast algo(g, 0, params);
    RadioNetwork net(g, FaultModel::receiver(0.3), Rng(15));
    Rng rng(16);
    rpm_large = algo.run(net, rng).rounds_per_message();
  }
  EXPECT_LT(rpm_large, rpm_small * 3.0);
}

TEST(MultiMessage, BudgetRespected) {
  const auto g = make_path(32);
  MultiMessageParams params;
  params.k = 8;
  params.max_rounds = 5;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::faultless(), Rng(17));
  Rng rng(18);
  const auto r = algo.run(net, rng);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 5);
}

TEST(MultiMessage, SingleMessageDegenerate) {
  const auto g = make_path(8);
  MultiMessageParams params;
  params.k = 1;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::faultless(), Rng(19));
  Rng rng(20);
  EXPECT_TRUE(algo.run(net, rng).completed);
}

TEST(MultiMessage, VerifyRequiresPayloadMode) {
  const auto g = make_path(8);
  MultiMessageParams params;
  params.k = 2;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::faultless(), Rng(21));
  Rng rng(22);
  EXPECT_THROW(algo.run_and_verify(net, rng, {}), ContractViolation);
}

TEST(MultiMessage, ReedSolomonCodeDecodesEverywhere) {
  const auto g = make_grid(5, 5);
  MultiMessageParams params;
  params.k = 6;
  params.block_len = 4;
  params.code = MultiCode::kReedSolomon;
  CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::receiver(0.3), Rng(3));
  Rng rng(4);
  const auto msgs = random_messages(6, 4, rng);
  const auto r = algo.run_and_verify(net, rng, msgs);
  EXPECT_TRUE(r.completed);  // includes the decode-equality check
  EXPECT_EQ(r.messages, 6);
}

TEST(MultiMessage, ReedSolomonCodeNeedsDecayPayloadsAndGf256) {
  const auto g = make_path(8);
  MultiMessageParams params;
  params.k = 2;
  params.code = MultiCode::kReedSolomon;
  EXPECT_THROW(CodedBroadcast algo(g, 0, params), ContractViolation);
  params.block_len = 4;
  params.pattern = MultiPattern::kRobustFastbc;
  EXPECT_THROW(CodedBroadcast algo(g, 0, params), ContractViolation);
  params.pattern = MultiPattern::kDecay;
  // m = k + 4 ceil(log2 8k) + 8 is 255 at k = 203 and 256 at k = 204.
  params.k = 204;
  EXPECT_THROW(CodedBroadcast algo(g, 0, params), ContractViolation);
  params.k = 203;
  const CodedBroadcast algo(g, 0, params);
  RadioNetwork net(g, FaultModel::faultless(), Rng(23));
  Rng rng(24);
  EXPECT_THROW(algo.run(net, rng), ContractViolation);  // needs payloads
}

}  // namespace
}  // namespace nrn::core
