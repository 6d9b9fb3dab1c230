// Single-link schedules (Appendix A, Lemmas 29-33): the star schedules on
// the one-leaf star, with the link's repetition and packet-count formulas.
#include <gtest/gtest.h>

#include "core/star_schedules.hpp"
#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using radio::FaultModel;
using radio::RadioNetwork;

RadioNetwork make_net(FaultModel fm, std::uint64_t seed) {
  static const graph::Graph g = graph::make_star(1);
  return RadioNetwork(g, fm, Rng(seed));
}

TEST(SingleLink, NonAdaptiveSucceedsWithEnoughReps) {
  // Seed chosen to succeed under the v4 coin tape (the nonadaptive bound
  // is probabilistic, not certain, at these reps).
  auto net = make_net(FaultModel::receiver(0.5), 2);
  const std::int64_t k = 64;
  const auto reps = link_nonadaptive_reps(k, 0.5);
  const auto r = run_star_nonadaptive_routing(net, k, reps);
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.rounds, k * reps);
}

TEST(SingleLink, NonAdaptiveUsuallyFailsWithOneRep) {
  int failures = 0;
  for (std::uint64_t s = 0; s < 20; ++s) {
    auto net = make_net(FaultModel::receiver(0.5), 100 + s);
    if (!run_star_nonadaptive_routing(net, 16, 1).completed) ++failures;
  }
  EXPECT_GT(failures, 15);  // each trial fails with prob 1 - 2^-16
}

TEST(SingleLink, NonAdaptiveRepsGrowLogarithmically) {
  const auto r16 = link_nonadaptive_reps(16, 0.5);
  const auto r256 = link_nonadaptive_reps(256, 0.5);
  const auto r65536 = link_nonadaptive_reps(65536, 0.5);
  EXPECT_GT(r256, r16);
  EXPECT_GT(r65536, r256);
  // Doubling the exponent roughly doubles the reps: log k scaling.
  EXPECT_NEAR(static_cast<double>(r65536) / r256, 2.0, 0.5);
}

TEST(SingleLink, AdaptiveIsConstantPerMessage) {
  auto net = make_net(FaultModel::receiver(0.5), 2);
  const std::int64_t k = 512;
  const auto r = run_star_adaptive_routing(net, k, 100 * k);
  EXPECT_TRUE(r.completed);
  // E[rounds/message] = 1/(1-p) = 2.
  EXPECT_NEAR(r.rounds_per_message(), 2.0, 0.5);
}

TEST(SingleLink, AdaptiveWorksWithSenderFaults) {
  auto net = make_net(FaultModel::sender(0.5), 3);
  const auto r = run_star_adaptive_routing(net, 256, 100000);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.rounds_per_message(), 2.0, 0.5);
}

TEST(SingleLink, AdaptiveBudgetRespected) {
  auto net = make_net(FaultModel::receiver(0.5), 4);
  const auto r = run_star_adaptive_routing(net, 1000, 10);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 10);
}

TEST(SingleLink, CodingIsConstantPerMessage) {
  auto net = make_net(FaultModel::receiver(0.5), 5);
  const std::int64_t k = 256;
  const auto m = rs_packet_count(k, 1, 0.5);
  const auto r = run_star_rs_coding(net, k, m);
  EXPECT_TRUE(r.completed);
  EXPECT_LT(r.rounds_per_message(), 4.0);
}

TEST(SingleLink, CodingFailsWithExactlyKPackets) {
  int failures = 0;
  for (std::uint64_t s = 0; s < 10; ++s) {
    auto net = make_net(FaultModel::receiver(0.5), 50 + s);
    if (!run_star_rs_coding(net, 64, 64).completed) ++failures;
  }
  EXPECT_EQ(failures, 10);  // needs every packet to survive: hopeless
}

TEST(SingleLink, NonAdaptiveGapShape) {
  // Lemma 31: rounds/message for non-adaptive routing grows with log k
  // while coding stays constant.
  auto net_r = make_net(FaultModel::receiver(0.5), 6);
  const std::int64_t k = 1024;
  const auto routing =
      run_star_nonadaptive_routing(net_r, k, link_nonadaptive_reps(k, 0.5));
  auto net_c = make_net(FaultModel::receiver(0.5), 7);
  const auto coding =
      run_star_rs_coding(net_c, k, rs_packet_count(k, 1, 0.5));
  ASSERT_TRUE(routing.completed);
  ASSERT_TRUE(coding.completed);
  EXPECT_GT(routing.rounds_per_message() / coding.rounds_per_message(), 4.0);
}

TEST(SingleLink, AdaptiveClosesTheGap) {
  // Lemma 33: adaptive routing vs coding is Theta(1) on the link.
  auto net_r = make_net(FaultModel::receiver(0.5), 8);
  const std::int64_t k = 1024;
  const auto routing = run_star_adaptive_routing(net_r, k, 100 * k);
  auto net_c = make_net(FaultModel::receiver(0.5), 9);
  const auto coding =
      run_star_rs_coding(net_c, k, rs_packet_count(k, 1, 0.5));
  ASSERT_TRUE(routing.completed);
  ASSERT_TRUE(coding.completed);
  const double gap =
      routing.rounds_per_message() / coding.rounds_per_message();
  EXPECT_LT(gap, 3.0);
  EXPECT_GT(gap, 0.3);
}

}  // namespace
}  // namespace nrn::core
