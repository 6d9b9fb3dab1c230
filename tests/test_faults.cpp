// Statistical properties of the two fault models (Section 3.1): rates match
// p, sender faults hit all receivers of a sender together, receiver faults
// strike independently.
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace nrn::radio {
namespace {

using graph::Graph;
using graph::make_path;
using graph::make_star;

TEST(Faults, FaultlessNeverLoses) {
  const Graph g = make_star(20);
  RadioNetwork net(g, FaultModel::faultless(), Rng(3));
  for (int r = 0; r < 200; ++r) {
    net.set_broadcast(0);
    EXPECT_EQ(net.run_round().size(), 20u);
  }
  EXPECT_EQ(net.totals().sender_fault_losses, 0);
  EXPECT_EQ(net.totals().receiver_fault_losses, 0);
}

TEST(Faults, ReceiverFaultRateMatchesP) {
  const Graph g = make_star(1);
  for (double p : {0.1, 0.5, 0.8}) {
    RadioNetwork net(g, FaultModel::receiver(p), Rng(11));
    const int rounds = 20000;
    int received = 0;
    for (int r = 0; r < rounds; ++r) {
      net.set_broadcast(0);
      received += static_cast<int>(net.run_round().size());
    }
    EXPECT_NEAR(static_cast<double>(received) / rounds, 1.0 - p, 0.02)
        << "p=" << p;
  }
}

TEST(Faults, SenderFaultRateMatchesP) {
  const Graph g = make_star(1);
  for (double p : {0.1, 0.5, 0.8}) {
    RadioNetwork net(g, FaultModel::sender(p), Rng(13));
    const int rounds = 20000;
    int received = 0;
    for (int r = 0; r < rounds; ++r) {
      net.set_broadcast(0);
      received += static_cast<int>(net.run_round().size());
    }
    EXPECT_NEAR(static_cast<double>(received) / rounds, 1.0 - p, 0.02)
        << "p=" << p;
  }
}

TEST(Faults, SenderFaultIsSharedAcrossReceivers) {
  // With sender faults, in every round either all leaves receive or none.
  const Graph g = make_star(10);
  RadioNetwork net(g, FaultModel::sender(0.5), Rng(17));
  int all = 0, none = 0, partial = 0;
  for (int r = 0; r < 2000; ++r) {
    net.set_broadcast(0);
    const auto got = net.run_round().size();
    if (got == 10u)
      ++all;
    else if (got == 0u)
      ++none;
    else
      ++partial;
  }
  EXPECT_EQ(partial, 0);
  EXPECT_GT(all, 700);
  EXPECT_GT(none, 700);
}

TEST(Faults, ReceiverFaultIsIndependentAcrossReceivers) {
  // With receiver faults at p = 0.5 on a 10-leaf star, partial reception
  // should dominate: all-or-nothing rounds have probability 2 * 2^-10.
  const Graph g = make_star(10);
  RadioNetwork net(g, FaultModel::receiver(0.5), Rng(19));
  int partial = 0;
  const int rounds = 2000;
  double total = 0;
  for (int r = 0; r < rounds; ++r) {
    net.set_broadcast(0);
    const auto got = net.run_round().size();
    total += static_cast<double>(got);
    if (got != 0u && got != 10u) ++partial;
  }
  EXPECT_GT(partial, rounds * 9 / 10);
  EXPECT_NEAR(total / rounds, 5.0, 0.3);
}

TEST(Faults, FaultyTransmissionStillCollides) {
  // Sender faults replace the payload with noise but still occupy the
  // channel: two broadcasting neighbors never deliver anything.
  const Graph g = make_star(2);
  RadioNetwork net(g, FaultModel::sender(0.9), Rng(23));
  for (int r = 0; r < 500; ++r) {
    net.set_broadcast(1);
    net.set_broadcast(2);
    EXPECT_TRUE(net.run_round().empty());
  }
}

TEST(Faults, CollisionLossIsNotAFaultLoss) {
  const Graph g = make_star(2);
  RadioNetwork net(g, FaultModel::receiver(0.5), Rng(29));
  net.set_broadcast(1);
  net.set_broadcast(2);
  net.run_round();
  EXPECT_EQ(net.last_round().collision_losses, 1);
  EXPECT_EQ(net.last_round().receiver_fault_losses, 0);
}

TEST(Faults, PathFrontierStillAdvances) {
  // A faulty single edge succeeds with probability 1-p each attempt;
  // a message crosses a 2-node path in ~1/(1-p) rounds.
  const Graph g = make_path(2);
  RadioNetwork net(g, FaultModel::receiver(0.75), Rng(31));
  int rounds = 0;
  while (true) {
    net.set_broadcast(0);
    ++rounds;
    if (!net.run_round().empty()) break;
    ASSERT_LT(rounds, 10000);
  }
  EXPECT_GE(rounds, 1);
}

TEST(Faults, InvalidProbabilityRejected) {
  EXPECT_THROW(FaultModel::sender(1.0), ContractViolation);
  EXPECT_THROW(FaultModel::receiver(-0.1), ContractViolation);
}

TEST(Faults, ToStringNames) {
  EXPECT_EQ(to_string(FaultModel::faultless()), "faultless");
  EXPECT_NE(to_string(FaultModel::sender(0.25)).find("sender"),
            std::string::npos);
  EXPECT_NE(to_string(FaultModel::receiver(0.25)).find("receiver"),
            std::string::npos);
}

}  // namespace
}  // namespace nrn::radio
