// Semantics of the radio round engine: the exact reception rule of the
// classic model (Section 3.1) and engine bookkeeping.
#include "radio/network.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "radio/trace.hpp"

namespace nrn::radio {
namespace {

using graph::Graph;
using graph::make_complete;
using graph::make_path;
using graph::make_star;

TEST(RadioEngine, SingleBroadcasterDelivers) {
  const Graph g = make_path(3);  // 0 - 1 - 2
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(1);
  const auto& ds = net.run_round();
  ASSERT_EQ(ds.size(), 2u);  // both path neighbors hear it
  for (const auto& d : ds) {
    EXPECT_EQ(d.sender, 1);
    EXPECT_TRUE(d.receiver == 0 || d.receiver == 2);
  }
}

TEST(RadioEngine, TwoBroadcastingNeighborsCollide) {
  const Graph g = make_star(2);  // hub 0, leaves 1, 2
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(1);
  net.set_broadcast(2);
  const auto& ds = net.run_round();
  EXPECT_TRUE(ds.empty());  // hub hears a collision
  EXPECT_EQ(net.last_round().collision_losses, 1);
}

TEST(RadioEngine, BroadcasterDoesNotReceive) {
  const Graph g = make_path(2);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(0);
  net.set_broadcast(1);
  const auto& ds = net.run_round();
  EXPECT_TRUE(ds.empty());  // both transmitted, neither listened
}

TEST(RadioEngine, NonNeighborsDoNotInterfere) {
  const Graph g = make_path(5);  // 0-1-2-3-4
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(0);
  net.set_broadcast(3);
  const auto& ds = net.run_round();
  // Node 1 hears 0; node 2 hears 3; node 4 hears 3.
  ASSERT_EQ(ds.size(), 3u);
}

TEST(RadioEngine, CollisionAtSharedNeighborOnly) {
  const Graph g = make_path(5);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(1);
  net.set_broadcast(3);
  const auto& ds = net.run_round();
  // Node 2 is adjacent to both: collision.  Nodes 0 and 4 each hear one.
  ASSERT_EQ(ds.size(), 2u);
  for (const auto& d : ds) EXPECT_TRUE(d.receiver == 0 || d.receiver == 4);
  EXPECT_EQ(net.last_round().collision_losses, 1);
}

TEST(RadioEngine, DoubleStagingThrows) {
  const Graph g = make_path(2);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(0);
  EXPECT_THROW(net.set_broadcast(0), ContractViolation);
}

TEST(RadioEngine, TotalsAccumulate) {
  const Graph g = make_path(3);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  for (int i = 0; i < 5; ++i) {
    net.set_broadcast(0);
    net.run_round();
  }
  EXPECT_EQ(net.totals().rounds, 5);
  EXPECT_EQ(net.totals().broadcasts, 5);
  EXPECT_EQ(net.totals().deliveries, 5);  // node 1 hears each time
}

TEST(RadioEngine, DeterministicGivenSeed) {
  const Graph g = make_star(50);
  auto run = [&g](std::uint64_t seed) {
    RadioNetwork net(g, FaultModel::receiver(0.5), Rng(seed));
    std::vector<std::int64_t> counts;
    for (int r = 0; r < 50; ++r) {
      net.set_broadcast(0);
      counts.push_back(
          static_cast<std::int64_t>(net.run_round().size()));
    }
    return counts;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(RadioEngine, CompleteGraphSingleSpeakerReachesAll) {
  const Graph g = make_complete(8);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(0);
  EXPECT_EQ(net.run_round().size(), 7u);
}

TEST(RadioEngine, CompleteGraphTwoSpeakersSilenceEveryone) {
  const Graph g = make_complete(8);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  net.set_broadcast(0);
  net.set_broadcast(1);
  EXPECT_TRUE(net.run_round().empty());
  EXPECT_EQ(net.last_round().collision_losses, 6);
}

TEST(Trace, RecordsEveryRound) {
  const Graph g = make_path(4);
  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  TraceRecorder trace;
  for (int r = 0; r < 3; ++r) {
    net.set_broadcast(0);
    net.run_round();
    trace.record(net.last_round(), static_cast<double>(r + 1));
  }
  ASSERT_EQ(trace.round_count(), 3u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(trace.rounds()[r].broadcasters, 1);
    EXPECT_EQ(trace.rounds()[r].deliveries, 1);  // node 1 hears node 0
    EXPECT_EQ(trace.progress()[r], static_cast<double>(r + 1));
  }
}

}  // namespace
}  // namespace nrn::radio
