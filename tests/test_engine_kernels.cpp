// Engine v4: the sparse and dense round kernels must be observationally
// identical (deliveries, stats, and coin tape), the v4 coin-tape contract
// documented in radio/network.hpp must hold exactly (one salt per active
// round, none in an empty round, all coins stateless mixes keyed by node
// id), bulk staging and O(1) reset must preserve all bookkeeping, and a
// delivery's plan_index must name its sender's staging position.
#include <gtest/gtest.h>

#include <numeric>
#include <span>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "radio/network.hpp"

namespace nrn::radio {
namespace {

using graph::Graph;
using graph::NodeId;

/// Flattened observable state of one round: deliveries in emission order
/// plus the stats counters.
struct RoundTrace {
  std::vector<std::tuple<NodeId, NodeId, std::int32_t>> deliveries;
  std::int64_t collisions = 0;
  std::int64_t sender_losses = 0;
  std::int64_t receiver_losses = 0;

  friend bool operator==(const RoundTrace&, const RoundTrace&) = default;
};

RoundTrace trace_round(RadioNetwork& net,
                       const std::vector<NodeId>& broadcasters) {
  for (const NodeId u : broadcasters) net.set_broadcast(u);
  RoundTrace trace;
  for (const auto& d : net.run_round())
    trace.deliveries.emplace_back(d.receiver, d.sender, d.plan_index);
  trace.collisions = net.last_round().collision_losses;
  trace.sender_losses = net.last_round().sender_fault_losses;
  trace.receiver_losses = net.last_round().receiver_fault_losses;
  return trace;
}

/// Random broadcast pattern with density `q` in staging order id-descending
/// (so staging order differs from id order and the two cannot be conflated).
std::vector<NodeId> random_plan(const Graph& g, double q, Rng& rng) {
  std::vector<NodeId> plan;
  for (NodeId u = g.node_count() - 1; u >= 0; --u)
    if (rng.bernoulli(q)) plan.push_back(u);
  return plan;
}

TEST(EngineKernels, DenseSparseAndAutoAreBitIdentical) {
  Rng meta(12345);
  const FaultModel models[] = {
      FaultModel::faultless(), FaultModel::sender(0.3),
      FaultModel::receiver(0.4), FaultModel::combined(0.2, 0.3)};
  for (int instance = 0; instance < 8; ++instance) {
    const auto n = static_cast<NodeId>(10 + meta.next_below(40));
    const Graph g = graph::make_connected_gnp(n, 0.15, meta);
    for (const auto& fm : models) {
      const std::uint64_t seed = meta();
      RadioNetwork sparse(g, fm, Rng(seed));
      RadioNetwork dense(g, fm, Rng(seed));
      RadioNetwork automatic(g, fm, Rng(seed));
      sparse.set_kernel(RadioNetwork::Kernel::kSparse);
      dense.set_kernel(RadioNetwork::Kernel::kDense);
      Rng plan_rng(seed ^ 0xabcdef);
      for (int round = 0; round < 25; ++round) {
        const auto plan = random_plan(g, 0.3, plan_rng);
        const auto a = trace_round(sparse, plan);
        const auto b = trace_round(dense, plan);
        const auto c = trace_round(automatic, plan);
        ASSERT_EQ(a, b) << "instance " << instance << " round " << round;
        ASSERT_EQ(a, c) << "instance " << instance << " round " << round;
      }
      EXPECT_EQ(sparse.totals().deliveries, dense.totals().deliveries);
      EXPECT_EQ(sparse.totals().collision_losses,
                dense.totals().collision_losses);
    }
  }
}

// The word-parallel adjacent kernel (eligible when every edge joins
// consecutive ids) must be observationally identical to the node-slot
// kernels, across fault models, on a plain path and on a disjoint union
// of id-contiguous subpaths with gaps mid-word and at word boundaries.
TEST(EngineKernels, AdjacentKernelIsBitIdenticalOnConsecutiveTopologies) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  const NodeId kSegmented = 150;
  for (NodeId v = 0; v + 1 < kSegmented; ++v)
    if (v % 7 != 3 && v != 63 && v != 64) edges.emplace_back(v, v + 1);
  const Graph topologies[] = {graph::make_path(130),
                              Graph(kSegmented, edges)};
  const FaultModel models[] = {
      FaultModel::faultless(), FaultModel::sender(0.3),
      FaultModel::receiver(0.4), FaultModel::combined(0.2, 0.3)};
  Rng meta(909);
  for (const Graph& g : topologies) {
    ASSERT_TRUE(RadioNetwork::consecutive_adjacency(g));
    for (const auto& fm : models) {
      const std::uint64_t seed = meta();
      RadioNetwork adjacent(g, fm, Rng(seed));
      RadioNetwork sparse(g, fm, Rng(seed));
      RadioNetwork dense(g, fm, Rng(seed));
      adjacent.set_kernel(RadioNetwork::Kernel::kAdjacent);
      sparse.set_kernel(RadioNetwork::Kernel::kSparse);
      dense.set_kernel(RadioNetwork::Kernel::kDense);
      Rng plan_rng(seed ^ 0x1234);
      for (int round = 0; round < 30; ++round) {
        const auto plan = random_plan(g, 0.35, plan_rng);
        const auto a = trace_round(adjacent, plan);
        const auto b = trace_round(sparse, plan);
        const auto c = trace_round(dense, plan);
        ASSERT_EQ(a, b) << "round " << round;
        ASSERT_EQ(a, c) << "round " << round;
      }
    }
  }
}

TEST(EngineKernels, AdjacentKernelRequiresEligibleTopology) {
  Rng meta(31);
  EXPECT_TRUE(RadioNetwork::consecutive_adjacency(graph::make_path(20)));
  EXPECT_FALSE(RadioNetwork::consecutive_adjacency(graph::make_star(4)));
  EXPECT_FALSE(RadioNetwork::consecutive_adjacency(graph::make_cycle(8)));
  EXPECT_FALSE(RadioNetwork::consecutive_adjacency(
      graph::make_connected_gnp(24, 0.3, meta)));

  const Graph star = graph::make_star(4);
  RadioNetwork net(star, FaultModel::faultless(), Rng(1));
  EXPECT_THROW(net.set_kernel(RadioNetwork::Kernel::kAdjacent),
               ContractViolation);

  // Kernel choice is a per-round representation decision: switching with
  // a plan already staged is a contract violation.
  const Graph path = graph::make_path(6);
  RadioNetwork path_net(path, FaultModel::faultless(), Rng(2));
  path_net.set_broadcast(0);
  EXPECT_THROW(path_net.set_kernel(RadioNetwork::Kernel::kSparse),
               ContractViolation);
  path_net.run_round();
  path_net.set_kernel(RadioNetwork::Kernel::kSparse);  // empty plan: fine
}

TEST(EngineKernels, DeliveriesEmittedInAscendingReceiverId) {
  Rng meta(777);
  const Graph g = graph::make_connected_gnp(60, 0.12, meta);
  for (const auto kernel :
       {RadioNetwork::Kernel::kSparse, RadioNetwork::Kernel::kDense}) {
    RadioNetwork net(g, FaultModel::faultless(), Rng(5));
    net.set_kernel(kernel);
    Rng plan_rng(9);
    for (int round = 0; round < 20; ++round) {
      const auto plan = random_plan(g, 0.2, plan_rng);
      for (const NodeId u : plan) net.set_broadcast(u);
      NodeId previous = -1;
      for (const auto& d : net.run_round()) {
        EXPECT_LT(previous, d.receiver);  // strictly ascending
        previous = d.receiver;
      }
    }
  }
}

// The v4 contract, predicted coin by coin with a shadow stream: one u64
// salt per active round, tweaked into a sender salt and a receiver salt,
// with every coin the stateless mix64 of its salt with the node's id, and
// no salt at all for a round with nothing staged.
TEST(EngineKernels, V4CoinTapeIsPredictable) {
  const Graph g = graph::make_star(16);  // hub 0, leaves 1..16
  const double ps = 0.35, pr = 0.45;
  const std::uint64_t seed = 2024;
  const std::uint64_t sender_thr = Rng::coin_threshold(ps);
  const std::uint64_t receiver_thr = Rng::coin_threshold(pr);

  for (const auto kernel :
       {RadioNetwork::Kernel::kSparse, RadioNetwork::Kernel::kDense}) {
    RadioNetwork net(g, FaultModel::combined(ps, pr), Rng(seed));
    net.set_kernel(kernel);
    Rng shadow(seed);
    for (int round = 0; round < 200; ++round) {
      if (round % 3 == 2) {
        // Every third round stages nothing and the shadow draws nothing for
        // it: a salt drawn here would shift every later prediction.
        EXPECT_TRUE(net.run_round().empty());
        EXPECT_EQ(net.last_round(), RoundStats{});
        continue;
      }
      net.set_broadcast(0);
      // Predict: exactly one salt, then per leaf 1..16 (ascending) a
      // counter-based receiver coin iff the hub's sender coin was clean.
      const std::uint64_t salt = shadow();
      const std::uint64_t sender_salt = salt ^ kSenderSaltTweak;
      const std::uint64_t receiver_salt = salt ^ kReceiverSaltTweak;
      const bool noisy = Rng::mix64(sender_salt, 0) < sender_thr;
      std::vector<NodeId> expected;
      if (!noisy)
        for (NodeId leaf = 1; leaf <= 16; ++leaf)
          if (!(Rng::mix64(receiver_salt, static_cast<std::uint64_t>(leaf)) <
                receiver_thr))
            expected.push_back(leaf);
      std::vector<NodeId> got;
      for (const auto& d : net.run_round()) got.push_back(d.receiver);
      ASSERT_EQ(got, expected) << "kernel mismatch at round " << round;
      EXPECT_EQ(net.last_round().sender_fault_losses, noisy ? 16 : 0);
    }
    EXPECT_EQ(net.round_number(), 200);
  }
}

// v4 sender coins are keyed by node id, not by staging position: staging
// the same plan in any order burns the same tape and delivers identically.
TEST(EngineKernels, SenderCoinsAreStagingOrderFree) {
  const Graph g = graph::make_path(5);  // 0-1-2-3-4
  const double ps = 0.5;
  const std::uint64_t seed = 99;
  const std::uint64_t thr = Rng::coin_threshold(ps);
  RadioNetwork forward(g, FaultModel::sender(ps), Rng(seed));
  RadioNetwork backward(g, FaultModel::sender(ps), Rng(seed));
  Rng shadow(seed);
  for (int round = 0; round < 100; ++round) {
    forward.set_broadcast(0);
    forward.set_broadcast(3);
    backward.set_broadcast(3);
    backward.set_broadcast(0);
    const std::uint64_t sender_salt = shadow() ^ kSenderSaltTweak;
    const bool noisy0 = Rng::mix64(sender_salt, 0) < thr;
    const bool noisy3 = Rng::mix64(sender_salt, 3) < thr;
    std::vector<NodeId> expected;
    if (!noisy0) expected.push_back(1);  // deliveries ascend by receiver
    if (!noisy3) {
      expected.push_back(2);
      expected.push_back(4);
    }
    std::vector<NodeId> fwd, bwd;
    for (const auto& d : forward.run_round()) fwd.push_back(d.receiver);
    for (const auto& d : backward.run_round()) bwd.push_back(d.receiver);
    ASSERT_EQ(fwd, expected) << "round " << round;
    ASSERT_EQ(bwd, expected) << "round " << round;
  }
}

// Bulk staging is pure sugar over set_broadcast: same plan, same tape,
// same deliveries.
TEST(EngineKernels, BulkStagingMatchesPerNodeStaging) {
  Rng meta(2026);
  const Graph g = graph::make_connected_gnp(48, 0.15, meta);
  const FaultModel fm = FaultModel::combined(0.2, 0.3);
  const std::uint64_t seed = meta();

  RadioNetwork scalar(g, fm, Rng(seed));
  RadioNetwork bulk(g, fm, Rng(seed));
  Rng plan_rng(seed ^ 0x5a5a);
  for (int round = 0; round < 40; ++round) {
    const auto plan = random_plan(g, 0.3, plan_rng);
    for (const NodeId u : plan) scalar.set_broadcast(u);
    bulk.stage_many(plan);
    const auto& a = scalar.run_round();
    const auto& b = bulk.run_round();
    ASSERT_EQ(a.size(), b.size()) << "round " << round;
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i].receiver, b[i].receiver);
      ASSERT_EQ(a[i].sender, b[i].sender);
      ASSERT_EQ(a[i].plan_index, b[i].plan_index);
    }
    ASSERT_EQ(scalar.last_round(), bulk.last_round());
  }
}

// The fused Bernoulli staging draws exactly the tape of the unfused
// for_each_bernoulli_pow2 + set_broadcast sequence.
TEST(EngineKernels, BernoulliStagingMatchesUnfusedTape) {
  Rng meta(515);
  const Graph g = graph::make_connected_gnp(32, 0.2, meta);
  std::vector<NodeId> candidates;
  for (NodeId u = 0; u < g.node_count(); u += 2) candidates.push_back(u);

  for (const std::int32_t i : {0, 1, 3}) {
    const std::uint64_t seed = meta();
    RadioNetwork fused(g, FaultModel::receiver(0.25), Rng(seed));
    RadioNetwork unfused(g, FaultModel::receiver(0.25), Rng(seed));
    Rng fused_rng(seed ^ 1), unfused_rng(seed ^ 1);
    for (int round = 0; round < 30; ++round) {
      fused.stage_bernoulli_pow2(candidates, i, fused_rng);
      unfused_rng.for_each_bernoulli_pow2(
          candidates.size(), i,
          [&](std::size_t idx) { unfused.set_broadcast(candidates[idx]); });
      const auto& a = fused.run_round();
      const auto& b = unfused.run_round();
      ASSERT_EQ(fused.last_round().broadcasters,
                unfused.last_round().broadcasters)
          << "i=" << i << " round " << round;
      ASSERT_EQ(a.size(), b.size()) << "i=" << i << " round " << round;
      for (std::size_t d = 0; d < a.size(); ++d)
        ASSERT_EQ(a[d].receiver, b[d].receiver);
      // The two algo streams must stay in lockstep too.
      ASSERT_EQ(fused_rng(), unfused_rng());
    }
  }
}

TEST(EngineKernels, FaultlessRoundsConsumeNoCoins) {
  const Graph g = graph::make_star(8);
  const std::uint64_t seed = 31337;
  RadioNetwork net(g, FaultModel::faultless(), Rng(seed));
  for (int round = 0; round < 10; ++round) {
    net.set_broadcast(0);
    EXPECT_EQ(net.run_round().size(), 8u);
  }
  // Trick: reset with the same seed after 10 rounds; if the rounds drew
  // any coin the stream would have advanced, but reset re-seeds anyway --
  // so instead compare against a combined-model net whose coins DO burn.
  RadioNetwork quiet(g, FaultModel::combined(0.0, 0.0), Rng(seed));
  for (int round = 0; round < 10; ++round) {
    quiet.set_broadcast(0);
    EXPECT_EQ(quiet.run_round().size(), 8u);  // p=0 draws nothing either
  }
}

TEST(EngineKernels, ResetReproducesAFreshNetworkExactly) {
  Rng meta(4242);
  const Graph g = graph::make_connected_gnp(30, 0.2, meta);
  const auto run_schedule = [&](RadioNetwork& net) {
    std::vector<std::int64_t> counts;
    Rng plan_rng(17);
    for (int round = 0; round < 30; ++round) {
      for (const NodeId u : random_plan(g, 0.25, plan_rng))
        net.set_broadcast(u);
      counts.push_back(static_cast<std::int64_t>(net.run_round().size()));
    }
    return counts;
  };

  RadioNetwork fresh(g, FaultModel::combined(0.2, 0.2), Rng(1001));
  const auto expected = run_schedule(fresh);

  // Dirty a network with a different model, seed, and even an abandoned
  // staging, then reset: it must replay the fresh run bit for bit.
  RadioNetwork reused(g, FaultModel::sender(0.9), Rng(5));
  run_schedule(reused);
  reused.set_broadcast(3);  // staged but never run
  reused.reset(FaultModel::combined(0.2, 0.2), Rng(1001));
  EXPECT_EQ(reused.round_number(), 0);
  EXPECT_EQ(reused.totals().broadcasts, 0);
  EXPECT_EQ(run_schedule(reused), expected);
}

// A delivery's plan_index is its sender's position in the round's staging
// order, however the round was staged (set_broadcast, stage_many and
// stage_bernoulli_pow2 mixed in one round, in an order unrelated to node
// ids) and whichever kernel ran it; and that sender is a broadcasting
// neighbour of the receiver, its only one under the edge-fault channel.
// The list stays unchanged while the next round stages, until the next
// run_round.
TEST(EngineKernels, PlanIndexIsTheSendersStagingPosition) {
  using Kernel = RadioNetwork::Kernel;
  Rng meta(8080);
  const Graph gnp = graph::make_connected_gnp(64, 0.12, meta);
  const Graph path = graph::make_path(130);
  graph::Geometry disk_geometry;
  const Graph disk = graph::make_unit_disk(64, 0.3, 1.0, meta, &disk_geometry);
  const ChannelModel faults = FaultModel::combined(0.1, 0.2);
  const ChannelModel sinr = ChannelModel::sinr_channel(2.5, 0.01, 0.8);
  struct Case {
    const char* name;
    const Graph* graph;
    const ChannelModel* channel;
    const graph::Geometry* geometry;
    Kernel kernel;
  };
  const Case cases[] = {
      {"sparse", &gnp, &faults, nullptr, Kernel::kSparse},
      {"dense", &gnp, &faults, nullptr, Kernel::kDense},
      {"adjacent", &path, &faults, nullptr, Kernel::kAdjacent},
      {"sinr sparse", &disk, &sinr, &disk_geometry, Kernel::kSparse},
      {"sinr dense", &disk, &sinr, &disk_geometry, Kernel::kDense},
  };
  using Seen = std::tuple<NodeId, NodeId, std::int32_t>;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    RadioNetwork net(*c.graph, *c.channel, Rng(3), c.geometry);
    net.set_kernel(c.kernel);
    std::vector<NodeId> order(static_cast<std::size_t>(c.graph->node_count()));
    std::iota(order.begin(), order.end(), NodeId{0});
    const std::size_t third = order.size() / 3;
    Rng plan_rng(17);
    const DeliveryList* previous = nullptr;
    std::vector<Seen> seen;
    std::int64_t delivered = 0;
    for (int round = 0; round < 30; ++round) {
      plan_rng.shuffle(order);
      const std::span<const NodeId> all(order);
      std::vector<NodeId> staged;  // the round's staging order
      for (const NodeId u : all.first(third)) {
        if (!plan_rng.bernoulli(0.15)) continue;
        net.set_broadcast(u);
        staged.push_back(u);
      }
      std::vector<NodeId> many;
      for (const NodeId u : all.subspan(third, third))
        if (plan_rng.bernoulli(0.15)) many.push_back(u);
      net.stage_many(many);
      staged.insert(staged.end(), many.begin(), many.end());
      const auto rest = all.subspan(2 * third);
      Rng shadow = plan_rng;  // replays the staging pass's coins
      net.stage_bernoulli_pow2(rest, 3, plan_rng);
      shadow.for_each_bernoulli_pow2(rest.size(), 3, [&](std::size_t i) {
        staged.push_back(rest[i]);
      });

      if (previous != nullptr) {
        std::vector<Seen> still;
        for (const auto& d : *previous)
          still.emplace_back(d.receiver, d.sender, d.plan_index);
        ASSERT_EQ(still, seen) << "round " << round;
      }
      const DeliveryList& deliveries = net.run_round();
      ASSERT_EQ(net.last_round().broadcasters,
                static_cast<std::int64_t>(staged.size()));
      std::vector<char> on_air(order.size(), 0);
      for (const NodeId u : staged) on_air[static_cast<std::size_t>(u)] = 1;
      seen.clear();
      for (const auto& d : deliveries) {
        ASSERT_GE(d.plan_index, 0);
        ASSERT_LT(static_cast<std::size_t>(d.plan_index), staged.size());
        EXPECT_EQ(staged[static_cast<std::size_t>(d.plan_index)], d.sender)
            << "round " << round;
        int on_air_neighbors = 0;
        bool adjacent = false;
        for (const NodeId w : c.graph->neighbors(d.receiver)) {
          on_air_neighbors += on_air[static_cast<std::size_t>(w)];
          adjacent = adjacent || w == d.sender;
        }
        EXPECT_TRUE(adjacent) << "round " << round;
        if (c.channel->is_edge_fault()) {
          EXPECT_EQ(on_air_neighbors, 1) << "round " << round;
        }
        seen.emplace_back(d.receiver, d.sender, d.plan_index);
      }
      delivered += static_cast<std::int64_t>(seen.size());
      previous = &deliveries;
    }
    EXPECT_GT(delivered, 0);
  }
}

}  // namespace
}  // namespace nrn::radio
