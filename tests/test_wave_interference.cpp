// Dynamic non-interference: instruments actual FASTBC / Robust FASTBC runs
// and checks the property the GBST is built for -- in fast rounds, an
// intended receiver (the broadcasting fast node's fast child) never
// experiences a collision.  This closes the loop between the static
// validator (tests/test_gbst.cpp) and the schedules that rely on it.
#include <gtest/gtest.h>

#include <cmath>

#include "core/fastbc.hpp"
#include "graph/generators.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {
namespace {

using radio::FaultModel;
using radio::RadioNetwork;

/// Re-implements FASTBC's fast-round staging to observe outcomes directly:
/// runs the even-round wave (no slow rounds, faultless), and asserts every
/// informed fast node's fast child either already has the message or
/// receives it the moment its parent's slot comes up.
void run_wave_and_check(const graph::Graph& g, graph::NodeId source,
                        std::int64_t rounds_budget) {
  trees::GbstBuildStats stats;
  const auto tree = trees::build_gbst(g, source, &stats);
  ASSERT_EQ(stats.violations_remaining, 0);

  std::int32_t rank_modulus = 1;
  while ((std::int64_t{1} << rank_modulus) < g.node_count()) ++rank_modulus;
  rank_modulus = std::max(rank_modulus, tree.max_rank);
  const std::int64_t period = 6 * rank_modulus;

  RadioNetwork net(g, FaultModel::faultless(), Rng(1));
  std::vector<char> informed(static_cast<std::size_t>(g.node_count()), 0);
  informed[static_cast<std::size_t>(source)] = 1;

  for (std::int64_t t = 0; t < rounds_budget; ++t) {
    // Stage exactly the paper's fast-round set.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> intended;
    for (graph::NodeId u = 0; u < g.node_count(); ++u) {
      const auto ui = static_cast<std::size_t>(u);
      if (!informed[ui] || !tree.is_fast(u)) continue;
      const std::int64_t target =
          static_cast<std::int64_t>(tree.level[ui]) - 6LL * tree.rank[ui];
      if (((t - target) % period + period) % period != 0) continue;
      net.set_broadcast(u);
      intended.emplace_back(u, tree.fast_child[ui]);
    }
    const auto& deliveries = net.run_round();
    // Property: every intended (parent, child) pair with a listening,
    // uninformed child results in a delivery -- no collision losses at
    // intended receivers, ever.
    for (const auto& [parent, child] : intended) {
      const auto ci = static_cast<std::size_t>(child);
      if (informed[ci]) continue;  // child already served earlier
      bool delivered = false;
      for (const auto& d : deliveries)
        if (d.receiver == child && d.sender == parent) delivered = true;
      EXPECT_TRUE(delivered)
          << "fast child " << child << " of " << parent
          << " missed its wave slot at t=" << t;
    }
    for (const auto& d : deliveries)
      informed[static_cast<std::size_t>(d.receiver)] = 1;
  }
}

TEST(WaveInterference, PathWave) {
  run_wave_and_check(graph::make_path(64), 0, 400);
}

TEST(WaveInterference, GridWave) {
  run_wave_and_check(graph::make_grid(9, 9), 0, 400);
}

TEST(WaveInterference, CaterpillarWave) {
  run_wave_and_check(graph::make_caterpillar(20, 2), 0, 400);
}

TEST(WaveInterference, CrossEdgeInstanceWaveAfterRepair) {
  graph::GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(5, 3);
  run_wave_and_check(b.build(), 0, 200);
}

TEST(WaveInterference, RandomGraphsWave) {
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    const auto g = graph::make_connected_gnp(80, 0.06, rng);
    run_wave_and_check(g, 0, 600);
  }
}

TEST(WaveInterference, FullFastbcFaultlessHasNoIntendedLosses) {
  // End-to-end: a faultless FASTBC run on a path must deliver with zero
  // fault losses and complete; collisions may only ever hit non-intended
  // listeners (on a path, none exist, so collisions must be zero too).
  const auto g = graph::make_path(128);
  Fastbc algo(g, 0);
  RadioNetwork net(g, FaultModel::faultless(), Rng(3));
  Rng rng(4);
  const auto r = algo.run(net, rng);
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(net.totals().sender_fault_losses, 0);
  EXPECT_EQ(net.totals().receiver_fault_losses, 0);
}

}  // namespace
}  // namespace nrn::core
