// GBST construction: the semantic non-interference property FASTBC's wave
// analysis needs (Section 3.4.2 and Figure 1).
#include "trees/gbst.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "graph/generators.hpp"
#include "sim/sweep.hpp"

namespace nrn::trees {
namespace {

using graph::Graph;
using graph::GraphBuilder;
using graph::make_caterpillar;
using graph::make_connected_gnp;
using graph::make_cycle;
using graph::make_grid;
using graph::make_path;
using graph::make_random_tree;
using graph::make_star;

TEST(Gbst, PathIsTriviallyGbst) {
  const auto g = make_path(20);
  GbstBuildStats stats;
  const auto t = build_gbst(g, 0, &stats);
  validate_ranked_bfs(g, t);
  EXPECT_EQ(stats.violations_remaining, 0);
  EXPECT_TRUE(is_gbst(g, t));
}

TEST(Gbst, ParallelChainsDoNotInterfere) {
  // Two disjoint chains hanging off a root: same levels, same ranks, but
  // no graph edge between the branches, so simultaneous fast transmissions
  // are fine -- the semantic property holds even though two same-(l, r)
  // fast pairs exist.
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  const auto g = b.build();
  GbstBuildStats stats;
  const auto t = build_gbst(g, 0, &stats);
  EXPECT_EQ(stats.violations_remaining, 0);
  EXPECT_TRUE(is_gbst(g, t));
}

/// Two chains off a common root plus one diagonal edge (5, 3): in the
/// min-id ranked BFS tree both 2 and 5 are fast rank-1 nodes at level 2,
/// and 5 is adjacent to 2's fast child 3 -- the Figure 1 situation.
Graph cross_edge_instance() {
  GraphBuilder b(7);
  b.add_edge(0, 1);
  b.add_edge(1, 2);
  b.add_edge(2, 3);
  b.add_edge(0, 4);
  b.add_edge(4, 5);
  b.add_edge(5, 6);
  b.add_edge(5, 3);  // diagonal: level-2 node of chain B sees chain A's tail
  return b.build();
}

TEST(Gbst, CrossEdgeForcesRepair) {
  const auto g = cross_edge_instance();
  GbstBuildStats stats;
  const auto t = build_gbst(g, 0, &stats);
  validate_ranked_bfs(g, t);
  EXPECT_EQ(stats.violations_remaining, 0);
  EXPECT_TRUE(is_gbst(g, t));
}

TEST(Gbst, FamiliesAreInterferenceFree) {
  Rng rng(101);
  std::vector<Graph> graphs;
  graphs.push_back(make_path(64));
  graphs.push_back(make_cycle(64));
  graphs.push_back(make_star(40));
  graphs.push_back(make_grid(9, 9));
  graphs.push_back(make_caterpillar(20, 2));
  for (int i = 0; i < 6; ++i) graphs.push_back(make_random_tree(150, rng));
  for (int i = 0; i < 6; ++i)
    graphs.push_back(make_connected_gnp(100, 0.06, rng));
  for (int i = 0; i < 3; ++i)
    graphs.push_back(make_connected_gnp(100, 0.15, rng));

  for (const auto& g : graphs) {
    GbstBuildStats stats;
    const auto t = build_gbst(g, 0, &stats);
    validate_ranked_bfs(g, t);
    EXPECT_EQ(stats.violations_remaining, 0) << "n=" << g.node_count();
    EXPECT_TRUE(is_gbst(g, t));
  }
}

TEST(Gbst, FindInterferenceReportsNaiveViolations) {
  // On the cross-edge instance, the *min-id* ranked BFS tree (not the GBST
  // construction) should exhibit interference, demonstrating the validator
  // actually detects the Figure 1 situation.
  const auto g = cross_edge_instance();
  const auto naive = build_ranked_bfs(g, 0);
  const auto violations = find_interference(g, naive);
  EXPECT_FALSE(violations.empty());
  for (const auto& v : violations) {
    // Victim and interferer really are distinct fast nodes at one (l, r).
    EXPECT_NE(v.victim, v.interferer);
    EXPECT_TRUE(naive.is_fast(v.victim));
    EXPECT_TRUE(naive.is_fast(v.interferer));
    EXPECT_EQ(naive.level[static_cast<size_t>(v.victim)],
              naive.level[static_cast<size_t>(v.interferer)]);
    EXPECT_EQ(naive.rank[static_cast<size_t>(v.victim)],
              naive.rank[static_cast<size_t>(v.interferer)]);
    EXPECT_TRUE(g.has_edge(v.interferer, v.fast_child));
  }
}

TEST(Gbst, GridsOfVariousShapes) {
  for (const auto& [rows, cols] :
       {std::pair{2, 32}, std::pair{4, 16}, std::pair{16, 4}}) {
    const auto g = make_grid(rows, cols);
    GbstBuildStats stats;
    const auto t = build_gbst(g, 0, &stats);
    EXPECT_EQ(stats.violations_remaining, 0)
        << rows << "x" << cols << " grid";
  }
}

TEST(Gbst, LevelsAreBfsDistancesAfterRepair) {
  Rng rng(103);
  const auto g = make_connected_gnp(80, 0.1, rng);
  const auto t = build_gbst(g, 0, nullptr);
  validate_ranked_bfs(g, t);  // includes the BFS-level check
}

/// FNV-1a of the tree's parent, rank and fast_child arrays as decimal text.
std::uint64_t tree_hash(const RankedBfsTree& t) {
  std::string text;
  for (const auto* field : {&t.parent, &t.rank, &t.fast_child}) {
    for (const std::int32_t v : *field) {
      text += std::to_string(v);
      text += ',';
    }
    text += '|';
  }
  return sim::fnv1a64(text);
}

TEST(Gbst, SnapshotTreesAreUnchanged) {
  // Pinned from the construction whose pairing pass rebuilt a candidate
  // map per attached parent; the incremental pass must pick the very same
  // parents, so FASTBC schedules (and every seeded report) stay put.
  Rng tree_rng(11), gnp_small(12), gnp_mid(13), gnp_large(14), disk(15);
  const std::pair<Graph, std::uint64_t> cases[] = {
      {make_path(64), 0xfefecf29a791ff86ULL},
      {make_grid(16, 32), 0x4d0393a2c03d8a7aULL},
      {make_random_tree(512, tree_rng), 0x03c987ffb7c88332ULL},
      {make_connected_gnp(100, 0.06, gnp_small), 0x9390307fb9859e60ULL},
      {make_connected_gnp(512, 0.02, gnp_mid), 0xe1f2be88d4f68755ULL},
      {make_connected_gnp(2048, 0.005, gnp_large), 0x439098e20fbc5718ULL},
      {graph::make_unit_disk(512, 0.1, 1.0, disk), 0x608b949fd88c3b20ULL},
      {cross_edge_instance(), 0x28e04e01b862964bULL},
  };
  for (const auto& [g, expected] : cases) {
    GbstBuildStats stats;
    const auto t = build_gbst(g, 0, &stats);
    EXPECT_EQ(stats.violations_remaining, 0) << "n=" << g.node_count();
    EXPECT_EQ(tree_hash(t), expected) << "n=" << g.node_count();
  }
}

}  // namespace
}  // namespace nrn::trees
