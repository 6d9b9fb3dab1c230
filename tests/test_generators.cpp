#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"

namespace nrn::graph {
namespace {

TEST(Generators, Path) {
  const Graph g = make_path(6);
  EXPECT_EQ(g.node_count(), 6);
  EXPECT_EQ(g.edge_count(), 5);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_EQ(g.degree(3), 2);
  EXPECT_EQ(diameter_exact(g), 5);
}

TEST(Generators, PathSingleton) {
  const Graph g = make_path(1);
  EXPECT_EQ(g.node_count(), 1);
  EXPECT_EQ(g.edge_count(), 0);
}

TEST(Generators, Cycle) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.edge_count(), 7);
  for (NodeId u = 0; u < 7; ++u) EXPECT_EQ(g.degree(u), 2);
  EXPECT_EQ(diameter_exact(g), 3);
}

TEST(Generators, Star) {
  const Graph g = make_star(9);
  EXPECT_EQ(g.node_count(), 10);
  EXPECT_EQ(g.degree(0), 9);
  for (NodeId u = 1; u < 10; ++u) EXPECT_EQ(g.degree(u), 1);
  EXPECT_EQ(diameter_exact(g), 2);
}

TEST(Generators, OneLeafStarIsTheSingleLink) {
  const Graph g = make_star(1);
  EXPECT_EQ(g.node_count(), 2);
  EXPECT_EQ(g.edge_count(), 1);
}

TEST(Generators, Complete) {
  const Graph g = make_complete(5);
  EXPECT_EQ(g.edge_count(), 10);
  EXPECT_EQ(diameter_exact(g), 1);
}

TEST(Generators, Grid) {
  const Graph g = make_grid(3, 4);
  EXPECT_EQ(g.node_count(), 12);
  // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
  EXPECT_EQ(g.edge_count(), 17);
  EXPECT_EQ(diameter_exact(g), 5);
  EXPECT_EQ(g.degree(0), 2);   // corner
  EXPECT_EQ(g.degree(5), 4);   // interior (row 1, col 1)
}

TEST(Generators, BinaryTree) {
  const Graph g = make_binary_tree(15);
  EXPECT_EQ(g.edge_count(), 14);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 2);
}

TEST(Generators, Caterpillar) {
  const Graph g = make_caterpillar(5, 3);
  EXPECT_EQ(g.node_count(), 20);
  EXPECT_EQ(g.edge_count(), 4 + 15);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(0), 1 + 3);  // spine end
  EXPECT_EQ(g.degree(2), 2 + 3);  // spine middle
}

TEST(Generators, CaterpillarNoLegsIsPath) {
  const Graph g = make_caterpillar(4, 0);
  EXPECT_EQ(g.node_count(), 4);
  EXPECT_EQ(g.edge_count(), 3);
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = make_random_tree(50, rng);
    EXPECT_EQ(g.edge_count(), 49);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, ConnectedGnpIsConnected) {
  Rng rng(7);
  for (double p : {0.0, 0.05, 0.2}) {
    const Graph g = make_connected_gnp(60, p, rng);
    EXPECT_TRUE(is_connected(g));
    EXPECT_GE(g.edge_count(), 59);
  }
}

TEST(Generators, ConnectedGnpDensityGrowsWithP) {
  Rng rng(11);
  const Graph sparse = make_connected_gnp(80, 0.02, rng);
  const Graph dense = make_connected_gnp(80, 0.5, rng);
  EXPECT_GT(dense.edge_count(), sparse.edge_count());
}

TEST(Generators, RandomBipartiteSidesHaveNoInternalEdges) {
  Rng rng(13);
  const Graph g = make_random_bipartite(10, 12, 0.4, rng);
  for (NodeId u = 0; u < 10; ++u)
    for (NodeId v = u + 1; v < 10; ++v) EXPECT_FALSE(g.has_edge(u, v));
  for (NodeId u = 10; u < 22; ++u)
    for (NodeId v = u + 1; v < 22; ++v) EXPECT_FALSE(g.has_edge(u, v));
}

TEST(Generators, Barbell) {
  const Graph g = make_barbell(4, 3);
  EXPECT_EQ(g.node_count(), 10);
  EXPECT_TRUE(is_connected(g));
  // Diameter: across bridge (3) plus one hop into each clique.
  EXPECT_EQ(diameter_exact(g), 5);
}

TEST(Generators, Lollipop) {
  const Graph g = make_lollipop(4, 5);
  EXPECT_EQ(g.node_count(), 9);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(diameter_exact(g), 6);
}

TEST(Generators, RejectBadParameters) {
  EXPECT_THROW(make_cycle(2), ContractViolation);
  EXPECT_THROW(make_star(0), ContractViolation);
  EXPECT_THROW(make_grid(0, 3), ContractViolation);
  Rng rng(1);
  EXPECT_THROW(make_connected_gnp(1, 0.1, rng), ContractViolation);
  EXPECT_THROW(make_connected_gnp(5, 1.5, rng), ContractViolation);
}

}  // namespace
}  // namespace nrn::graph
