// Topology generators.
//
// These cover every family used by the paper's analyses plus standard test
// workloads: the path (Lemma 10's degradation instance), the star (the
// Theta(log n) receiver-fault gap instance, Section 5.1.1, and with one
// leaf Appendix A's single link), grids/trees/caterpillars (Robust FASTBC
// stress), and random connected graphs for property sweeps.  The WCT
// construction lives in src/topology (it needs cluster bookkeeping beyond
// a plain Graph).
#pragma once

#include "common/rng.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"

namespace nrn::graph {

/// Path 0 - 1 - ... - (n-1).  Diameter n-1; node 0 is the natural source.
Graph make_path(NodeId n);

/// Cycle on n >= 3 nodes.
Graph make_cycle(NodeId n);

/// Star: node 0 is the hub, nodes 1..n-1 are leaves.  The paper's star
/// topology has the *source* at the hub.  make_star(1) is Appendix A's
/// single link: two nodes joined by one edge.
Graph make_star(NodeId leaf_count);

/// Complete graph K_n.
Graph make_complete(NodeId n);

/// rows x cols grid; node (r, c) has id r * cols + c.  Diameter rows+cols-2.
Graph make_grid(NodeId rows, NodeId cols);

/// Complete binary tree with n nodes (heap indexing; root 0).
Graph make_binary_tree(NodeId n);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves.  Spine node i has id i; leaves follow.  Stresses the interplay of
/// fast stretches (the spine) and slow edges (the legs) in FASTBC.
Graph make_caterpillar(NodeId spine, NodeId legs);

/// Uniform random tree from a random Prufer-like attachment: node i >= 1
/// attaches to a uniformly random earlier node.
Graph make_random_tree(NodeId n, Rng& rng);

/// Erdos-Renyi G(n, p) conditioned on connectivity: edges are sampled and a
/// random spanning-tree skeleton guarantees connectedness without skewing
/// the degree distribution much for p above the connectivity threshold.
Graph make_connected_gnp(NodeId n, double p, Rng& rng);

/// Random bipartite graph: `left` x `right` nodes, each cross pair joined
/// independently with probability p.  Left ids come first.
Graph make_random_bipartite(NodeId left, NodeId right, double p, Rng& rng);

/// Barbell: two cliques of size k joined by a path of length `bridge`.
Graph make_barbell(NodeId clique, NodeId bridge);

/// "Lollipop": clique of size k with a pendant path of length `tail`.
Graph make_lollipop(NodeId clique, NodeId tail);

/// d-dimensional hypercube: 2^d nodes, node ids are coordinate bitmasks.
/// Diameter d; a dense low-diameter stress case for the broadcast
/// algorithms.
Graph make_hypercube(std::int32_t dimensions);

/// Ring of `cliques` cliques of size `clique_size`, consecutive cliques
/// joined by one edge (member 0 of each to member 1 of the next).  High
/// local collision pressure with a long global diameter.
Graph make_ring_of_cliques(NodeId cliques, NodeId clique_size);

/// Random d-regular-ish multigraph via the pairing model with rejection of
/// self-loops/duplicates; a few vertices may end with degree d-1 when the
/// retry budget runs out, which the radio experiments tolerate.  n * d must
/// be even.  Connectivity is not guaranteed but holds w.h.p. for d >= 3.
Graph make_random_regular(NodeId n, std::int32_t degree, Rng& rng);

/// Unit-disk graph (arXiv:1302.4059 style): n nodes placed uniformly at
/// random in the unit square, an edge joining every pair within `radius`.
/// Every node transmits with the shared `power` (the SINR channel prices
/// gains from it).  Placement goes to `geometry` when non-null; the rng
/// draws are identical either way (2n uniform01 calls per attempt, x then
/// y per node).  A disconnected sample is resampled from the same stream
/// (broadcast needs every node reachable); a radius that fails to connect
/// within the retry budget fails the build loudly.
Graph make_unit_disk(NodeId n, double radius, double power, Rng& rng,
                     Geometry* geometry = nullptr);

/// Geometric graph at fixed expected density: n nodes placed uniformly in
/// the [0, L)^2 square with L = sqrt(n / density), an edge joining every
/// pair within unit distance, unit transmit power -- so `density` is the
/// expected number of nodes per unit square regardless of n.  Same rng
/// and geometry conventions as make_unit_disk.
Graph make_uniform_density(NodeId n, double density, Rng& rng,
                           Geometry* geometry = nullptr);

}  // namespace nrn::graph
