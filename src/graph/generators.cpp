#include "graph/generators.hpp"

#include <cmath>
#include <set>

#include "graph/algorithms.hpp"

namespace nrn::graph {

Graph make_path(NodeId n) {
  NRN_EXPECTS(n >= 1, "path needs at least one node");
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < n; ++i) b.add_edge(i, i + 1);
  return b.build();
}

Graph make_cycle(NodeId n) {
  NRN_EXPECTS(n >= 3, "cycle needs at least three nodes");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i) b.add_edge(i, (i + 1) % n);
  return b.build();
}

Graph make_star(NodeId leaf_count) {
  NRN_EXPECTS(leaf_count >= 1, "star needs at least one leaf");
  GraphBuilder b(leaf_count + 1);
  for (NodeId i = 1; i <= leaf_count; ++i) b.add_edge(0, i);
  return b.build();
}

Graph make_complete(NodeId n) {
  NRN_EXPECTS(n >= 2, "complete graph needs at least two nodes");
  GraphBuilder b(n);
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) b.add_edge(i, j);
  return b.build();
}

Graph make_grid(NodeId rows, NodeId cols) {
  NRN_EXPECTS(rows >= 1 && cols >= 1, "grid dimensions must be positive");
  GraphBuilder b(rows * cols);
  auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
  for (NodeId r = 0; r < rows; ++r) {
    for (NodeId c = 0; c < cols; ++c) {
      if (c + 1 < cols) b.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) b.add_edge(id(r, c), id(r + 1, c));
    }
  }
  return b.build();
}

Graph make_binary_tree(NodeId n) {
  NRN_EXPECTS(n >= 1, "tree needs at least one node");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i) b.add_edge(i, (i - 1) / 2);
  return b.build();
}

Graph make_caterpillar(NodeId spine, NodeId legs) {
  NRN_EXPECTS(spine >= 1 && legs >= 0, "bad caterpillar parameters");
  const NodeId n = spine + spine * legs;
  GraphBuilder b(n);
  for (NodeId i = 0; i + 1 < spine; ++i) b.add_edge(i, i + 1);
  NodeId next = spine;
  for (NodeId i = 0; i < spine; ++i)
    for (NodeId leg = 0; leg < legs; ++leg) b.add_edge(i, next++);
  return b.build();
}

Graph make_random_tree(NodeId n, Rng& rng) {
  NRN_EXPECTS(n >= 1, "tree needs at least one node");
  GraphBuilder b(n);
  for (NodeId i = 1; i < n; ++i)
    b.add_edge(i, static_cast<NodeId>(rng.next_below(
                      static_cast<std::uint64_t>(i))));
  return b.build();
}

Graph make_connected_gnp(NodeId n, double p, Rng& rng) {
  NRN_EXPECTS(n >= 2, "G(n,p) needs at least two nodes");
  NRN_EXPECTS(p >= 0.0 && p <= 1.0, "probability out of range");
  GraphBuilder b(n);
  // Random attachment skeleton keeps the sample connected.
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  rng.shuffle(order);
  for (NodeId i = 1; i < n; ++i) {
    const NodeId child = order[static_cast<std::size_t>(i)];
    const NodeId parent = order[static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(i)))];
    b.add_edge(child, parent);
  }
  // Skip sampling row by row: O(n + p n^2) expected draws instead of the
  // n^2 per-pair coins, which makes n ~ 10^5 sparse graphs practical.
  for (NodeId i = 0; i + 1 < n; ++i)
    rng.for_each_bernoulli(static_cast<std::size_t>(n - i - 1), p,
                           [&](std::size_t offset) {
                             b.add_edge(i, i + 1 + static_cast<NodeId>(offset));
                           });
  return b.build();
}

Graph make_random_bipartite(NodeId left, NodeId right, double p, Rng& rng) {
  NRN_EXPECTS(left >= 1 && right >= 1, "bipartite sides must be non-empty");
  GraphBuilder b(left + right);
  for (NodeId i = 0; i < left; ++i)
    rng.for_each_bernoulli(static_cast<std::size_t>(right), p,
                           [&](std::size_t j) {
                             b.add_edge(i, left + static_cast<NodeId>(j));
                           });
  return b.build();
}

Graph make_barbell(NodeId clique, NodeId bridge) {
  NRN_EXPECTS(clique >= 2 && bridge >= 1, "bad barbell parameters");
  const NodeId n = 2 * clique + bridge - 1;
  GraphBuilder b(n);
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j) b.add_edge(i, j);
  const NodeId second = clique + bridge - 1;
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j)
      b.add_edge(second + i, second + j);
  // Bridge path from node clique-1 to node `second`.
  NodeId prev = clique - 1;
  for (NodeId step = 0; step < bridge - 1; ++step) {
    const NodeId mid = clique + step;
    b.add_edge(prev, mid);
    prev = mid;
  }
  b.add_edge(prev, second);
  return b.build();
}

Graph make_hypercube(std::int32_t dimensions) {
  NRN_EXPECTS(dimensions >= 1 && dimensions <= 20, "bad hypercube dimension");
  const NodeId n = static_cast<NodeId>(1) << dimensions;
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u)
    for (std::int32_t d = 0; d < dimensions; ++d) {
      const NodeId v = u ^ (static_cast<NodeId>(1) << d);
      if (u < v) b.add_edge(u, v);
    }
  return b.build();
}

Graph make_ring_of_cliques(NodeId cliques, NodeId clique_size) {
  NRN_EXPECTS(cliques >= 3, "ring needs at least three cliques");
  NRN_EXPECTS(clique_size >= 2, "cliques need at least two members");
  const NodeId n = cliques * clique_size;
  GraphBuilder b(n);
  auto member = [clique_size](NodeId c, NodeId i) {
    return c * clique_size + i;
  };
  for (NodeId c = 0; c < cliques; ++c) {
    for (NodeId i = 0; i < clique_size; ++i)
      for (NodeId j = i + 1; j < clique_size; ++j)
        b.add_edge(member(c, i), member(c, j));
    b.add_edge(member(c, 0), member((c + 1) % cliques, 1));
  }
  return b.build();
}

Graph make_random_regular(NodeId n, std::int32_t degree, Rng& rng) {
  NRN_EXPECTS(n >= degree + 1, "degree too large for n");
  NRN_EXPECTS(degree >= 1, "degree must be positive");
  NRN_EXPECTS((static_cast<std::int64_t>(n) * degree) % 2 == 0,
              "n * degree must be even");
  GraphBuilder b(n);
  // Pairing model: stubs shuffled and matched; conflicting pairs are
  // retried a bounded number of times, then dropped.
  std::vector<NodeId> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(degree));
  for (NodeId u = 0; u < n; ++u)
    for (std::int32_t d = 0; d < degree; ++d) stubs.push_back(u);
  std::set<std::pair<NodeId, NodeId>> used;
  for (int attempt = 0; attempt < 32; ++attempt) {
    rng.shuffle(stubs);
    std::vector<NodeId> leftovers;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      NodeId u = stubs[i], v = stubs[i + 1];
      if (u == v) {
        leftovers.push_back(u);
        leftovers.push_back(v);
        continue;
      }
      if (u > v) std::swap(u, v);
      if (!used.insert({u, v}).second) {
        leftovers.push_back(u);
        leftovers.push_back(v);
        continue;
      }
      b.add_edge(u, v);
    }
    stubs.swap(leftovers);
    if (stubs.size() < 2) break;
  }
  return b.build();
}

Graph make_lollipop(NodeId clique, NodeId tail) {
  NRN_EXPECTS(clique >= 2 && tail >= 1, "bad lollipop parameters");
  GraphBuilder b(clique + tail);
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j) b.add_edge(i, j);
  NodeId prev = clique - 1;
  for (NodeId i = 0; i < tail; ++i) {
    b.add_edge(prev, clique + i);
    prev = clique + i;
  }
  return b.build();
}

namespace {

/// Shared body of the geometric generators: places n nodes uniformly in
/// the [0, side)^2 square (x then y per node, 2n uniform01 draws total),
/// joins every pair within `range`, and exports the placement.  The draws
/// never depend on whether geometry output was requested, so graph builds
/// with and without it see the same topology from the same rng state.
///
/// A disconnected sample is resampled from the same stream (the broadcast
/// model needs every node reachable, and a graph edge the channel can
/// never deliver over would be worse than a retry).  The retry budget
/// makes a sub-critical radius/density fail loudly instead of spinning.
Graph make_geometric(NodeId n, double side, double range, double power,
                     Rng& rng, Geometry* geometry) {
  constexpr int kMaxPlacementAttempts = 64;
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  const double range2 = range * range;
  for (int attempt = 0;; ++attempt) {
    NRN_EXPECTS(attempt < kMaxPlacementAttempts,
                "geometric placement failed to connect; raise the "
                "radius/density or shrink n");
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.uniform01() * side;
      y[i] = rng.uniform01() * side;
    }
    GraphBuilder b(n);
    for (NodeId i = 0; i < n; ++i) {
      for (NodeId j = i + 1; j < n; ++j) {
        const double dx = x[static_cast<std::size_t>(i)] -
                          x[static_cast<std::size_t>(j)];
        const double dy = y[static_cast<std::size_t>(i)] -
                          y[static_cast<std::size_t>(j)];
        if (dx * dx + dy * dy <= range2) b.add_edge(i, j);
      }
    }
    Graph g = b.build();
    if (!is_connected(g)) continue;
    if (geometry != nullptr) {
      geometry->x = std::move(x);
      geometry->y = std::move(y);
      geometry->power.assign(static_cast<std::size_t>(n), power);
    }
    return g;
  }
}

}  // namespace

Graph make_unit_disk(NodeId n, double radius, double power, Rng& rng,
                     Geometry* geometry) {
  NRN_EXPECTS(n >= 1, "unit disk needs at least one node");
  NRN_EXPECTS(radius > 0.0, "unit disk radius must be positive");
  NRN_EXPECTS(power > 0.0, "unit disk power must be positive");
  return make_geometric(n, 1.0, radius, power, rng, geometry);
}

Graph make_uniform_density(NodeId n, double density, Rng& rng,
                           Geometry* geometry) {
  NRN_EXPECTS(n >= 1, "uniform density needs at least one node");
  NRN_EXPECTS(density > 0.0, "density must be positive");
  const double side = std::sqrt(static_cast<double>(n) / density);
  return make_geometric(n, side, 1.0, 1.0, rng, geometry);
}

}  // namespace nrn::graph
