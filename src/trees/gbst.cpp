#include "trees/gbst.hpp"

#include <algorithm>
#include <map>
#include <queue>
#include <utility>

#include "graph/algorithms.hpp"

namespace nrn::trees {

namespace {

/// Groups fast nodes by (level, rank).
std::map<std::pair<std::int32_t, std::int32_t>, std::vector<NodeId>>
fast_groups(const RankedBfsTree& tree) {
  std::map<std::pair<std::int32_t, std::int32_t>, std::vector<NodeId>> groups;
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    if (!tree.is_fast(u)) continue;
    const auto ui = static_cast<std::size_t>(u);
    groups[{tree.level[ui], tree.rank[ui]}].push_back(u);
  }
  return groups;
}

}  // namespace

std::vector<Interference> find_interference(const Graph& g,
                                            const RankedBfsTree& tree) {
  std::vector<Interference> found;
  for (const auto& [key, nodes] : fast_groups(tree)) {
    if (nodes.size() < 2) continue;
    // Membership set for this (level, rank) group.
    for (const NodeId victim : nodes) {
      const NodeId child = tree.fast_child[static_cast<std::size_t>(victim)];
      for (const NodeId w : g.neighbors(child)) {
        if (w == victim) continue;
        const auto wi = static_cast<std::size_t>(w);
        const bool w_in_group = tree.is_fast(w) &&
                                tree.level[wi] == key.first &&
                                tree.rank[wi] == key.second;
        if (w_in_group) found.push_back(Interference{victim, w, child});
      }
    }
  }
  return found;
}

bool is_gbst(const Graph& g, const RankedBfsTree& tree) {
  return find_interference(g, tree).empty();
}

namespace {

/// Greedy bottom-up parent assignment.  Processes level boundaries from the
/// deepest upward; within a boundary, child rank groups in decreasing
/// order.  Tries to end each (boundary, rank) with at most one parent whose
/// final rank equals the child rank ("one fast edge"), by
///   A. attaching children to parents already carrying a higher-rank child,
///   B. pairing two or more same-rank children onto a shared parent (which
///      promotes the parent past the rank),
///   C. electing a single leftover as the boundary's fast edge and pushing
///      any further leftovers onto already-used same-rank parents.
/// The output feeds the semantic repair loop in build_gbst.
void assign_parents_greedy(const Graph& g, RankedBfsTree& tree) {
  const auto layers = graph::bfs_layers(g, tree.source);
  const auto n = static_cast<std::size_t>(tree.node_count());
  std::fill(tree.parent.begin(), tree.parent.end(), static_cast<NodeId>(-1));

  // Per-parent running max child rank and its multiplicity.
  std::vector<std::int32_t> cur_max(n, 0), cur_cnt(n, 0);
  // rank[] is filled level by level as boundaries complete.
  std::vector<std::int32_t>& rank = tree.rank;
  rank.assign(n, 0);
  // Phase B scratch, reset after every group: whether a node is one of the
  // group's leftovers, and a fresh parent's count of unattached leftover
  // children.
  std::vector<std::uint8_t> is_leftover(n, 0);
  std::vector<std::int32_t> fresh_count(n, 0);
  std::vector<NodeId> counted;

  auto finalize_rank = [&](NodeId p) {
    const auto pi = static_cast<std::size_t>(p);
    if (cur_cnt[pi] == 0)
      rank[pi] = 1;
    else if (cur_cnt[pi] == 1)
      rank[pi] = cur_max[pi];
    else
      rank[pi] = cur_max[pi] + 1;
  };

  auto attach = [&](NodeId child, NodeId p) {
    tree.parent[static_cast<std::size_t>(child)] = p;
    const auto pi = static_cast<std::size_t>(p);
    const std::int32_t r = rank[static_cast<std::size_t>(child)];
    if (r > cur_max[pi]) {
      cur_max[pi] = r;
      cur_cnt[pi] = 1;
    } else if (r == cur_max[pi]) {
      ++cur_cnt[pi];
    }
  };

  // Deepest layer nodes are leaves of the tree: rank 1.
  for (const NodeId u : layers.back()) rank[static_cast<std::size_t>(u)] = 1;

  for (std::int32_t l = static_cast<std::int32_t>(layers.size()) - 2; l >= 0;
       --l) {
    const auto& children = layers[static_cast<std::size_t>(l) + 1];
    // Group children by rank, descending.
    std::map<std::int32_t, std::vector<NodeId>, std::greater<>> groups;
    for (const NodeId u : children) groups[rank[static_cast<std::size_t>(u)]].push_back(u);

    for (auto& [r, group] : groups) {
      std::vector<NodeId> leftovers;
      // Phase A: parents already above rank r are always safe.
      for (const NodeId u : group) {
        NodeId pick = -1;
        for (const NodeId p : g.neighbors(u)) {
          const auto pi = static_cast<std::size_t>(p);
          if (tree.level[pi] != l) continue;
          if (cur_max[pi] > r) {
            pick = p;
            break;
          }
        }
        if (pick >= 0)
          attach(u, pick);
        else
          leftovers.push_back(u);
      }
      // Phase B: pair leftovers onto shared fresh parents.  While some
      // fresh parent has two or more unattached leftover children, the one
      // with the most (smallest id on ties) takes all of them.  Counts are
      // taken once per group and decremented as children attach; a
      // max-heap on (count, -id) holds one entry per parent, re-pushed with
      // its current count when it pops stale.
      if (leftovers.size() >= 2) {
        auto fresh = [&](NodeId p) {
          const auto pi = static_cast<std::size_t>(p);
          return tree.level[pi] == l && cur_max[pi] < r;
        };
        counted.clear();
        for (const NodeId u : leftovers) {
          is_leftover[static_cast<std::size_t>(u)] = 1;
          for (const NodeId p : g.neighbors(u)) {
            if (!fresh(p)) continue;
            auto& count = fresh_count[static_cast<std::size_t>(p)];
            if (count == 0) counted.push_back(p);
            ++count;
          }
        }
        using Entry = std::pair<std::int32_t, NodeId>;
        auto below = [](const Entry& a, const Entry& b) {
          return a.first != b.first ? a.first < b.first : a.second > b.second;
        };
        std::priority_queue<Entry, std::vector<Entry>, decltype(below)> heap(
            below);
        for (const NodeId p : counted)
          if (fresh_count[static_cast<std::size_t>(p)] >= 2)
            heap.emplace(fresh_count[static_cast<std::size_t>(p)], p);
        while (!heap.empty()) {
          const auto [stored, p] = heap.top();
          heap.pop();
          const std::int32_t now = fresh_count[static_cast<std::size_t>(p)];
          if (now != stored) {
            if (now >= 2) heap.emplace(now, p);
            continue;
          }
          // The first attachment raises p's max child rank to r, so p drops
          // out of the decrements below; every other parent stays fresh.
          // Attachment order is immaterial: all of p's new children have
          // rank r.
          for (const NodeId u : g.neighbors(p)) {
            const auto ui = static_cast<std::size_t>(u);
            if (is_leftover[ui] == 0 || tree.parent[ui] >= 0) continue;
            attach(u, p);
            for (const NodeId q : g.neighbors(u))
              if (fresh(q)) --fresh_count[static_cast<std::size_t>(q)];
          }
        }
        std::vector<NodeId> rest;
        for (const NodeId u : leftovers) {
          const auto ui = static_cast<std::size_t>(u);
          is_leftover[ui] = 0;
          if (tree.parent[ui] < 0) rest.push_back(u);
        }
        for (const NodeId p : counted)
          fresh_count[static_cast<std::size_t>(p)] = 0;
        leftovers.swap(rest);
      }
      // Phase C: singletons.  First one gets to be the fast edge; the rest
      // prefer same-rank parents (attaching promotes the parent past r).
      bool elected = false;
      for (const NodeId u : leftovers) {
        NodeId same_rank_parent = -1;
        NodeId fresh_parent = -1;
        for (const NodeId p : g.neighbors(u)) {
          const auto pi = static_cast<std::size_t>(p);
          if (tree.level[pi] != l) continue;
          if (cur_max[pi] == r && same_rank_parent < 0) same_rank_parent = p;
          if (cur_max[pi] < r && fresh_parent < 0) fresh_parent = p;
        }
        if (!elected && fresh_parent >= 0) {
          attach(u, fresh_parent);
          elected = true;
        } else if (same_rank_parent >= 0) {
          attach(u, same_rank_parent);
        } else if (fresh_parent >= 0) {
          // Unavoidable extra fast edge; the repair loop deals with it if
          // it actually interferes.
          attach(u, fresh_parent);
        } else {
          // Every level-l neighbor already has a higher-rank child; safe.
          NodeId any = -1;
          for (const NodeId p : g.neighbors(u))
            if (tree.level[static_cast<std::size_t>(p)] == l) {
              any = p;
              break;
            }
          NRN_ENSURES(any >= 0, "BFS child without a boundary parent");
          attach(u, any);
        }
      }
    }
    // Boundary complete: ranks at level l are now final.
    for (const NodeId p : layers[static_cast<std::size_t>(l)]) finalize_rank(p);
  }
}

}  // namespace

RankedBfsTree build_gbst(const Graph& g, NodeId source, GbstBuildStats* stats) {
  RankedBfsTree tree = build_ranked_bfs(g, source);  // levels + fallback tree
  assign_parents_greedy(g, tree);
  recompute_ranks(g, tree);

  GbstBuildStats local;
  // Semantic repair: re-parent the victim's fast child onto the interferer,
  // promoting the interferer and removing the collision.
  const std::int32_t max_rewires = 10 * g.node_count() + 100;
  auto violations = find_interference(g, tree);
  while (!violations.empty() && local.repair_rewires < max_rewires) {
    const auto& v = violations.front();
    // v.interferer is adjacent to v.fast_child and sits one level above it,
    // so it is a legal BFS parent.
    tree.parent[static_cast<std::size_t>(v.fast_child)] = v.interferer;
    recompute_ranks(g, tree);
    ++local.repair_rewires;
    violations = find_interference(g, tree);
  }
  local.violations_remaining = static_cast<std::int32_t>(violations.size());
  if (stats != nullptr) *stats = local;
  return tree;
}

}  // namespace nrn::trees
