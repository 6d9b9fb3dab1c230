// Gathering-broadcasting spanning trees (GBST, paper Section 3.4.2).
//
// FASTBC's fast rounds let every fast node at level l and rank r broadcast
// simultaneously (when t = l - 6r mod 6*rmax).  Its analysis needs those
// simultaneous transmissions to never interfere at their intended receivers
// (each fast node's same-rank child).  The paper states this as the GBST
// property on the ranked BFS tree; figure 1 shows the violating object is a
// *graph* edge between the structures of two same-level same-rank fast
// pairs.
//
// We therefore define (and validate) the property semantically, which is
// exactly what the schedule requires:
//
//   For every (level l, rank r) and every two distinct fast nodes x, y at
//   that level and rank, y is not a G-neighbor of x's fast child and x is
//   not a G-neighbor of y's fast child.
//
// (Simultaneous fast broadcasters of *different* ranks sit >= 6 BFS levels
// apart by the schedule arithmetic, so only the same-(l, r) case needs a
// tree property; see Lemma 8's proof.)
//
// build_gbst constructs a ranked BFS tree with a bottom-up greedy that
// elects at most one fast edge per (level boundary, rank) where possible
// and pairs surplus same-rank children onto shared parents (which promotes
// the parent and keeps it non-fast).  The pairing pass is incremental: it
// counts each candidate parent's unattached children once per (boundary,
// rank) group and decrements the counts as children attach, so the pass
// costs O(m log m) over a graph of m edges, where rebuilding the candidate
// list after every attachment cost O(m) per attached parent.  It picks
// exactly the parents that rebuild would, so the trees (and every FASTBC
// schedule) are unchanged.  A repair loop then rewires any
// remaining semantic violation: if broadcaster x would collide at y's fast
// child c_y, then x is adjacent to c_y and one level above it, so c_y is
// re-parented to x; x gains a second max-rank child and is promoted, which
// removes the interference.  Ranks are recomputed after each rewire.
#pragma once

#include <cstdint>
#include <vector>

#include "trees/ranked_bfs.hpp"

namespace nrn::trees {

/// One interference pair: broadcaster `interferer` collides at the fast
/// child of `victim` (both fast, same level, same rank).
struct Interference {
  NodeId victim = -1;
  NodeId interferer = -1;
  NodeId fast_child = -1;
};

/// Lists all semantic GBST violations of `tree` in `g`.
std::vector<Interference> find_interference(const Graph& g,
                                            const RankedBfsTree& tree);

/// True iff the tree has the semantic GBST property.
bool is_gbst(const Graph& g, const RankedBfsTree& tree);

struct GbstBuildStats {
  std::int32_t repair_rewires = 0;       ///< parent rewires performed
  std::int32_t violations_remaining = 0; ///< 0 on success
};

/// Builds a GBST of the connected graph `g` rooted at `source`.
/// On return `stats` (if non-null) reports the repair effort; the caller
/// should treat `violations_remaining > 0` as a failed construction (it
/// does not occur on the topology families used in this repository's
/// experiments; the bound is a safety valve for adversarial inputs).
RankedBfsTree build_gbst(const Graph& g, NodeId source,
                         GbstBuildStats* stats = nullptr);

}  // namespace nrn::trees
