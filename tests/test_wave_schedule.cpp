// Schedule equivalence: the fast-round schedules FASTBC, Robust FASTBC and
// the RLNC Lemma 13 pattern precompute (core/wave_schedule.hpp) select, in
// every slot, exactly the fast nodes the paper's modular predicates
// select, in ascending id order.  The predicates are written out here as
// the reference, independent of the schedule code, on GBSTs of several
// graph families with default and non-default schedule parameters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/fastbc.hpp"
#include "core/multi_message.hpp"
#include "core/robust_fastbc.hpp"
#include "graph/generators.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {
namespace {

using graph::NodeId;
using trees::RankedBfsTree;

std::int32_t ceil_log2(std::int32_t n) {
  std::int32_t bits = 0;
  while ((std::int64_t{1} << bits) < n) ++bits;
  return std::max(bits, 1);
}

/// Section 3.4.2: fast node u at level l, rank r fires in FASTBC's fast
/// round t iff t = l - 6r (mod 6 * rank_modulus).
std::vector<NodeId> fastbc_reference(const RankedBfsTree& tree,
                                     std::int32_t rank_modulus,
                                     std::int64_t t) {
  const std::int64_t period = 6LL * rank_modulus;
  std::vector<NodeId> fired;
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    const auto ui = static_cast<std::size_t>(u);
    if (!tree.is_fast(u)) continue;
    const std::int64_t target =
        static_cast<std::int64_t>(tree.level[ui]) - 6LL * tree.rank[ui];
    if (((t - target) % period + period) % period == 0) fired.push_back(u);
  }
  return fired;
}

/// Theorem 11: fast node u fires in Robust FASTBC's fast round t iff
/// floor(l/S) - 6r + 6 = floor(t/(cS)) (mod 6 * rank_modulus) and
/// l = t (mod 3).
std::vector<NodeId> robust_reference(const RankedBfsTree& tree,
                                     std::int32_t rank_modulus,
                                     std::int32_t block_size,
                                     std::int32_t window_multiplier,
                                     std::int64_t t) {
  const std::int64_t period = 6LL * rank_modulus;
  const std::int64_t band =
      t / (static_cast<std::int64_t>(window_multiplier) * block_size);
  std::vector<NodeId> fired;
  for (NodeId u = 0; u < tree.node_count(); ++u) {
    const auto ui = static_cast<std::size_t>(u);
    if (!tree.is_fast(u)) continue;
    const std::int32_t l = tree.level[ui];
    const std::int64_t lhs =
        ((l / block_size - 6LL * tree.rank[ui] + 6 - band) % period + period) %
        period;
    if (lhs == 0 && l % 3 == t % 3) fired.push_back(u);
  }
  return fired;
}

std::vector<NodeId> as_vector(std::span<const NodeId> nodes) {
  return {nodes.begin(), nodes.end()};
}

int fast_count(const RankedBfsTree& tree) {
  int fast = 0;
  for (NodeId u = 0; u < tree.node_count(); ++u)
    fast += tree.is_fast(u) ? 1 : 0;
  return fast;
}

/// Every FASTBC slot, over two periods so the wrap is covered too.  One
/// period fires each fast node exactly once.
void expect_fastbc_matches(const Fastbc& algo, std::int32_t rank_modulus) {
  ASSERT_EQ(algo.rank_modulus(), rank_modulus);
  const std::int64_t period = 6LL * rank_modulus;
  int fired = 0;
  for (std::int64_t t = 0; t < 2 * period; ++t) {
    const auto expected = fastbc_reference(algo.tree(), rank_modulus, t);
    ASSERT_EQ(as_vector(algo.schedule().fast_round(t)), expected)
        << "fast round " << t;
    if (t < period) fired += static_cast<int>(expected.size());
  }
  EXPECT_EQ(fired, fast_count(algo.tree()));
}

/// Every (band mod period, t mod 3) pair of a full period, plus the wrap
/// into the next one: band b's first three fast rounds b*cS + j, j < 3,
/// visit all three residues mod 3.  One period fires each fast node
/// exactly once.
void expect_robust_matches(const WaveSchedule& schedule,
                           const RankedBfsTree& tree,
                           std::int32_t rank_modulus, std::int32_t block_size,
                           std::int32_t window_multiplier) {
  const std::int64_t period = 6LL * rank_modulus;
  const std::int64_t window =
      static_cast<std::int64_t>(window_multiplier) * block_size;
  ASSERT_GE(window, 3) << "a band must span all three residues";
  int fired = 0;
  for (std::int64_t band = 0; band <= period; ++band) {
    for (std::int64_t j = 0; j < 3; ++j) {
      const std::int64_t t = band * window + j;
      const auto expected = robust_reference(tree, rank_modulus, block_size,
                                             window_multiplier, t);
      ASSERT_EQ(as_vector(schedule.fast_round(t)), expected)
          << "band " << band << ", fast round " << t;
      if (band < period) fired += static_cast<int>(expected.size());
    }
  }
  EXPECT_EQ(fired, fast_count(tree));
}

struct Family {
  std::string name;
  graph::Graph graph;
};

std::vector<Family> families() {
  Rng rng(41);
  std::vector<Family> out;
  out.push_back({"path:96", graph::make_path(96)});
  out.push_back({"grid:9x13", graph::make_grid(9, 13)});
  out.push_back({"gnp:180:0.04", graph::make_connected_gnp(180, 0.04, rng)});
  out.push_back({"caterpillar:24x2", graph::make_caterpillar(24, 2)});
  out.push_back({"disk:160:0.16",
                 graph::make_unit_disk(160, 0.16, 1.0, rng)});
  return out;
}

TEST(WaveSchedule, FastbcSlotsMatchThePaperPredicate) {
  for (const Family& f : families()) {
    SCOPED_TRACE(f.name);
    const auto tree = std::make_shared<const RankedBfsTree>(
        trees::build_gbst(f.graph, 0));
    const std::int32_t log_n = ceil_log2(f.graph.node_count());
    expect_fastbc_matches(Fastbc(f.graph, tree), log_n);
    FastbcParams wide;
    wide.rank_modulus = log_n + 3;
    expect_fastbc_matches(Fastbc(f.graph, tree, wide), log_n + 3);
    FastbcParams tight;
    tight.rank_modulus = tree->max_rank;
    expect_fastbc_matches(Fastbc(f.graph, tree, tight), tree->max_rank);
  }
}

TEST(WaveSchedule, RobustSlotsMatchThePaperPredicate) {
  for (const Family& f : families()) {
    SCOPED_TRACE(f.name);
    const auto tree = std::make_shared<const RankedBfsTree>(
        trees::build_gbst(f.graph, 0));
    const std::int32_t log_n = ceil_log2(f.graph.node_count());
    const std::int32_t default_block =
        std::max(2, 2 * ceil_log2(std::max(2, log_n)));

    const RobustFastbc defaults(f.graph, tree);
    expect_robust_matches(defaults.schedule(), *tree, log_n, default_block, 8);

    struct Custom {
      std::int32_t rank_modulus;
      std::int32_t block_size;
      std::int32_t window_multiplier;
    };
    for (const Custom c : {Custom{log_n + 2, 3, 1}, Custom{log_n, 5, 2},
                           Custom{tree->max_rank, 1, 4}}) {
      SCOPED_TRACE("rank_modulus " + std::to_string(c.rank_modulus) +
                   ", S " + std::to_string(c.block_size) + ", c " +
                   std::to_string(c.window_multiplier));
      RobustFastbcParams params;
      params.rank_modulus = c.rank_modulus;
      params.block_size = c.block_size;
      params.window_multiplier = c.window_multiplier;
      const RobustFastbc algo(f.graph, tree, params);
      expect_robust_matches(algo.schedule(), *tree, c.rank_modulus,
                            c.block_size, c.window_multiplier);
    }
  }
}

TEST(WaveSchedule, RlncLemma13PatternMatchesThePaperPredicate) {
  // The Lemma 13 composition runs Robust FASTBC's band schedule at the
  // default rank modulus ceil(log2 n); S and c follow the tuning.
  for (const Family& f : families()) {
    SCOPED_TRACE(f.name);
    const auto tree = std::make_shared<const RankedBfsTree>(
        trees::build_gbst(f.graph, 0));
    const std::int32_t log_n = ceil_log2(f.graph.node_count());
    const std::int32_t default_block =
        std::max(2, 2 * ceil_log2(std::max(2, log_n)));

    MultiMessageParams params;
    params.k = 4;
    params.pattern = MultiPattern::kRobustFastbc;
    const RlncBroadcast defaults(f.graph, 0, params, tree);
    expect_robust_matches(defaults.schedule(), *tree, log_n, default_block, 8);

    params.block_size = 3;
    params.window_multiplier = 2;
    const RlncBroadcast custom(f.graph, 0, params, tree);
    expect_robust_matches(custom.schedule(), *tree, log_n, 3, 2);
  }
}

}  // namespace
}  // namespace nrn::core
