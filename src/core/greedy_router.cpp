#include "core/greedy_router.hpp"

#include <algorithm>
#include <cmath>

namespace nrn::core {

namespace {

/// Per-round scratch tracking which listener is claimed by which staged
/// broadcast, so marginal gains account for collisions created inside the
/// staged set.
struct RoundPlanner {
  // 0 = no staged neighbor; 1 = exactly one (claimed); 2+ = collision.
  std::vector<std::int32_t> staged_neighbors;
  // 1 when the claimed listener actually lacked the claimed message.
  std::vector<std::int8_t> claimed_gain;

  explicit RoundPlanner(std::size_t n)
      : staged_neighbors(n, 0), claimed_gain(n, 0) {}

  void reset() {
    std::fill(staged_neighbors.begin(), staged_neighbors.end(), 0);
    std::fill(claimed_gain.begin(), claimed_gain.end(), 0);
  }
};

}  // namespace

MultiRunResult run_greedy_adaptive_routing(radio::RadioNetwork& net,
                                           radio::NodeId source,
                                           const GreedyRouterParams& params) {
  const auto& g = net.graph();
  const std::int32_t n = g.node_count();
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  NRN_EXPECTS(source >= 0 && source < n, "source out of range");
  const std::int64_t k = params.k;
  const double loss = net.channel().effective_loss();
  const std::int64_t budget =
      params.max_rounds > 0
          ? params.max_rounds
          : static_cast<std::int64_t>(
                64.0 / (1.0 - loss) *
                static_cast<double>(k + n) *
                (2.0 + std::log2(std::max(2, n))) *
                (2.0 + std::log2(std::max<double>(2.0, static_cast<double>(k)))));

  const auto nk = static_cast<std::size_t>(n) * static_cast<std::size_t>(k);
  auto cell = [k](radio::NodeId u, std::int64_t m) {
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(k) +
           static_cast<std::size_t>(m);
  };

  // has[u*k+m]; missing[u] counts messages u still lacks; lack[u*k+m]
  // counts neighbors of u that lack m (maintained incrementally so the
  // per-round candidate scan is O(n k), not O(E k)).
  std::vector<char> has(nk, 0);
  std::vector<std::int64_t> missing(static_cast<std::size_t>(n), k);
  std::vector<std::int32_t> lack(nk, 0);
  for (radio::NodeId u = 0; u < n; ++u) {
    const auto deg = g.degree(u);
    for (std::int64_t m = 0; m < k; ++m)
      lack[cell(u, m)] = deg;
  }
  for (std::int64_t m = 0; m < k; ++m) has[cell(source, m)] = 1;
  missing[static_cast<std::size_t>(source)] = 0;
  for (const radio::NodeId v : g.neighbors(source))
    for (std::int64_t m = 0; m < k; ++m) --lack[cell(v, m)];
  std::int64_t incomplete_nodes = n - 1;

  MultiRunResult result;
  result.messages = k;
  if (incomplete_nodes == 0) {
    result.completed = true;
    return result;
  }

  RoundPlanner planner(static_cast<std::size_t>(n));
  std::vector<std::int64_t> best_msg(static_cast<std::size_t>(n), -1);
  std::vector<std::int64_t> best_gain(static_cast<std::size_t>(n), 0);
  std::vector<radio::NodeId> order;
  std::vector<std::int64_t> staged_msg(static_cast<std::size_t>(n), -1);

  for (std::int64_t round = 0; round < budget; ++round) {
    planner.reset();
    order.clear();

    // Stage 1: each holder's locally best message -- the one most of its
    // listeners still lack (ties to the lowest index for determinism).
    for (radio::NodeId u = 0; u < n; ++u) {
      const auto ui = static_cast<std::size_t>(u);
      best_msg[ui] = -1;
      best_gain[ui] = 0;
      if (missing[ui] == k) continue;  // holds nothing
      for (std::int64_t m = 0; m < k; ++m) {
        if (!has[cell(u, m)]) continue;
        const std::int64_t gain = lack[cell(u, m)];
        if (gain > best_gain[ui]) {
          best_gain[ui] = gain;
          best_msg[ui] = m;
        }
      }
      if (best_msg[ui] >= 0) order.push_back(u);
    }
    if (order.empty()) break;  // nothing useful to send: stuck
    std::sort(order.begin(), order.end(),
              [&](radio::NodeId a, radio::NodeId b) {
                const auto ga = best_gain[static_cast<std::size_t>(a)];
                const auto gb = best_gain[static_cast<std::size_t>(b)];
                return ga != gb ? ga > gb : a < b;
              });

    // Stage 2: greedy admission by true marginal gain against the staged
    // set so far (collisions included).
    std::fill(staged_msg.begin(), staged_msg.end(), -1);
    for (const radio::NodeId u : order) {
      const auto ui = static_cast<std::size_t>(u);
      const std::int64_t m = best_msg[ui];
      std::int64_t marginal = 0;
      for (const radio::NodeId v : g.neighbors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (planner.staged_neighbors[vi] == 0) {
          if (!has[cell(v, m)]) ++marginal;
        } else if (planner.staged_neighbors[vi] == 1) {
          marginal -= planner.claimed_gain[vi];  // collision destroys claim
        }
      }
      if (marginal <= 0) continue;
      staged_msg[ui] = m;
      for (const radio::NodeId v : g.neighbors(u)) {
        const auto vi = static_cast<std::size_t>(v);
        if (++planner.staged_neighbors[vi] == 1) {
          planner.claimed_gain[vi] = has[cell(v, m)] ? 0 : 1;
        } else {
          planner.claimed_gain[vi] = 0;
        }
      }
    }

    // Stage 3: execute.  A staged broadcaster adjacent to another simply
    // does not listen this round; the planner priced that in.  Deliveries
    // read what was sent from staged_msg[sender].
    bool staged_any = false;
    for (radio::NodeId u = 0; u < n; ++u) {
      if (staged_msg[static_cast<std::size_t>(u)] >= 0) {
        net.set_broadcast(u);
        staged_any = true;
      }
    }
    if (!staged_any) {
      // All candidates had non-positive marginal gain (dense mutual
      // interference); fall back to the single globally best candidate.
      const radio::NodeId u = order.front();
      const auto ui = static_cast<std::size_t>(u);
      staged_msg[ui] = best_msg[ui];
      net.set_broadcast(u);
    }

    const auto& deliveries = net.run_round();
    ++result.rounds;
    for (const auto& d : deliveries) {
      const std::int64_t m = staged_msg[static_cast<std::size_t>(d.sender)];
      auto& flag = has[cell(d.receiver, m)];
      if (flag) continue;
      flag = 1;
      for (const radio::NodeId w : g.neighbors(d.receiver))
        --lack[cell(w, m)];
      if (--missing[static_cast<std::size_t>(d.receiver)] == 0)
        --incomplete_nodes;
    }
    if (incomplete_nodes == 0) {
      result.completed = true;
      break;
    }
  }
  return result;
}

}  // namespace nrn::core
