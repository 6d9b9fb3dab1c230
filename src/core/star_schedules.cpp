#include "core/star_schedules.hpp"

#include <cmath>

namespace nrn::core {

namespace {

constexpr radio::NodeId kHub = 0;

/// The leaf count of the star the network runs on: node 0 adjacent to
/// every other node, and no other edge.
std::size_t star_leaf_count(const radio::RadioNetwork& net) {
  const auto& g = net.graph();
  const graph::NodeId n = g.node_count();
  NRN_EXPECTS(n >= 2 && g.edge_count() == n - 1 && g.degree(kHub) == n - 1,
              "star schedules need a star: hub 0 joined to every other node");
  return static_cast<std::size_t>(n - 1);
}

}  // namespace

MultiRunResult run_star_adaptive_routing(radio::RadioNetwork& net,
                                         std::int64_t k,
                                         std::int64_t max_rounds) {
  NRN_EXPECTS(k >= 1, "need at least one message");
  const auto leaf_count = star_leaf_count(net);
  MultiRunResult result;
  result.messages = k;

  std::vector<char> has(leaf_count, 0);
  std::size_t have_count = 0;
  std::int64_t current = 0;

  for (std::int64_t round = 0; round < max_rounds; ++round) {
    net.set_broadcast(kHub);
    const auto& deliveries = net.run_round();
    for (const auto& d : deliveries) {
      // Leaves are nodes 1..n; position = id - 1.
      auto& flag = has[static_cast<std::size_t>(d.receiver - 1)];
      if (!flag) {
        flag = 1;
        ++have_count;
      }
    }
    result.rounds = round + 1;
    if (have_count == leaf_count) {
      ++current;
      if (current == k) {
        result.completed = true;
        break;
      }
      std::fill(has.begin(), has.end(), 0);
      have_count = 0;
    }
  }
  return result;
}

MultiRunResult run_star_nonadaptive_routing(radio::RadioNetwork& net,
                                            std::int64_t k, std::int64_t reps) {
  NRN_EXPECTS(k >= 1 && reps >= 1, "bad schedule parameters");
  const auto leaf_count = star_leaf_count(net);
  MultiRunResult result;
  result.messages = k;

  // received[leaf] counts distinct messages; per-message flags are kept per
  // current message since messages are sent in contiguous blocks.
  std::vector<std::int64_t> distinct(leaf_count, 0);
  std::vector<char> got(leaf_count, 0);

  for (std::int64_t m = 0; m < k; ++m) {
    std::fill(got.begin(), got.end(), 0);
    for (std::int64_t r = 0; r < reps; ++r) {
      net.set_broadcast(kHub);
      const auto& deliveries = net.run_round();
      for (const auto& d : deliveries) {
        auto& flag = got[static_cast<std::size_t>(d.receiver - 1)];
        if (!flag) {
          flag = 1;
          ++distinct[static_cast<std::size_t>(d.receiver - 1)];
        }
      }
      ++result.rounds;
    }
  }
  result.completed = true;
  for (const auto c : distinct)
    if (c != k) {
      result.completed = false;
      break;
    }
  return result;
}

MultiRunResult run_star_rs_coding(radio::RadioNetwork& net, std::int64_t k,
                                  std::int64_t packet_count) {
  NRN_EXPECTS(k >= 1 && packet_count >= k, "need at least k coded packets");
  const auto leaf_count = star_leaf_count(net);
  MultiRunResult result;
  result.messages = k;

  // Distinct coded packets per leaf; the hub sends packet j in round j, so
  // a delivery is always a fresh packet for that leaf.
  std::vector<std::int64_t> received(leaf_count, 0);
  for (std::int64_t j = 0; j < packet_count; ++j) {
    net.set_broadcast(kHub);
    const auto& deliveries = net.run_round();
    for (const auto& d : deliveries)
      ++received[static_cast<std::size_t>(d.receiver - 1)];
    ++result.rounds;
  }
  result.completed = true;
  for (const auto c : received)
    if (c < k) {
      result.completed = false;
      break;
    }
  return result;
}

std::int64_t rs_packet_count(std::int64_t k, std::int32_t n, double p) {
  NRN_EXPECTS(k >= 1 && n >= 1, "bad parameters");
  NRN_EXPECTS(p >= 0.0 && p < 1.0, "fault probability out of range");
  // Want P[Bin(m, 1-p) < k] <= 1/(n k): with m = (k + t)/(1 - p) the
  // Chernoff lower-tail bound gives exp(-t^2 / (2(k + t))); solving
  // t^2 = 2 (k + t) ln(nk) conservatively with t = 2 ln(nk) + sqrt(4 k ln(nk)).
  const double lnk = std::log(static_cast<double>(n) * static_cast<double>(k) +
                              2.0);
  const double t = 2.0 * lnk + std::sqrt(4.0 * static_cast<double>(k) * lnk);
  return static_cast<std::int64_t>(
      std::ceil((static_cast<double>(k) + t) / (1.0 - p)));
}

std::int64_t link_nonadaptive_reps(std::int64_t k, double p) {
  NRN_EXPECTS(k >= 1, "bad k");
  NRN_EXPECTS(p > 0.0 && p < 1.0, "repetition count needs p in (0,1)");
  // Per-message failure p^reps; the union bound over k messages wants
  // k * p^reps <= 1/k, i.e. reps >= 2 ln(k + 1) / ln(1/p).
  const double lk = std::log(static_cast<double>(k) + 1.0);
  return static_cast<std::int64_t>(std::ceil(2.0 * lk / -std::log(p))) + 1;
}

}  // namespace nrn::core
