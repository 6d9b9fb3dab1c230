// Cross-module integration: small-scale versions of the paper's gap
// experiments, asserting the *direction* of every headline result.
#include <gtest/gtest.h>

#include <cmath>

#include "core/single_link.hpp"
#include "core/star_schedules.hpp"
#include "core/wct_schedules.hpp"
#include "core/bipartite_pipeline.hpp"
#include "graph/generators.hpp"
#include "topology/star.hpp"
#include "topology/wct.hpp"

namespace nrn::core {
namespace {

using radio::FaultModel;
using radio::RadioNetwork;

double star_routing_rpm(std::int32_t leaves, std::int64_t k,
                        std::uint64_t seed) {
  const auto star = topology::make_star(leaves);
  RadioNetwork net(star.graph, FaultModel::receiver(0.5), Rng(seed));
  const auto r = run_star_adaptive_routing(net, star, k, 100'000'000);
  EXPECT_TRUE(r.completed);
  return r.rounds_per_message();
}

double star_coding_rpm(std::int32_t leaves, std::int64_t k,
                       std::uint64_t seed) {
  const auto star = topology::make_star(leaves);
  RadioNetwork net(star.graph, FaultModel::receiver(0.5), Rng(seed));
  const auto r = run_star_rs_coding(net, star, k,
                                    rs_packet_count(k, leaves + 1, 0.5));
  EXPECT_TRUE(r.completed);
  return r.rounds_per_message();
}

TEST(IntegrationGaps, StarGapGrowsWithN) {
  // Theorem 17: the routing/coding gap on the star scales like log n.
  // k large enough that the coded schedule's sqrt(k log nk) slack is
  // amortized (Lemma 16's constant).
  const std::int64_t k = 256;
  const double gap_small =
      star_routing_rpm(64, k, 1) / star_coding_rpm(64, k, 2);
  const double gap_large =
      star_routing_rpm(1024, k, 3) / star_coding_rpm(1024, k, 4);
  EXPECT_GT(gap_large, gap_small * 1.2);
  EXPECT_GT(gap_large, 3.0);
}

TEST(IntegrationGaps, StarRoutingRpmTracksLogN) {
  const std::int64_t k = 48;
  const double rpm_64 = star_routing_rpm(64, k, 5);
  const double rpm_4096 = star_routing_rpm(4096, k, 6);
  // log2(4096)/log2(64) = 2: expect roughly doubled cost.
  EXPECT_GT(rpm_4096 / rpm_64, 1.5);
  EXPECT_LT(rpm_4096 / rpm_64, 3.0);
}

TEST(IntegrationGaps, SingleLinkGapGrowsWithK) {
  // Lemma 31: non-adaptive routing vs coding gap grows like log k.
  auto link_gap = [](std::int64_t k, std::uint64_t seed) {
    const auto g = graph::make_single_link();
    RadioNetwork net_r(g, FaultModel::receiver(0.5), Rng(seed));
    const auto routing =
        run_link_nonadaptive_routing(net_r, k, link_nonadaptive_reps(k, 0.5));
    RadioNetwork net_c(g, FaultModel::receiver(0.5), Rng(seed + 1));
    const auto coding =
        run_link_rs_coding(net_c, k, link_rs_packet_count(k, 0.5));
    EXPECT_TRUE(routing.completed);
    EXPECT_TRUE(coding.completed);
    return routing.rounds_per_message() / coding.rounds_per_message();
  };
  const double gap_16 = link_gap(16, 10);
  const double gap_4096 = link_gap(4096, 12);
  EXPECT_GT(gap_4096, gap_16 * 1.5);
}

TEST(IntegrationGaps, WctRoutingPaysMoreThanCoding) {
  // Theorem 24 direction: on WCT with receiver faults, adaptive routing
  // rounds/message exceeds coding rounds/message substantially.
  Rng grng(20);
  topology::WctParams wp;
  wp.sender_count = 64;
  wp.class_count = 6;
  wp.clusters_per_class = 8;
  wp.cluster_size = 16;
  const topology::WctNetwork wct(wp, grng);

  const std::int64_t k = 24;
  RadioNetwork net_r(wct.graph(), FaultModel::receiver(0.5), Rng(21));
  PipelineParams pipeline;
  pipeline.k = k;
  Rng rng_r(22);
  const auto routing =
      run_layered_pipeline_routing(net_r, wct.source(), pipeline, rng_r);
  ASSERT_TRUE(routing.completed);

  RadioNetwork net_c(wct.graph(), FaultModel::receiver(0.5), Rng(23));
  WctCodedParams coded;
  coded.k = k;
  Rng rng_c(24);
  const auto coding = run_wct_rs_coding(net_c, wct, coded, rng_c);
  ASSERT_TRUE(coding.completed);

  EXPECT_GT(routing.rounds_per_message() / coding.rounds_per_message(), 2.0);
}

TEST(IntegrationGaps, StarRoutingRpmIsFlatInK) {
  // Adaptive routing pays ~log2(n) + O(1) rounds per message on the star,
  // whatever the message count.
  const double rpm_8 = star_routing_rpm(128, 8, 30);
  const double rpm_32 = star_routing_rpm(128, 32, 31);
  EXPECT_NEAR(rpm_8, rpm_32, 0.6 * rpm_32);
}

}  // namespace
}  // namespace nrn::core
