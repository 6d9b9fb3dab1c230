// SINR channel semantics (radio/channel_model.hpp): hand-computable
// reception cases (capture vs. collision, noise-limited losses, gain
// ties), determinism (the channel draws no coins, so the engine rng is
// irrelevant), bit-identical agreement across the scalar kernel routes
// (SINR never takes the adjacent kernel, even across channel switches),
// lockstep-lane-vs-scalar bit-identity, re-arming one engine across
// channels, driver-level report equality plus the interference trace
// series, and pinned record bytes for both channels on every kernel route.
#include "radio/channel_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "radio/lockstep.hpp"
#include "radio/network.hpp"
#include "sim/driver.hpp"
#include "sim/scenario.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_runner.hpp"

namespace nrn::radio {
namespace {

using graph::Geometry;
using graph::Graph;
using graph::NodeId;

std::vector<NodeId> receivers_of(const DeliveryList& deliveries) {
  std::vector<NodeId> out;
  for (const auto& d : deliveries) out.push_back(d.receiver);
  return out;
}

/// Three nodes on a line: listener 0 with graph edges to 1 (distance 1)
/// and 2 (distance 2); no edge between 1 and 2.
struct LineFixture {
  Graph graph{3, {{0, 1}, {0, 2}}};
  Geometry geometry{{0.0, 1.0, 2.0}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
};

TEST(SinrChannel, CaptureBeatsCollisionWhenTheStrongSignalClears) {
  LineFixture fx;
  // alpha=2: gain(1->0) = 1.0, gain(2->0) = 0.25.
  const auto channel = ChannelModel::sinr_channel(2.0, 0.1, 1.0);
  RadioNetwork net(fx.graph, channel, Rng(1), &fx.geometry);
  net.set_broadcast(1, Packet{7});
  net.set_broadcast(2, Packet{8});
  const auto& deliveries = net.run_round();
  // 1.0 >= beta * (noise + interference) = 1.0 * (0.1 + 0.25): node 0
  // decodes the stronger transmitter where the edge-fault channel would
  // have recorded a collision.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries.front().receiver, 0);
  EXPECT_EQ(deliveries.front().sender, 1);
  EXPECT_EQ(deliveries.front().packet.id, 7);
  EXPECT_EQ(net.last_round().deliveries, 1);
  EXPECT_EQ(net.last_round().collision_losses, 0);
  EXPECT_EQ(net.last_round().interference_losses, 0);

  // The identical staging under the edge-fault channel: a collision.
  RadioNetwork edge(fx.graph, FaultModel::faultless(), Rng(1));
  edge.set_broadcast(1, Packet{7});
  edge.set_broadcast(2, Packet{8});
  EXPECT_TRUE(edge.run_round().empty());
  EXPECT_EQ(edge.last_round().collision_losses, 1);
}

TEST(SinrChannel, ThresholdFailureCountsAnInterferenceLoss) {
  LineFixture fx;
  const auto channel = ChannelModel::sinr_channel(2.0, 0.1, 4.0);
  RadioNetwork net(fx.graph, channel, Rng(1), &fx.geometry);
  net.set_broadcast(1, Packet{7});
  net.set_broadcast(2, Packet{8});
  // 1.0 < 4.0 * (0.1 + 0.25): the listener heard transmitters but decoded
  // none -- an interference loss, never a collision loss.
  EXPECT_TRUE(net.run_round().empty());
  EXPECT_EQ(net.last_round().interference_losses, 1);
  EXPECT_EQ(net.last_round().collision_losses, 0);

  // Noise-limited: a lone weak transmitter fails the same threshold
  // (0.25 < 4.0 * 0.1) with zero interference.
  net.set_broadcast(2, Packet{8});
  EXPECT_TRUE(net.run_round().empty());
  EXPECT_EQ(net.last_round().interference_losses, 1);

  // Relaxed beta: the same lone transmitter clears (0.25 >= 1.0 * 0.1).
  net.reset(ChannelModel::sinr_channel(2.0, 0.1, 1.0), Rng(1));
  net.set_broadcast(2, Packet{8});
  ASSERT_EQ(net.run_round().size(), 1u);
  EXPECT_EQ(net.last_round().deliveries, 1);
}

TEST(SinrChannel, GainTieResolvesToTheLowestSenderId) {
  // Listener 0 between equidistant transmitters 1 and 2: identical gains,
  // and the ascending row walk's strict-greater compare keeps the lowest
  // sender id.
  Graph g(3, {{0, 1}, {0, 2}});
  Geometry geo{{0.0, 1.0, -1.0}, {0.0, 0.0, 0.0}, {1.0, 1.0, 1.0}};
  const auto channel = ChannelModel::sinr_channel(2.0, 0.0, 0.5);
  RadioNetwork net(g, channel, Rng(1), &geo);
  net.set_broadcast(2, Packet{8});  // staged first: staging order must not
  net.set_broadcast(1, Packet{7});  // override the id-order tie break
  const auto& deliveries = net.run_round();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries.front().sender, 1);
  EXPECT_EQ(deliveries.front().packet.id, 7);
}

TEST(SinrChannel, DeterministicRegardlessOfEngineSeed) {
  // The channel prices no coins, so two engines with different rng seeds
  // must agree round for round on a nontrivial geometric graph.
  const auto scenario =
      sim::Scenario::parse("disk:80:0.3", "none", 0, 1, 17, "sinr:2.5:0.01:0.8");
  Geometry geo;
  const Graph g = scenario.build_graph(&geo);
  RadioNetwork a(g, scenario.channel, Rng(1), &geo);
  RadioNetwork b(g, scenario.channel, Rng(999), &geo);
  Rng plan_rng(5);
  for (int round = 0; round < 25; ++round) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      if (!plan_rng.bernoulli(0.25)) continue;
      a.set_broadcast(u, Packet{u});
      b.set_broadcast(u, Packet{u});
    }
    const auto ra = receivers_of(a.run_round());
    const auto rb = receivers_of(b.run_round());
    ASSERT_EQ(ra, rb) << "round " << round;
    ASSERT_EQ(a.last_round(), b.last_round()) << "round " << round;
  }
}

TEST(SinrChannel, ScalarKernelRoutesAgree) {
  const auto scenario = sim::Scenario::parse("disk:120:0.25", "none", 0, 1, 5,
                                             "sinr:2.5:0.01:0.5");
  Geometry geo;
  const Graph g = scenario.build_graph(&geo);
  RadioNetwork sparse(g, scenario.channel, Rng(1), &geo);
  RadioNetwork dense(g, scenario.channel, Rng(1), &geo);
  sparse.set_kernel(RadioNetwork::Kernel::kSparse);
  dense.set_kernel(RadioNetwork::Kernel::kDense);
  Rng plan_rng(11);
  for (int round = 0; round < 20; ++round) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      if (!plan_rng.bernoulli(0.3)) continue;
      sparse.set_broadcast(u, Packet{u});
      dense.set_broadcast(u, Packet{u});
    }
    const auto rs = receivers_of(sparse.run_round());
    const auto rd = receivers_of(dense.run_round());
    ASSERT_EQ(rs, rd) << "round " << round;
    ASSERT_EQ(sparse.last_round(), dense.last_round()) << "round " << round;
  }
}

/// A path with hand-placed, equally spaced nodes: a consecutive-id
/// topology, so edge-fault rounds qualify for the word-parallel kernel.
struct PathFixture {
  static constexpr NodeId kN = 67;  // odd and > 64: a partial last word
  Graph graph = graph::make_path(kN);
  Geometry geometry;
  PathFixture() {
    for (NodeId u = 0; u < kN; ++u) {
      geometry.x.push_back(0.37 * u);
      geometry.y.push_back(0.0);
      geometry.power.push_back(u % 2 == 0 ? 1.0 : 1.5);
    }
  }
};

TEST(SinrChannel, ConsecutiveIdTopologiesTakeTheRowWalk) {
  // SINR rounds never use the adjacent kernel: forcing it is a contract
  // error, and auto selection matches the forced sparse row walk.
  PathFixture fx;
  const auto channel = ChannelModel::sinr_channel(3.0, 0.005, 0.9);
  RadioNetwork automatic(fx.graph, channel, Rng(1), &fx.geometry);
  RadioNetwork sparse(fx.graph, channel, Rng(1), &fx.geometry);
  EXPECT_THROW(automatic.set_kernel(RadioNetwork::Kernel::kAdjacent),
               ContractViolation);
  sparse.set_kernel(RadioNetwork::Kernel::kSparse);
  Rng plan_rng(23);
  for (int round = 0; round < 30; ++round) {
    for (NodeId u = 0; u < PathFixture::kN; ++u) {
      if (!plan_rng.bernoulli(0.4)) continue;
      automatic.set_broadcast(u, Packet{u});
      sparse.set_broadcast(u, Packet{u});
    }
    const auto ra = receivers_of(automatic.run_round());
    const auto rs = receivers_of(sparse.run_round());
    ASSERT_EQ(ra, rs) << "round " << round;
    ASSERT_EQ(automatic.last_round(), sparse.last_round())
        << "round " << round;
  }
}

TEST(SinrChannel, ResetRederivesTheStagingPlanWhenTheChannelChanges) {
  // One network alternating channels across resets -- each reset
  // abandoning a staged plan -- must match a fresh network per phase:
  // edge-fault phases stage into the adjacent kernel's bitmask, SINR
  // phases into the row walks' node slots, and no broadcaster bit leaks.
  PathFixture fx;
  const ChannelModel channels[] = {
      FaultModel::receiver(0.3),
      ChannelModel::sinr_channel(3.0, 0.005, 0.9)};
  RadioNetwork reused(fx.graph, channels[0], Rng(1), &fx.geometry);
  Rng plan_rng(31);
  for (int phase = 0; phase < 4; ++phase) {
    const ChannelModel& channel = channels[phase % 2];
    reused.set_broadcast(phase, Packet{phase});
    reused.reset(channel, Rng(100 + phase));
    RadioNetwork fresh(fx.graph, channel, Rng(100 + phase), &fx.geometry);
    for (int round = 0; round < 10; ++round) {
      for (NodeId u = 0; u < PathFixture::kN; ++u) {
        if (!plan_rng.bernoulli(0.4)) continue;
        reused.set_broadcast(u, Packet{u});
        fresh.set_broadcast(u, Packet{u});
      }
      const auto rr = receivers_of(reused.run_round());
      const auto rf = receivers_of(fresh.run_round());
      ASSERT_EQ(rr, rf) << "phase " << phase << " round " << round;
      ASSERT_EQ(reused.last_round(), fresh.last_round())
          << "phase " << phase << " round " << round;
    }
  }
  // A forced adjacent kernel cannot carry over into a SINR channel.
  reused.reset(channels[0], Rng(7));
  reused.set_kernel(RadioNetwork::Kernel::kAdjacent);
  EXPECT_THROW(reused.reset(channels[1], Rng(7)), ContractViolation);
}

TEST(SinrChannel, LockstepLanesMatchScalarRoundByRound) {
  const auto scenario = sim::Scenario::parse("uniform:90:2.5", "none", 0, 1,
                                             31, "sinr:2:0.002:0.7");
  Geometry geo;
  const Graph g = scenario.build_graph(&geo);
  Rng meta(424242);
  LockstepNetwork bank(g, scenario.channel, &geo);
  std::vector<RadioNetwork> scalars;
  const int lanes = LockstepNetwork::kMaxLanes;
  std::vector<Rng> plan_rngs;
  for (int l = 0; l < lanes; ++l) {
    const std::uint64_t seed = meta();
    ASSERT_EQ(bank.add_lane(Rng(seed)), l);
    scalars.emplace_back(g, scenario.channel, Rng(seed), &geo);
    plan_rngs.emplace_back(seed ^ 0xfeed);
  }
  for (int round = 0; round < 25; ++round) {
    const unsigned mask = static_cast<unsigned>(meta.next_below(1u << lanes));
    for (int l = 0; l < lanes; ++l) {
      if ((mask & (1u << l)) == 0) continue;
      auto& rng = plan_rngs[static_cast<std::size_t>(l)];
      for (NodeId u = g.node_count() - 1; u >= 0; --u) {
        if (!rng.bernoulli(0.3)) continue;
        bank.stage(l, u);
        scalars[static_cast<std::size_t>(l)].set_broadcast(u, Packet{u});
      }
    }
    if (mask == 0) continue;
    bank.run_round(mask);
    for (int l = 0; l < lanes; ++l) {
      if ((mask & (1u << l)) == 0) continue;
      auto& scalar = scalars[static_cast<std::size_t>(l)];
      const auto expected = receivers_of(scalar.run_round());
      const auto got = bank.receivers(l);
      ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
          << "lane " << l << " round " << round;
      ASSERT_EQ(bank.last_round(l), scalar.last_round())
          << "lane " << l << " round " << round;
    }
  }
}

TEST(SinrChannel, LockstepResetReArmsAcrossChannels) {
  // One bank re-armed for an edge-fault channel, then SINR at alpha 3,
  // then SINR at alpha 2 -- each reset abandoning a staged lane -- must
  // match a fresh bank lane for lane: coin thresholds are re-derived on
  // every reset, and the gain table is rebuilt whenever the SINR
  // parameters change (a stale alpha-3 table misprices every alpha-2 gain).
  const auto scenario = sim::Scenario::parse("uniform:90:2.5", "none", 0, 1,
                                             31);
  Geometry geo;
  const Graph g = scenario.build_graph(&geo);
  const ChannelModel channels[] = {
      FaultModel::combined(0.2, 0.3),
      ChannelModel::sinr_channel(3.0, 0.002, 0.7),
      ChannelModel::sinr_channel(2.0, 0.002, 0.7)};
  const int lanes = LockstepNetwork::kMaxLanes;
  const unsigned all = (1u << lanes) - 1;
  LockstepNetwork reused(g, channels[0], &geo);
  reused.add_lane(Rng(1));
  Rng meta(2718);
  for (int phase = 0; phase < 3; ++phase) {
    const ChannelModel& channel = channels[phase];
    reused.stage(0, phase);  // abandoned by the reset
    reused.reset(channel);
    LockstepNetwork fresh(g, channel, &geo);
    std::vector<Rng> plan_rngs;
    for (int l = 0; l < lanes; ++l) {
      const std::uint64_t seed = meta();
      reused.add_lane(Rng(seed));
      fresh.add_lane(Rng(seed));
      plan_rngs.emplace_back(seed ^ 0xbeef);
    }
    for (int round = 0; round < 12; ++round) {
      for (int l = 0; l < lanes; ++l) {
        auto& rng = plan_rngs[static_cast<std::size_t>(l)];
        for (NodeId u = 0; u < g.node_count(); ++u) {
          if (!rng.bernoulli(0.3)) continue;
          reused.stage(l, u);
          fresh.stage(l, u);
        }
      }
      reused.run_round(all);
      fresh.run_round(all);
      for (int l = 0; l < lanes; ++l) {
        const auto got = reused.receivers(l);
        const auto want = fresh.receivers(l);
        ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()),
                  std::vector<NodeId>(want.begin(), want.end()))
            << "phase " << phase << " lane " << l << " round " << round;
        ASSERT_EQ(reused.last_round(l), fresh.last_round(l))
            << "phase " << phase << " lane " << l << " round " << round;
      }
    }
  }
}

TEST(SinrChannel, DriverScalarAndLockstepReportsAreIdentical) {
  const auto scenario = sim::Scenario::parse("disk:96:0.3", "none", 0, 1, 9,
                                             "sinr:2.5:0.005:0.6");
  sim::DriverOptions scalar_opts;
  scalar_opts.execution = sim::TrialExecution::kScalar;
  sim::DriverOptions lockstep_opts;
  lockstep_opts.execution = sim::TrialExecution::kLockstep;
  for (const char* protocol : {"decay", "fastbc"}) {
    SCOPED_TRACE(protocol);
    const auto a = sim::Driver().run(scenario, protocol, 6, scalar_opts);
    const auto b = sim::Driver().run(scenario, protocol, 6, lockstep_opts);
    EXPECT_EQ(a, b);
    EXPECT_TRUE(a.all_completed());
  }
}

TEST(SinrChannel, TracedRunsCarryTheInterferenceSeries) {
  sim::DriverOptions opts;
  opts.trace = true;
  const auto sinr = sim::Scenario::parse("disk:64:0.3", "none", 0, 1, 13,
                                         "sinr:2.5:0.005:0.6");
  const auto traced = sim::Driver().run(sinr, "decay", 2, opts);
  const auto keys = traced.series_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "interference"), keys.end());

  // Edge-fault traces must stay byte-compatible: no interference series.
  const auto edge = sim::Scenario::parse("path:32", "receiver:0.2", 0, 1, 13);
  const auto edge_traced = sim::Driver().run(edge, "decay", 2, opts);
  const auto edge_keys = edge_traced.series_keys();
  EXPECT_EQ(std::find(edge_keys.begin(), edge_keys.end(), "interference"),
            edge_keys.end());
}

TEST(ChannelBytes, RecordsMatchPinnedHashes) {
  // FNV-1a of experiment_record for 9-trial, seed-7 runs of both channels,
  // pinned from a library built before the channel was armed in one place
  // (radio/channel_state.hpp) for the first seven, and before the FASTBC
  // fast rounds read precomputed schedules and auto banked every size
  // (core/wave_schedule.hpp) for the rest.  Every pin runs under kAuto and
  // kScalar against the same hash, so each cell covers the scalar kernel
  // and the route auto takes: the lockstep bank for every multi-trial cell
  // whose ids are not consecutive (n = 64 to 2048, edge and SINR), the
  // scalar adjacent kernel for the path.  rlnc-robust cannot step and runs
  // scalar both times; it pins the Lemma 13 pattern's schedule.
  struct Pinned {
    const char* topology;
    const char* fault;
    const char* channel;
    const char* protocol;
    std::int64_t k;
    bool trace;
    std::uint64_t hash;
  };
  const Pinned pinned[] = {
      {"gnp:64:0.1", "combined:0.2:0.3", "none", "decay", 1, false,
       0x71bc479bfe813e9cULL},
      {"path:64", "combined:0.2:0.3", "none", "decay", 1, false,
       0x508ca260fac96a00ULL},
      {"grid:8x8", "sender:0.3", "none", "robust", 1, false,
       0x53804ba0354dc35eULL},
      {"disk:96:0.3", "none", "sinr:2.5:0.001:1.0", "decay", 1, true,
       0x25554a9590dd814aULL},
      {"disk:96:0.3", "none", "sinr:2.5:0.001:1.0", "fastbc", 1, true,
       0x2dfe31b4d594acd1ULL},
      {"disk:600:0.1", "none", "sinr:2.5:0.001:1.0", "decay", 1, true,
       0x6150dac836f8cf97ULL},
      {"disk:600:0.1", "none", "sinr:2.5:0.001:1.0", "fastbc", 1, true,
       0xf0e1e2074ccdd0bbULL},
      {"gnp:2048:0.005", "receiver:0.3", "none", "fastbc", 1, true,
       0xbea2637ba8acb415ULL},
      {"gnp:2048:0.005", "receiver:0.3", "none", "robust", 1, true,
       0x349fd5e2ae47016fULL},
      {"grid:32x64", "receiver:0.3", "none", "fastbc", 1, true,
       0xea26d2f93b9a8826ULL},
      {"grid:32x64", "receiver:0.3", "none", "robust", 1, true,
       0xb366b1b7c0ec97b4ULL},
      {"disk:2048:0.05", "none", "sinr:2.5:0.001:1.0", "fastbc", 1, true,
       0xa2b70fc6fc287c9dULL},
      {"disk:2048:0.05", "none", "sinr:2.5:0.001:1.0", "robust", 1, true,
       0x7b461a70d1e8f75aULL},
      {"gnp:256:0.04", "receiver:0.3", "none", "rlnc-robust", 8, false,
       0x543c73695f68b547ULL},
  };
  for (const Pinned& p : pinned) {
    const auto scenario =
        sim::Scenario::parse(p.topology, p.fault, 0, p.k, 7, p.channel);
    for (const auto execution :
         {sim::TrialExecution::kAuto, sim::TrialExecution::kScalar}) {
      SCOPED_TRACE(std::string(p.protocol) + " on " + p.topology + " under " +
                   p.fault + " / " + p.channel +
                   (execution == sim::TrialExecution::kAuto ? " (auto)"
                                                            : " (scalar)"));
      sim::DriverOptions options;
      options.trace = p.trace;
      options.execution = execution;
      const auto report = sim::Driver().run(scenario, p.protocol, 9, options);
      EXPECT_TRUE(report.all_completed());
      EXPECT_EQ(sim::fnv1a64(sim::experiment_record(report)), p.hash);
    }
  }
}

TEST(SinrChannel, UnsupportedProtocolIsRejectedUpFront) {
  // The schedule protocols carry no kSinrCapable bit: the driver must
  // reject them before any factory runs, naming the protocol.
  const auto scenario = sim::Scenario::parse("disk:48:0.3", "none", 0, 1, 3,
                                             "sinr:2:0.001:1");
  try {
    sim::Driver(sim::extended_registry()).run(scenario, "star-coding", 1);
    ADD_FAILURE() << "expected SpecError";
  } catch (const sim::SpecError& e) {
    EXPECT_STREQ(e.what(),
                 "protocol 'star-coding' does not support the sinr channel");
  }
}

}  // namespace
}  // namespace nrn::radio
