// Lockstep multi-trial execution (engine v4): a LockstepNetwork lane must
// replay its scalar RadioNetwork bit for bit -- receivers, round stats, and
// fault-stream consumption -- and the Driver's lockstep path must produce
// reports identical to the scalar path for every registered protocol.
#include "radio/lockstep.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "graph/generators.hpp"
#include "sim/driver.hpp"

namespace nrn::radio {
namespace {

using graph::Graph;
using graph::NodeId;

/// One random per-lane plan with density `q`, staging order id-descending
/// so staging order and id order cannot be conflated.
std::vector<NodeId> random_plan(const Graph& g, double q, Rng& rng) {
  std::vector<NodeId> plan;
  for (NodeId u = g.node_count() - 1; u >= 0; --u)
    if (rng.bernoulli(q)) plan.push_back(u);
  return plan;
}

TEST(Lockstep, LanesMatchScalarNetworksRoundByRound) {
  Rng meta(424242);
  const FaultModel models[] = {
      FaultModel::faultless(), FaultModel::sender(0.3),
      FaultModel::receiver(0.4), FaultModel::combined(0.2, 0.3)};
  for (int instance = 0; instance < 4; ++instance) {
    const auto n = static_cast<NodeId>(8 + meta.next_below(40));
    const Graph g = graph::make_connected_gnp(n, 0.2, meta);
    for (const auto& fm : models) {
      // Every other instance fills the bank, so the top lane's mask bit
      // and sole-sender slot are exercised under every fault model.
      const int lanes = instance % 2 == 0
                            ? LockstepNetwork::kMaxLanes
                            : 1 + static_cast<int>(meta.next_below(
                                      LockstepNetwork::kMaxLanes));
      LockstepNetwork bank(g, fm);
      std::vector<RadioNetwork> scalars;
      std::array<Rng, LockstepNetwork::kMaxLanes> plan_rngs;
      for (int l = 0; l < lanes; ++l) {
        const std::uint64_t seed = meta();
        ASSERT_EQ(bank.add_lane(Rng(seed)), l);
        scalars.emplace_back(g, fm, Rng(seed));
        plan_rngs[static_cast<std::size_t>(l)] = Rng(seed ^ 0xfeed);
      }
      for (int round = 0; round < 30; ++round) {
        // Random subset of lanes runs this round (finished trials idle).
        const auto mask = static_cast<LockstepNetwork::LaneMask>(
            meta.next_below(std::uint64_t{1} << lanes));
        for (int l = 0; l < lanes; ++l) {
          if (((mask >> l) & 1U) == 0) continue;
          const auto plan =
              random_plan(g, 0.3, plan_rngs[static_cast<std::size_t>(l)]);
          bank.stage_many(l, plan);
          for (const NodeId u : plan)
            scalars[static_cast<std::size_t>(l)].set_broadcast(u);
        }
        if (mask == 0) continue;
        bank.run_round(mask);
        for (int l = 0; l < lanes; ++l) {
          if (((mask >> l) & 1U) == 0) continue;
          auto& scalar = scalars[static_cast<std::size_t>(l)];
          const auto& deliveries = scalar.run_round();
          std::vector<NodeId> expected;
          for (const auto& d : deliveries) expected.push_back(d.receiver);
          const auto got = bank.receivers(l);
          ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
              << "instance " << instance << " lane " << l << " round "
              << round;
          ASSERT_EQ(bank.last_round(l), scalar.last_round())
              << "instance " << instance << " lane " << l << " round "
              << round;
        }
      }
    }
  }
}

TEST(Lockstep, LanePortBernoulliStagingMatchesScalarTape) {
  Rng meta(99);
  const Graph g = graph::make_connected_gnp(24, 0.25, meta);
  const FaultModel fm = FaultModel::receiver(0.3);
  const std::uint64_t seed = meta();
  std::vector<NodeId> candidates;
  for (NodeId u = 0; u < g.node_count(); ++u) candidates.push_back(u);

  LockstepNetwork bank(g, fm);
  ASSERT_EQ(bank.add_lane(Rng(seed)), 0);
  RadioNetwork scalar(g, fm, Rng(seed));
  Rng lane_rng(7), scalar_rng(7);
  auto port = bank.port(0);
  for (int round = 0; round < 40; ++round) {
    const std::int32_t i = round % 4;
    port.stage_bernoulli_pow2(candidates, i, lane_rng);
    scalar.stage_bernoulli_pow2(candidates, i, scalar_rng);
    bank.run_round(1u);
    const auto& deliveries = scalar.run_round();
    std::vector<NodeId> expected;
    for (const auto& d : deliveries) expected.push_back(d.receiver);
    const auto got = bank.receivers(0);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
        << "round " << round;
    ASSERT_EQ(lane_rng(), scalar_rng()) << "round " << round;
  }
}

TEST(Lockstep, RoundMaskPreconditionHoldsAtFullWidth) {
  // A full bank's lane count equals the mask's bit width: the all-lanes
  // mask must be accepted, and a bit past the last lane rejected.
  Rng meta(31);
  const Graph g = graph::make_connected_gnp(12, 0.4, meta);
  LockstepNetwork bank(g, FaultModel::sender(0.2));
  for (int l = 0; l + 1 < LockstepNetwork::kMaxLanes; ++l)
    bank.add_lane(Rng(static_cast<std::uint64_t>(l)));
  const LockstepNetwork::LaneMask top = LockstepNetwork::LaneMask{1}
                                        << (LockstepNetwork::kMaxLanes - 1);
  EXPECT_THROW(bank.run_round(top), ContractViolation);
  bank.add_lane(Rng(99));
  EXPECT_THROW(bank.add_lane(Rng(100)), ContractViolation);
  const LockstepNetwork::LaneMask all = ~LockstepNetwork::LaneMask{0};
  for (int l = 0; l < LockstepNetwork::kMaxLanes; ++l)
    bank.stage_many(l, std::vector<NodeId>{l % g.node_count()});
  bank.run_round(all);
  for (int l = 0; l < LockstepNetwork::kMaxLanes; ++l)
    EXPECT_EQ(bank.last_round(l).broadcasters, 1) << "lane " << l;
}

TEST(Lockstep, ResetDropsLanesAndReplaysExactly) {
  Rng meta(5150);
  const Graph g = graph::make_connected_gnp(16, 0.3, meta);
  const FaultModel fm = FaultModel::combined(0.4, 0.4);
  auto run_schedule = [&](LockstepNetwork& bank, std::uint64_t seed) {
    bank.add_lane(Rng(seed));
    std::vector<NodeId> all;
    Rng plan_rng(seed ^ 1);
    for (int round = 0; round < 20; ++round) {
      bank.stage_many(0, random_plan(g, 0.4, plan_rng));
      bank.run_round(1u);
      const auto got = bank.receivers(0);
      all.insert(all.end(), got.begin(), got.end());
    }
    return all;
  };

  LockstepNetwork fresh(g, fm);
  const auto expected = run_schedule(fresh, 1001);

  // Dirty a bank with a different model and seed, then reset: lanes are
  // dropped and the fresh run replays bit for bit.
  LockstepNetwork reused(g, FaultModel::sender(0.9));
  run_schedule(reused, 5);
  reused.stage_many(0, std::vector<NodeId>{3});  // staged but never run
  reused.reset(fm);
  EXPECT_EQ(reused.lane_count(), 0);
  EXPECT_EQ(run_schedule(reused, 1001), expected);
}

}  // namespace
}  // namespace nrn::radio

namespace nrn::sim {
namespace {

TEST(LockstepDriver, ScalarAndLockstepReportsAreBitIdentical) {
  const Driver driver(extended_registry());
  // Topology-restricted protocol families get a matching scenario; the
  // rest run on a grid.  kLockstep falls back to scalar for protocols
  // without steppers, so every registry entry is covered either way.
  const auto scenario_for = [](const std::string& name) {
    if (name.rfind("link", 0) == 0)
      return Scenario::parse("link", "receiver:0.3", 0, 2, 321);
    if (name.rfind("wct", 0) == 0)
      return Scenario::parse("wct:16:2:6:2", "receiver:0.3", 0, 2, 321);
    // Lemma 25's routing transform is a sender-fault schedule.
    if (name == "transform-routing")
      return Scenario::parse("star:24", "sender:0.3", 0, 2, 321);
    if (name.rfind("star", 0) == 0 || name.rfind("transform", 0) == 0)
      return Scenario::parse("star:24", "receiver:0.3", 0, 2, 321);
    return Scenario::parse("grid:6x6", "combined:0.2:0.3", 0, 2, 321);
  };
  for (const auto& name : extended_registry().names()) {
    SCOPED_TRACE(name);
    const auto scenario = scenario_for(name);
    DriverOptions scalar_opts, lockstep_opts;
    scalar_opts.execution = TrialExecution::kScalar;
    lockstep_opts.execution = TrialExecution::kLockstep;
    // More trials than one bank holds: two banks, both nearly full.
    const int trials = radio::LockstepNetwork::kMaxLanes + 3;
    const auto scalar = driver.run(scenario, name, trials, scalar_opts);
    const auto lockstep = driver.run(scenario, name, trials, lockstep_opts);
    EXPECT_EQ(scalar.trials, lockstep.trials);
    // And kAuto must agree with both.
    const auto automatic = driver.run(scenario, name, trials);
    EXPECT_EQ(scalar.trials, automatic.trials);
  }
}

TEST(LockstepDriver, TracedLockstepMatchesTracedScalar) {
  const auto scenario = Scenario::parse("path:20", "receiver:0.3", 0, 1, 8);
  DriverOptions scalar_opts, lockstep_opts;
  scalar_opts.trace = lockstep_opts.trace = true;
  scalar_opts.execution = TrialExecution::kScalar;
  lockstep_opts.execution = TrialExecution::kLockstep;
  for (const char* name : {"decay", "fastbc", "robust"}) {
    SCOPED_TRACE(name);
    const auto scalar = Driver().run(scenario, name, 5, scalar_opts);
    const auto lockstep = Driver().run(scenario, name, 5, lockstep_opts);
    EXPECT_EQ(scalar.trials, lockstep.trials);
    EXPECT_TRUE(scalar.has_series());
  }
}

TEST(LockstepDriver, SingleNodeAndSingleTrialEdgeCases) {
  // n == 1: the stepper completes before staging anything.
  const auto tiny = Scenario::parse("path:1", "none", 0, 1, 5);
  DriverOptions lockstep_opts;
  lockstep_opts.execution = TrialExecution::kLockstep;
  const auto report = Driver().run(tiny, "decay", 3, lockstep_opts);
  EXPECT_TRUE(report.all_completed());
  for (const auto& trial : report.trials) EXPECT_EQ(trial.run.rounds(), 0);

  // One trial still works through the bank (one-lane lockstep).
  const auto one = Scenario::parse("star:12", "receiver:0.2", 0, 1, 6);
  DriverOptions scalar_opts;
  scalar_opts.execution = TrialExecution::kScalar;
  EXPECT_EQ(Driver().run(one, "decay", 1, lockstep_opts).trials,
            Driver().run(one, "decay", 1, scalar_opts).trials);
}

TEST(LockstepDriver, ThreadedBanksMatchSerial) {
  // Two banks serially; at 3 and 4 threads the trials split into one bank
  // per thread instead, and 64 threads make at most one per pool slot.
  const auto scenario =
      Scenario::parse("grid:5x5", "combined:0.25:0.25", 0, 1, 99);
  const int trials = radio::LockstepNetwork::kMaxLanes + 3;
  DriverOptions serial_opts;
  serial_opts.execution = TrialExecution::kLockstep;
  const auto serial = Driver().run(scenario, "decay", trials, serial_opts);
  for (const int threads : {2, 3, 4, 64}) {
    DriverOptions threaded_opts = serial_opts;
    threaded_opts.threads = threads;
    const auto threaded =
        Driver().run(scenario, "decay", trials, threaded_opts);
    EXPECT_EQ(serial.trials, threaded.trials) << threads << " threads";
  }
}

}  // namespace
}  // namespace nrn::sim
