// Driver: deterministic multi-trial experiments.  The same scenario must
// produce bit-identical ExperimentReports run-to-run and regardless of the
// thread count, and every registered protocol must run end to end through
// the Driver on at least one scenario.
#include "sim/driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <utility>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

using testutil::csv_of;

TEST(Driver, ReportsAreBitIdenticalForTheSameSeed) {
  const auto scenario = Scenario::parse("grid:8x8", "receiver:0.3", 0, 1, 42);
  const auto a = Driver().run(scenario, "decay", 6);
  const auto b = Driver().run(scenario, "decay", 6);
  ASSERT_EQ(a.trials.size(), 6u);
  EXPECT_EQ(a.trials, b.trials);
  EXPECT_EQ(csv_of(a), csv_of(b));

  // A different seed must change at least the derived trial seeds.
  auto shifted = scenario;
  shifted.seed = 43;
  const auto c = Driver().run(shifted, "decay", 6);
  EXPECT_NE(a.trials.front().net_seed, c.trials.front().net_seed);
}

TEST(Driver, ThreadedTrialsMatchSerialBitForBit) {
  const auto scenario =
      Scenario::parse("grid:10x10", "combined:0.2:0.2", 0, 1, 7);
  const auto serial = Driver().run(scenario, "decay", 8);
  for (const int threads : {2, 4, 8}) {
    DriverOptions options;
    options.threads = threads;
    const auto threaded = Driver().run(scenario, "decay", 8, options);
    EXPECT_EQ(serial.trials, threaded.trials) << threads << " threads";
    EXPECT_EQ(csv_of(serial), csv_of(threaded)) << threads << " threads";
  }
}

TEST(Driver, EveryBuiltinProtocolRunsOnAScenario) {
  // k > 1 exercises the multi-message protocols; the single-message ones
  // broadcast their one message regardless.
  const auto scenario = Scenario::parse("path:24", "receiver:0.2", 0, 3, 11);
  for (const auto& name : testutil::builtin_names()) {
    SCOPED_TRACE(name);
    const auto report = Driver().run(scenario, name, 2);
    EXPECT_EQ(report.protocol, name);
    EXPECT_EQ(report.node_count, 24);
    ASSERT_EQ(report.trials.size(), 2u);
    EXPECT_TRUE(report.all_completed());
    for (const auto& trial : report.trials) EXPECT_GT(trial.run.rounds(), 0);
    // Reproducibility holds for every protocol, not just decay.
    const auto again = Driver().run(scenario, name, 2);
    EXPECT_EQ(report.trials, again.trials);
  }
}

TEST(Driver, EveryBuiltinProtocolCompletesAtOnceOnOneNode) {
  // The source is the only node, so it already holds all k messages: every
  // builtin reports a completed 0-round trial instead of failing the run.
  const auto scenario = Scenario::parse("path:1", "receiver:0.2", 0, 3, 11);
  const auto& registry = extended_registry();
  for (const auto& name : testutil::builtin_names()) {
    SCOPED_TRACE(name);
    const auto report = Driver().run(scenario, name, 2);
    ASSERT_EQ(report.trials.size(), 2u);
    EXPECT_TRUE(report.all_completed());
    const std::int64_t messages =
        registry.has_capability(name, kMultiMessage) ? 3 : 1;
    for (const auto& trial : report.trials) {
      EXPECT_EQ(trial.run.rounds(), 0);
      EXPECT_EQ(trial.run.messages(), messages);
    }
  }
}

TEST(Driver, SummaryHelpersMatchTrials) {
  const auto scenario = Scenario::parse("path:16", "none", 0, 1, 2);
  const auto report = Driver().run(scenario, "decay", 5);
  const auto rounds = report.rounds();
  ASSERT_EQ(rounds.size(), 5u);
  for (std::size_t i = 0; i < rounds.size(); ++i)
    EXPECT_DOUBLE_EQ(rounds[i],
                     static_cast<double>(report.trials[i].run.rounds()));
  EXPECT_GT(report.median_rounds(), 0.0);
  EXPECT_GT(report.mean_rounds(), 0.0);
}

TEST(Driver, UnknownProtocolThrows) {
  const auto scenario = Scenario::parse("path:8", "none");
  EXPECT_THROW(Driver().run(scenario, "nope", 1), SpecError);
}

TEST(Driver, EmittersCarryTheTrials) {
  const auto scenario = Scenario::parse("star:32", "receiver:0.4", 0, 1, 13);
  const auto report = Driver().run(scenario, "decay", 3);

  const auto csv = csv_of(report);
  EXPECT_NE(csv.find("trial,rounds,completed"), std::string::npos);
  // 4 comment notes (scenario, capabilities, summary, theory bound) +
  // 1 header + 3 trial rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 8);

  const auto text = testutil::json_of(report);
  EXPECT_NE(text.find("\"protocol\": \"decay\""), std::string::npos);
  EXPECT_NE(text.find("\"topology\": \"star:32\""), std::string::npos);
  EXPECT_NE(text.find("\"trials\": ["), std::string::npos);
  EXPECT_NE(text.find("\"all_completed\": true"), std::string::npos);

  EXPECT_NE(testutil::table_of(report).find("decay on star:32"),
            std::string::npos);
}

TEST(Driver, BudgetExhaustionIsReportedNotThrown) {
  const auto scenario = Scenario::parse("path:256", "none", 0, 1, 3);
  DriverOptions options;
  options.tuning.max_rounds = 4;
  const auto report = Driver().run(scenario, "decay", 2, options);
  EXPECT_FALSE(report.all_completed());
  for (const auto& trial : report.trials) {
    EXPECT_FALSE(trial.run.completed);
    EXPECT_EQ(trial.run.rounds(), 4);
  }
}

/// Decay that counts the steppers it builds.
class CountingDecay final : public BroadcastProtocol {
 public:
  CountingDecay(std::unique_ptr<BroadcastProtocol> decay,
                std::atomic<int>* steppers)
      : decay_(std::move(decay)), steppers_(steppers) {}

  std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const override {
    ++*steppers_;
    return decay_->make_stepper(trace);
  }

 private:
  std::unique_ptr<BroadcastProtocol> decay_;
  std::atomic<int>* steppers_;
};

TEST(Driver, BuildsOneStepperPerTrialOutsideLockstep) {
  // A one-trial auto cell never banks, so its scalar trial's stepper is
  // the only one it builds.  A banked cell builds one more, to learn that
  // the protocol can step.
  std::atomic<int> steppers{0};
  ProtocolRegistry registry = extended_registry();
  registry.add("counting-decay", "decay counting its steppers",
               [&steppers](const ProtocolContext& ctx) {
                 return std::make_unique<CountingDecay>(
                     extended_registry().create("decay", ctx), &steppers);
               });
  const Driver driver(registry);
  const auto scenario = Scenario::parse("grid:4x4", "none", 0, 1, 3);
  EXPECT_TRUE(driver.run(scenario, "counting-decay", 1).all_completed());
  EXPECT_EQ(steppers.load(), 1);
  steppers = 0;
  EXPECT_TRUE(driver.run(scenario, "counting-decay", 3).all_completed());
  EXPECT_EQ(steppers.load(), 4);
}

}  // namespace
}  // namespace nrn::sim
