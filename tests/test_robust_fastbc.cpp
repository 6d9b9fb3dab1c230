// Robust FASTBC (Theorem 11): completes under faults, stays near
// diameter-linear, and beats plain FASTBC in the noisy model.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "core/fastbc.hpp"
#include "graph/generators.hpp"

namespace nrn::core {
namespace {

using graph::make_caterpillar;
using graph::make_grid;
using graph::make_path;
using radio::FaultModel;
using radio::RadioNetwork;

BroadcastRunResult run_once(const graph::Graph& g, FaultModel fm,
                            std::uint64_t seed,
                            RobustFastbcParams params = {}) {
  const Fastbc algo = Fastbc::robust(g, 0, params);
  RadioNetwork net(g, fm, Rng(seed));
  Rng rng(seed ^ 0x9999);
  return algo.run(net, rng);
}

TEST(RobustFastbc, CompletesFaultless) {
  const auto g = make_path(128);
  EXPECT_TRUE(run_once(g, FaultModel::faultless(), 1).completed);
}

TEST(RobustFastbc, CompletesWithReceiverFaults) {
  const auto g = make_path(128);
  EXPECT_TRUE(run_once(g, FaultModel::receiver(0.5), 2).completed);
}

TEST(RobustFastbc, CompletesWithSenderFaults) {
  const auto g = make_path(128);
  EXPECT_TRUE(run_once(g, FaultModel::sender(0.5), 3).completed);
}

TEST(RobustFastbc, CompletesOnGridAndCaterpillar) {
  EXPECT_TRUE(
      run_once(make_grid(10, 10), FaultModel::receiver(0.4), 4).completed);
  EXPECT_TRUE(run_once(make_caterpillar(30, 2), FaultModel::receiver(0.4), 5)
                  .completed);
}

TEST(RobustFastbc, NoisyRoundsScaleLinearlyInD) {
  // Theorem 11: O(D + polylog) -- doubling D should roughly double rounds,
  // not multiply them by log n factors.
  std::vector<double> lengths, rounds;
  for (const std::int32_t n : {128, 256, 512}) {
    const auto g = make_path(n);
    double total = 0;
    for (std::uint64_t s = 0; s < 3; ++s)
      total += static_cast<double>(
          run_once(g, FaultModel::receiver(0.5), 10 + s).rounds);
    lengths.push_back(n);
    rounds.push_back(total / 3);
  }
  const auto fit = fit_power_law(lengths, rounds);
  EXPECT_GT(fit.slope, 0.7);
  EXPECT_LT(fit.slope, 1.3);
}

TEST(RobustFastbc, BeatsPlainFastbcUnderFaults) {
  // The headline claim: FASTBC pays Theta(p/(1-p) D log n) while Robust
  // FASTBC stays O(D) with a constant ~2c = O(1/(1-p)).  At simulation
  // scale the separation shows once p is high enough that FASTBC's
  // per-hop retry tax (Theta(p/(1-p) log n)) dwarfs the robust schedule's
  // fixed window constant; p = 0.7 with a window sized for that fault
  // rate is comfortably past the crossover on a 512-path.
  const auto g = make_path(512);
  const auto fm = FaultModel::receiver(0.7);
  RobustFastbcParams rparams;
  // Large blocks amortize the Chernoff slack so the window multiplier can
  // sit near its mean 1 + 3p/(1-p) = 8; the steady-state cost is then
  // ~2c = 20 rounds/level, independent of log n.
  rparams.block_size = 32;
  rparams.window_multiplier = 10;
  double robust = 0, plain = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    robust +=
        static_cast<double>(run_once(g, fm, 20 + s, rparams).rounds);
    Fastbc fastbc(g, 0);
    RadioNetwork net(g, fm, Rng(30 + s));
    Rng rng(31 + s);
    plain += static_cast<double>(fastbc.run(net, rng).rounds);
  }
  EXPECT_LT(robust * 1.2, plain);
}

TEST(RobustFastbc, WindowMultiplierMustCoverFaultRate) {
  // For p = 0.75 the default window (c = 8) is marginal: hops need
  // ~3/(1-p) = 12 even rounds.  A larger c restores completion.
  const auto g = make_path(96);
  RobustFastbcParams params;
  params.window_multiplier = 24;
  EXPECT_TRUE(run_once(g, FaultModel::receiver(0.75), 6, params).completed);
}

TEST(RobustFastbc, BlockSizeAblation) {
  // Both very small and very large blocks still complete (the schedule is
  // correct for any S >= 1); this pins the parameterization used by the
  // E5 ablation bench.
  const auto g = make_path(128);
  for (const std::int32_t S : {2, 4, 16}) {
    RobustFastbcParams params;
    params.block_size = S;
    EXPECT_TRUE(run_once(g, FaultModel::receiver(0.3), 7, params).completed)
        << "S=" << S;
  }
}

TEST(RobustFastbc, BudgetRespected) {
  const auto g = make_path(64);
  RobustFastbcParams params;
  params.max_rounds = 6;
  const auto r = run_once(g, FaultModel::faultless(), 8, params);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.rounds, 6);
}

TEST(RobustFastbc, DeterministicGivenSeeds) {
  const auto g = make_grid(8, 8);
  const auto a = run_once(g, FaultModel::receiver(0.5), 99);
  const auto b = run_once(g, FaultModel::receiver(0.5), 99);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(RobustFastbc, WrongNetworkGraphRejected) {
  const auto g1 = make_path(8);
  const auto g2 = make_path(8);
  const Fastbc algo = Fastbc::robust(g1, 0);
  RadioNetwork net(g2, FaultModel::faultless(), Rng(1));
  Rng rng(1);
  EXPECT_THROW(algo.run(net, rng), ContractViolation);
}

TEST(RobustFastbc, ExposesScheduleParameters) {
  const auto g = make_path(1024);
  const Fastbc algo = Fastbc::robust(g, 0);
  EXPECT_GE(algo.block_size(), 2);
  EXPECT_GE(algo.window_multiplier(), 1);
  EXPECT_GE(algo.rank_modulus(), algo.tree().max_rank);
}

}  // namespace
}  // namespace nrn::core
