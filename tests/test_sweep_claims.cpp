// Claim lifecycle hardening: heartbeats keep a slow cell's claim fresh
// under a short TTL (no concurrent recompute), and every exit path of the
// cell executor -- including a protocol throwing mid-compute -- releases
// the claim marker (no leaked `.claim` files wedging later fleets).
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

namespace fs = std::filesystem;

std::string scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nrn_" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

/// Ages a claim marker by `seconds` (as if its owner had not refreshed it
/// for that long).
void age_claim(const ResultCache& cache, const std::string& key,
               double seconds) {
  const auto path = cache.claim_path(key);
  fs::last_write_time(
      path, fs::last_write_time(path) -
                std::chrono::duration_cast<fs::file_time_type::duration>(
                    std::chrono::duration<double>(seconds)));
}

TEST(ClaimHeartbeat, RefreshClaimDefeatsTtlExpiry) {
  const auto dir = scratch_dir("chb_refresh");
  const ResultCache cache(dir);
  const std::string key = "cell-key";
  ASSERT_TRUE(cache.try_claim(key));

  age_claim(cache, key, 3600.0);
  cache.refresh_claim(key);  // the heartbeat's primitive
  EXPECT_FALSE(cache.steal_stale_claim(key, 60.0));  // fresh again

  age_claim(cache, key, 3600.0);
  EXPECT_TRUE(cache.steal_stale_claim(key, 60.0));  // unrefreshed: stealable
  cache.release_claim(key);
  // refresh_claim on a vanished marker is a harmless no-op (stolen claim).
  cache.refresh_claim(key);
}

TEST(ClaimHeartbeat, TickerKeepsClaimFreshWhileHeld) {
  const auto dir = scratch_dir("chb_ticker");
  const ResultCache cache(dir);
  const std::string key = "slow-cell";
  ASSERT_TRUE(cache.try_claim(key));
  {
    ClaimHeartbeat heartbeat(cache, key, 0.02);
    // Watch a "peer" with a 100ms TTL try to steal for ~300ms: the ticker
    // refreshes every 20ms, so the claim never looks stale.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
    while (std::chrono::steady_clock::now() < deadline) {
      EXPECT_FALSE(cache.steal_stale_claim(key, 0.1));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  // Ticker stopped: after the TTL the claim is fair game again.
  age_claim(cache, key, 3600.0);
  EXPECT_TRUE(cache.steal_stale_claim(key, 0.1));
}

/// A wrapper protocol that sleeps before delegating, making one cell
/// reliably slower than any realistic short TTL.
class SlowProtocol : public BroadcastProtocol {
 public:
  SlowProtocol(std::unique_ptr<BroadcastProtocol> inner, int sleep_ms)
      : inner_(std::move(inner)), sleep_ms_(sleep_ms) {}

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* trace) const override {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    return inner_->run(net, rng, trace);
  }

 private:
  std::unique_ptr<BroadcastProtocol> inner_;
  int sleep_ms_;
};

/// A registry whose "slow-decay" wraps the builtin decay with a delay.
const ProtocolRegistry& slow_registry(int sleep_ms) {
  static ProtocolRegistry registry = [sleep_ms] {
    ProtocolRegistry r = extended_registry();
    r.add("slow-decay", "decay with an artificial per-trial delay",
          [sleep_ms](const ProtocolContext& ctx) {
            return std::make_unique<SlowProtocol>(
                extended_registry().create("decay", ctx), sleep_ms);
          });
    return r;
  }();
  return registry;
}

TEST(ClaimHeartbeat, SlowCellUnderShortTtlIsNotRecomputedByPeers) {
  // Two fleet workers, one shared cache, a claim TTL (200ms) far shorter
  // than the slowest cell (~450ms of sleep).  Without heartbeats the idle
  // worker would steal the slow cell and recompute it; with them, every
  // cell is computed exactly once across the fleet.
  const char plan_text[] =
      "topology=path:{8,10,12,14}; protocols=slow-decay; trials=3; seed=5";
  const auto& registry = slow_registry(150);  // 3 trials x 150ms per cell
  const auto dir = scratch_dir("chb_fleet");

  SweepOptions options;
  options.cache_dir = dir;
  options.assignment = SweepAssignment::kFleet;
  options.claim_ttl_seconds = 0.2;
  options.fleet_poll_ms = 10;
  const auto plan = SweepPlan::parse(plan_text);

  std::vector<SweepReport> reports(2);
  std::thread other(
      [&] { reports[1] = SweepRunner(registry).run(plan, options); });
  reports[0] = SweepRunner(registry).run(plan, options);
  other.join();

  for (const auto& report : reports) {
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.fleet.stolen, 0) << "a live claim was stolen";
  }
  const int computed = reports[0].fleet.claimed + reports[1].fleet.claimed;
  EXPECT_EQ(computed, static_cast<int>(plan.cells.size()));
  EXPECT_EQ(reports[0], reports[1]);
}

/// A protocol that always throws, to drive the executor's failure path.
class ThrowingProtocol : public BroadcastProtocol {
 public:
  Outcome run(radio::RadioNetwork&, Rng&,
              radio::TraceRecorder*) const override {
    throw SpecError("protocol exploded mid-trial");
  }
};

TEST(ClaimRelease, ComputeFailureLeavesNoClaimMarkerBehind) {
  ProtocolRegistry registry = extended_registry();
  registry.add("throwing", "always fails", [](const ProtocolContext&) {
    return std::make_unique<ThrowingProtocol>();
  });

  const auto dir = scratch_dir("chb_throw");
  const ResultCache cache(dir);
  CellExecutor::Options options;
  options.use_claims = true;
  const CellExecutor executor(registry, &cache, options);

  const auto plan =
      SweepPlan::parse("topology=path:8; protocols=throwing; trials=2");
  EXPECT_THROW(executor.resolve(plan.cells[0]), SpecError);

  // The claim was released on the exception path: the directory holds no
  // `.claim` file, and the cell is immediately claimable again.
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".claim") << entry.path();
  EXPECT_TRUE(cache.try_claim(executor.key(plan.cells[0])));
}

TEST(ClaimRelease, FleetRunWithFailingCellsLeavesClaimFreeDirectory) {
  ProtocolRegistry registry = extended_registry();
  registry.add("throwing", "always fails", [](const ProtocolContext&) {
    return std::make_unique<ThrowingProtocol>();
  });

  const auto dir = scratch_dir("chb_fleet_throw");
  SweepOptions options;
  options.cache_dir = dir;
  options.assignment = SweepAssignment::kFleet;
  options.fleet_poll_ms = 1;
  const auto plan = SweepPlan::parse(
      "topology=path:{8,10}; protocols=decay,throwing; trials=2");
  EXPECT_THROW(SweepRunner(registry).run(plan, options), SpecError);
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_NE(entry.path().extension(), ".claim") << entry.path();
}

TEST(CellExecutor, ResolvesThroughCacheClaimAndBusyStates) {
  const auto dir = scratch_dir("chb_exec");
  const ResultCache cache(dir);
  CellExecutor::Options options;
  options.use_claims = true;
  const CellExecutor executor(extended_registry(), &cache, options);
  const auto plan =
      SweepPlan::parse("topology=path:8; protocols=decay; trials=2");
  const auto& cell = plan.cells[0];

  // Cold: computed under a fresh claim.
  const auto first = executor.resolve(cell);
  EXPECT_EQ(first.resolution, CellExecutor::Resolution::kComputed);
  // Warm: loaded.
  const auto second = executor.resolve(cell);
  EXPECT_EQ(second.resolution, CellExecutor::Resolution::kCached);
  EXPECT_EQ(first.experiment, second.experiment);

  // A live foreign claim on an uncached cell reads as busy...
  fs::remove(cache.entry_path(executor.key(cell)));
  ASSERT_TRUE(cache.try_claim(executor.key(cell)));
  const auto busy = executor.resolve(cell);
  EXPECT_EQ(busy.resolution, CellExecutor::Resolution::kBusy);

  // ...until it goes stale, at which point the executor steals it.
  age_claim(cache, executor.key(cell), 3600.0);
  const auto stolen = executor.resolve(cell);
  EXPECT_EQ(stolen.resolution, CellExecutor::Resolution::kStolen);
  EXPECT_EQ(stolen.experiment, first.experiment);
}

}  // namespace
}  // namespace nrn::sim
