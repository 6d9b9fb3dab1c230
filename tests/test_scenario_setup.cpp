// Per-scenario setups (sim/scenario_setup.hpp): what a scenario's cells
// share, and proof that sharing changes no byte.  Every cell of a sweep
// must equal a Driver::run over a private setup -- by == and by shard
// bytes -- under serial and threaded cells, static shards, fleet claims
// and the serve scheduler, and the cells of one graph identity must run on
// one graph object with one GBST.
#include "sim/scenario_setup.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/task_pool.hpp"
#include "graph/algorithms.hpp"
#include "serve/scheduler.hpp"
#include "sim_test_util.hpp"
#include "trees/gbst.hpp"

namespace nrn::sim {
namespace {

namespace fs = std::filesystem;

using testutil::shard_bytes;

std::string scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nrn_" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

/// The graph identity, spelled out independently of ScenarioSetup: the
/// topology, the seed only where it reaches the graph, and the source.
std::string graph_identity(const Scenario& s) {
  std::string id = s.topology.text + " from " + std::to_string(s.source);
  if (s.topology.randomized()) id += " seed " + std::to_string(s.seed);
  return id;
}

/// The graph and GBST objects probe protocols were built over, by graph
/// identity.  The log holds the GBSTs, so a rebuilt tree can never reuse a
/// logged tree's address; a rebuilt graph might, which is why the GBST
/// count is the check that cannot be fooled by the allocator.
class ObjectLog {
 public:
  void record(const ProtocolContext& ctx,
              std::shared_ptr<const trees::RankedBfsTree> tree) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto& seen = seen_[graph_identity(ctx.scenario)];
    seen.graphs.insert(&ctx.graph);
    seen.trees.insert(std::move(tree));
  }

  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    seen_.clear();
  }

  std::size_t identities() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seen_.size();
  }

  /// GBST builds (distinct trees) summed over identities.
  std::size_t trees() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::size_t total = 0;
    for (const auto& [id, seen] : seen_) total += seen.trees.size();
    return total;
  }

  /// Adds a failure for every identity seen over more than one graph or
  /// GBST object.
  void expect_one_object_per_identity(const std::string& mode) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, seen] : seen_) {
      EXPECT_EQ(seen.graphs.size(), 1u) << mode << ": graphs of " << id;
      EXPECT_EQ(seen.trees.size(), 1u) << mode << ": GBSTs of " << id;
    }
  }

 private:
  struct Seen {
    std::set<const graph::Graph*> graphs;
    std::set<std::shared_ptr<const trees::RankedBfsTree>> trees;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Seen> seen_;
};

ObjectLog& object_log() {
  static ObjectLog log;
  return log;
}

/// Logs the graph and GBST it is built over; each trial reports numbers
/// derived from both, so a wrong shared object would also change bytes.
class ObjectProbe final : public BroadcastProtocol {
 public:
  explicit ObjectProbe(const ProtocolContext& ctx)
      : tree_(ctx.gbst()), edges_(ctx.graph.edge_count()) {
    object_log().record(ctx, tree_);
  }

  Outcome run(radio::RadioNetwork& /*net*/, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    Outcome out;
    out.completed = true;
    out.set("rounds", static_cast<std::int64_t>(rng.next_below(100)));
    out.set("edges", edges_);
    out.set("max_rank", tree_->max_rank);
    return out;
  }

 private:
  std::shared_ptr<const trees::RankedBfsTree> tree_;
  std::int64_t edges_;
};

const ProtocolRegistry& probe_registry() {
  static const ProtocolRegistry registry = [] {
    ProtocolRegistry r = extended_registry();
    for (const std::string name : {"probe-a", "probe-b"})
      r.add(name, "logs the graph and GBST it was built over", kSinrCapable,
            [](const ProtocolContext& ctx) {
              return std::make_unique<ObjectProbe>(ctx);
            });
    return r;
  }();
  return registry;
}

// grid:4x6 is not randomized, so one setup serves both faults and both k;
// every (fault, k) of gnp:24:0.3 draws its own seed, hence its own graph.
const char kMixedPlan[] =
    "topology=grid:4x6,gnp:24:0.3; fault=none,receiver:0.3; k=1,2; "
    "protocols=decay,fastbc,robust,rlnc-robust,probe-a,probe-b; trials=2; "
    "seed=11";
const char kSinrPlan[] =
    "topology=disk:32:0.4; channel=sinr:2.5:0.001:1.0; "
    "protocols=decay,fastbc,robust,probe-a,probe-b; trials=2; seed=12";

/// The plan's report with every cell computed by Driver::run over a
/// private setup.
SweepReport private_setup_report(const SweepPlan& plan) {
  const Driver driver(probe_registry());
  SweepReport report;
  report.plan_text = plan.text;
  report.master_seed = plan.master_seed;
  report.total_cells = static_cast<int>(plan.cells.size());
  for (const SweepCell& cell : plan.cells) {
    DriverOptions options;
    options.trace = cell.trace;
    report.cells.push_back(
        {cell.index,
         driver.run(cell.scenario, cell.protocol, cell.trials, options),
         false});
  }
  return report;
}

void expect_same_report(const SweepReport& got, const SweepReport& expected,
                        const SweepPlan& plan, const std::string& mode) {
  ASSERT_EQ(got.cells.size(), expected.cells.size()) << mode;
  for (std::size_t i = 0; i < got.cells.size(); ++i)
    EXPECT_TRUE(got.cells[i].experiment == expected.cells[i].experiment)
        << mode << ": " << plan.cells[i].key();
  EXPECT_EQ(got, expected) << mode;
  EXPECT_EQ(shard_bytes(got), shard_bytes(expected)) << mode;
}

/// Submits `plan` to a fresh scheduler and returns its plan_done report.
SweepReport scheduler_report(const SweepPlan& plan, const std::string& dir) {
  std::mutex mutex;
  std::condition_variable cv;
  std::optional<serve::PlanEvent> done;
  {
    serve::PlanScheduler scheduler(
        probe_registry(), dir, serve::SchedulerOptions{},
        [&](serve::PlanEvent event) {
          if (event.kind == serve::PlanEvent::Kind::kCellDone) return;
          const std::lock_guard<std::mutex> lock(mutex);
          done = std::move(event);
          cv.notify_all();
        });
    scheduler.submit(plan, 1);
    std::unique_lock<std::mutex> lock(mutex);
    EXPECT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                            [&] { return done.has_value(); }));
  }
  if (!done || done->kind != serve::PlanEvent::Kind::kPlanDone) {
    ADD_FAILURE() << "scheduler: no plan_done"
                  << (done ? ": " + done->error : std::string());
    return {};
  }
  std::istringstream in(done->report_text);
  return read_shard_file(in);
}

TEST(SetupSharing, EveryExecutionPathMatchesPrivateSetups) {
  const std::size_t slots = static_cast<std::size_t>(
      common::TaskPool::shared().slot_count());
  ObjectLog& log = object_log();
  for (const std::string plan_text : {kMixedPlan, kSinrPlan}) {
    const SweepPlan plan = SweepPlan::parse(plan_text);
    const SweepReport expected = private_setup_report(plan);
    const SweepRunner runner(probe_registry());

    // Cells run in plan order on one thread: a scenario's cells are
    // adjacent, so each identity is built exactly once.
    log.clear();
    expect_same_report(runner.run(plan), expected, plan, "serial");
    log.expect_one_object_per_identity("serial");
    const std::size_t identities = log.identities();
    EXPECT_EQ(identities, plan_text == kMixedPlan ? 5u : 1u);

    SweepOptions threaded;
    threaded.cell_threads = 4;
    log.clear();
    expect_same_report(runner.run(plan, threaded), expected, plan,
                       "cell_threads=4");
    // With room for every identity the memo never evicts, so concurrent
    // cells share one build (the sinr plan's five cells race for one).
    if (slots >= identities) log.expect_one_object_per_identity("threaded");

    std::vector<SweepReport> shards;
    for (int i = 0; i < 2; ++i) {
      SweepOptions shard;
      shard.shard_index = i;
      shard.shard_count = 2;
      log.clear();
      shards.push_back(runner.run(plan, shard));
      log.expect_one_object_per_identity("shard " + std::to_string(i));
    }
    expect_same_report(merge_sweep_reports(shards), expected, plan,
                       "shards 2/2");

    SweepOptions fleet;
    fleet.cache_dir = scratch_dir("setup_fleet");
    fleet.assignment = SweepAssignment::kFleet;
    fleet.fleet_poll_ms = 1;
    log.clear();
    expect_same_report(runner.run(plan, fleet), expected, plan, "fleet");
    // A fleet starts at a process-dependent cell, which may split one
    // scenario's cells between the start and the end of its pass.
    EXPECT_LE(log.trees(), identities + 1);

    log.clear();
    expect_same_report(scheduler_report(plan, scratch_dir("setup_serve")),
                       expected, plan, "scheduler");
    log.expect_one_object_per_identity("scheduler");
  }
}

// ------------------------------------------------------------ the setup

TEST(ScenarioSetup, IdentityIsTopologySeedWhenRandomizedAndSource) {
  auto id = [](const std::string& topology, const std::string& fault,
               graph::NodeId source, std::int64_t k, std::uint64_t seed) {
    return ScenarioSetup::identity(
        Scenario::parse(topology, fault, source, k, seed));
  };
  EXPECT_EQ(id("grid:4x6", "none", 0, 1, 1), "grid:4x6|source=0");
  EXPECT_EQ(id("grid:4x6", "receiver:0.3", 0, 2, 9), "grid:4x6|source=0");
  EXPECT_EQ(id("gnp:24:0.3", "none", 0, 1, 9), "gnp:24:0.3|seed=9|source=0");
  EXPECT_EQ(id("gnp:24:0.3", "sender:0.5", 0, 3, 9),
            id("gnp:24:0.3", "none", 0, 1, 9));
  EXPECT_NE(id("gnp:24:0.3", "none", 0, 1, 9),
            id("gnp:24:0.3", "none", 0, 1, 10));
  EXPECT_NE(id("grid:4x6", "none", 0, 1, 1), id("grid:4x6", "none", 3, 1, 1));
}

TEST(ScenarioSetup, HoldsWhatAPrivateBuildWould) {
  for (const auto& scenario :
       {Scenario::parse("grid:4x6", "none", 2),
        Scenario::parse("gnp:40:0.2", "none", 0, 1, 5),
        Scenario::parse("disk:48:0.35", "none", 1, 1, 6,
                        "sinr:2.5:0.001:1.0")}) {
    const ScenarioSetup setup(scenario);
    graph::Geometry geometry;
    const graph::Graph graph = scenario.build_graph(&geometry);
    const graph::Graph& shared = setup.graph();
    ASSERT_EQ(shared.node_count(), graph.node_count());
    for (graph::NodeId u = 0; u < graph.node_count(); ++u)
      EXPECT_TRUE(std::ranges::equal(shared.neighbors(u), graph.neighbors(u)));
    EXPECT_EQ(setup.depth(), graph::eccentricity(graph, scenario.source));
    if (scenario.topology.geometric()) {
      ASSERT_NE(setup.geometry(), nullptr);
      EXPECT_EQ(*setup.geometry(), geometry);
    } else {
      EXPECT_EQ(setup.geometry(), nullptr);
    }
    const auto tree = setup.gbst();
    const auto fresh = trees::build_gbst(graph, scenario.source);
    EXPECT_EQ(tree->parent, fresh.parent);
    EXPECT_EQ(tree->rank, fresh.rank);
    EXPECT_EQ(tree->fast_child, fresh.fast_child);
    EXPECT_EQ(setup.gbst(), tree);  // built once
  }
}

TEST(ScenarioSetup, ConcurrentRequestsShareOneGbst) {
  const ScenarioSetup setup(Scenario::parse("gnp:200:0.05", "none"));
  std::mutex mutex;
  std::set<const trees::RankedBfsTree*> seen;
  common::TaskPool::shared().run(32, 4, [&](std::size_t, int) {
    const auto tree = setup.gbst();
    const std::lock_guard<std::mutex> lock(mutex);
    seen.insert(tree.get());
  });
  EXPECT_EQ(seen.size(), 1u);
}

TEST(ScenarioSetup, MemoEvictsLeastRecentlyUsed) {
  ScenarioSetupMemo memo(2);
  const auto a = Scenario::parse("path:8", "none");
  const auto b = Scenario::parse("path:9", "none");
  const auto c = Scenario::parse("path:10", "none");
  const auto first_a = memo.get(a);
  const auto first_b = memo.get(b);
  EXPECT_EQ(memo.get(a), first_a);
  // Fault, k and seed do not reach a path: the same graph identity.
  EXPECT_EQ(memo.get(Scenario::parse("path:8", "receiver:0.3", 0, 1, 7)),
            first_a);
  memo.get(c);  // evicts b, the least recently used
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.get(a), first_a);
  const auto second_b = memo.get(b);
  EXPECT_NE(second_b, first_b);
  EXPECT_EQ(memo.size(), 2u);
}

TEST(ScenarioSetup, MemoRetriesAFailedBuild) {
  // A placement this sparse never connects: every request must fail the
  // same way, not hang on or hand out a half-built slot.
  ScenarioSetupMemo memo(1);
  const auto scenario = Scenario::parse("disk:16:0.01", "none");
  EXPECT_THROW(memo.get(scenario), ContractViolation);
  EXPECT_THROW(memo.get(scenario), ContractViolation);
  EXPECT_NE(memo.get(Scenario::parse("path:8", "none")), nullptr);
}

TEST(ScenarioSetup, DriverOverASharedSetupMatchesAPrivateRun) {
  const Driver driver;
  const auto scenario = Scenario::parse("gnp:48:0.15", "receiver:0.3", 0, 1, 4);
  const ScenarioSetup setup(scenario);
  for (const std::string protocol : {"decay", "fastbc", "robust",
                                     "rlnc-robust"}) {
    DriverOptions options;
    options.threads = 2;
    EXPECT_TRUE(driver.run(setup, scenario, protocol, 5, options) ==
                driver.run(scenario, protocol, 5))
        << protocol;
  }
  // A setup of another graph is refused, not silently used.
  const auto other = Scenario::parse("gnp:48:0.15", "receiver:0.3", 0, 1, 5);
  EXPECT_THROW(driver.run(setup, other, "decay", 1), ContractViolation);
}

TEST(ScenarioSetup, RejectsASourceOutsideTheGraph) {
  // Source 8 on path:8 is one past the last node: a spec error before any
  // protocol indexes its per-node state with it, through the Driver and
  // through a sweep plan alike.
  const auto scenario = Scenario::parse("path:8", "none", 8, 2, 1);
  EXPECT_THROW({ const ScenarioSetup setup(scenario); }, SpecError);
  for (const auto& name : testutil::builtin_names()) {
    SCOPED_TRACE(name);
    EXPECT_THROW(Driver().run(scenario, name, 1), SpecError);
  }
  const auto plan = SweepPlan::parse(
      "topology=path:8; source=8; k=2; protocols=decay,rlnc-decay; trials=1");
  EXPECT_THROW(SweepRunner().run(plan), SpecError);
}

}  // namespace
}  // namespace nrn::sim
