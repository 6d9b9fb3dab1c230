// SweepRunner: shard invariance (the issue's headline property), result
// cache correctness, serialization round trips, and merge strictness.
#include "sim/sweep_runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

namespace fs = std::filesystem;

using testutil::shard_bytes;
using testutil::sweep_csv_of;
using testutil::sweep_json_of;

SweepReport run_plan(const std::string& plan_text,
                     const SweepOptions& options = {}) {
  const auto plan = SweepPlan::parse(plan_text);
  return SweepRunner(extended_registry()).run(plan, options);
}

/// A scratch directory unique to the running test, wiped up front.
std::string scratch_dir(const std::string& leaf) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("nrn_" + leaf);
  fs::remove_all(dir);
  return dir.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Mixed plan: deterministic and randomized topologies, two protocols, a
// fault axis -- enough structure for partition bugs to show up.
const char kPlanA[] =
    "topology=path:{8,12},gnp:16:0.3; fault=none,receiver:0.3; "
    "protocols=decay,greedy; trials=3; seed=21";
const char kPlanB[] =
    "topology=grid:3x4; fault=combined:0.1:0.1; "
    "protocols=decay,robust,fastbc; k={1..3}; trials=2; seed=5";

TEST(SweepRunner, ShardPartitionsMergeBitIdentically) {
  for (const std::string plan : {kPlanA, kPlanB}) {
    SCOPED_TRACE(plan);
    const auto serial = run_plan(plan);
    ASSERT_TRUE(serial.complete());
    for (const int shard_count : {2, 3, 4}) {
      SCOPED_TRACE(shard_count);
      std::vector<SweepReport> shards;
      std::size_t cells_seen = 0;
      for (int shard = 0; shard < shard_count; ++shard) {
        SweepOptions options;
        options.shard_index = shard;
        options.shard_count = shard_count;
        shards.push_back(run_plan(plan, options));
        EXPECT_FALSE(shards.back().complete());
        cells_seen += shards.back().cells.size();
      }
      EXPECT_EQ(cells_seen, serial.cells.size());  // disjoint and exhaustive
      const auto merged = merge_sweep_reports(shards);
      EXPECT_EQ(merged, serial);
      // Bit-identical across every serialization, not just operator==.
      EXPECT_EQ(shard_bytes(merged), shard_bytes(serial));
      EXPECT_EQ(sweep_csv_of(merged), sweep_csv_of(serial));
      EXPECT_EQ(sweep_json_of(merged), sweep_json_of(serial));
    }
  }
}

TEST(SweepRunner, CellThreadingDoesNotChangeResults) {
  const auto serial = run_plan(kPlanA);
  SweepOptions options;
  options.cell_threads = 4;
  EXPECT_EQ(run_plan(kPlanA, options), serial);
  options.trial_threads = 2;
  EXPECT_EQ(run_plan(kPlanA, options), serial);
}

TEST(SweepRunner, ShardedRunsSkipForeignCells) {
  SweepOptions options;
  options.shard_index = 1;
  options.shard_count = 3;
  const auto shard = run_plan(kPlanA, options);
  ASSERT_FALSE(shard.cells.empty());
  for (const auto& cell : shard.cells) EXPECT_EQ(cell.cell_index % 3, 1);
}

TEST(SweepRunner, UnknownProtocolFailsBeforeRunning) {
  EXPECT_THROW(run_plan("topology=path:8; protocols=decay,nope"), SpecError);
}

TEST(SweepRunner, ScheduleProtocolsRunThroughSweeps) {
  const auto link = run_plan(
      "topology=link; fault=receiver:0.5; k=32; trials=2; seed=4; "
      "protocols=link-nonadaptive,link-adaptive,link-coding");
  EXPECT_EQ(link.cells.size(), 3u);
  EXPECT_TRUE(link.all_completed());

  const auto transforms = run_plan(
      "topology=star:8,path:8; fault=sender:0.2; k=4; trials=2; seed=3; "
      "protocols=transform-routing,transform-coding");
  EXPECT_EQ(transforms.cells.size(), 4u);
  for (const auto& cell : transforms.cells)
    EXPECT_GT(cell.experiment.trials.front().run.messages(), 1);

  // Topology-constrained protocols reject scenarios they cannot schedule.
  EXPECT_THROW(run_plan("topology=path:8; protocols=link-adaptive"),
               SpecError);
  EXPECT_THROW(run_plan("topology=grid:3x3; protocols=transform-coding"),
               SpecError);
}

TEST(ExperimentRecord, RoundTripsExactly) {
  const auto report = run_plan(kPlanB);
  for (const auto& cell : report.cells) {
    const auto text = experiment_record(cell.experiment);
    EXPECT_EQ(parse_experiment_record(text), cell.experiment);
  }
  EXPECT_THROW(parse_experiment_record("experiment v2\n"), SpecError);
  EXPECT_THROW(parse_experiment_record(""), SpecError);
}

TEST(ShardFile, RoundTripsAndRejectsDamage) {
  const auto report = run_plan(kPlanA);
  const auto bytes = shard_bytes(report);

  std::istringstream in(bytes);
  EXPECT_EQ(read_shard_file(in), report);

  // Truncation, bit flips, and checksum removal all fail loudly.
  std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(read_shard_file(truncated), SpecError);
  std::string flipped = bytes;
  flipped[bytes.size() / 3] ^= 0x1;
  std::istringstream corrupt(flipped);
  EXPECT_THROW(read_shard_file(corrupt), SpecError);
  std::istringstream empty("");
  EXPECT_THROW(read_shard_file(empty), SpecError);
}

TEST(MergeSweepReports, RejectsGapsForeignShardsAndDivergentDuplicates) {
  const auto serial = run_plan(kPlanA);
  SweepOptions s0, s1;
  s0.shard_count = s1.shard_count = 2;
  s0.shard_index = 0;
  s1.shard_index = 1;
  const auto shard0 = run_plan(kPlanA, s0);
  const auto shard1 = run_plan(kPlanA, s1);

  EXPECT_THROW(merge_sweep_reports({}), SpecError);
  EXPECT_THROW(merge_sweep_reports({shard0}), SpecError);           // gap
  EXPECT_THROW(merge_sweep_reports({shard0, shard0}), SpecError);   // still gap
  const auto other = run_plan(kPlanB);
  EXPECT_THROW(merge_sweep_reports({shard0, other}), SpecError);    // foreign
  EXPECT_EQ(merge_sweep_reports({shard1, shard0}), serial);  // order-free

  // Fleet shards overlap: bit-identical duplicates merge cleanly...
  EXPECT_EQ(merge_sweep_reports({shard0, shard1, shard1}), serial);
  EXPECT_EQ(merge_sweep_reports({serial, serial}), serial);
  // ...but a duplicate whose payload diverges is corruption, not overlap.
  auto tampered = shard1;
  tampered.cells.front().experiment.depth += 1;
  EXPECT_THROW(merge_sweep_reports({serial, tampered}), SpecError);
}

TEST(ResultCache, WarmRunsReproduceColdRunsExactly) {
  const auto dir = scratch_dir("cache_warm");
  SweepOptions options;
  options.cache_dir = dir;
  const auto cold = run_plan(kPlanA, options);
  EXPECT_EQ(cold.cache_hits(), 0);

  const auto warm = run_plan(kPlanA, options);
  EXPECT_EQ(warm.cache_hits(), static_cast<int>(warm.cells.size()));
  EXPECT_EQ(warm, cold);  // from_cache is provenance, not payload
  EXPECT_EQ(shard_bytes(warm), shard_bytes(cold));
  EXPECT_EQ(sweep_csv_of(warm), sweep_csv_of(cold));
  EXPECT_EQ(run_plan(kPlanA), cold);  // and both match the uncached run
}

TEST(ResultCache, DamagedEntriesAreRecomputedNotTrusted) {
  const auto dir = scratch_dir("cache_damage");
  SweepOptions options;
  options.cache_dir = dir;
  const auto cold = run_plan(kPlanB, options);

  const auto plan = SweepPlan::parse(kPlanB);
  const ResultCache cache(dir);
  const auto path0 = cache.entry_path(sweep_cache_key(plan.cells[0], {}));
  const auto path1 = cache.entry_path(sweep_cache_key(plan.cells[1], {}));
  const auto path2 = cache.entry_path(sweep_cache_key(plan.cells[2], {}));
  ASSERT_TRUE(fs::exists(path0));

  // Truncate one entry, flip a byte in another (keeping the length), and
  // swap a third for a checksum-valid entry under the wrong key.
  write_file(path0, read_file(path0).substr(0, 30));
  auto bytes = read_file(path1);
  bytes[bytes.size() / 2] ^= 0x4;
  write_file(path1, bytes);
  write_file(path2, read_file(cache.entry_path(
                        sweep_cache_key(plan.cells[3], {}))));

  const auto healed = run_plan(kPlanB, options);
  EXPECT_EQ(healed, cold);
  EXPECT_EQ(healed.cache_hits(), static_cast<int>(healed.cells.size()) - 3);
  // The damaged entries were rewritten; a further run hits everywhere.
  EXPECT_EQ(run_plan(kPlanB, options).cache_hits(),
            static_cast<int>(cold.cells.size()));
}

TEST(ResultCache, KeysSeparateSpecProtocolTuningAndSeed) {
  const auto plan = SweepPlan::parse(
      "topology=path:8; fault=receiver:0.2; protocols=decay; trials=2; "
      "seed=4");
  const auto& cell = plan.cells.at(0);
  const std::string base = sweep_cache_key(cell, {});

  auto cell_with = [&](const char* text) {
    return SweepPlan::parse(text).cells.at(0);
  };
  // Scenario spec changes the key...
  EXPECT_NE(sweep_cache_key(
                cell_with("topology=path:9; fault=receiver:0.2; "
                          "protocols=decay; trials=2; seed=4"),
                {}),
            base);
  EXPECT_NE(sweep_cache_key(
                cell_with("topology=path:8; fault=receiver:0.3; "
                          "protocols=decay; trials=2; seed=4"),
                {}),
            base);
  // ...as do protocol, trial count, and the master seed...
  EXPECT_NE(sweep_cache_key(
                cell_with("topology=path:8; fault=receiver:0.2; "
                          "protocols=robust; trials=2; seed=4"),
                {}),
            base);
  EXPECT_NE(sweep_cache_key(
                cell_with("topology=path:8; fault=receiver:0.2; "
                          "protocols=decay; trials=3; seed=4"),
                {}),
            base);
  EXPECT_NE(sweep_cache_key(
                cell_with("topology=path:8; fault=receiver:0.2; "
                          "protocols=decay; trials=2; seed=5"),
                {}),
            base);
  // ...and so does tuning, every field of it.
  Tuning tuned;
  tuned.max_rounds = 64;
  EXPECT_NE(sweep_cache_key(cell, tuned), base);
  Tuning payload;
  payload.payload_len = 64;
  EXPECT_NE(sweep_cache_key(cell, payload), base);
  // While an identical plan reproduces the identical key.
  EXPECT_EQ(sweep_cache_key(
                cell_with("topology=path:8; fault=receiver:0.2; "
                          "protocols=decay; trials=2; seed=4"),
                {}),
            base);
}

TEST(ResultCache, ConcurrentWritersOfOneCellNeverCorruptTheEntry) {
  // Regression for the cross-process tmp-file race: store() used to build
  // its temp path from the cell index, so two workers writing the same
  // cell interleaved in ONE temp file and renamed garbage into place --
  // an entry that failed verification (and recomputed) forever after.
  // With per-writer unique temp names, a reader must see either a miss or
  // a fully verified entry at every instant, and the final entry loads.
  const auto dir = scratch_dir("cache_race");
  const ResultCache cache(dir);
  const auto plan = SweepPlan::parse(
      "topology=path:8; protocols=decay; trials=2; seed=11");
  const std::string key = sweep_cache_key(plan.cells.at(0), {});
  const auto report =
      Driver(extended_registry())
          .run(plan.cells[0].scenario, plan.cells[0].protocol,
               plan.cells[0].trials);

  constexpr int kWriters = 4;
  constexpr int kStoresPerWriter = 50;
  std::atomic<int> verified_loads{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w)
    threads.emplace_back([&] {
      for (int i = 0; i < kStoresPerWriter; ++i) cache.store(key, report);
    });
  threads.emplace_back([&] {  // concurrent reader
    while (!stop.load(std::memory_order_relaxed)) {
      if (const auto loaded = cache.load(key)) {
        EXPECT_EQ(*loaded, report);
        verified_loads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int w = 0; w < kWriters; ++w) threads[static_cast<std::size_t>(w)].join();
  stop.store(true);
  threads.back().join();

  EXPECT_GT(verified_loads.load(), 0);  // the reader raced real stores
  const auto final_load = cache.load(key);
  ASSERT_TRUE(final_load.has_value());
  EXPECT_EQ(*final_load, report);
  // No temp litter: every store either renamed or removed its temp file.
  for (const auto& entry : fs::directory_iterator(dir))
    EXPECT_EQ(entry.path().extension(), ".nrnc") << entry.path();
}

TEST(ResultCache, UncreatableDirectoryIsASpecError) {
  // A directory below a regular file can never be created.  The error
  // names it, for a sweep as for a bare cache, instead of escaping as a
  // filesystem_error that aborts the process.
  const auto dir = scratch_dir("cache_uncreatable");
  fs::create_directories(dir);
  const std::string file = (fs::path(dir) / "file").string();
  write_file(file, "");
  const std::string sub = file + "/sub";
  try {
    const ResultCache cache(sub);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("'" + sub + "'"), std::string::npos)
        << e.what();
  }
  SweepOptions options;
  options.cache_dir = sub;
  EXPECT_THROW(run_plan(kPlanB, options), SpecError);
  options.assignment = SweepAssignment::kFleet;
  EXPECT_THROW(run_plan(kPlanB, options), SpecError);
}

TEST(ResultCache, ResumeOverAMissingDirectoryCreatesNothing) {
  // A resume pass only reads: a mistyped --cache-dir is a cache where
  // every cell misses, reported as such, and no directory is left behind.
  const auto root = scratch_dir("resume_missing");
  const std::string dir = (fs::path(root) / "typo" / "dir").string();
  SweepOptions options;
  options.cache_dir = dir;
  options.assignment = SweepAssignment::kResume;
  const std::string cells =
      std::to_string(SweepPlan::parse(kPlanB).cells.size());
  try {
    run_plan(kPlanB, options);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("resume: " + cells + " of " +
                                         cells + " cells are missing"),
              std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(fs::exists(root)) << root;
}

TEST(ResultCache, CachedCellsSkipRecomputation) {
  // A cache hit must not rerun trials: warm a cache, then run the same
  // plan with a tiny round budget that would otherwise change results.
  const auto dir = scratch_dir("cache_skip");
  SweepOptions options;
  options.cache_dir = dir;
  options.tuning.max_rounds = 5000;
  const auto cold = run_plan(kPlanB, options);
  ASSERT_TRUE(cold.all_completed());
  const auto warm = run_plan(kPlanB, options);
  EXPECT_EQ(warm.cache_hits(), static_cast<int>(warm.cells.size()));
  EXPECT_TRUE(warm.all_completed());
}

/// Checks a run's progress events against its report: one kAccepted
/// carrying the scope's size, one kCellDone per reported cell with `done`
/// counting up and the cell's provenance and cache-entry hash, then one
/// kPlanDone with the totals.
void check_progress(const std::vector<SweepProgressEvent>& events,
                    const SweepPlan& plan, const SweepReport& report,
                    const Tuning& tuning) {
  const int total = static_cast<int>(report.cells.size());
  ASSERT_EQ(events.size(), report.cells.size() + 2);

  EXPECT_EQ(events.front().kind, SweepProgressEvent::Kind::kAccepted);
  EXPECT_EQ(events.front().total, total);
  std::vector<int> seen;
  for (int i = 1; i <= total; ++i) {
    const auto& event = events[static_cast<std::size_t>(i)];
    SCOPED_TRACE("event " + std::to_string(i));
    ASSERT_EQ(event.kind, SweepProgressEvent::Kind::kCellDone);
    EXPECT_EQ(event.total, total);
    EXPECT_EQ(event.done, i);
    EXPECT_EQ(event.computed + event.cached_cells, i);
    const auto cell = std::find_if(
        report.cells.begin(), report.cells.end(),
        [&](const SweepCellReport& c) {
          return c.cell_index == event.cell_index;
        });
    ASSERT_NE(cell, report.cells.end());
    EXPECT_EQ(event.cached, cell->from_cache);
    EXPECT_EQ(event.cell_hash,
              fnv1a64_hex(sweep_cache_key(
                  plan.cells[static_cast<std::size_t>(event.cell_index)],
                  tuning)));
    seen.push_back(event.cell_index);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "a cell was reported twice";

  const auto& last = events.back();
  EXPECT_EQ(last.kind, SweepProgressEvent::Kind::kPlanDone);
  EXPECT_EQ(last.total, total);
  EXPECT_EQ(last.done, total);
  EXPECT_EQ(last.computed + last.cached_cells, total);
  EXPECT_EQ(last.cached_cells, report.cache_hits());
}

/// Runs `plan` with a progress sink attached and checks its event stream.
SweepReport run_and_check_progress(const SweepPlan& plan,
                                   SweepOptions options) {
  std::vector<SweepProgressEvent> events;
  options.on_progress = [&events](const SweepProgressEvent& event) {
    events.push_back(event);
  };
  auto report = SweepRunner(extended_registry()).run(plan, options);
  check_progress(events, plan, report, options.tuning);
  return report;
}

TEST(SweepProgress, EveryModeStreamsOneEventPerCellInScope) {
  const auto plan = SweepPlan::parse(kPlanA);
  const int cells = static_cast<int>(plan.cells.size());

  SweepOptions serial;
  serial.cache_dir = scratch_dir("progress_static");
  serial.cell_threads = 2;
  {
    SCOPED_TRACE("static");
    const auto report = run_and_check_progress(plan, serial);
    EXPECT_EQ(static_cast<int>(report.cells.size()), cells);
    EXPECT_EQ(report.cache_hits(), 0);
  }

  {
    // A shard over a partly warm cache: some cells load, some compute.
    SCOPED_TRACE("shard");
    const ResultCache cache(serial.cache_dir);
    for (std::size_t i = 0; i < plan.cells.size(); i += 2)
      fs::remove(cache.entry_path(sweep_cache_key(plan.cells[i], {})));
    SweepOptions shard = serial;
    shard.shard_index = 1;
    shard.shard_count = 3;
    const auto report = run_and_check_progress(plan, shard);
    EXPECT_EQ(static_cast<int>(report.cells.size()), (cells + 1) / 3);
    EXPECT_GT(report.cache_hits(), 0);
    EXPECT_LT(report.cache_hits(), static_cast<int>(report.cells.size()));
  }

  // Fleet and resume key their cells under a non-default tuning, which
  // must reach every event's hash.
  SweepOptions fleet;
  fleet.cache_dir = scratch_dir("progress_fleet");
  fleet.assignment = SweepAssignment::kFleet;
  fleet.fleet_poll_ms = 1;
  fleet.cell_threads = 2;
  fleet.tuning.max_rounds = 100000;
  {
    SCOPED_TRACE("fleet");
    const auto report = run_and_check_progress(plan, fleet);
    EXPECT_EQ(static_cast<int>(report.cells.size()), cells);
    EXPECT_EQ(report.cache_hits(), 0);
  }
  {
    SCOPED_TRACE("resume");
    SweepOptions resume = fleet;
    resume.assignment = SweepAssignment::kResume;
    const auto report = run_and_check_progress(plan, resume);
    EXPECT_EQ(report.cache_hits(), cells);
  }
}

}  // namespace
}  // namespace nrn::sim
