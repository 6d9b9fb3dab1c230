// Sweep execution: cell batching, sharding, merging, and the result cache.
//
// The SweepRunner executes a SweepPlan's cells through the Driver, batching
// cells across threads (on top of the Driver's own per-trial threading).
// Results are deterministic: a cell's ExperimentReport depends only on its
// scenario, protocol, trial count, and tuning -- never on thread count,
// shard assignment, or cache state.
//
// Sharding: `--shard i/k` runs only the cells with index % k == i.  The
// partition is stable, so k processes produce disjoint shard reports whose
// merge is bit-identical to the single-process run (merge_sweep_reports and
// the shard-file round trip both preserve every integer field exactly; no
// floating-point state is serialized).
//
// Fleet mode: instead of a static partition, cooperating processes share
// one cache directory and claim cells dynamically -- probe the cache (skip
// finished cells), take a per-cell `<hash>.claim` marker with an exclusive
// create, and steal claims whose mtime exceeds a TTL (dead workers).
// Heterogeneous cells are thus work-stolen, a killed run is resumable by
// re-invoking it, and every surviving runner emits a complete report;
// overlapping fleet shards merge as long as duplicates are bit-identical,
// which deterministic cells guarantee.  While a cell computes, its
// claim's mtime is refreshed by a heartbeat ticker, so TTL expiry only
// ever steals from dead workers -- never from a slow cell's live owner.
//
// One loop serves every mode: SweepRunner::run resolves its cells (the
// shard's, or the whole plan's) over the task pool, and revisits a cell
// whose claim a live peer holds, which only a fleet run ever sees.
// kResume is the same loop's cache-only pass: it rebuilds a report from a
// warm cache, computes nothing, and fails on a miss.
//
// Cell execution itself lives in CellExecutor, callable outside the
// blocking run() loop: the serve daemon (serve/scheduler.hpp) resolves
// cells from many clients' plans through the same probe/claim/compute/
// store path, which is why a daemon-computed report is bit-identical to a
// serial sweep of the same plan.
//
// Caching: with a cache directory set, each finished cell is stored under a
// content-addressed key (cell spec + derived seed + tuning).  Re-runs load
// completed cells instead of recomputing them.  Entries carry an FNV-1a
// checksum and their full key; a truncated, corrupted, or colliding entry
// fails verification and is silently recomputed -- the cache can make a
// sweep faster, never wrong.
//
// Formats are versioned ("experiment v6" / "nrn-sweep-shard v6" /
// "nrn-sweep-cache v6"; see docs/formats.md for the grammar).  v6 adds
// one optional `channel` record line for non-edge channel models
// (radio/channel_model.hpp); edge-fault records keep the v5 bytes apart
// from the version header itself.  v5 marked the engine's v4 batched
// coin tape (radio/network.hpp), which changed every seeded outcome.
// Records and cache entries from older versions fail the version literal
// and are recomputed rather than silently mixed with v6 results.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "sim/driver.hpp"
#include "sim/progress.hpp"
#include "sim/sweep.hpp"

namespace nrn::sim {

/// Exact text round trip of one ExperimentReport (integer fields only; the
/// scenario is re-parsed from its spec strings, which reproduces it
/// bit-identically).  parse_experiment_record throws SpecError on any
/// deviation from the format.
std::string experiment_record(const ExperimentReport& report);
ExperimentReport parse_experiment_record(const std::string& text);

/// On-disk cell cache, one file per key under `dir` (created if absent).
/// File names are the FNV-1a hash of the key; the key itself is stored and
/// verified inside the entry, so a hash collision reads as a miss.
class ResultCache {
 public:
  /// Throws SpecError naming `dir` when it cannot be created.
  explicit ResultCache(std::string dir);

  const std::string& dir() const { return dir_; }

  /// Path the entry for `key` lives at (exposed so tests can corrupt it).
  std::string entry_path(const std::string& key) const;

  /// The cached report for `key`, or nullopt on miss OR any verification
  /// failure (bad checksum, truncation, key mismatch, malformed record).
  std::optional<ExperimentReport> load(const std::string& key) const;

  /// Atomically (write + rename) stores `report` under `key`.  The temp
  /// file carries a pid + per-process-counter suffix, so cooperating
  /// processes (and threads) writing the same cell never interleave.
  void store(const std::string& key, const ExperimentReport& report) const;

  // Claim markers: the fleet mode's cooperative cell locks.  A claim is a
  // plain file (`<hash>.claim`) created with O_EXCL, so exactly one worker
  // across all cooperating processes wins a cell.  Claims are advisory --
  // correctness always comes from atomic stores plus verified loads; a
  // stolen-then-recomputed cell merely duplicates bit-identical work.

  /// Path of the claim marker for `key` (exposed for tests).
  std::string claim_path(const std::string& key) const;

  /// Atomically creates the claim marker for `key`; false when another
  /// worker already holds it.  Any other failure (unwritable or vanished
  /// directory) throws SpecError -- a fleet that cannot claim would
  /// otherwise poll forever in silence.
  bool try_claim(const std::string& key) const;

  /// Steals a claim older than `ttl_seconds` (by mtime): the marker is
  /// renamed to a unique name first, so exactly one stealer wins even when
  /// several observe the same stale claim.  Returns true for the winner,
  /// who must then try_claim() the now-free slot.
  bool steal_stale_claim(const std::string& key, double ttl_seconds) const;

  /// Bumps the claim marker's mtime to now -- the fleet heartbeat.  A
  /// worker mid-compute refreshes its claim so a long cell is never stolen
  /// by TTL expiry while its owner is alive.  Errors are ignored: a
  /// vanished marker means the claim was stolen, and the recompute that
  /// follows is benign (duplicates are bit-identical).
  void refresh_claim(const std::string& key) const;

  /// Removes the claim marker (after the entry is stored).
  void release_claim(const std::string& key) const;

 private:
  std::string dir_;
};

/// The cache key for a cell: the cell's own key plus the tuning knobs
/// (tuning changes protocol behavior, so it must invalidate entries).
std::string sweep_cache_key(const SweepCell& cell, const Tuning& tuning);

/// RAII claim heartbeat: a background ticker that refresh_claim()s `key`
/// every `interval_seconds` until destroyed.  Held across a cell's compute
/// so `--claim-ttl` expiry only ever steals from dead workers, never from
/// a slow cell's live owner.
class ClaimHeartbeat {
 public:
  ClaimHeartbeat(const ResultCache& cache, std::string key,
                 double interval_seconds);
  ~ClaimHeartbeat();

  ClaimHeartbeat(const ClaimHeartbeat&) = delete;
  ClaimHeartbeat& operator=(const ClaimHeartbeat&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  // nrn-lint: allow(raw-thread): see the constructor -- the heartbeat must
  // run while every TaskPool slot is busy computing the cell it guards.
  std::thread ticker_;
};

/// Executes individual sweep cells outside the blocking SweepRunner::run
/// loop: probe the cache, optionally take a cooperative claim (with a
/// heartbeat while computing), compute through the Driver, store.  This is
/// the one cell-resolution implementation -- SweepRunner's cell loop and
/// the serve daemon's scheduler both run cells through it, so a
/// daemon-computed cell is bit-identical to a serial one by
/// construction.  Computed cells draw their graph, depth and GBST from a
/// ScenarioSetupMemo (sim/scenario_setup.hpp) holding one setup per task
/// pool slot; cached and claim-busy cells never build one.  Thread-safe:
/// resolve() keeps per-cell state on the stack and the memo locks itself.
class CellExecutor {
 public:
  struct Options {
    int trial_threads = 1;  ///< Driver threads inside the cell
    Tuning tuning;
    bool use_claims = false;  ///< claim markers around computes (fleet/serve)
    /// While computing, the claim's mtime is refreshed every ttl/4 (at
    /// least every 50ms).  No heartbeat runs when the ttl is <= 0 (claims
    /// are then already fair game, e.g. `--claim-ttl=0` resumes over a
    /// dead fleet).
    double claim_ttl_seconds = 900.0;
  };

  enum class Resolution {
    kCached,    ///< loaded from the cache (possibly stored by a peer)
    kComputed,  ///< computed here under a fresh claim (or no claims)
    kStolen,    ///< computed here after stealing a stale claim
    kBusy,      ///< a live peer holds the claim; retry later
  };

  struct Result {
    Resolution resolution = Resolution::kCached;
    ExperimentReport experiment;  ///< empty when kBusy
  };

  /// `cache` may be null (pure compute); claims require a cache.
  CellExecutor(const ProtocolRegistry& registry, const ResultCache* cache,
               Options options);

  /// The cell's cache key under this executor's tuning.
  std::string key(const SweepCell& cell) const;

  /// Resolves one cell.  kBusy is only possible with use_claims; every
  /// exception path releases the claim (no leaked markers).  Throws what
  /// the Driver throws.
  Result resolve(const SweepCell& cell) const;

 private:
  ExperimentReport compute(const SweepCell& cell) const;

  const ProtocolRegistry* registry_;
  const ResultCache* cache_;
  Options options_;
  Driver driver_;
  mutable ScenarioSetupMemo setups_;
};

/// How a runner decides which cells to execute.
enum class SweepAssignment {
  kStatic,  ///< cell.index % shard_count == shard_index (the default)
  kFleet,   ///< cache-probing + claim files: dynamic work stealing
  kResume,  ///< load every cell from the cache; compute nothing
};

struct SweepOptions {
  int shard_index = 0;  ///< 0-based, in [0, shard_count)
  int shard_count = 1;
  int cell_threads = 1;   ///< concurrent cells; <= 1 runs cells inline
  int trial_threads = 1;  ///< Driver threads inside each cell
  std::string cache_dir;  ///< empty disables the result cache
  Tuning tuning;          ///< forwarded to every cell's Driver

  /// kFleet/kResume require cache_dir and shard_count == 1: cooperating
  /// fleet processes share the cache directory instead of a static
  /// partition, and every runner's report covers the whole plan.
  SweepAssignment assignment = SweepAssignment::kStatic;
  double claim_ttl_seconds = 900.0;  ///< fleet: steal claims older than this
  int fleet_poll_ms = 20;  ///< fleet: sleep between probe passes when every
                           ///< remaining cell is claimed by a live peer

  /// Live progress sink (sim/progress.hpp); null disables.  Invocations
  /// are serialized by the runner but arrive on worker threads.
  ProgressFn on_progress;
};

/// One executed cell.  `from_cache` records provenance for operators; it is
/// excluded from equality and serialization so warm and cold runs compare
/// equal.
struct SweepCellReport {
  int cell_index = 0;
  ExperimentReport experiment;
  bool from_cache = false;

  friend bool operator==(const SweepCellReport& a, const SweepCellReport& b) {
    return a.cell_index == b.cell_index && a.experiment == b.experiment;
  }
};

/// Fleet-mode progress counters.  Like `from_cache` these are provenance,
/// not payload: equality and the shard serialization exclude them, so a
/// fleet run's report compares equal to the serial run's.
struct FleetStats {
  bool active = false;  ///< ran under kFleet or kResume
  int claimed = 0;      ///< cells this worker claimed fresh and computed
  int stolen = 0;       ///< cells recomputed after stealing a stale claim
  int skipped = 0;      ///< cells resolved from the shared cache
};

/// The outcome of one sweep run (possibly one shard of a plan).  `cells`
/// is sorted by cell_index and covers exactly this shard's slice of the
/// plan's `total_cells`.
struct SweepReport {
  std::string plan_text;
  std::uint64_t master_seed = 1;
  int total_cells = 0;
  std::vector<SweepCellReport> cells;
  FleetStats fleet;

  /// True when every cell of the plan is present (serial run or merge).
  bool complete() const {
    return static_cast<int>(cells.size()) == total_cells;
  }
  int cache_hits() const;
  bool all_completed() const;  ///< every trial of every cell completed

  friend bool operator==(const SweepReport& a, const SweepReport& b) {
    return a.plan_text == b.plan_text && a.master_seed == b.master_seed &&
           a.total_cells == b.total_cells && a.cells == b.cells;
  }
};

/// Exact, checksummed serialization of a SweepReport, used for shard
/// hand-off files (and therefore for the merge path).  read_shard_file
/// throws SpecError on any damage.
void write_shard_file(std::ostream& os, const SweepReport& report);
SweepReport read_shard_file(std::istream& is);

/// Merges shard reports of the same plan into the full report.  Static
/// shards are disjoint; fleet shards overlap, so a cell appearing in
/// several shards is legal iff every copy is bit-identical (deterministic
/// cells recomputed by different workers always are).  Throws SpecError
/// when plans disagree, duplicate cells differ, or cells are missing.
/// The result is bit-identical to the serial run.
SweepReport merge_sweep_reports(const std::vector<SweepReport>& shards);

class SweepRunner {
 public:
  explicit SweepRunner(
      const ProtocolRegistry& registry = extended_registry())
      : registry_(&registry) {}

  /// Runs this shard's cells of `plan` (all cells under kFleet/kResume)
  /// through one cell loop for every mode.  Throws SpecError for unknown
  /// protocols (before running anything), for a kResume cache missing
  /// cells, and propagates protocol errors.
  SweepReport run(const SweepPlan& plan,
                  const SweepOptions& options = {}) const;

 private:
  const ProtocolRegistry* registry_;
};

}  // namespace nrn::sim
