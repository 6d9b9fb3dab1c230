// The serve daemon's plan scheduler: many clients' sweep plans multiplexed
// over one shared result cache and one TaskPool.
//
// Responsibilities, in order of importance:
//   * Warm cells answer instantly: submit() probes the ResultCache and
//     resolves every already-cached cell before any job is queued.
//   * Cold cells are deduplicated by cache key across all active plans --
//     two clients sweeping overlapping grids share each cell's single
//     compute (the in-flight cell carries a waiter list).
//   * Cells execute on a TaskPool stream through the same CellExecutor as
//     `nrn_sim sweep`, with claim markers, so external --fleet runners
//     pointed at the same cache directory cooperate with the daemon; a
//     cell claimed by a live external worker is deferred and re-probed.
//   * Scheduling is fair round-robin across active plans: a huge plan
//     cannot starve a small one, because each dispatch picks the next cell
//     from the next plan in rotation.
//   * Every resolution emits a PlanEvent through the sink (from worker
//     threads); the server turns them into wire messages.
//
// Completed-plan reports are assembled in plan order and serialized with
// write_shard_file, so they are bit-identical to a serial sweep of the
// same plan -- the acceptance bar for the whole serving tier.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/registry.hpp"
#include "sim/sweep.hpp"
#include "sim/sweep_runner.hpp"

namespace nrn::serve {

struct SchedulerOptions {
  int cell_threads = 1;   ///< max concurrent cell computes
  int trial_threads = 1;  ///< Driver threads inside each cell
  double claim_ttl_seconds = 900.0;
  int claim_poll_ms = 200;  ///< re-probe period for externally claimed cells
};

/// One progress notification for one plan.  `client_id` routes it back to
/// the submitting connection.
struct PlanEvent {
  enum class Kind { kCellDone, kPlanDone, kPlanFailed };

  Kind kind = Kind::kCellDone;
  int client_id = 0;
  int plan_id = 0;

  // kCellDone:
  int cell_index = 0;   ///< plan-wide cell index
  bool cached = false;  ///< resolved from cache / shared with another plan
  std::string hash;     ///< cache entry stem
  int done = 0;         ///< cells of this plan resolved so far
  int total = 0;

  // kPlanDone (counters also final on kCellDone's last event):
  int computed = 0;  ///< cells whose fresh compute this plan triggered
  int cached_cells = 0;
  std::string report_text;  ///< complete report, shard format

  // kPlanFailed:
  std::string error;
};

struct SubmitResult {
  int plan_id = 0;
  int total_cells = 0;
  int cached = 0;  ///< cells answered from the warm cache at submit time
  bool done = false;  ///< the whole plan was warm; kPlanDone already emitted
};

struct QueryResult {
  int total_cells = 0;
  int cached = 0;
  bool complete = false;
  std::string report_text;  ///< set only when complete
};

struct SchedulerStats {
  int plans_active = 0;
  int plans_done = 0;    ///< lifetime completed (failed plans excluded)
  int plans_failed = 0;
  int cells_pending = 0;  ///< queued or deferred behind an external claim
  int cells_running = 0;
  std::int64_t cells_computed = 0;  ///< lifetime fresh computes
  std::int64_t cells_cached = 0;    ///< lifetime cache/shared resolutions
};

class PlanScheduler {
 public:
  /// Called for every PlanEvent, possibly from a worker thread; must be
  /// thread-safe and must not call back into the scheduler.
  using EventSink = std::function<void(PlanEvent)>;

  PlanScheduler(const sim::ProtocolRegistry& registry, std::string cache_dir,
                SchedulerOptions options, EventSink sink);

  /// Cancels pending work and waits for running cells, then returns.
  ~PlanScheduler();

  PlanScheduler(const PlanScheduler&) = delete;
  PlanScheduler& operator=(const PlanScheduler&) = delete;

  /// Registers a plan for `client_id`.  Throws SpecError when the plan
  /// names unknown protocols.  Warm cells emit kCellDone events before
  /// this returns; a fully warm plan also emits kPlanDone.
  SubmitResult submit(const sim::SweepPlan& plan, int client_id);

  /// Drops every unfinished plan of `client_id`: no further events for
  /// them, and queued cells nobody else waits for are abandoned.  Cells
  /// already computing finish into the cache (a resubmission reuses them).
  void detach_client(int client_id);

  /// Warm-cache-only resolution of `plan`: loads what the cache has,
  /// computes nothing.
  QueryResult query(const sim::SweepPlan& plan) const;

  SchedulerStats stats() const;

 private:
  struct Impl;
  Impl* impl_;
};

}  // namespace nrn::serve
