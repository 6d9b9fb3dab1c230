// Multi-trial experiment execution.
//
// The Driver is the one trial loop in the library: it runs over a
// ScenarioSetup -- the scenario's graph, source depth and GBST, built once
// per graph identity and shared across the cells of a sweep
// (sim/scenario_setup.hpp) -- builds the protocol once through the
// registry, derives one independent Rng stream per trial with Rng::split,
// and runs the trials -- serially or batched over the shared TaskPool.
// Per-trial seeds are derived up front in trial order, so an
// ExperimentReport is bit-identical for a given scenario regardless of
// the thread count and of whether its setup was shared.
//
// v3: batching runs on the persistent common::TaskPool (no per-experiment
// thread spawn), and each pool slot owns a TrialWorkspace whose
// RadioNetwork is reset -- not reallocated -- between trials.
//
// v2: trials carry Outcome metric maps instead of a fixed struct, and the
// report records the protocol's capabilities, the source's BFS depth, and
// the registered theory bound evaluated on the concrete scenario -- the
// inputs of the emitters' gap-vs-theory columns.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "radio/lockstep.hpp"
#include "radio/network.hpp"
#include "sim/registry.hpp"
#include "sim/scenario_setup.hpp"

namespace nrn::sim {

/// Largest node count at which kAuto picks the lockstep bank: none, every
/// graph qualifies.  With FASTBC's fast rounds read from precomputed
/// schedules (core/wave_schedule.hpp), forced-lockstep / scalar wall time
/// over 16 trials (Release, g++ 12, one core of a 4-vCPU Xeon VM) is
/// 0.34-0.72 on gnp, grid, random-tree and SINR disk cells at n = 1024-8192
/// for decay, fastbc and robust, and the BM_EngineTrials matrix
/// (bench/bench_micro_engine.cpp) reads auto / scalar below 1 at n = 256 and
/// 2048, so a size cap only sent large cells to the slower engine.  Stars are
/// banked too, without a predicate of their own: 1.0-1.15 at n = 1024-4096,
/// in cells under 11 ms.  The constant stays so that code mirroring the auto
/// predicate (perfbench/src/layers.cpp) keeps its form.
inline constexpr std::int32_t kLockstepAutoMaxNodes =
    std::numeric_limits<std::int32_t>::max();

/// How the Driver executes a protocol's trials.  Every mode produces
/// bit-identical reports: lockstep lanes replay exactly the scalar tape.
enum class TrialExecution {
  /// Lockstep for multi-trial experiments of steppable protocols on any
  /// graph whose edges do not all join consecutive ids; scalar otherwise
  /// (see kLockstepAutoMaxNodes for the measurements).
  kAuto,
  /// Always the scalar engine (one RadioNetwork per trial).
  kScalar,
  /// Lockstep banks whenever the protocol can step (make_stepper non-null),
  /// regardless of size; scalar only for non-steppable protocols.
  kLockstep,
};

/// One trial's outcome plus the seeds that reproduce it.
struct TrialReport {
  int index = 0;
  std::uint64_t net_seed = 0;   ///< seeds the fault-coin stream
  std::uint64_t algo_seed = 0;  ///< seeds the protocol's own coins
  Outcome run;

  friend bool operator==(const TrialReport&, const TrialReport&) = default;
};

/// Mean/min/max of one metric across the trials that report it.
struct MetricSummary {
  int count = 0;  ///< trials carrying the metric
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;

  friend bool operator==(const MetricSummary&, const MetricSummary&) = default;
};

/// A full experiment: one protocol, one scenario, T trials.
struct ExperimentReport {
  std::string protocol;
  Scenario scenario;
  std::int64_t node_count = 0;
  std::int64_t edge_count = 0;
  std::int64_t depth = 0;  ///< BFS eccentricity of the source (the paper's D)
  CapabilitySet capabilities = 0;
  double theory_bound = 0.0;  ///< registered bound in rounds; 0 = none

  std::vector<TrialReport> trials;

  bool all_completed() const;
  int completed_trials() const;
  std::vector<double> rounds() const;   ///< per-trial round counts, in order
  double median_rounds() const;
  double mean_rounds() const;

  bool has_theory_bound() const { return theory_bound > 0.0; }
  /// median rounds / theory bound; 0 when no bound is registered.
  double gap() const;

  /// Sorted union of the metric keys across all trials.
  std::vector<std::string> metric_keys() const;
  /// Sorted union of the series keys across all trials (empty unless the
  /// experiment ran with tracing on a kTraced protocol).
  std::vector<std::string> series_keys() const;
  bool has_series() const { return !series_keys().empty(); }
  /// Values of one metric (as reals) over the trials that carry it.
  std::vector<double> metric_values(const std::string& key) const;
  MetricSummary metric_summary(const std::string& key) const;

  friend bool operator==(const ExperimentReport&,
                         const ExperimentReport&) = default;
};

struct DriverOptions {
  /// Concurrent trial executors (pool workers + the caller); <= 1 runs
  /// trials inline.  Results are identical either way.
  int threads = 1;
  /// Protocol knobs forwarded to the factory.
  Tuning tuning;
  /// Record per-round series into each trial's Outcome.  Only protocols
  /// with the kTraced capability are traced (a TraceRecorder is attached
  /// to every trial and folded into the "informed" / "deliveries" /
  /// "collisions" / "broadcasters" series); for other protocols -- and
  /// whenever this is false -- no recorder is allocated and outcomes are
  /// bit-identical to an untraced run.
  bool trace = false;
  /// Scalar vs. lockstep trial execution (see TrialExecution).  Reports
  /// are bit-identical in every mode; this is purely a performance knob.
  TrialExecution execution = TrialExecution::kAuto;
};

/// Per-worker arena: one RadioNetwork reused across all the trials a pool
/// slot runs, reset (O(1)) instead of reallocated (O(n)) per trial.
class TrialWorkspace {
 public:
  /// `geometry` must be non-null for a kSinr channel and outlive the
  /// workspace (the Driver keeps both alive for the whole experiment).
  radio::RadioNetwork& acquire(const graph::Graph& graph,
                               const radio::ChannelModel& channel,
                               const graph::Geometry* geometry, Rng rng) {
    if (!net_) {
      net_.emplace(graph, channel, rng, geometry);
    } else {
      // reset() keeps the bound graph; a workspace is per-experiment, so
      // a different graph means the caller is holding it too long.
      NRN_EXPECTS(&graph == &net_->graph(),
                  "TrialWorkspace reused across different graphs");
      net_->reset(channel, rng);
    }
    return *net_;
  }

  /// Lockstep counterpart of acquire(): one LockstepNetwork bank reused
  /// across the banks a pool slot runs.  Lanes are seeded by the caller
  /// (LockstepNetwork::add_lane), so no Rng is taken here.
  radio::LockstepNetwork& acquire_bank(const graph::Graph& graph,
                                       const radio::ChannelModel& channel,
                                       const graph::Geometry* geometry) {
    if (!bank_) {
      bank_.emplace(graph, channel, geometry);
    } else {
      NRN_EXPECTS(&graph == &bank_->graph(),
                  "TrialWorkspace reused across different graphs");
      bank_->reset(channel);
    }
    return *bank_;
  }

 private:
  std::optional<radio::RadioNetwork> net_;
  std::optional<radio::LockstepNetwork> bank_;
};

class Driver {
 public:
  explicit Driver(const ProtocolRegistry& registry = ProtocolRegistry::global())
      : registry_(&registry) {}

  /// Runs `trials` trials of `protocol_name` on `scenario`, over a setup
  /// built for this run alone.  Throws SpecError for an unknown protocol
  /// and propagates protocol/contract errors from the trials themselves.
  ExperimentReport run(const Scenario& scenario,
                       const std::string& protocol_name, int trials,
                       const DriverOptions& options = {}) const;

  /// As above, over `setup`, which must have `scenario`'s graph identity
  /// and may be shared with other runs.  The report is identical.
  ExperimentReport run(const ScenarioSetup& setup, const Scenario& scenario,
                       const std::string& protocol_name, int trials,
                       const DriverOptions& options = {}) const;

 private:
  const ProtocolRegistry* registry_;
};

}  // namespace nrn::sim
