// Report emitters: experiment and sweep reports, three renderings each.
//
// The text tables match the library's TableWriter house style; CSV and
// JSON carry the same rows plus the scenario/plan headers, so external
// plotting, the golden-file regression tests, and the CI smoke checks
// share one source of truth.  Emitter output is deterministic in the
// report alone; provenance (per-cell cache hits in the human table, fleet
// claimed/stolen/skipped counters as a CSV comment / JSON "fleet" object,
// emitted only when a fleet ran) never touches the data rows, so a merged
// sharded or fleet sweep emits byte-identical data to the serial run.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/driver.hpp"
#include "sim/sweep_runner.hpp"

namespace nrn::sim {

/// One cross-cell regression: a summary metric of every cell in a
/// (protocol, fault, channel, k) group, regressed against the group's node
/// counts under y ~ intercept + slope * log2(nodes).  This generalizes the
/// e7 bench's bespoke log-linear fit (Lemma 15's Theta(log n) shape) into
/// the report layer, so serial, fleet, and serve reports all carry the
/// same fits.  Groups need at least three distinct node counts; smaller
/// groups produce no fit (and sweeps without a size axis emit none at
/// all).  Emitters print a fit's channel exactly when they print the
/// channel column (some cell's channel is not "none"), so edge-fault
/// reports keep their pre-channel bytes.
struct SweepFit {
  std::string protocol;
  std::string fault;
  std::string channel;  ///< channel text; "none" for the edge-fault channel
  std::int64_t k = 1;
  std::string metric;  ///< "median_rounds" or "median_rpm"
  int cells = 0;       ///< cells (points) in the regression
  LinearFit fit;       ///< slope/intercept/r2 of metric vs log2(nodes)
};

/// The fits a sweep's cells support, in deterministic (protocol, fault,
/// channel, k, metric) order.  Pure function of the report's cells: a
/// merged fleet or serve report yields exactly the serial run's fits.
std::vector<SweepFit> sweep_fits(const SweepReport& report);

/// Aligned text table with scenario notes and a summary line.
void write_table(std::ostream& os, const ExperimentReport& report);

/// CSV: comment lines for the scenario, then one row per trial.
void write_csv(std::ostream& os, const ExperimentReport& report);

/// A single JSON object with scenario metadata and a "trials" array.
void write_json(std::ostream& os, const ExperimentReport& report);

/// Aligned grid table: one row per cell with summary statistics (and a
/// cache-provenance column; the only emitter that shows cache state).
void write_sweep_table(std::ostream& os, const SweepReport& report);

/// CSV grid: plan comment lines, then one summary row per cell.
void write_sweep_csv(std::ostream& os, const SweepReport& report);

/// JSON object with the plan header and a "cells" array; each cell embeds
/// the same fields as write_json, including its per-trial array.
void write_sweep_json(std::ostream& os, const SweepReport& report);

}  // namespace nrn::sim
