// Shared plumbing for the experiment benches.
//
// Every bench binary reproduces one experiment from DESIGN.md's index,
// printing a titled table with the seed and parameters in the header so the
// run can be regenerated exactly.  Benches are plain executables (not
// google-benchmark) because they measure *round complexity* of randomized
// schedules, not wall-clock time; the micro benches in bench_micro_engine
// cover wall-clock performance.
//
// Experiment cells run through the library's Scenario / ProtocolRegistry /
// Driver API: a cell is "median rounds of protocol P on scenario S over T
// trials", with the scenario seed drawn from the bench's master Rng so the
// whole table reproduces from one command-line seed.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/sim.hpp"

namespace nrn::bench {

/// Fixed seed for all experiment tables; change on the command line by
/// passing a decimal seed as argv[1].
inline constexpr std::uint64_t kDefaultSeed = 20170721;  // PODC'17 week

inline std::uint64_t seed_from_args(int argc, char** argv) {
  if (argc < 2) return kDefaultSeed;
  try {
    return sim::parse_spec_uint(argv[1], "bench seed");
  } catch (const sim::SpecError& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// One experiment cell through the Driver: median rounds of `protocol` on
/// (topology, fault) over `trials` trials.  The scenario seed is drawn from
/// `rng`, so consecutive cells get independent but reproducible streams.
/// Fails loudly (contract violation) if any trial misses its round budget.
inline double driver_median_rounds(const std::string& topology,
                                   const std::string& fault,
                                   const std::string& protocol, int trials,
                                   Rng& rng,
                                   const sim::DriverOptions& options = {},
                                   std::int64_t k = 1) {
  const auto scenario =
      sim::Scenario::parse(topology, fault, /*source=*/0, k, rng());
  const auto report = sim::Driver().run(scenario, protocol, trials, options);
  NRN_ENSURES(report.all_completed(),
              protocol + " exceeded its budget on " + topology);
  return report.median_rounds();
}

/// Parses and runs a sweep plan through the extended registry (builtins
/// plus the schedule protocols).  This is the bench-side grid runner: one
/// plan per experiment table, no bespoke trial loops.
inline sim::SweepReport run_sweep(const std::string& plan_text) {
  const auto plan = sim::SweepPlan::parse(plan_text);
  return sim::SweepRunner(sim::extended_registry()).run(plan);
}

/// The report's cell for (topology, fault, k, protocol); fails loudly when
/// the plan did not produce it.
inline const sim::ExperimentReport& sweep_cell(const sim::SweepReport& report,
                                               const std::string& topology,
                                               const std::string& fault,
                                               std::int64_t k,
                                               const std::string& protocol) {
  for (const auto& cell : report.cells) {
    const auto& exp = cell.experiment;
    if (exp.scenario.topology.text == topology &&
        exp.scenario.fault_text == fault && exp.scenario.k == k &&
        exp.protocol == protocol)
      return exp;
  }
  NRN_EXPECTS(false, "sweep report has no cell " + topology + "/" + fault +
                         "/k=" + std::to_string(k) + "/" + protocol);
  std::abort();  // unreachable; NRN_EXPECTS throws
}

/// Mean measured throughput (messages/round) over a cell's completed
/// trials, and whether every trial completed -- the transform benches'
/// success criterion.
struct ThroughputSummary {
  double throughput = 0.0;
  bool success = false;
};

inline ThroughputSummary throughput_of(const sim::ExperimentReport& exp) {
  ThroughputSummary out;
  int completed = 0;
  double total = 0.0;
  for (const auto& trial : exp.trials) {
    if (!trial.run.completed) continue;
    ++completed;
    total += static_cast<double>(trial.run.messages()) /
             static_cast<double>(trial.run.rounds());
  }
  out.success = completed == static_cast<int>(exp.trials.size());
  out.throughput = completed > 0 ? total / completed : 0.0;
  return out;
}

/// Median rounds-per-message over a cell's trials -- the unit the star/WCT
/// gap tables compare across schedules.
inline double median_rpm_of(const sim::ExperimentReport& exp) {
  std::vector<double> rpm;
  rpm.reserve(exp.trials.size());
  for (const auto& trial : exp.trials)
    rpm.push_back(trial.run.rounds_per_message());
  return rpm.empty() ? 0.0 : quantile(rpm, 0.5);
}

/// Spec string for a receiver-fault model, "none" when p == 0.
inline std::string receiver_fault(double p) {
  return p == 0.0 ? "none" : "receiver:" + std::to_string(p);
}

/// Spec string for a sender-fault model, "none" when p == 0.
inline std::string sender_fault(double p) {
  return p == 0.0 ? "none" : "sender:" + std::to_string(p);
}

}  // namespace nrn::bench
