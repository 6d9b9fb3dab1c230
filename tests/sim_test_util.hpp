// Shared scaffolding for the sim-layer tests (scenario, registry, driver,
// sweep, report): the one place the ad-hoc builders and emitter-to-string
// helpers live, so individual test files stop re-rolling them.
#pragma once

#include <sstream>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace nrn::sim::testutil {

/// The sorted names of the registry's broadcast protocols.  Unlike the
/// schedule protocols they run on any topology and from any source, so
/// tests that loop over protocols on a path or grid iterate these.
inline const std::vector<std::string>& builtin_names() {
  static const std::vector<std::string> names = {
      "decay",
      "erasure-decay",
      "fastbc",
      "greedy",
      "pipeline",
      "rlnc-decay",
      "rlnc-decay-verified",
      "rlnc-robust",
      "rlnc-robust-verified",
      "robust",
  };
  return names;
}

/// Parses a topology spec and materializes its graph from `seed`.
inline graph::Graph build_topology(const std::string& spec,
                                   std::uint64_t seed = 1) {
  Rng rng(seed);
  return TopologySpec::parse(spec).build(rng);
}

/// A scenario plus its materialized graph and tuning, bundled so tests can
/// hand a ProtocolContext to factories without repeating the boilerplate.
struct ScenarioFixture {
  Scenario scenario;
  graph::Graph graph;
  Tuning tuning;

  explicit ScenarioFixture(const std::string& topology,
                           const std::string& fault = "none",
                           graph::NodeId source = 0, std::int64_t k = 1,
                           std::uint64_t seed = 1, Tuning tuning_in = {})
      : scenario(Scenario::parse(topology, fault, source, k, seed)),
        graph(scenario.build_graph()),
        tuning(tuning_in) {}

  ProtocolContext context() const { return {graph, scenario, tuning}; }
};

// Emitters rendered to strings, for golden and equivalence checks.
inline std::string csv_of(const ExperimentReport& report) {
  std::ostringstream out;
  write_csv(out, report);
  return out.str();
}

inline std::string json_of(const ExperimentReport& report) {
  std::ostringstream out;
  write_json(out, report);
  return out.str();
}

inline std::string table_of(const ExperimentReport& report) {
  std::ostringstream out;
  write_table(out, report);
  return out.str();
}

inline std::string sweep_csv_of(const SweepReport& report) {
  std::ostringstream out;
  write_sweep_csv(out, report);
  return out.str();
}

inline std::string sweep_json_of(const SweepReport& report) {
  std::ostringstream out;
  write_sweep_json(out, report);
  return out.str();
}

/// The exact bytes of a report's shard-file serialization.
inline std::string shard_bytes(const SweepReport& report) {
  std::ostringstream out;
  write_shard_file(out, report);
  return out.str();
}

}  // namespace nrn::sim::testutil
