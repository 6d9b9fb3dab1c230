// Name -> factory registry of broadcast protocols.
//
// The registry is how every caller -- nrn_sim, the benches, the examples,
// the tests -- selects a protocol at runtime: no per-algorithm dispatch
// switches exist outside this file's implementation.  extended_registry()
// is the one process-wide instance, holding every protocol the library
// ships; custom protocols (experiments, ablation variants) go into a copy
// of it or into any other instance.
//
// v2 registers three things per protocol besides the factory:
//   * a CapabilitySet (multi-message, verified-payload, schedule-gap,
//     traced) that drivers and sweeps interrogate instead of special-casing
//     protocol names;
//   * an optional TheoryBound: the protocol's asymptotic round bound from
//     the paper, evaluated on the concrete scenario so reports can emit
//     gap-vs-theory columns (measured rounds / theoretical bound);
//   * a one-line description.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/protocol.hpp"
#include "sim/scenario.hpp"
#include "trees/ranked_bfs.hpp"

namespace nrn::sim {

class ScenarioSetup;

/// Everything a protocol factory may consult.  The graph reference must
/// outlive the constructed protocol (the Driver's ScenarioSetup owns it for
/// the duration of an experiment).
struct ProtocolContext {
  const graph::Graph& graph;
  const Scenario& scenario;
  Tuning tuning;
  /// The scenario's shared setup (sim/scenario_setup.hpp), whose graph is
  /// `graph`; null when the caller built only the graph.
  const ScenarioSetup* setup = nullptr;

  /// The GBST of `graph` rooted at the scenario's source: the setup's
  /// shared tree, or one built here when `setup` is null.
  std::shared_ptr<const trees::RankedBfsTree> gbst() const;
};

/// What a theory-bound formula may consult: the scenario (k, fault model,
/// topology arguments) plus the materialized graph's dimensions.  `depth`
/// is the BFS eccentricity of the source -- the D of every bound in the
/// paper.
struct TheoryContext {
  const Scenario& scenario;
  std::int64_t nodes = 0;
  std::int64_t edges = 0;
  std::int64_t depth = 0;
};

/// The protocol's theoretical round bound for a concrete scenario, with
/// Theta-constants dropped (so measured/bound ratios are O(1) and their
/// growth exposes a wrong exponent, not a wrong constant).
using TheoryBound = std::function<double(const TheoryContext&)>;

class ProtocolRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<BroadcastProtocol>(const ProtocolContext&)>;

  /// Registers (or replaces) a protocol under `name`.
  void add(const std::string& name, const std::string& description,
           CapabilitySet capabilities, Factory factory,
           TheoryBound bound = nullptr);

  /// Convenience overload: no capabilities, no theory bound.
  void add(const std::string& name, const std::string& description,
           Factory factory);

  bool contains(const std::string& name) const;

  /// Builds the named protocol for the given context; throws SpecError on
  /// an unknown name (listing the registered ones).
  std::unique_ptr<BroadcastProtocol> create(const std::string& name,
                                            const ProtocolContext& ctx) const;

  /// Registered protocol names, sorted.
  std::vector<std::string> names() const;

  /// One-line description of a registered protocol.
  const std::string& description(const std::string& name) const;

  /// The protocol's capability set; throws SpecError on an unknown name.
  CapabilitySet capabilities(const std::string& name) const;

  bool has_capability(const std::string& name, Capability cap) const {
    return (capabilities(name) & cap) != 0;
  }

  /// True iff a theory bound is registered for `name`.
  bool has_theory_bound(const std::string& name) const;

  /// Evaluates the protocol's registered bound on `ctx`; 0.0 when none is
  /// registered.  Throws SpecError on an unknown name.
  double theory_bound(const std::string& name, const TheoryContext& ctx) const;

 private:
  struct Entry {
    std::string description;
    CapabilitySet capabilities = 0;
    Factory factory;
    TheoryBound bound;
  };
  const Entry& entry(const std::string& name) const;
  std::map<std::string, Entry> entries_;
};

/// The process-wide registry of every protocol the library ships: the
/// broadcast protocols (decay, fastbc, robust, rlnc-decay, rlnc-robust, the
/// verified-payload variants, erasure-decay, pipeline, greedy) and the
/// schedule-level ones (the Lemma 25/26 transforms, the star schedules and
/// the single link, the WCT schedules).  The schedule protocols run only
/// on the topologies their schedules exist for and throw SpecError on any
/// other scenario.  Driver and SweepRunner default to it.
const ProtocolRegistry& extended_registry();

}  // namespace nrn::sim
