// Declarative experiment scenarios and the string-spec grammar.
//
// A Scenario pins down everything an experiment needs besides the protocol:
// the topology, the fault model, the broadcast source, the message count k,
// and the master seed.  Scenarios are plain values: two equal scenarios
// reproduce bit-identical experiments through the Driver.
//
// Spec grammar (colon-separated, all numbers strictly validated):
//   topologies: path:n  cycle:n  star:leaves  complete:n  grid:RxC
//               gnp:n:p  tree:n  binary-tree:n  hypercube:d
//               caterpillar:spine:legs  ring:cliques:size
//               barbell:clique:bridge  lollipop:clique:tail
//               regular:n:d  link  wct:budget  wct:M:L:C:S
//               disk:n:radius[:power]  uniform:n:density
//   faults:     none  sender:p  receiver:p  combined:ps:pr
//   channels:   none  sinr:alpha:noise:beta
//
// disk and uniform are the geometric families (node coordinates exist):
// disk places n nodes uniformly in the unit square joining pairs within
// `radius` (shared transmit power, default 1); uniform places n nodes at
// expected density `density` per unit square joining pairs within unit
// distance.  Only geometric topologies can host the sinr channel, and a
// sinr channel cannot combine with an edge-fault spec -- it replaces the
// fault layer (see radio/channel_model.hpp and docs/channel_models.md).
//
// The wct family has two forms: wct:budget scales all dimensions from a
// target node count (WctParams::from_node_budget), while wct:M:L:C:S pins
// sender count, class count, clusters per class, and cluster size exactly
// (the Lemma 18 structural probes need explicit class counts).
//
// Malformed specs (wrong arity, non-numeric or out-of-range values, unknown
// kinds) raise SpecError -- never a silently-zero strtoll parse.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "radio/channel_model.hpp"
#include "radio/fault_model.hpp"

namespace nrn::topology {
struct WctParams;
}

namespace nrn::sim {

/// Raised for any malformed scenario/protocol spec string.
class SpecError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Strict integer parse of the full string; throws SpecError on empty
/// input, trailing junk, or overflow.  `what` names the field in errors.
std::int64_t parse_spec_int(const std::string& text, const std::string& what);

/// Strict unsigned parse (full uint64 range) with the same rules.
std::uint64_t parse_spec_uint(const std::string& text, const std::string& what);

/// Strict floating-point parse with the same rules as parse_spec_int;
/// additionally rejects non-finite values (nan, inf).
double parse_spec_real(const std::string& text, const std::string& what);

/// A parsed, validated topology spec.  Parsing checks kind, arity, and
/// value ranges up front; build() constructs the graph (randomized families
/// draw from the supplied rng).
struct TopologySpec {
  std::string text;                 ///< original spec string
  std::string kind;                 ///< family name, e.g. "grid"
  std::vector<std::int64_t> ints;   ///< validated integer arguments
  std::vector<double> reals;        ///< validated real arguments (gnp's p)

  static TopologySpec parse(const std::string& spec);

  /// Builds the graph; geometric families (disk, uniform) additionally
  /// export their node placement to `geometry` when non-null.  The rng
  /// draws do not depend on whether geometry was requested.
  graph::Graph build(Rng& rng, graph::Geometry* geometry = nullptr) const;

  /// True iff build() consumes randomness (gnp, tree, regular, wct,
  /// disk, uniform).
  bool randomized() const;

  /// True iff the family places nodes in the plane (disk, uniform) --
  /// the precondition for hosting an SINR channel.
  bool geometric() const { return kind == "disk" || kind == "uniform"; }

  /// The WCT parameters this spec pins down (budget-scaled for wct:budget,
  /// exact for wct:M:L:C:S).  Only valid for kind == "wct"; protocol
  /// factories use it to rebuild the cluster structure build() flattens
  /// into a plain graph.
  topology::WctParams wct_params() const;

  friend bool operator==(const TopologySpec&, const TopologySpec&) = default;
};

/// Parses a fault spec ("none", "sender:p", "receiver:p", "combined:ps:pr").
radio::FaultModel parse_fault_spec(const std::string& spec);

/// Parses a channel spec ("none" or "sinr:alpha:noise:beta").  "none"
/// yields an edge-fault channel carrying `fault`; parameter validation
/// errors carry the full spec text, like the topology parser's.
radio::ChannelModel parse_channel_spec(const std::string& spec,
                                       const radio::FaultModel& fault);

/// Every topology family name the grammar accepts, sorted.
const std::vector<std::string>& topology_kinds();

/// A family's argument signature ("grid:RxC") and one-line description,
/// from the same table the parser checks arity against.  Throw SpecError
/// on an unknown kind.
std::string topology_usage(const std::string& kind);
std::string topology_doc(const std::string& kind);

/// A complete experiment scenario.  The fault and channel specs parse into
/// one channel: an edge-fault channel carrying the fault model, or SINR.
/// The spec texts are kept as written -- record bytes and cache keys are
/// built from them.
struct Scenario {
  TopologySpec topology;
  std::string fault_text = "none";
  std::string channel_text = "none";
  radio::ChannelModel channel;  ///< faultless edge-fault by default
  graph::NodeId source = 0;
  std::int64_t k = 1;            ///< messages for multi-message protocols
  std::uint64_t seed = 1;        ///< master seed for graph + trials

  /// Parses and validates all specs; throws SpecError on any problem.
  /// A non-"none" channel requires a faultless fault spec and a geometric
  /// topology.
  static Scenario parse(const std::string& topology_spec,
                        const std::string& fault_spec, graph::NodeId source = 0,
                        std::int64_t k = 1, std::uint64_t seed = 1,
                        const std::string& channel_spec = "none");

  /// Materializes the topology deterministically from `seed` (randomized
  /// families use a stream derived from the seed, independent of trials).
  /// Geometric topologies export their placement to `geometry` when
  /// requested; the graph is identical either way.
  graph::Graph build_graph(graph::Geometry* geometry = nullptr) const;

  /// The exact stream build_graph() draws from.  Protocol factories that
  /// must reconstruct a randomized topology's structure (e.g. the WCT
  /// cluster layout) replay this stream and get the identical network.
  Rng topology_rng() const { return Rng(seed ^ 0xfeedULL); }

  /// "grid:16x16 under receiver-faults(p=0.3), k=4, seed=7"
  std::string describe() const;

  friend bool operator==(const Scenario&, const Scenario&) = default;
};

}  // namespace nrn::sim
