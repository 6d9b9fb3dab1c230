#include "sim/scenario.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "common/numio.hpp"

#include "graph/generators.hpp"
#include "topology/wct.hpp"

namespace nrn::sim {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, sep)) parts.push_back(item);
  if (!s.empty() && s.back() == sep) parts.emplace_back();
  return parts;
}

[[noreturn]] void bad_spec(const std::string& what) { throw SpecError(what); }

}  // namespace

std::int64_t parse_spec_int(const std::string& text, const std::string& what) {
  if (text.empty()) bad_spec(what + ": empty number");
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size())
    bad_spec(what + ": '" + text + "' is not an integer");
  if (errno == ERANGE) bad_spec(what + ": '" + text + "' is out of range");
  return static_cast<std::int64_t>(value);
}

std::uint64_t parse_spec_uint(const std::string& text,
                              const std::string& what) {
  if (text.empty()) bad_spec(what + ": empty number");
  if (text[0] == '-')
    bad_spec(what + ": '" + text + "' must be non-negative");
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size())
    bad_spec(what + ": '" + text + "' is not an integer");
  if (errno == ERANGE) bad_spec(what + ": '" + text + "' is out of range");
  return static_cast<std::uint64_t>(value);
}

double parse_spec_real(const std::string& text, const std::string& what) {
  // Locale-independent strict parse (common/numio): the same spec string
  // parses to the same double under every process locale, and the error
  // names exactly what was wrong (empty / malformed / trailing garbage /
  // overflow).  Underflow to a subnormal is accepted; non-finite values
  // (inf/nan spellings) are rejected -- no scenario parameter admits them.
  const ParseRealResult r = parse_real(text);
  if (!r.ok())
    bad_spec(what + ": '" + text + "' " + parse_real_error(r.status));
  if (!std::isfinite(r.value))
    bad_spec(what + ": '" + text + "' is not a finite number");
  return r.value;
}

namespace {

/// Arity and range rules per topology family, with the argument signature
/// and one-line description `nrn_sim topologies` prints.
struct KindRule {
  const char* kind;
  int int_args;      ///< colon-separated integer arguments after the kind
  bool has_real;     ///< one trailing real argument (gnp's p)
  bool randomized;
  const char* usage;
  const char* doc;
};

constexpr KindRule kKindRules[] = {
    {"barbell", 2, false, false, "barbell:clique:bridge",
     "two k-cliques joined by a bridge path"},
    {"binary-tree", 1, false, false, "binary-tree:n",
     "complete binary tree, heap indexing"},
    {"caterpillar", 2, false, false, "caterpillar:spine:legs",
     "spine path with pendant leaves per spine node"},
    {"complete", 1, false, false, "complete:n", "complete graph K_n"},
    {"cycle", 1, false, false, "cycle:n", "cycle on n >= 3 nodes"},
    // special: n:radius with optional :power
    {"disk", 0, false, true, "disk:n:radius[:power]",
     "geometric: n nodes uniform in the unit square, edges within radius; "
     "hosts channel=sinr"},
    {"gnp", 1, true, true, "gnp:n:p", "connected Erdos-Renyi G(n, p)"},
    {"grid", 0, false, false, "grid:RxC", "R x C grid"},  // special RxC
    {"hypercube", 1, false, false, "hypercube:d",
     "d-dimensional hypercube, 2^d nodes"},
    {"link", 0, false, false, "link", "two nodes, one edge (Appendix A)"},
    {"lollipop", 2, false, false, "lollipop:clique:tail",
     "clique with a pendant path"},
    {"path", 1, false, false, "path:n", "path 0 - 1 - ... - (n-1)"},
    {"regular", 2, false, true, "regular:n:d",
     "random d-regular-ish pairing model"},
    {"ring", 2, false, false, "ring:cliques:size",
     "ring of cliques joined by single edges"},
    {"star", 1, false, false, "star:leaves",
     "hub node 0 with `leaves` leaves"},
    {"tree", 1, false, true, "tree:n", "uniform random attachment tree"},
    // special: n:density (two reals never fit the one-trailing-real shape)
    {"uniform", 0, false, true, "uniform:n:density",
     "geometric: n nodes at expected density per unit square, unit-range "
     "edges; hosts channel=sinr"},
    // special: 1 (budget) or 4 (M:L:C:S) arguments
    {"wct", 1, false, true, "wct:budget | wct:M:L:C:S",
     "weak connectivity tree instance (Lemma 18)"},
};

const KindRule* find_rule(const std::string& kind) {
  for (const auto& rule : kKindRules)
    if (kind == rule.kind) return &rule;
  return nullptr;
}

const KindRule& known_rule(const std::string& kind) {
  const KindRule* rule = find_rule(kind);
  if (rule == nullptr) bad_spec("unknown topology '" + kind + "'");
  return *rule;
}

std::int64_t positive_arg(const TopologySpec& spec, std::size_t i,
                          const char* name) {
  const std::int64_t v = spec.ints.at(i);
  if (v < 1)
    bad_spec("topology '" + spec.text + "': " + name + " must be positive");
  return v;
}

}  // namespace

TopologySpec TopologySpec::parse(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.empty() || parts[0].empty()) bad_spec("empty topology spec");
  TopologySpec out;
  out.text = spec;
  out.kind = parts[0];
  const KindRule& rule = known_rule(out.kind);

  if (out.kind == "grid") {
    if (parts.size() != 2) bad_spec("grid wants grid:RxC");
    const auto dims = split(parts[1], 'x');
    if (dims.size() != 2) bad_spec("grid wants grid:RxC");
    out.ints.push_back(parse_spec_int(dims[0], "grid rows"));
    out.ints.push_back(parse_spec_int(dims[1], "grid cols"));
  } else if (out.kind == "wct") {
    if (parts.size() != 2 && parts.size() != 5)
      bad_spec("wct wants wct:budget or wct:M:L:C:S");
    for (std::size_t i = 1; i < parts.size(); ++i)
      out.ints.push_back(parse_spec_int(parts[i], "wct argument"));
  } else if (out.kind == "disk") {
    if (parts.size() != 3 && parts.size() != 4)
      bad_spec("disk wants disk:n:radius or disk:n:radius:power");
    out.ints.push_back(parse_spec_int(parts[1], "disk n"));
    out.reals.push_back(parse_spec_real(parts[2], "disk radius"));
    out.reals.push_back(parts.size() == 4
                            ? parse_spec_real(parts[3], "disk power")
                            : 1.0);
  } else if (out.kind == "uniform") {
    if (parts.size() != 3) bad_spec("uniform wants uniform:n:density");
    out.ints.push_back(parse_spec_int(parts[1], "uniform n"));
    out.reals.push_back(parse_spec_real(parts[2], "uniform density"));
  } else {
    const std::size_t expected =
        1 + static_cast<std::size_t>(rule.int_args) + (rule.has_real ? 1 : 0);
    if (parts.size() != expected)
      bad_spec("topology '" + spec + "': wrong number of arguments for '" +
               out.kind + "'");
    for (int i = 0; i < rule.int_args; ++i)
      out.ints.push_back(parse_spec_int(
          parts[static_cast<std::size_t>(i) + 1], out.kind + " argument"));
    if (rule.has_real)
      out.reals.push_back(parse_spec_real(parts.back(), out.kind + " probability"));
  }

  // Range checks beyond "is a number": fail at parse time, not deep inside
  // a generator precondition.  Node counts are int32 NodeIds; reject
  // anything that would truncate or overflow instead of wrapping.
  constexpr std::int64_t kMaxNodes = 0x7fffffff;
  for (const std::int64_t v : out.ints)
    if (v > kMaxNodes)
      bad_spec("topology '" + spec + "': argument " + std::to_string(v) +
               " exceeds the supported node range");
  auto check_product = [&](std::int64_t a, std::int64_t b) {
    if (a > 0 && b > 0 && a > kMaxNodes / b)
      bad_spec("topology '" + spec + "': total node count overflows");
  };
  if (out.kind == "grid") check_product(out.ints[0], out.ints[1]);
  if (out.kind == "caterpillar") check_product(out.ints[0], out.ints[1] + 1);
  if (out.kind == "ring") check_product(out.ints[0], out.ints[1]);
  if (out.kind == "barbell" || out.kind == "lollipop")
    check_product(2, out.ints[0] + out.ints[1]);

  if (out.kind == "grid") {
    positive_arg(out, 0, "rows");
    positive_arg(out, 1, "cols");
  } else if (out.kind == "gnp") {
    positive_arg(out, 0, "n");
    if (out.reals[0] < 0.0 || out.reals[0] > 1.0)
      bad_spec("gnp probability must be in [0, 1]");
  } else if (out.kind == "hypercube") {
    if (out.ints[0] < 1 || out.ints[0] > 20)
      bad_spec("hypercube dimension must be in [1, 20]");
  } else if (out.kind == "cycle") {
    if (out.ints[0] < 3) bad_spec("cycle needs at least three nodes");
  } else if (out.kind == "complete") {
    if (out.ints[0] < 2) bad_spec("complete graph needs at least two nodes");
  } else if (out.kind == "ring") {
    if (out.ints[0] < 3) bad_spec("ring needs at least three cliques");
    if (out.ints[1] < 2) bad_spec("ring cliques need at least two members");
  } else if (out.kind == "barbell" || out.kind == "lollipop") {
    if (out.ints[0] < 2) bad_spec(out.kind + " clique needs at least two nodes");
    positive_arg(out, 1, out.kind == "barbell" ? "bridge" : "tail");
  } else if (out.kind == "caterpillar") {
    positive_arg(out, 0, "spine");
    if (out.ints[1] < 0) bad_spec("caterpillar legs must be non-negative");
  } else if (out.kind == "regular") {
    positive_arg(out, 0, "n");
    positive_arg(out, 1, "degree");
    if (out.ints[0] < out.ints[1] + 1) bad_spec("regular degree too large for n");
    if ((out.ints[0] * out.ints[1]) % 2 != 0)
      bad_spec("regular requires n * degree to be even");
  } else if (out.kind == "disk") {
    positive_arg(out, 0, "n");
    if (out.reals[0] <= 0.0)
      bad_spec("topology '" + spec + "': radius must be positive");
    if (out.reals[1] <= 0.0)
      bad_spec("topology '" + spec + "': power must be positive");
  } else if (out.kind == "uniform") {
    positive_arg(out, 0, "n");
    if (out.reals[0] <= 0.0)
      bad_spec("topology '" + spec + "': density must be positive");
  } else if (out.kind == "wct") {
    if (out.ints.size() == 1) {
      if (out.ints[0] < 16) bad_spec("wct node budget must be at least 16");
    } else {
      if (out.ints[0] < 2) bad_spec("wct sender count must be at least 2");
      positive_arg(out, 1, "class count");
      positive_arg(out, 2, "clusters per class");
      positive_arg(out, 3, "cluster size");
      check_product(out.ints[1] * out.ints[2], out.ints[3]);
      // The *total* node count (source + senders + cluster members) must
      // fit the NodeId range too, not just each factor.
      if (1 + out.ints[0] + out.ints[1] * out.ints[2] * out.ints[3] >
          kMaxNodes)
        bad_spec("topology '" + spec + "': total node count overflows");
    }
  } else if (!out.ints.empty()) {
    positive_arg(out, 0, "size");
  }
  return out;
}

bool TopologySpec::randomized() const {
  const KindRule* rule = find_rule(kind);
  return rule != nullptr && rule->randomized;
}

topology::WctParams TopologySpec::wct_params() const {
  NRN_EXPECTS(kind == "wct", "wct_params on a non-wct topology");
  if (ints.size() == 1)
    return topology::WctParams::from_node_budget(
        static_cast<std::int32_t>(ints.at(0)));
  topology::WctParams params;
  params.sender_count = static_cast<std::int32_t>(ints.at(0));
  params.class_count = static_cast<std::int32_t>(ints.at(1));
  params.clusters_per_class = static_cast<std::int32_t>(ints.at(2));
  params.cluster_size = static_cast<std::int32_t>(ints.at(3));
  return params;
}

graph::Graph TopologySpec::build(Rng& rng, graph::Geometry* geometry) const {
  using graph::NodeId;
  auto n = [&](std::size_t i) { return static_cast<NodeId>(ints.at(i)); };
  if (kind == "disk")
    return graph::make_unit_disk(n(0), reals.at(0), reals.at(1), rng,
                                 geometry);
  if (kind == "uniform")
    return graph::make_uniform_density(n(0), reals.at(0), rng, geometry);
  if (kind == "path") return graph::make_path(n(0));
  if (kind == "cycle") return graph::make_cycle(n(0));
  if (kind == "star") return graph::make_star(n(0));
  if (kind == "complete") return graph::make_complete(n(0));
  if (kind == "grid") return graph::make_grid(n(0), n(1));
  if (kind == "gnp") return graph::make_connected_gnp(n(0), reals.at(0), rng);
  if (kind == "tree") return graph::make_random_tree(n(0), rng);
  if (kind == "binary-tree") return graph::make_binary_tree(n(0));
  if (kind == "hypercube")
    return graph::make_hypercube(static_cast<std::int32_t>(ints.at(0)));
  if (kind == "caterpillar") return graph::make_caterpillar(n(0), n(1));
  if (kind == "ring") return graph::make_ring_of_cliques(n(0), n(1));
  if (kind == "barbell") return graph::make_barbell(n(0), n(1));
  if (kind == "lollipop") return graph::make_lollipop(n(0), n(1));
  if (kind == "regular")
    return graph::make_random_regular(n(0), static_cast<std::int32_t>(ints.at(1)),
                                      rng);
  if (kind == "link") return graph::make_star(1);
  if (kind == "wct") return topology::WctNetwork(wct_params(), rng).graph();
  bad_spec("unknown topology '" + kind + "'");
}

radio::FaultModel parse_fault_spec(const std::string& spec) {
  const auto parts = split(spec, ':');
  if (parts.empty() || parts[0].empty()) bad_spec("empty fault spec");
  const std::string& kind = parts[0];
  auto prob_at = [&](std::size_t i) {
    const double p = parse_spec_real(parts.at(i), kind + " probability");
    if (p < 0.0 || p >= 1.0)
      bad_spec("fault '" + spec + "': probability must be in [0, 1)");
    return p;
  };
  if (kind == "none") {
    if (parts.size() != 1) bad_spec("fault 'none' takes no arguments");
    return radio::FaultModel::faultless();
  }
  if (kind == "sender") {
    if (parts.size() != 2) bad_spec("fault 'sender' wants sender:p");
    return radio::FaultModel::sender(prob_at(1));
  }
  if (kind == "receiver") {
    if (parts.size() != 2) bad_spec("fault 'receiver' wants receiver:p");
    return radio::FaultModel::receiver(prob_at(1));
  }
  if (kind == "combined") {
    if (parts.size() != 3) bad_spec("fault 'combined' wants combined:ps:pr");
    return radio::FaultModel::combined(prob_at(1), prob_at(2));
  }
  bad_spec("unknown fault model '" + kind + "'");
}

radio::ChannelModel parse_channel_spec(const std::string& spec,
                                       const radio::FaultModel& fault) {
  const auto parts = split(spec, ':');
  if (parts.empty() || parts[0].empty()) bad_spec("empty channel spec");
  const std::string& kind = parts[0];
  if (kind == "none") {
    if (parts.size() != 1) bad_spec("channel 'none' takes no arguments");
    return fault;
  }
  if (kind == "sinr") {
    if (parts.size() != 4)
      bad_spec("channel 'sinr' wants sinr:alpha:noise:beta");
    const double alpha = parse_spec_real(parts[1], "sinr alpha");
    const double noise = parse_spec_real(parts[2], "sinr noise floor");
    const double beta = parse_spec_real(parts[3], "sinr beta");
    if (alpha <= 0.0)
      bad_spec("channel '" + spec + "': alpha must be positive");
    if (noise < 0.0)
      bad_spec("channel '" + spec + "': noise floor must be non-negative");
    if (beta <= 0.0)
      bad_spec("channel '" + spec + "': beta must be positive");
    return radio::ChannelModel::sinr_channel(alpha, noise, beta);
  }
  bad_spec("unknown channel model '" + kind + "'");
}

const std::vector<std::string>& topology_kinds() {
  static const std::vector<std::string> kinds = [] {
    std::vector<std::string> out;
    for (const auto& rule : kKindRules) out.emplace_back(rule.kind);
    return out;
  }();
  return kinds;
}

std::string topology_usage(const std::string& kind) {
  return known_rule(kind).usage;
}

std::string topology_doc(const std::string& kind) {
  return known_rule(kind).doc;
}

Scenario Scenario::parse(const std::string& topology_spec,
                         const std::string& fault_spec, graph::NodeId source,
                         std::int64_t k, std::uint64_t seed,
                         const std::string& channel_spec) {
  if (source < 0) bad_spec("source must be non-negative");
  if (k < 1) bad_spec("k must be positive");
  Scenario sc;
  sc.topology = TopologySpec::parse(topology_spec);
  sc.fault_text = fault_spec;
  const radio::FaultModel fault = parse_fault_spec(fault_spec);
  sc.channel_text = channel_spec.empty() ? "none" : channel_spec;
  sc.channel = parse_channel_spec(sc.channel_text, fault);
  if (!sc.channel.is_edge_fault()) {
    // SINR replaces the edge-fault layer (it prices no fault coins) and
    // needs node coordinates to price gains: reject contradictions at
    // parse time instead of deep inside the engine.
    if (!fault.is_faultless())
      bad_spec("channel '" + sc.channel_text + "': cannot combine with fault '" +
               fault_spec + "'");
    if (!sc.topology.geometric())
      bad_spec("channel '" + sc.channel_text +
               "': requires a geometric topology, got '" + topology_spec + "'");
  }
  sc.source = source;
  sc.k = k;
  sc.seed = seed;
  return sc;
}

graph::Graph Scenario::build_graph(graph::Geometry* geometry) const {
  // Randomized topologies draw from a stream derived only from the master
  // seed, so trial streams never perturb the graph (and vice versa).
  Rng topo_rng = topology_rng();
  return topology.build(topo_rng, geometry);
}

std::string Scenario::describe() const {
  std::string out = topology.text + " under " + to_string(channel);
  if (k > 1) out += ", k=" + std::to_string(k);
  out += ", seed=" + std::to_string(seed);
  return out;
}

}  // namespace nrn::sim
