// Scenario spec grammar: every documented topology/fault spec round-trips
// into the right structure, and malformed specs fail loudly with SpecError
// instead of strtoll silently yielding zero.
#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "graph/algorithms.hpp"
#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

using testutil::build_topology;

TEST(TopologySpec, EveryDocumentedKindBuilds) {
  struct Case {
    std::string spec;
    std::int64_t expected_nodes;  ///< -1 = only check it builds connected
  };
  const Case cases[] = {
      {"path:64", 64},
      {"cycle:12", 12},
      {"star:10", 11},           // hub + leaves
      {"complete:8", 8},
      {"grid:4x6", 24},
      {"gnp:50:0.2", 50},
      {"tree:40", 40},
      {"binary-tree:31", 31},
      {"hypercube:5", 32},
      {"caterpillar:10:3", 40},  // spine + spine*legs
      {"ring:4:5", 20},
      {"barbell:5:3", -1},
      {"lollipop:6:4", 10},
      {"regular:16:4", 16},
      {"link", 2},
      {"wct:100", -1},
      {"disk:40:0.35", 40},
      {"uniform:40:3.0", 40},
  };
  for (const auto& c : cases) {
    const auto g = build_topology(c.spec);
    if (c.expected_nodes >= 0) {
      EXPECT_EQ(g.node_count(), c.expected_nodes) << c.spec;
    }
    EXPECT_GE(g.node_count(), 2) << c.spec;
  }
}

TEST(TopologySpec, KindListMatchesGrammar) {
  const auto& kinds = topology_kinds();
  EXPECT_EQ(kinds.size(), 18u);
  for (const auto& kind : kinds) {
    SCOPED_TRACE(kind);
    // Every advertised kind must at least be recognized by the parser
    // (arity errors are fine; "unknown topology" is not).
    try {
      TopologySpec::parse(kind + ":8:8");
    } catch (const SpecError& e) {
      EXPECT_EQ(std::string(e.what()).find("unknown topology"),
                std::string::npos);
    }
  }
}

TEST(TopologySpec, EveryKindHasAUsageAndADocLine) {
  // `nrn_sim topologies` prints these straight from the grammar's table.
  for (const auto& kind : topology_kinds()) {
    SCOPED_TRACE(kind);
    EXPECT_EQ(topology_usage(kind).rfind(kind, 0), 0u);
    EXPECT_FALSE(topology_doc(kind).empty());
  }
  EXPECT_THROW(topology_usage("nope"), SpecError);
  EXPECT_THROW(topology_doc("nope"), SpecError);
}

TEST(TopologySpec, RandomizedFamiliesAreFlagged) {
  EXPECT_TRUE(TopologySpec::parse("gnp:50:0.2").randomized());
  EXPECT_TRUE(TopologySpec::parse("tree:40").randomized());
  EXPECT_TRUE(TopologySpec::parse("regular:16:4").randomized());
  EXPECT_TRUE(TopologySpec::parse("wct:100").randomized());
  EXPECT_TRUE(TopologySpec::parse("disk:40:0.3").randomized());
  EXPECT_TRUE(TopologySpec::parse("uniform:40:2.0").randomized());
  EXPECT_FALSE(TopologySpec::parse("path:64").randomized());
  EXPECT_FALSE(TopologySpec::parse("grid:4x6").randomized());
}

TEST(TopologySpec, GeometricFamiliesAreFlagged) {
  EXPECT_TRUE(TopologySpec::parse("disk:40:0.3").geometric());
  EXPECT_TRUE(TopologySpec::parse("uniform:40:2.0").geometric());
  EXPECT_FALSE(TopologySpec::parse("gnp:40:0.2").geometric());
  EXPECT_FALSE(TopologySpec::parse("grid:4x6").geometric());
}

TEST(TopologySpec, RejectsMalformedSpecs) {
  const std::string bad[] = {
      "",                // empty
      "path",            // missing size
      "path:",           // empty size
      "path:abc",        // non-numeric (the old strtoll would yield 0)
      "path:64:9",       // trailing junk argument
      "path:-3",         // non-positive
      "path:12x",        // junk suffix on the number
      "grid:4",          // missing RxC
      "grid:4x",         // empty cols
      "grid:4x4x4",      // too many dims
      "grid:ax4",        // non-numeric rows
      "gnp:50",          // missing p
      "gnp:50:bogus",    // non-numeric p
      "gnp:50:1.5",      // p out of range
      "gnp:50:nan",      // non-finite p must not slip past range checks
      "gnp:50:inf",      // likewise
      "gnp:1:0.5",       // G(n,p) needs two nodes
      "hypercube:0",     // degenerate
      "hypercube:40",    // would explode
      "cycle:2",         // below minimum
      "regular:5:3",     // odd n*d
      "regular:4:9",     // degree too large
      "wct:4",           // budget too small
      "wct:63",          // below the generator's 64-node minimum
      "wct:8:2",         // wrong arity (1 or 4 arguments)
      "wct:8:0:4:1",     // degenerate class count
      "wct:2000000000:1:1000:2000000",  // total node count overflows
      "mesh:8",          // unknown kind
      "path:4294967299", // would truncate to int32 (2^32 + 3 -> 3)
      "grid:65536x65536",  // rows * cols overflows int32
      "caterpillar:2000000000:2000000000",  // spine * legs overflows
      "regular:3037000500:3037000499",      // parity product overflow
  };
  for (const auto& spec : bad)
    EXPECT_THROW(TopologySpec::parse(spec), SpecError) << "'" << spec << "'";
}

/// Runs `fn`, which must throw SpecError, and returns the exact message.
template <typename Fn>
std::string spec_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const SpecError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SpecError, got no exception";
  return "";
}

TEST(TopologySpec, GeometricRejectionsNameTheProblem) {
  struct Case {
    std::string spec;
    std::string message;
  };
  const Case cases[] = {
      {"disk:16", "disk wants disk:n:radius or disk:n:radius:power"},
      {"disk:16:0.3:1.0:9", "disk wants disk:n:radius or disk:n:radius:power"},
      {"disk:0:0.3", "topology 'disk:0:0.3': n must be positive"},
      {"disk:16:-0.5", "topology 'disk:16:-0.5': radius must be positive"},
      {"disk:16:0", "topology 'disk:16:0': radius must be positive"},
      {"disk:16:0.3:0", "topology 'disk:16:0.3:0': power must be positive"},
      {"uniform:16", "uniform wants uniform:n:density"},
      {"uniform:16:2.0:9", "uniform wants uniform:n:density"},
      {"uniform:0:2.0", "topology 'uniform:0:2.0': n must be positive"},
      {"uniform:16:-2", "topology 'uniform:16:-2': density must be positive"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    EXPECT_EQ(spec_error_of([&] { TopologySpec::parse(c.spec); }), c.message);
  }
}

TEST(ChannelSpec, ParsesAllDocumentedForms) {
  const auto fault = parse_fault_spec("receiver:0.25");
  const auto edge = parse_channel_spec("none", fault);
  EXPECT_TRUE(edge.is_edge_fault());
  EXPECT_EQ(edge.fault.kind, radio::FaultKind::kReceiver);
  const auto sinr =
      parse_channel_spec("sinr:2.5:0.001:1.25", radio::FaultModel::faultless());
  EXPECT_FALSE(sinr.is_edge_fault());
  EXPECT_DOUBLE_EQ(sinr.sinr.alpha, 2.5);
  EXPECT_DOUBLE_EQ(sinr.sinr.noise_floor, 0.001);
  EXPECT_DOUBLE_EQ(sinr.sinr.beta, 1.25);
}

TEST(ChannelSpec, RejectionsNameTheProblem) {
  struct Case {
    std::string spec;
    std::string message;
  };
  const Case cases[] = {
      {"", "empty channel spec"},
      {"none:1", "channel 'none' takes no arguments"},
      {"sinr", "channel 'sinr' wants sinr:alpha:noise:beta"},
      {"sinr:2.0", "channel 'sinr' wants sinr:alpha:noise:beta"},
      {"sinr:2:0.1:1:9", "channel 'sinr' wants sinr:alpha:noise:beta"},
      {"sinr:0:0.1:1", "channel 'sinr:0:0.1:1': alpha must be positive"},
      {"sinr:-2:0.1:1", "channel 'sinr:-2:0.1:1': alpha must be positive"},
      {"sinr:2:-0.1:1",
       "channel 'sinr:2:-0.1:1': noise floor must be non-negative"},
      {"sinr:2:0.1:0", "channel 'sinr:2:0.1:0': beta must be positive"},
      {"awgn:1", "unknown channel model 'awgn'"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.spec);
    EXPECT_EQ(spec_error_of([&] {
                parse_channel_spec(c.spec, radio::FaultModel::faultless());
              }),
              c.message);
  }
  // Non-numeric arguments route through the strict real parser.
  EXPECT_THROW(
      parse_channel_spec("sinr:two:0.1:1", radio::FaultModel::faultless()),
      SpecError);
  EXPECT_THROW(
      parse_channel_spec("sinr:2:nan:1", radio::FaultModel::faultless()),
      SpecError);
}

TEST(ChannelSpec, ScenarioRejectsContradictoryCombinations) {
  // SINR replaces the fault layer: combining it with an edge-fault spec or
  // a coordinate-free topology must fail at parse time, with the message
  // naming both halves of the contradiction.
  EXPECT_EQ(spec_error_of([] {
              Scenario::parse("disk:32:0.3", "sender:0.1", 0, 1, 1,
                              "sinr:2:0.001:1");
            }),
            "channel 'sinr:2:0.001:1': cannot combine with fault 'sender:0.1'");
  EXPECT_EQ(spec_error_of([] {
              Scenario::parse("path:32", "none", 0, 1, 1, "sinr:2:0.001:1");
            }),
            "channel 'sinr:2:0.001:1': requires a geometric topology, got "
            "'path:32'");
  // The happy paths on either side of those rejections.
  EXPECT_NO_THROW(
      Scenario::parse("disk:32:0.3", "none", 0, 1, 1, "sinr:2:0.001:1"));
  EXPECT_NO_THROW(Scenario::parse("path:32", "sender:0.1", 0, 1, 1, "none"));
  EXPECT_NO_THROW(Scenario::parse("uniform:32:2.0", "combined:0.2:0.1"));
}

TEST(FaultSpec, ParsesAllDocumentedForms) {
  EXPECT_EQ(parse_fault_spec("none").kind, radio::FaultKind::kFaultless);
  const auto sender = parse_fault_spec("sender:0.3");
  EXPECT_EQ(sender.kind, radio::FaultKind::kSender);
  EXPECT_DOUBLE_EQ(sender.p, 0.3);
  const auto receiver = parse_fault_spec("receiver:0.25");
  EXPECT_EQ(receiver.kind, radio::FaultKind::kReceiver);
  EXPECT_DOUBLE_EQ(receiver.p, 0.25);
  const auto combined = parse_fault_spec("combined:0.2:0.1");
  EXPECT_EQ(combined.kind, radio::FaultKind::kCombined);
  EXPECT_DOUBLE_EQ(combined.p, 0.2);
  EXPECT_DOUBLE_EQ(combined.p_receiver, 0.1);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  const std::string bad[] = {
      "",             "noise",        "none:0.1",      "sender",
      "sender:",      "sender:x",     "sender:1.0",    "sender:-0.1",
      "sender:nan",   "receiver:0.2:0.3", "combined:0.2",
      "combined:0.2:zz",
  };
  for (const auto& spec : bad)
    EXPECT_THROW(parse_fault_spec(spec), SpecError) << "'" << spec << "'";
}

TEST(SpecNumbers, StrictIntegerAndRealParsing) {
  EXPECT_EQ(parse_spec_int("42", "x"), 42);
  EXPECT_EQ(parse_spec_int("-7", "x"), -7);
  EXPECT_THROW(parse_spec_int("", "x"), SpecError);
  EXPECT_THROW(parse_spec_int("4 2", "x"), SpecError);
  EXPECT_THROW(parse_spec_int("0x10", "x"), SpecError);
  EXPECT_THROW(parse_spec_int("12.5", "x"), SpecError);
  EXPECT_THROW(parse_spec_int("99999999999999999999999", "x"), SpecError);
  EXPECT_DOUBLE_EQ(parse_spec_real("0.25", "x"), 0.25);
  EXPECT_THROW(parse_spec_real("", "x"), SpecError);
  EXPECT_THROW(parse_spec_real("0.2p", "x"), SpecError);
  EXPECT_THROW(parse_spec_real("nan", "x"), SpecError);
  EXPECT_THROW(parse_spec_real("inf", "x"), SpecError);
  // The unsigned parser covers the full uint64 seed domain.
  EXPECT_EQ(parse_spec_uint("18446744073709551615", "x"),
            ~std::uint64_t{0});
  EXPECT_THROW(parse_spec_uint("-1", "x"), SpecError);
  EXPECT_THROW(parse_spec_uint("abc", "x"), SpecError);
  EXPECT_THROW(parse_spec_uint("18446744073709551616", "x"), SpecError);
}

TEST(Scenario, ParseValidatesEverything) {
  const auto sc = Scenario::parse("grid:16x16", "combined:0.2:0.2", 3, 4, 7);
  EXPECT_EQ(sc.topology.kind, "grid");
  EXPECT_EQ(sc.channel.fault.kind, radio::FaultKind::kCombined);
  EXPECT_EQ(sc.source, 3);
  EXPECT_EQ(sc.k, 4);
  EXPECT_EQ(sc.seed, 7u);
  EXPECT_THROW(Scenario::parse("grid:16x16", "none", -1, 1, 1), SpecError);
  EXPECT_THROW(Scenario::parse("grid:16x16", "none", 0, 0, 1), SpecError);
  EXPECT_THROW(Scenario::parse("grid:16x", "none"), SpecError);
  EXPECT_THROW(Scenario::parse("grid:16x16", "sender:zz"), SpecError);
}

TEST(Scenario, GraphBuildIsDeterministicInSeed) {
  const auto a = Scenario::parse("gnp:60:0.15", "none", 0, 1, 11);
  const auto b = Scenario::parse("gnp:60:0.15", "none", 0, 1, 11);
  const auto c = Scenario::parse("gnp:60:0.15", "none", 0, 1, 12);
  const auto ga = a.build_graph();
  const auto gb = b.build_graph();
  const auto gc = c.build_graph();
  EXPECT_EQ(ga.edge_count(), gb.edge_count());
  for (graph::NodeId u = 0; u < ga.node_count(); ++u)
    ASSERT_EQ(ga.degree(u), gb.degree(u)) << u;
  // A different seed almost surely yields a different random graph.
  bool any_difference = gc.edge_count() != ga.edge_count();
  for (graph::NodeId u = 0; !any_difference && u < ga.node_count(); ++u)
    any_difference = ga.degree(u) != gc.degree(u);
  EXPECT_TRUE(any_difference);
}

TEST(Scenario, DiskPlacementIsDeterministicInSeed) {
  const auto a =
      Scenario::parse("disk:48:0.3:2.0", "none", 0, 1, 21, "sinr:2:0.001:1");
  const auto b =
      Scenario::parse("disk:48:0.3:2.0", "none", 0, 1, 21, "sinr:2:0.001:1");
  graph::Geometry geo_a, geo_b;
  const auto ga = a.build_graph(&geo_a);
  const auto gb = b.build_graph(&geo_b);
  EXPECT_EQ(geo_a, geo_b);
  EXPECT_EQ(ga.edge_count(), gb.edge_count());
  for (graph::NodeId u = 0; u < ga.node_count(); ++u)
    ASSERT_EQ(ga.degree(u), gb.degree(u)) << u;
  EXPECT_EQ(geo_a.node_count(), 48);
  EXPECT_DOUBLE_EQ(geo_a.power.at(0), 2.0);  // disk:n:radius:power

  // Requesting geometry must not perturb the rng draws or the graph.
  const auto g_plain = a.build_graph();
  EXPECT_EQ(g_plain.edge_count(), ga.edge_count());
  for (graph::NodeId u = 0; u < ga.node_count(); ++u)
    ASSERT_EQ(g_plain.degree(u), ga.degree(u)) << u;

  // Replaying topology_rng() through TopologySpec::build reproduces the
  // identical placement -- the contract protocol factories rely on.
  Rng replay = a.topology_rng();
  graph::Geometry geo_replay;
  const auto g_replay = a.topology.build(replay, &geo_replay);
  EXPECT_EQ(geo_replay, geo_a);
  EXPECT_EQ(g_replay.edge_count(), ga.edge_count());

  // A different seed almost surely moves the nodes.
  const auto c =
      Scenario::parse("disk:48:0.3:2.0", "none", 0, 1, 22, "sinr:2:0.001:1");
  graph::Geometry geo_c;
  (void)c.build_graph(&geo_c);
  EXPECT_NE(geo_c, geo_a);
}

TEST(Scenario, DescribeMentionsTheParts) {
  const auto sc = Scenario::parse("path:8", "receiver:0.5", 0, 2, 9);
  const auto text = sc.describe();
  EXPECT_NE(text.find("path:8"), std::string::npos);
  EXPECT_NE(text.find("receiver"), std::string::npos);
  EXPECT_NE(text.find("k=2"), std::string::npos);
  EXPECT_NE(text.find("seed=9"), std::string::npos);
  const auto sinr =
      Scenario::parse("disk:16:0.4", "none", 0, 1, 3, "sinr:2:0.001:1");
  EXPECT_NE(sinr.describe().find("sinr"), std::string::npos);
}

}  // namespace
}  // namespace nrn::sim
