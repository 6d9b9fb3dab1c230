// SweepPlan grammar: list/brace/range expansion, deterministic cell
// enumeration, stable scenario seeds, and loud failures for malformed
// plans.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

TEST(SpecList, PlainListsAndTrimming) {
  EXPECT_EQ(expand_spec_list("decay"), std::vector<std::string>{"decay"});
  EXPECT_EQ(expand_spec_list("decay, robust ,fastbc"),
            (std::vector<std::string>{"decay", "robust", "fastbc"}));
}

TEST(SpecList, BraceExpansionCrossProduct) {
  EXPECT_EQ(expand_spec_list("path:{8,16}"),
            (std::vector<std::string>{"path:8", "path:16"}));
  // Leftmost group varies slowest.
  EXPECT_EQ(expand_spec_list("grid:{4,8}x{4,8}"),
            (std::vector<std::string>{"grid:4x4", "grid:4x8", "grid:8x4",
                                      "grid:8x8"}));
  // Commas inside braces do not split the outer list.
  EXPECT_EQ(expand_spec_list("receiver:{0.1,0.5},none"),
            (std::vector<std::string>{"receiver:0.1", "receiver:0.5",
                                      "none"}));
}

TEST(SpecList, RangeExpansion) {
  EXPECT_EQ(expand_spec_list("4..7"),
            (std::vector<std::string>{"4", "5", "6", "7"}));
  EXPECT_EQ(expand_spec_list("0..10+5"),
            (std::vector<std::string>{"0", "5", "10"}));
  EXPECT_EQ(expand_spec_list("64..512*2"),
            (std::vector<std::string>{"64", "128", "256", "512"}));
  // Geometric ranges stop at the last value <= hi.
  EXPECT_EQ(expand_spec_list("64..100*2"), std::vector<std::string>{"64"});
  // Ranges inside braces compose with prefixes/suffixes.
  EXPECT_EQ(expand_spec_list("path:{16..64*2}"),
            (std::vector<std::string>{"path:16", "path:32", "path:64"}));
}

TEST(SpecList, NonRangesPassThrough) {
  // gnp's probability is not a range even though it has dots.
  EXPECT_EQ(expand_spec_list("gnp:50:0.2"),
            std::vector<std::string>{"gnp:50:0.2"});
  // ".." with a non-integer left side is a literal, not a broken range.
  EXPECT_EQ(expand_spec_list("path:16..64"),
            std::vector<std::string>{"path:16..64"});
}

TEST(SpecList, RejectsMalformedItems) {
  EXPECT_THROW(expand_spec_list(""), SpecError);
  EXPECT_THROW(expand_spec_list("a,,b"), SpecError);
  EXPECT_THROW(expand_spec_list("path:{8,16"), SpecError);
  EXPECT_THROW(expand_spec_list("path:8}"), SpecError);
  EXPECT_THROW(expand_spec_list("path:{8,{16}}"), SpecError);
  EXPECT_THROW(expand_spec_list("path:{}"), SpecError);
  EXPECT_THROW(expand_spec_list("7..4"), SpecError);        // lo > hi
  EXPECT_THROW(expand_spec_list("4..64*1"), SpecError);     // factor < 2
  EXPECT_THROW(expand_spec_list("4..64+0"), SpecError);     // step < 1
  EXPECT_THROW(expand_spec_list("4..64*x"), SpecError);     // junk step
  EXPECT_THROW(expand_spec_list("1..100000"), SpecError);   // over the cap
}

TEST(SweepPlan, ExpandsTheFullCrossProduct) {
  const auto plan = SweepPlan::parse(
      "sweep: topology=path:{8,16}; fault=none,receiver:0.3; "
      "protocols=decay,robust; k=1,2; trials=4; seed=9; source=0");
  EXPECT_EQ(plan.master_seed, 9u);
  EXPECT_EQ(plan.trials, 4);
  EXPECT_EQ(plan.cells.size(), 2u * 2u * 2u * 2u);
  // Enumeration order: topology, fault, k, protocol (innermost).
  EXPECT_EQ(plan.cells[0].scenario.topology.text, "path:8");
  EXPECT_EQ(plan.cells[0].scenario.fault_text, "none");
  EXPECT_EQ(plan.cells[0].scenario.k, 1);
  EXPECT_EQ(plan.cells[0].protocol, "decay");
  EXPECT_EQ(plan.cells[1].protocol, "robust");
  EXPECT_EQ(plan.cells[2].scenario.k, 2);
  EXPECT_EQ(plan.cells[4].scenario.fault_text, "receiver:0.3");
  EXPECT_EQ(plan.cells[8].scenario.topology.text, "path:16");
  for (std::size_t i = 0; i < plan.cells.size(); ++i)
    EXPECT_EQ(plan.cells[i].index, static_cast<int>(i));
}

TEST(SweepPlan, DefaultsAndOptionalPrefix) {
  const auto plan = SweepPlan::parse("topology=path:8; protocols=decay;");
  EXPECT_EQ(plan.faults, std::vector<std::string>{"none"});
  EXPECT_EQ(plan.ks, std::vector<std::int64_t>{1});
  EXPECT_EQ(plan.trials, 1);
  EXPECT_EQ(plan.master_seed, 1u);
  EXPECT_EQ(plan.cells.size(), 1u);
}

TEST(SweepPlan, ScenarioSeedsAreStableAndProtocolIndependent) {
  const auto plan = SweepPlan::parse(
      "topology=gnp:30:0.2; fault=none; protocols=decay,robust; seed=5");
  ASSERT_EQ(plan.cells.size(), 2u);
  // Protocols sharing a scenario get the same seed: same graph, same
  // fault tape, paired comparison.
  EXPECT_EQ(plan.cells[0].scenario.seed, plan.cells[1].scenario.seed);

  // Growing an axis must not perturb existing scenarios' seeds.
  const auto wider = SweepPlan::parse(
      "topology=gnp:30:0.2,path:8; fault=none,receiver:0.1; "
      "protocols=decay,robust,fastbc; seed=5");
  EXPECT_EQ(wider.cells[0].scenario.seed, plan.cells[0].scenario.seed);

  // A different master seed moves every cell seed.
  const auto reseeded = SweepPlan::parse(
      "topology=gnp:30:0.2; fault=none; protocols=decay,robust; seed=6");
  EXPECT_NE(reseeded.cells[0].scenario.seed, plan.cells[0].scenario.seed);

  // Parsing is a pure function of the text.
  const auto again = SweepPlan::parse(
      "topology=gnp:30:0.2; fault=none; protocols=decay,robust; seed=5");
  EXPECT_EQ(again.cells[0].key(), plan.cells[0].key());
}

TEST(SweepPlan, CellKeysNameEveryAxis) {
  const auto plan = SweepPlan::parse(
      "topology=path:8; fault=receiver:0.2; protocols=decay; k=3; "
      "trials=7; seed=11; source=2");
  const auto key = plan.cells.at(0).key();
  EXPECT_NE(key.find("topology=path:8"), std::string::npos);
  EXPECT_NE(key.find("fault=receiver:0.2"), std::string::npos);
  EXPECT_NE(key.find("source=2"), std::string::npos);
  EXPECT_NE(key.find("k=3"), std::string::npos);
  EXPECT_NE(key.find("protocol=decay"), std::string::npos);
  EXPECT_NE(key.find("trials=7"), std::string::npos);
  EXPECT_NE(key.find("seed="), std::string::npos);
}

TEST(SweepPlan, RejectsMalformedPlans) {
  const std::string bad[] = {
      "",
      "protocols=decay",                        // missing topology
      "topology=path:8",                        // missing protocols
      "topology=path:8; protocols=decay; topology=path:9",  // duplicate
      "topology=path:8; topologies=path:9; protocols=decay",  // alias dup
      "topology=path:8; protocols=decay; speed=3",  // unknown clause
      "topology=path:8; protocols=decay; trials=0",
      "topology=path:8; protocols=decay; trials=abc",
      "topology=path:8; protocols=decay; k=0",
      "topology=path:8; protocols=decay; seed=-1",
      "topology=path:8; protocols=decay; source=-1",
      "topology=mesh:8; protocols=decay",       // bad topology spec
      "topology=wct:32; protocols=decay",       // below the wct minimum
      "topology=path:8; protocols=decay; fault=sender:1.5",
      "topology=path:8; protocols=decay; fault",  // not key=value
      "topology=path:8; protocols=decay; k=",     // empty value
      "topology=path:{1..4096},grid:{1..100}x{1..100}; protocols=decay",
      "topology=path:8;\nprotocols=decay",      // plans are one line
  };
  for (const auto& plan : bad)
    EXPECT_THROW(SweepPlan::parse(plan), SpecError) << "'" << plan << "'";
}

TEST(Fnv1a64, MatchesKnownVectors) {
  // Reference values of the FNV-1a 64-bit test vectors; the hash feeds
  // seeds, cache file names, and checksums, so it must never drift.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace nrn::sim
