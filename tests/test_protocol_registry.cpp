// ProtocolRegistry: the registry holds every built-in protocol, builds
// each of them, and rejects unknown names; every registered protocol's
// records are pinned on one small cell.  The nrn_sim_protocols_golden
// CTest target pins the full listing: names, capabilities, bounds and
// descriptions.
#include "sim/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

using testutil::builtin_names;
using testutil::ScenarioFixture;

TEST(ProtocolRegistry, GlobalEnumeratesEveryBuiltin) {
  const auto names = extended_registry().names();
  for (const auto& name : builtin_names())
    EXPECT_TRUE(extended_registry().contains(name)) << name;
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ProtocolRegistry, EveryBuiltinConstructsAndIsDescribed) {
  const ScenarioFixture fixture("path:16", "receiver:0.2", 0, 2, 5);
  const ProtocolContext ctx = fixture.context();
  for (const auto& name : builtin_names()) {
    SCOPED_TRACE(name);
    const auto protocol = extended_registry().create(name, ctx);
    ASSERT_NE(protocol, nullptr);
    EXPECT_FALSE(extended_registry().description(name).empty());
  }
}

TEST(ProtocolRegistry, UnknownNameThrowsListingKnownOnes) {
  const ScenarioFixture fixture("path:8");
  const ProtocolContext ctx = fixture.context();
  try {
    extended_registry().create("flooding", ctx);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("flooding"), std::string::npos);
    EXPECT_NE(what.find("decay"), std::string::npos);
  }
  EXPECT_FALSE(extended_registry().contains("flooding"));
  EXPECT_THROW(extended_registry().description("flooding"), SpecError);
}

TEST(ProtocolRegistry, CustomRegistrationAndOverride) {
  ProtocolRegistry registry = extended_registry();
  EXPECT_EQ(registry.names(), extended_registry().names());

  // A custom variant: decay under a different name, in the copy only.
  registry.add("my-decay", "ablation variant",
               [](const ProtocolContext& ctx) {
                 return extended_registry().create("decay", ctx);
               });
  EXPECT_TRUE(registry.contains("my-decay"));
  EXPECT_FALSE(extended_registry().contains("my-decay"));
  EXPECT_EQ(registry.names().size(), extended_registry().names().size() + 1);

  const ScenarioFixture fixture("path:12", "none", 0, 1, 3);
  const ProtocolContext ctx = fixture.context();
  const auto protocol = registry.create("my-decay", ctx);
  radio::RadioNetwork net(fixture.graph, fixture.scenario.channel, Rng(1));
  Rng rng(2);
  const auto report = protocol->run(net, rng);
  EXPECT_TRUE(report.completed);
}

TEST(ProtocolRegistry, TuningReachesTheProtocol) {
  // An absurdly small round budget must be honored by the adapters.
  Tuning tuning;
  tuning.max_rounds = 5;
  const ScenarioFixture fixture("path:128", "none", 0, 1, 4, tuning);
  const ProtocolContext ctx = fixture.context();
  const auto protocol = extended_registry().create("decay", ctx);
  radio::RadioNetwork net(fixture.graph, fixture.scenario.channel, Rng(1));
  Rng rng(2);
  const auto report = protocol->run(net, rng);
  EXPECT_FALSE(report.completed);
  EXPECT_EQ(report.rounds(), 5);
}

TEST(ProtocolRegistry, EveryProtocolsRecordsMatchPinnedHashes) {
  // FNV-1a of experiment_record for one small seed-11 cell per name in
  // extended_registry(), pinned from a library built while the engine
  // still carried payload bytes.  The cells span the four fault models and
  // the SINR channel.  The faultless link and star repetition cells pin
  // the one-repetition branch of their formulas.  The last four pins,
  // computed from a library whose staged broadcasts still carried packet
  // ids, cover readers of what was sent on edge-fault cells where several
  // senders broadcast different data in one round: the routing transform's
  // first pin is on star:8 (only the hub broadcasts) and the pipeline's is
  // under SINR, so neither covered that case.
  // Each pin runs under kAuto and kScalar against the same hash: the
  // steppable protocols bank their multi-trial cells under auto,
  // everything else runs scalar both times.
  struct Pinned {
    const char* protocol;
    const char* topology;
    const char* fault;
    const char* channel;
    std::int64_t k;
    int trials;
    bool trace;
    std::uint64_t hash;
  };
  const char* kSinr = "sinr:2.5:0.001:1.0";
  const Pinned pinned[] = {
      {"decay", "gnp:48:0.12", "receiver:0.3", "none", 1, 6, true,
       0x09dc2392ce13d5c5ULL},
      {"erasure-decay", "grid:5x6", "combined:0.1:0.2", "none", 4, 3, false,
       0x00e5a388c97fe601ULL},
      {"fastbc", "tree:40", "sender:0.2", "none", 1, 6, true,
       0x33ebeb8c2fc7cba7ULL},
      {"greedy", "gnp:40:0.15", "receiver:0.3", "none", 4, 3, false,
       0xbc675bab0c6ec0d4ULL},
      {"link-adaptive", "link", "receiver:0.4", "none", 12, 3, false,
       0x65e5b5e994a79a76ULL},
      {"link-coding", "link", "sender:0.3", "none", 12, 3, false,
       0x378c874f6ddcb4f7ULL},
      {"link-nonadaptive", "link", "combined:0.2:0.2", "none", 12, 3, false,
       0xae0ecdb132b7f73eULL},
      {"link-nonadaptive", "link", "none", "none", 12, 3, false,
       0x1c4168e95a5c7486ULL},
      {"pipeline", "disk:48:0.3", "none", kSinr, 4, 3, false,
       0xcfcfe9ad36050c22ULL},
      {"rlnc-decay", "caterpillar:6:3", "sender:0.3", "none", 4, 3, false,
       0xacb09b69511867c5ULL},
      {"rlnc-decay-verified", "disk:40:0.35", "none", kSinr, 3, 3, false,
       0x527294d6624f850dULL},
      {"rlnc-robust", "grid:5x6", "receiver:0.3", "none", 4, 3, false,
       0xa222330e584e014eULL},
      {"rlnc-robust-verified", "gnp:40:0.15", "combined:0.1:0.2", "none", 3,
       3, false, 0xbde84cf9f564277dULL},
      {"robust", "disk:64:0.3", "none", kSinr, 1, 6, true,
       0x3c0befcf20cd63e4ULL},
      {"star-adaptive", "star:12", "receiver:0.3", "none", 4, 3, false,
       0x14f21506c0a400f5ULL},
      {"star-coding", "star:12", "combined:0.1:0.2", "none", 4, 3, false,
       0x830da0ff6d6dfc1bULL},
      {"star-nonadaptive", "star:12", "sender:0.2", "none", 4, 3, false,
       0xfb806ac39555d322ULL},
      {"star-nonadaptive", "star:12", "none", "none", 4, 3, false,
       0xa52f78738a7cd39bULL},
      {"transform-coding", "path:8", "receiver:0.2", "none", 3, 3, false,
       0xccb4137ea3a3c888ULL},
      {"transform-routing", "star:8", "sender:0.2", "none", 3, 3, false,
       0x795c8cfaab3129f7ULL},
      {"wct-coding", "wct:64", "receiver:0.2", "none", 4, 2, false,
       0xef3bb00862ab107cULL},
      {"wct-unique-probe", "wct:64", "none", "none", 1, 2, false,
       0x695c266b65d6b5f9ULL},
      // Several senders per round, each with its own data.
      {"transform-routing", "path:8", "sender:0.2", "none", 3, 3, false,
       0x68ec65d7eebbc3aaULL},
      {"pipeline", "grid:8x8", "receiver:0.3", "none", 8, 3, false,
       0x1b85da7d35546718ULL},
      {"greedy", "grid:8x8", "receiver:0.3", "none", 8, 3, false,
       0x291d873eebe4be25ULL},
      {"erasure-decay", "gnp:64:0.1", "sender:0.3", "none", 8, 3, false,
       0x0e99b771d33b2eafULL},
  };
  const ProtocolRegistry& registry = extended_registry();
  for (const auto& name : registry.names()) {
    const bool found =
        std::any_of(std::begin(pinned), std::end(pinned),
                    [&](const Pinned& p) { return name == p.protocol; });
    EXPECT_TRUE(found) << "registered protocol '" << name
                       << "' has no pinned record hash";
  }
  const Driver driver(registry);
  for (const Pinned& p : pinned) {
    const auto scenario =
        Scenario::parse(p.topology, p.fault, 0, p.k, 11, p.channel);
    for (const auto execution :
         {TrialExecution::kAuto, TrialExecution::kScalar}) {
      SCOPED_TRACE(std::string(p.protocol) + " on " + p.topology +
                   (execution == TrialExecution::kAuto ? " (auto)"
                                                       : " (scalar)"));
      DriverOptions options;
      options.trace = p.trace;
      options.execution = execution;
      const auto report = driver.run(scenario, p.protocol, p.trials, options);
      EXPECT_TRUE(report.all_completed());
      EXPECT_EQ(fnv1a64(experiment_record(report)), p.hash);
    }
  }
}

TEST(ProtocolRegistry, ScheduleProtocolsRejectANonZeroSource) {
  // Every schedule protocol broadcasts from node 0, so an in-range source 1
  // is a spec error, not a silent run from node 0.
  const std::map<std::string, std::string> topology_of = {
      {"link", "link"}, {"star", "star:8"}, {"transform", "path:8"},
      {"wct", "wct:64"}};
  int schedule_protocols = 0;
  for (const auto& name : extended_registry().names()) {
    const auto& builtins = builtin_names();
    if (std::find(builtins.begin(), builtins.end(), name) != builtins.end())
      continue;
    SCOPED_TRACE(name);
    ++schedule_protocols;
    const auto scenario = Scenario::parse(
        topology_of.at(name.substr(0, name.find('-'))), "none", 1, 2, 3);
    try {
      Driver().run(scenario, name, 1);
      FAIL() << "expected SpecError";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("needs source 0"),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(schedule_protocols, 10);
}

TEST(ProtocolRegistry, ErasureDecayRejectsMorePacketsThanGf256Holds) {
  // erasure-decay streams m = k + 4 ceil(log2 nk) + 8 coded packets, and
  // GF(2^8) has 255 evaluation points.  On the link (n = 2) m is 255 at
  // k = 211 and 256 at k = 212: the factory refuses the second scenario.
  const ScenarioFixture fits("link", "none", 0, 211);
  EXPECT_NE(extended_registry().create("erasure-decay", fits.context()),
            nullptr);
  const ScenarioFixture over("link", "none", 0, 212);
  try {
    extended_registry().create("erasure-decay", over.context());
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_STREQ(e.what(),
                 "erasure-decay: k + Chernoff slack exceeds the GF(256) "
                 "packet domain of 255 coded packets");
  }
}

TEST(ProtocolRegistry, RoutingTransformRejectsReceiverFaults) {
  // Lemma 25 is a sender-fault schedule.  Under any receiver coin its
  // factory refuses the scenario instead of running trials that never
  // complete; the coding transform (Lemma 26) runs the same scenarios.
  for (const std::string fault :
       {"receiver:0.3", "combined:0.2:0.1", "combined:0:0.3"}) {
    SCOPED_TRACE(fault);
    const auto scenario = Scenario::parse("star:8", fault, 0, 2, 7);
    try {
      Driver().run(scenario, "transform-routing", 1);
      FAIL() << "expected SpecError";
    } catch (const SpecError& e) {
      EXPECT_NE(std::string(e.what()).find("sender faults only"),
                std::string::npos)
          << e.what();
    }
    EXPECT_TRUE(Driver().run(scenario, "transform-coding", 2).all_completed());
  }
  for (const std::string fault : {"none", "sender:0.3", "combined:0.3:0"}) {
    SCOPED_TRACE(fault);
    const auto scenario = Scenario::parse("path:8", fault, 0, 2, 7);
    EXPECT_TRUE(
        Driver().run(scenario, "transform-routing", 2).all_completed());
  }
}

}  // namespace
}  // namespace nrn::sim
