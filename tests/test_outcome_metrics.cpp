// Protocol v2 Outcome metrics: exact MetricValue round trips, the
// informed-sentinel fix (absent, never -1), per-experiment aggregation
// (mean/min/max), capability exposure through registry and reports,
// verified-payload runs (with pinned records of the coded ones),
// theory-bound gap columns, and the shard-invariance property extended to
// metric columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "sim_test_util.hpp"

namespace nrn::sim {
namespace {

using testutil::sweep_csv_of;
using testutil::sweep_json_of;

TEST(MetricValue, SerializationRoundTripsExactly) {
  const MetricValue ints[] = {std::int64_t{0}, std::int64_t{-7},
                              std::int64_t{1} << 62};
  for (const auto& v : ints) {
    const auto back = MetricValue::parse(v.serialize());
    ASSERT_TRUE(back.has_value()) << v.serialize();
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(back->is_int());
  }
  // Reals round-trip bit-exactly through the hexfloat form, including
  // values that decimal printing would round.
  const MetricValue reals[] = {0.1, -3.25, 1.0 / 3.0, 6.02e23};
  for (const auto& v : reals) {
    const auto back = MetricValue::parse(v.serialize());
    ASSERT_TRUE(back.has_value()) << v.serialize();
    EXPECT_EQ(*back, v);
    EXPECT_FALSE(back->is_int());
  }
  EXPECT_FALSE(MetricValue::parse("").has_value());
  EXPECT_FALSE(MetricValue::parse("x1").has_value());
  EXPECT_FALSE(MetricValue::parse("i12junk").has_value());
  EXPECT_FALSE(MetricValue::parse("rnope").has_value());
  // Overflowing numerals are malformed, not clamped.
  EXPECT_FALSE(MetricValue::parse("i99999999999999999999999").has_value());
  EXPECT_FALSE(MetricValue::parse("r1e99999").has_value());
}

TEST(MetricValue, KeysAreValidated) {
  EXPECT_TRUE(valid_metric_key("verified_bytes"));
  EXPECT_TRUE(valid_metric_key("rounds"));
  EXPECT_FALSE(valid_metric_key(""));
  EXPECT_FALSE(valid_metric_key("has space"));
  EXPECT_FALSE(valid_metric_key("Upper"));
  EXPECT_FALSE(valid_metric_key("key=value"));
  Outcome out;
  EXPECT_THROW(out.set("bad key", 1), ContractViolation);
}

TEST(Outcome, MultiMessageRunsOmitInformedInsteadOfSentinel) {
  core::MultiRunResult multi;
  multi.completed = true;
  multi.rounds = 10;
  multi.messages = 4;
  const Outcome out = Outcome::from(multi);
  EXPECT_EQ(out.find("informed"), nullptr);  // absent, not -1
  EXPECT_EQ(out.rounds(), 10);
  EXPECT_EQ(out.messages(), 4);
  EXPECT_DOUBLE_EQ(out.rounds_per_message(), 2.5);

  core::BroadcastRunResult single;
  single.completed = true;
  single.rounds = 7;
  single.informed = 12;
  const Outcome solo = Outcome::from(single);
  ASSERT_NE(solo.find("informed"), nullptr);
  EXPECT_EQ(solo.find("informed")->as_int(), 12);
  EXPECT_EQ(solo.messages(), 1);  // implicit for single-message runs
}

TEST(Outcome, SentinelNeverReachesEmitters) {
  // A multi-message protocol's report must not contain "-1" in the
  // informed position anywhere (v1 emitted it into CSV and JSON).
  const auto scenario = Scenario::parse("path:12", "none", 0, 3, 7);
  const auto report = Driver().run(scenario, "rlnc-decay", 2);
  EXPECT_TRUE(report.metric_values("informed").empty());
  const auto json = testutil::json_of(report);
  EXPECT_EQ(json.find("informed"), std::string::npos);
  EXPECT_EQ(json.find("-1"), std::string::npos);
}

TEST(ExperimentReport, MetricAggregationAcrossTrials) {
  const auto scenario = Scenario::parse("grid:6x6", "receiver:0.2", 0, 1, 11);
  const auto report = Driver().run(scenario, "decay", 5);

  // decay reports informed for every trial; the grid completes, so every
  // trial informs all 36 nodes.
  const auto keys = report.metric_keys();
  EXPECT_NE(std::find(keys.begin(), keys.end(), "informed"), keys.end());
  EXPECT_NE(std::find(keys.begin(), keys.end(), "rounds"), keys.end());

  const auto informed = report.metric_summary("informed");
  EXPECT_EQ(informed.count, 5);
  EXPECT_DOUBLE_EQ(informed.mean, 36.0);
  EXPECT_DOUBLE_EQ(informed.min, 36.0);
  EXPECT_DOUBLE_EQ(informed.max, 36.0);

  // rounds varies across trials: mean lies within [min, max] and matches
  // the report's own mean_rounds.
  const auto rounds = report.metric_summary("rounds");
  EXPECT_EQ(rounds.count, 5);
  EXPECT_LE(rounds.min, rounds.mean);
  EXPECT_LE(rounds.mean, rounds.max);
  EXPECT_DOUBLE_EQ(rounds.mean, report.mean_rounds());

  // An unknown key aggregates to the empty summary.
  EXPECT_EQ(report.metric_summary("nope").count, 0);
}

TEST(Registry, CapabilitiesAreExposedPerProtocol) {
  const auto& registry = extended_registry();
  EXPECT_EQ(registry.capabilities("decay"), kTraced | kSinrCapable);
  EXPECT_EQ(registry.capabilities("rlnc-decay"),
            kMultiMessage | kSinrCapable);
  EXPECT_EQ(registry.capabilities("erasure-decay"),
            kMultiMessage | kVerifiedPayload | kSinrCapable);
  EXPECT_EQ(registry.capabilities("star-coding"),
            kMultiMessage | kScheduleGap);
  EXPECT_TRUE(registry.has_capability("rlnc-robust-verified",
                                      kVerifiedPayload));
  EXPECT_FALSE(registry.has_capability("greedy", kVerifiedPayload));
  EXPECT_THROW(registry.capabilities("nope"), SpecError);

  EXPECT_EQ(capability_names(0), "-");
  EXPECT_EQ(capability_names(kMultiMessage | kScheduleGap),
            "multi-message+schedule-gap");
  EXPECT_EQ(capability_names(kTraced | kSinrCapable), "traced+sinr-capable");
  // The schedule protocols stay edge-fault only: their gap accounting has
  // no SINR analogue.
  EXPECT_FALSE(registry.has_capability("star-coding", kSinrCapable));
}

TEST(Driver, ReportsCarryCapabilitiesDepthAndTheoryBound) {
  const auto scenario = Scenario::parse("path:16", "receiver:0.2", 0, 1, 3);
  const auto report = Driver().run(scenario, "decay", 2);
  EXPECT_EQ(report.capabilities, kTraced | kSinrCapable);
  EXPECT_EQ(report.depth, 15);  // path eccentricity from node 0
  ASSERT_TRUE(report.has_theory_bound());
  // Lemma 9 form: (D + log2 n) (log2 n) / (1 - p).
  EXPECT_NEAR(report.theory_bound, (15.0 + 4.0) * 4.0 / 0.8, 1e-9);
  EXPECT_GT(report.gap(), 0.0);
  EXPECT_NEAR(report.gap(), report.median_rounds() / report.theory_bound,
              1e-12);
}

TEST(Driver, VerifiedPayloadProtocolsCertifyBytes) {
  const auto scenario = Scenario::parse("path:10", "receiver:0.2", 0, 4, 9);
  for (const char* protocol :
       {"rlnc-decay-verified", "rlnc-robust-verified", "erasure-decay"}) {
    SCOPED_TRACE(protocol);
    const auto report = Driver().run(scenario, protocol, 2);
    EXPECT_TRUE(report.all_completed());
    EXPECT_NE(report.capabilities & kVerifiedPayload, 0u);
    for (const auto& trial : report.trials) {
      const MetricValue* bytes = trial.run.find("verified_bytes");
      ASSERT_NE(bytes, nullptr);
      // 10 nodes x 4 messages x 16 default payload bytes.
      EXPECT_EQ(bytes->as_int(), 10 * 4 * 16);
    }
    // payload_len tuning changes the certified volume.
    DriverOptions options;
    options.tuning.payload_len = 8;
    const auto tuned = Driver().run(scenario, protocol, 1, options);
    EXPECT_TRUE(tuned.all_completed());
    EXPECT_EQ(tuned.trials.front().run.find("verified_bytes")->as_int(),
              10 * 4 * 8);
  }

  // The records of the two protocols that run GF(2^8) arithmetic (RS for
  // erasure-decay, RLNC for rlnc-decay-verified), pinned from the separate
  // GF(2^8)/GF(2^16) codecs that coding::BinaryField replaced.
  const std::pair<Scenario, const char*> pinned[] = {
      {Scenario::parse("gnp:48:0.15", "receiver:0.2", 0, 8, 5),
       "erasure-decay"},
      {Scenario::parse("grid:5x6", "sender:0.1", 0, 4, 9),
       "rlnc-decay-verified"},
  };
  const std::uint64_t expected[] = {0xff64f86fadc73abeULL,
                                    0x5bb178fb54c2f24dULL};
  for (std::size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(pinned[i].second);
    const auto report = Driver().run(pinned[i].first, pinned[i].second, 3);
    EXPECT_TRUE(report.all_completed());
    EXPECT_EQ(fnv1a64(experiment_record(report)), expected[i]);
  }
}

TEST(Driver, ScheduleGapProtocolsEmitObservables) {
  const auto scenario =
      Scenario::parse("wct:16:2:6:2", "receiver:0.3", 0, 4, 21);
  const Driver driver(extended_registry());
  const auto probe = driver.run(scenario, "wct-unique-probe", 3);
  EXPECT_TRUE(probe.all_completed());
  const auto fraction = probe.metric_summary("unique_fraction");
  EXPECT_EQ(fraction.count, 3);
  EXPECT_GT(fraction.mean, 0.0);
  EXPECT_LE(fraction.max, 1.0);
  const auto scaled = probe.metric_summary("unique_fraction_x_classes");
  EXPECT_NEAR(scaled.mean, fraction.mean * 2.0, 1e-12);

  const auto coding = driver.run(scenario, "wct-coding", 2);
  EXPECT_TRUE(coding.all_completed());
  EXPECT_NE(coding.capabilities & kScheduleGap, 0u);
  EXPECT_TRUE(coding.has_theory_bound());
}

TEST(SweepRunner, ShardInvarianceCoversMetricColumns) {
  // A plan whose protocols emit heterogeneous metrics (informed,
  // verified_bytes, unique observables): the sharded merge must reproduce
  // the serial emitters byte for byte, metric columns included.
  const std::string plan_text =
      "topology=path:10; fault=receiver:0.2; k=4; "
      "protocols=decay,rlnc-decay,erasure-decay,rlnc-decay-verified; "
      "trials=2; seed=31";
  const auto plan = SweepPlan::parse(plan_text);
  const SweepRunner runner(extended_registry());
  const auto serial = runner.run(plan);
  ASSERT_TRUE(serial.complete());

  const auto csv = sweep_csv_of(serial);
  EXPECT_NE(csv.find("theory_bound,gap"), std::string::npos);
  EXPECT_NE(csv.find("mean_informed"), std::string::npos);
  EXPECT_NE(csv.find("mean_verified_bytes"), std::string::npos);

  std::vector<SweepReport> shards;
  for (int shard = 0; shard < 3; ++shard) {
    SweepOptions options;
    options.shard_index = shard;
    options.shard_count = 3;
    shards.push_back(runner.run(plan, options));
  }
  const auto merged = merge_sweep_reports(shards);
  EXPECT_EQ(merged, serial);
  EXPECT_EQ(sweep_csv_of(merged), csv);
  EXPECT_EQ(sweep_json_of(merged), sweep_json_of(serial));
  EXPECT_EQ(testutil::shard_bytes(merged), testutil::shard_bytes(serial));

  // And the record round trip preserves every metric exactly.
  for (const auto& cell : serial.cells)
    EXPECT_EQ(parse_experiment_record(experiment_record(cell.experiment)),
              cell.experiment);
}

TEST(SweepRunner, MetricsSurviveTheResultCache) {
  const std::string dir =
      (std::string(::testing::TempDir()) + "/nrn_metric_cache");
  std::filesystem::remove_all(dir);
  const auto plan = SweepPlan::parse(
      "topology=path:8; fault=receiver:0.2; k=3; "
      "protocols=erasure-decay; trials=2; seed=13");
  const SweepRunner runner(extended_registry());
  SweepOptions options;
  options.cache_dir = dir;
  const auto cold = runner.run(plan, options);
  const auto warm = runner.run(plan, options);
  EXPECT_EQ(warm.cache_hits(), 1);
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(sweep_csv_of(warm), sweep_csv_of(cold));
  ASSERT_FALSE(warm.cells.empty());
  EXPECT_NE(warm.cells.front().experiment.trials.front().run.find(
                "verified_bytes"),
            nullptr);
}

}  // namespace
}  // namespace nrn::sim
