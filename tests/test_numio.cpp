// Locale-independent numeric round-trips (common/numio).
//
// Two halves: a strict-parser edge suite (hexfloats, subnormals, infinities,
// NaN, overflow, trailing garbage, overlong digit strings), and a locale
// hostility suite that flips the process locale to a comma-decimal one and
// asserts that formatting, parsing, record serialization, and the report
// emitters all stay byte-identical to their C-locale output.  The hostile
// half skips (rather than silently passing) when the container has no
// comma-decimal locale installed; CI installs de_DE.UTF-8 so it runs there.
#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/numio.hpp"
#include "sim_test_util.hpp"

namespace nrn {
namespace {

TEST(ParseReal, AcceptsPlainDecimalAndScientific) {
  EXPECT_DOUBLE_EQ(parse_real("1.5").value, 1.5);
  EXPECT_DOUBLE_EQ(parse_real("-2.25e3").value, -2250.0);
  EXPECT_DOUBLE_EQ(parse_real("0").value, 0.0);
  EXPECT_DOUBLE_EQ(parse_real("  3.5").value, 3.5);  // strtod skips space
  EXPECT_DOUBLE_EQ(parse_real("+.5").value, 0.5);
}

TEST(ParseReal, AcceptsHexfloats) {
  EXPECT_DOUBLE_EQ(parse_real("0x1.8p+1").value, 3.0);
  EXPECT_DOUBLE_EQ(parse_real("-0x1p-2").value, -0.25);
  EXPECT_DOUBLE_EQ(parse_real("0x0p+0").value, 0.0);
}

TEST(ParseReal, AcceptsInfinitiesAndNan) {
  EXPECT_TRUE(std::isinf(parse_real("inf").value));
  EXPECT_TRUE(std::isinf(parse_real("-INF").value));
  EXPECT_LT(parse_real("-inf").value, 0.0);
  EXPECT_TRUE(std::isinf(parse_real("infinity").value));
  EXPECT_TRUE(std::isnan(parse_real("nan").value));
  EXPECT_TRUE(parse_real("nan").ok());
}

TEST(ParseReal, AcceptsSubnormalsAndSignedZero) {
  // strtod flags gradual underflow with ERANGE, but the subnormal it
  // returns is the closest representable value; rejecting it would break
  // round-trips of legitimately tiny serialized reals.
  const auto smallest = parse_real("0x1p-1074");  // smallest subnormal
  EXPECT_TRUE(smallest.ok());
  EXPECT_GT(smallest.value, 0.0);
  EXPECT_DOUBLE_EQ(smallest.value, std::numeric_limits<double>::denorm_min());
  const auto tiny = parse_real("1e-320");
  EXPECT_TRUE(tiny.ok());
  EXPECT_GT(tiny.value, 0.0);
  // Underflow all the way to zero is still the closest representable value.
  EXPECT_TRUE(parse_real("1e-5000").ok());
  EXPECT_DOUBLE_EQ(parse_real("1e-5000").value, 0.0);
  const auto negzero = parse_real("-0.0");
  EXPECT_TRUE(negzero.ok());
  EXPECT_TRUE(std::signbit(negzero.value));
}

TEST(ParseReal, RejectsOverflow) {
  EXPECT_EQ(parse_real("1e999").status, ParseRealStatus::kOutOfRange);
  EXPECT_EQ(parse_real("-1e999").status, ParseRealStatus::kOutOfRange);
  EXPECT_EQ(parse_real("0x1p+5000").status, ParseRealStatus::kOutOfRange);
  // ... but the largest finite double parses fine.
  EXPECT_TRUE(parse_real("1.7976931348623157e308").ok());
}

TEST(ParseReal, RejectsEmptyAndMalformed) {
  EXPECT_EQ(parse_real("").status, ParseRealStatus::kEmpty);
  EXPECT_EQ(parse_real("abc").status, ParseRealStatus::kMalformed);
  EXPECT_EQ(parse_real("--1").status, ParseRealStatus::kMalformed);
  EXPECT_EQ(parse_real(".").status, ParseRealStatus::kMalformed);
  EXPECT_EQ(parse_real("e5").status, ParseRealStatus::kMalformed);
  EXPECT_EQ(parse_real("0x").status, ParseRealStatus::kTrailingGarbage);
}

TEST(ParseReal, RejectsTrailingGarbage) {
  EXPECT_EQ(parse_real("1.5x").status, ParseRealStatus::kTrailingGarbage);
  EXPECT_EQ(parse_real("1.5 ").status, ParseRealStatus::kTrailingGarbage);
  EXPECT_EQ(parse_real("3,5").status, ParseRealStatus::kTrailingGarbage);
  EXPECT_EQ(parse_real("1e2e3").status, ParseRealStatus::kTrailingGarbage);
  EXPECT_EQ(parse_real("nan?").status, ParseRealStatus::kTrailingGarbage);
}

TEST(ParseReal, SurvivesOverlongDigitStrings) {
  // Thousands of digits must neither crash nor lose precision on the
  // representable prefix.
  const std::string third = "0." + std::string(5000, '3');
  const auto r = parse_real(third);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value, 1.0 / 3.0);
  const std::string padded = "1" + std::string(5000, '0') + "e-5000";
  ASSERT_TRUE(parse_real(padded).ok());
  EXPECT_DOUBLE_EQ(parse_real(padded).value, 1.0);
}

TEST(ParseReal, ErrorPhrasesAreStable) {
  EXPECT_STREQ(parse_real_error(ParseRealStatus::kOk), "is a valid number");
  EXPECT_NE(std::string(parse_real_error(ParseRealStatus::kEmpty)), "");
  EXPECT_NE(std::string(parse_real_error(ParseRealStatus::kMalformed)), "");
  EXPECT_NE(std::string(parse_real_error(ParseRealStatus::kTrailingGarbage)),
            "");
  EXPECT_NE(std::string(parse_real_error(ParseRealStatus::kOutOfRange)), "");
}

TEST(FormatReal, HexRoundTripsEveryShape) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.5,
      1.0 / 3.0,
      6.02e23,
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  for (const double v : values) {
    const auto r = parse_real(format_real_hex(v));
    ASSERT_TRUE(r.ok()) << format_real_hex(v);
    EXPECT_EQ(std::signbit(r.value), std::signbit(v)) << format_real_hex(v);
    EXPECT_EQ(r.value, v) << format_real_hex(v);
  }
  EXPECT_TRUE(std::isnan(
      parse_real(format_real_hex(std::nan(""))).value));
}

TEST(FormatReal, FixedSurvivesMagnitudesBeyondTheStackBuffer) {
  // %.6f of 1e300 needs ~308 characters; the formatter must grow, not
  // silently truncate to its stack buffer.
  const std::string wide = format_real_fixed(1e300, 6);
  ASSERT_GT(wide.size(), 300u);
  EXPECT_EQ(wide.substr(0, 2), "10");
  EXPECT_EQ(wide.substr(wide.size() - 7), ".000000");
  const auto r = parse_real(wide);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value, 1e300);

  const std::string narrow = format_real_fixed(-2.5, 3);
  EXPECT_EQ(narrow, "-2.500");
}

TEST(FormatReal, SignificantAndFixedDigits) {
  EXPECT_EQ(format_real(0.125, 17), "0.125");
  EXPECT_EQ(format_real(1.0 / 3.0, 3), "0.333");
  EXPECT_EQ(format_real_fixed(2.5, 1), "2.5");
  EXPECT_EQ(format_real_fixed(2.0, 0), "2");
  EXPECT_EQ(format_real_fixed(-0.125, 2), "-0.12");  // banker's rounding
}

// ----------------------------------------------------------------- hostile

/// Flips LC_ALL to a comma-decimal locale for one test body; restores on
/// destruction.  `available()` is false when the container has none
/// installed, in which case callers GTEST_SKIP.
class CommaLocale {
 public:
  CommaLocale() {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8"}) {
      if (std::setlocale(LC_ALL, name) != nullptr) {
        available_ = true;
        break;
      }
    }
  }
  ~CommaLocale() { std::setlocale(LC_ALL, "C"); }

  bool available() const { return available_; }

  /// True when the active locale really uses a comma decimal point (guards
  /// against aliased locales that fall back to '.').
  bool comma_decimal() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", 1.5);
    return std::string(buf) == "1,5";
  }

 private:
  bool available_ = false;
};

#define SKIP_WITHOUT_COMMA_LOCALE(loc)                                  \
  if (!(loc).available() || !(loc).comma_decimal())                     \
  GTEST_SKIP() << "no comma-decimal locale installed in this container"

TEST(LocaleHostility, FormatAndParseIgnoreProcessLocale) {
  CommaLocale locale;
  SKIP_WITHOUT_COMMA_LOCALE(locale);
  EXPECT_EQ(format_real_hex(3.0), "0x1.8p+1");
  EXPECT_EQ(format_real(0.125, 17), "0.125");
  EXPECT_EQ(format_real_fixed(2.5, 1), "2.5");
  EXPECT_DOUBLE_EQ(parse_real("1.5").value, 1.5);
  EXPECT_DOUBLE_EQ(parse_real("0x1.8p+1").value, 3.0);
  // The locale's own spelling is NOT accepted: "3,5" is a strict-parse
  // error everywhere, so a record written anywhere parses the same way.
  EXPECT_EQ(parse_real("3,5").status, ParseRealStatus::kTrailingGarbage);
}

TEST(LocaleHostility, MetricValueRoundTripIsLocaleInvariant) {
  const sim::MetricValue real(1.0 / 3.0);
  const sim::MetricValue tiny(std::numeric_limits<double>::denorm_min());
  const std::string c_real = real.serialize();
  const std::string c_tiny = tiny.serialize();

  CommaLocale locale;
  SKIP_WITHOUT_COMMA_LOCALE(locale);
  EXPECT_EQ(real.serialize(), c_real);
  EXPECT_EQ(tiny.serialize(), c_tiny);
  const auto parsed = sim::MetricValue::parse(c_real);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, real);
}

TEST(LocaleHostility, ChannelAndFaultNamesIgnoreProcessLocale) {
  // Table titles and Scenario::describe() print these names.
  const auto receiver = radio::FaultModel::receiver(0.25);
  const auto combined = radio::FaultModel::combined(0.1, 0.5);
  const auto sinr = radio::ChannelModel::sinr_channel(2.5, 0.001, 1.0);
  EXPECT_EQ(radio::to_string(receiver), "receiver-faults(p=0.250000)");
  EXPECT_EQ(radio::to_string(combined),
            "combined-faults(ps=0.100000, pr=0.500000)");
  EXPECT_EQ(radio::to_string(sinr),
            "sinr(alpha=2.500000, noise=0.001000, beta=1.000000)");

  CommaLocale locale;
  SKIP_WITHOUT_COMMA_LOCALE(locale);
  EXPECT_EQ(radio::to_string(receiver), "receiver-faults(p=0.250000)");
  EXPECT_EQ(radio::to_string(combined),
            "combined-faults(ps=0.100000, pr=0.500000)");
  EXPECT_EQ(radio::to_string(sinr),
            "sinr(alpha=2.500000, noise=0.001000, beta=1.000000)");
  EXPECT_EQ(radio::to_string(radio::ChannelModel(receiver)),
            "receiver-faults(p=0.250000)");
}

TEST(LocaleHostility, SweepRecordsAndEmittersAreByteIdentical) {
  using namespace sim;
  const auto plan = SweepPlan::parse(
      "topology=path:10,star:6; fault=receiver:0.25; protocols=decay; "
      "trials=2; seed=5; trace=1");
  const auto c_report = SweepRunner(extended_registry()).run(plan);
  const auto c_shard = testutil::shard_bytes(c_report);
  const auto c_csv = testutil::sweep_csv_of(c_report);
  const auto c_json = testutil::sweep_json_of(c_report);

  CommaLocale locale;
  SKIP_WITHOUT_COMMA_LOCALE(locale);
  // Re-run the whole pipeline (simulate, serialize, parse back, emit)
  // under the hostile locale: every byte must match the C-locale run.
  const auto de_report = SweepRunner(extended_registry()).run(plan);
  EXPECT_EQ(de_report, c_report);
  EXPECT_EQ(testutil::shard_bytes(de_report), c_shard);
  EXPECT_EQ(testutil::sweep_csv_of(de_report), c_csv);
  EXPECT_EQ(testutil::sweep_json_of(de_report), c_json);

  std::istringstream in(c_shard);
  EXPECT_EQ(read_shard_file(in), c_report);
}

}  // namespace
}  // namespace nrn
