// Locale-independent text round-trips for real numbers, and the JSON
// string escaper every JSON writer shares.
//
// Every persistent format in the repo (experiment records, shard files, the
// result cache, CSV/JSON emitters) depends on exact textual round-trips of
// doubles.  The C library's printf/strtod honor the *process locale's*
// decimal point, so a program running under e.g. de_DE.UTF-8 would emit
// "0x1,8p+1" and fail to parse "0x1.8p+1" -- a writer and a reader in
// different locales silently disagree and every bit-identical guarantee
// breaks.  These helpers pin LC_NUMERIC to the "C" locale per call (via a
// cached locale_t and uselocale, which is thread-local), so formatted and
// parsed reals are byte-identical regardless of the process locale.
//
// parse_real is also the library's one strict double parser: it reports
// *why* an input was rejected (empty / malformed / trailing garbage /
// overflow) instead of a bare failure, and it accepts gradual underflow --
// strtod flags subnormals with ERANGE too, but the denormal it returns is
// the closest representable value, so rejecting it would break round-trips
// of legitimately tiny serialized values.
#pragma once

#include <string>
#include <string_view>

namespace nrn {

enum class ParseRealStatus {
  kOk,
  kEmpty,            ///< empty input
  kMalformed,        ///< no leading number at all
  kTrailingGarbage,  ///< a number followed by extra characters
  kOutOfRange,       ///< overflow (magnitude exceeds the double range)
};

struct ParseRealResult {
  double value = 0.0;
  ParseRealStatus status = ParseRealStatus::kMalformed;

  bool ok() const { return status == ParseRealStatus::kOk; }
};

/// Strict C-locale parse of `text` as a double.  The whole string must be
/// one number (decimal, hexfloat, inf, or nan); underflow to a subnormal or
/// zero is accepted, overflow is kOutOfRange.  Callers that need finiteness
/// must check the value themselves.
ParseRealResult parse_real(std::string_view text);

/// Short human phrase for a rejection, e.g. "is not a number" or
/// "is out of range" -- the tail of a structured error message.
const char* parse_real_error(ParseRealStatus status);

/// C-locale "%a": the exact hexfloat rendering used by the record formats.
/// Round-trips bit-identically through parse_real for every double,
/// including subnormals, +-inf, and nan.
std::string format_real_hex(double value);

/// C-locale "%.<digits>g" (significant digits); emitters use 17
/// (max_digits10) where JSON values must survive a conforming parser.
std::string format_real(double value, int digits);

/// C-locale "%.<digits>f" (fixed decimals); the table/CSV cell formatter.
std::string format_real_fixed(double value, int digits);

/// JSON string escaping per RFC 8259: quotes, backslashes, and every
/// control character (as \uXXXX or the short forms).  The one escaper of
/// the JSON emitters and the serve wire protocol.
std::string json_escape(std::string_view text);

}  // namespace nrn
