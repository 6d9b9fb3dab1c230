#include "common/numio.hpp"

#include <locale.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace nrn {

namespace {

/// The cached "C" locale handle.  newlocale is called once; the handle is
/// never freed (it lives for the process).  A null handle (allocation
/// failure at first use) falls back to the global locale -- formatting then
/// depends on it, but a process that cannot allocate a locale_t is already
/// unusable.
locale_t c_locale() {
  static const locale_t loc = ::newlocale(LC_ALL_MASK, "C", (locale_t)0);
  return loc;
}

/// RAII thread-local locale swap around a C-library call.  uselocale only
/// touches the calling thread, so concurrent trials formatting metrics
/// never interfere.
class ScopedCLocale {
 public:
  ScopedCLocale() : previous_(::uselocale(c_locale())) {}
  ~ScopedCLocale() { ::uselocale(previous_); }

  ScopedCLocale(const ScopedCLocale&) = delete;
  ScopedCLocale& operator=(const ScopedCLocale&) = delete;

 private:
  locale_t previous_;
};

std::string format_with(const char* spec, int digits, double value) {
  const ScopedCLocale scope;
  char buf[64];
  int needed = std::snprintf(buf, sizeof buf, spec, digits, value);
  if (needed < 0) return "nan";  // encoding error: cannot happen for %g/%f
  if (static_cast<std::size_t>(needed) < sizeof buf) return buf;
  // %.*f of a huge magnitude (or a large digit count) can exceed any
  // fixed buffer; reformat into a right-sized string rather than
  // silently truncating digits.
  std::string out(static_cast<std::size_t>(needed), '\0');
  needed = std::snprintf(out.data(), out.size() + 1, spec, digits, value);
  out.resize(needed > 0 ? static_cast<std::size_t>(needed) : 0);
  return out;
}

}  // namespace

ParseRealResult parse_real(std::string_view text) {
  ParseRealResult result;
  if (text.empty()) {
    result.status = ParseRealStatus::kEmpty;
    return result;
  }
  const std::string body(text);  // strtod needs NUL termination
  char* end = nullptr;
  errno = 0;
  double value;
  {
    const ScopedCLocale scope;
    value = std::strtod(body.c_str(), &end);
  }
  if (end == body.c_str()) {
    result.status = ParseRealStatus::kMalformed;
    return result;
  }
  if (end != body.c_str() + body.size()) {
    result.status = ParseRealStatus::kTrailingGarbage;
    return result;
  }
  // ERANGE covers both directions.  Overflow (+-HUGE_VAL) loses the value
  // entirely and is rejected; underflow returns the nearest subnormal or
  // zero -- the closest representable double -- and is accepted, so tiny
  // serialized hexfloats round-trip.
  if (errno == ERANGE && std::abs(value) == HUGE_VAL) {
    result.status = ParseRealStatus::kOutOfRange;
    return result;
  }
  result.value = value;
  result.status = ParseRealStatus::kOk;
  return result;
}

const char* parse_real_error(ParseRealStatus status) {
  switch (status) {
    case ParseRealStatus::kOk: return "is a valid number";
    case ParseRealStatus::kEmpty: return "is empty";
    case ParseRealStatus::kMalformed: return "is not a number";
    case ParseRealStatus::kTrailingGarbage:
      return "has trailing characters after the number";
    case ParseRealStatus::kOutOfRange: return "is out of range";
  }
  return "is invalid";
}

std::string format_real_hex(double value) {
  const ScopedCLocale scope;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", value);
  return buf;
}

std::string format_real(double value, int digits) {
  return format_with("%.*g", digits, value);
}

std::string format_real_fixed(double value, int digits) {
  return format_with("%.*f", digits, value);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 8);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace nrn
