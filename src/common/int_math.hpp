// Integer helpers shared by the protocols' default parameters.
#pragma once

#include <cstdint>

namespace nrn {

/// ceil(log2 n), at least 1.  The one source of Decay's phase length and
/// budget, the FASTBC rank modulus and the erasure scheme's log(nk) slack.
constexpr std::int32_t ceil_log2(std::int64_t n) {
  std::int32_t bits = 1;
  while ((std::int64_t{1} << bits) < n) ++bits;
  return bits;
}

}  // namespace nrn
