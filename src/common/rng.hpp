// Deterministic, fast pseudo-random number generation.
//
// All randomness in the library flows through nrn::Rng, which wraps
// xoshiro256++ seeded via splitmix64.  Every experiment records its seed, so
// any table in the paper reproduction can be regenerated bit-for-bit.
//
// The interface mirrors the parts of <random> the simulator needs, but with
// a fixed, documented algorithm: libstdc++ / libc++ distributions are not
// reproducible across standard libraries, and reproducibility is a core
// requirement here.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace nrn {

/// splitmix64 step; used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ generator.  Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit words of state from `seed` via splitmix64.
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
    // xoshiro256++ requires a not-all-zero state; splitmix64 of any seed
    // yields that with overwhelming probability, but guard regardless.
    if ((state_[0] | state_[1] | state_[2] | state_[3]) == 0) state_[0] = 1;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    NRN_EXPECTS(bound > 0, "next_below requires a positive bound");
    if (bound == 1) return 0;
    // Power-of-two mask rejection: exact and branch-cheap (expected < 2
    // draws per call).
    std::uint64_t mask = bound - 1;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    mask |= mask >> 32;
    while (true) {
      const std::uint64_t x = (*this)() & mask;
      if (x < bound) return x;
    }
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Sentinel for bernoulli_skip: no success within any addressable range.
  static constexpr std::uint64_t kNoSuccess = ~std::uint64_t{0};

  /// Fixed-point coin threshold for u64 compares: a draw x succeeds iff
  /// x < coin_threshold(p), so P(success) matches p to within 2^-64.  This
  /// is the canonical coin the v3 fault tape is defined in terms of.
  static std::uint64_t coin_threshold(double p) {
    if (p <= 0.0) return 0;
    const double scaled = std::ldexp(p, 64);
    return scaled >= 0x1.0p64 ? kNoSuccess : static_cast<std::uint64_t>(scaled);
  }

  /// Stateless counter-based draw: mixes (salt, index) into a uniform u64
  /// with the splitmix64 finalizer.  Distinct indices under one salt give
  /// independent-quality coins in ANY evaluation order -- the engine's
  /// fault coins use this so parallel-friendly kernels need not agree on a
  /// draw sequence, only on the per-round salt.
  static std::uint64_t mix64(std::uint64_t salt, std::uint64_t index) {
    std::uint64_t s = salt + 0x9e3779b97f4a7c15ULL * index;
    return splitmix64(s);
  }

  /// Natural batch width for the coin mixers below: large enough that the
  /// loop bodies auto-vectorize (AVX2 fits four u64 lanes, NEON two; eight
  /// gives every ISA at least two full vectors), small enough for stack
  /// scratch.
  static constexpr std::size_t kCoinBatch = 8;

  /// Batched mix64 over gathered indices: out[j] = mix64(salt, index[j])
  /// for j in [0, count).  The body is a pure elementwise map with no
  /// loads/stores aliasing (distinct arrays required), so compilers
  /// vectorize it; results are bit-identical to the scalar mixer on every
  /// platform -- the batch API changes cost, never the tape.
  static void mix64_batch(std::uint64_t salt, const std::uint64_t* index,
                          std::uint64_t* out, std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      // Inlined mix64: state increment folded into the multiply so the
      // whole finalizer is straight-line arithmetic on the lane.
      std::uint64_t z = salt + 0x9e3779b97f4a7c15ULL * (index[j] + 1);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      out[j] = z ^ (z >> 31);
    }
  }

  /// Batched mix64 over gathered 32-bit indices (node ids are 32-bit):
  /// out[j] = mix64(salt, index[j]).  The widening load folds into the
  /// vectorized map, so callers need not materialize a u64 copy of an id
  /// array just to price its coins.
  static void mix64_batch(std::uint64_t salt, const std::int32_t* index,
                          std::uint64_t* out, std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      std::uint64_t z =
          salt + 0x9e3779b97f4a7c15ULL *
                     (static_cast<std::uint64_t>(index[j]) + 1);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      out[j] = z ^ (z >> 31);
    }
  }

  /// Batched mix64 over the consecutive index range [first, first + count):
  /// out[j] = mix64(salt, first + j).  Same vectorization and exactness
  /// guarantees as the gathered variant, without materializing an index
  /// array.
  static void mix64_batch(std::uint64_t salt, std::uint64_t first,
                          std::uint64_t* out, std::size_t count) {
    for (std::size_t j = 0; j < count; ++j) {
      std::uint64_t z = salt + 0x9e3779b97f4a7c15ULL * (first + j + 1);
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      out[j] = z ^ (z >> 31);
    }
  }

  /// Batched threshold coins over the consecutive index range
  /// [first, first + count), count <= 64: bit j of the result is set iff
  /// mix64(salt, first + j) < threshold.  One call prices up to 64 coins
  /// with vectorized mixing and a branch-free mask reduction.
  static std::uint64_t coin_threshold_batch(std::uint64_t salt,
                                            std::uint64_t first,
                                            std::size_t count,
                                            std::uint64_t threshold) {
    NRN_EXPECTS(count <= 64, "coin_threshold_batch prices at most 64 coins");
    std::uint64_t successes = 0;
    for (std::size_t base = 0; base < count; base += kCoinBatch) {
      const std::size_t m = std::min(kCoinBatch, count - base);
      std::uint64_t mixed[kCoinBatch];
      mix64_batch(salt, first + base, mixed, m);
      for (std::size_t j = 0; j < m; ++j)
        successes |= static_cast<std::uint64_t>(mixed[j] < threshold)
                     << (base + j);
    }
    return successes;
  }

  /// Geometric gap sampling: the number of *failures* before the next
  /// success in an i.i.d. Bernoulli(p) sequence (support {0, 1, 2, ...}).
  /// Consumes exactly one u64 draw for p in (0, 1); consumes nothing and
  /// returns 0 for p >= 1, or kNoSuccess for p <= 0.  Lets callers skip
  /// directly to the next successful index in O(1) instead of testing one
  /// coin per candidate.
  std::uint64_t bernoulli_skip(double p) {
    if (p >= 1.0) return 0;
    if (p <= 0.0) return kNoSuccess;
    return skip_with_inverse(1.0 / std::log1p(-p));
  }

  /// bernoulli_skip specialized to the dyadic probabilities p = 2^-i the
  /// Decay-style schedules use every round: the 1/log(1-p) reciprocal is
  /// read from a table instead of recomputed.  Bit-identical to
  /// bernoulli_skip(ldexp(1.0, -i)) on the same stream.
  std::uint64_t bernoulli_skip_pow2(std::int32_t i) {
    NRN_EXPECTS(i >= 0, "dyadic exponent must be non-negative");
    if (i == 0) return 0;
    if (i >= 64) return bernoulli_skip(std::ldexp(1.0, -i));
    return skip_with_inverse(dyadic_skip_table()[static_cast<std::size_t>(i)]);
  }

  /// Success probability above which for_each_bernoulli tests one cheap
  /// u64-threshold coin per index instead of sampling geometric gaps: a
  /// gap draw costs a log(), roughly five coin flips, so it only wins
  /// when successes are sparse.
  static constexpr double kSkipSamplingCutoff = 0.125;

  /// Calls fn(index) for every index in [0, count) whose independent
  /// Bernoulli(p) coin succeeds, in increasing index order.
  ///
  /// Tape (deterministic given p): p >= 1 visits every index and draws
  /// nothing; p > kSkipSamplingCutoff draws ONE u64 salt (count > 0 only)
  /// and prices index i's coin as mix64(salt, i) < coin_threshold(p), 64
  /// coins per batched call; smaller p draws bernoulli_skip gaps, one per
  /// visited index plus at most one terminating overshoot -- O(1 + count*p)
  /// expected draws instead of count.
  template <typename Fn>
  void for_each_bernoulli(std::size_t count, double p, Fn&& fn) {
    if (p >= 1.0) {
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    if (p <= 0.0 || count == 0) return;
    if (p > kSkipSamplingCutoff) {
      const std::uint64_t threshold = coin_threshold(p);
      const std::uint64_t salt = (*this)();
      for (std::size_t base = 0; base < count; base += 64) {
        const std::size_t block = std::min<std::size_t>(64, count - base);
        std::uint64_t hits = coin_threshold_batch(salt, base, block, threshold);
        while (hits != 0) {
          fn(base + static_cast<std::size_t>(std::countr_zero(hits)));
          hits &= hits - 1;
        }
      }
      return;
    }
    std::size_t idx = 0;
    while (idx < count) {
      const std::uint64_t gap = bernoulli_skip(p);
      if (gap >= static_cast<std::uint64_t>(count - idx)) return;
      idx += static_cast<std::size_t>(gap);
      fn(idx);
      ++idx;
    }
  }

  /// for_each_bernoulli with p = 2^-i.  Above the skip-sampling cutoff
  /// (i <= 2) a dyadic coin needs only i fair bits, so one u64 draw serves
  /// 64/i indices exactly: index idx succeeds iff its i-bit chunk of the
  /// draw is all zero.  Below the cutoff, geometric gaps as in
  /// for_each_bernoulli.
  template <typename Fn>
  void for_each_bernoulli_pow2(std::size_t count, std::int32_t i, Fn&& fn) {
    NRN_EXPECTS(i >= 0, "dyadic exponent must be non-negative");
    if (i == 0) {
      for (std::size_t idx = 0; idx < count; ++idx) fn(idx);
      return;
    }
    if (i <= 2) {  // p in {1/2, 1/4}: bit-chunked coins
      const auto per_draw = static_cast<std::size_t>(64 / i);
      std::size_t idx = 0;
      while (idx < count) {
        const std::uint64_t word = (*this)();
        const std::size_t block = std::min(count - idx, per_draw);
        // Collapse the i-bit chunks into a success mask and walk only its
        // set bits.  Testing one chunk per candidate with a branch would
        // put a fair-coin branch in the inner loop -- unlearnable for the
        // predictor, so mispredicts dominate the scan.  (Chunk all-zero
        // <=> success; bit 2j of the i=2 mask speaks for candidate j.)
        std::uint64_t hits =
            i == 1 ? ~word : ~(word | (word >> 1)) & 0x5555555555555555ULL;
        if (block < per_draw)
          hits &= (std::uint64_t{1} << (block * static_cast<std::size_t>(i))) - 1;
        while (hits != 0) {
          const auto tz = static_cast<std::size_t>(std::countr_zero(hits));
          fn(idx + tz / static_cast<std::size_t>(i));
          hits &= hits - 1;
        }
        idx += block;
      }
      return;
    }
    std::size_t idx = 0;
    while (idx < count) {
      const std::uint64_t gap = bernoulli_skip_pow2(i);
      if (gap >= static_cast<std::uint64_t>(count - idx)) return;
      idx += static_cast<std::size_t>(gap);
      fn(idx);
      ++idx;
    }
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& values) {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  /// Deterministically derives an independent child stream, e.g. one per
  /// trial index, so parallel experiment legs never share a stream.
  Rng split(std::uint64_t stream_id) {
    std::uint64_t sm = (*this)() ^ (0x9e3779b97f4a7c15ULL * (stream_id + 1));
    return Rng(splitmix64(sm));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  /// Inversion of the geometric CDF: gap = floor(log(u) / log(1-p)) with
  /// u uniform in [0, 1).  The reciprocal is passed in (and, for dyadic p,
  /// cached) so the general and fast paths compute the identical value.
  std::uint64_t skip_with_inverse(double inv_log_q) {
    const double u = uniform01();
    if (u <= 0.0) return kNoSuccess;  // log(0); one draw in 2^53
    const double gap = std::log(u) * inv_log_q;
    // Cap below kNoSuccess so gap arithmetic in callers cannot wrap.
    if (!(gap < 0x1.0p62)) return kNoSuccess;
    return static_cast<std::uint64_t>(gap);
  }

  /// dyadic_skip_table()[i] = 1 / log(1 - 2^-i) for i in [1, 63].
  static const std::array<double, 64>& dyadic_skip_table() {
    static const std::array<double, 64> table = [] {
      std::array<double, 64> t{};
      for (int i = 1; i < 64; ++i)
        t[static_cast<std::size_t>(i)] = 1.0 / std::log1p(-std::ldexp(1.0, -i));
      return t;
    }();
    return table;
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace nrn
