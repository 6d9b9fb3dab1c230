// Shared vocabulary for the registry's theory-bound formulas.
//
// Every TheoryBound in protocols.cpp and schedule_protocols.cpp is built
// from these few terms; keeping them in one header means a change to a
// floor or a loss model cannot silently diverge between the builtin and
// schedule-level protocol bounds (which would skew the emitters'
// gap-vs-theory columns for half the registry).
#pragma once

#include <algorithm>
#include <cmath>

#include "sim/registry.hpp"

namespace nrn::sim::bounds {

inline double log2n(const TheoryContext& ctx) {
  return std::log2(std::max<double>(2.0, static_cast<double>(ctx.nodes)));
}

inline double loglog2n(const TheoryContext& ctx) {
  return std::log2(std::max(2.0, log2n(ctx)));
}

/// 1/(1-p) loss inflation; every noisy bound pays it.
inline double loss_factor(const TheoryContext& ctx) {
  return 1.0 / (1.0 - ctx.scenario.channel.effective_loss());
}

/// The paper's D: the source's BFS eccentricity, floored at 1.
inline double depth(const TheoryContext& ctx) {
  return static_cast<double>(std::max<std::int64_t>(1, ctx.depth));
}

/// The message count k as a double.
inline double kd(const TheoryContext& ctx) {
  return static_cast<double>(ctx.scenario.k);
}

}  // namespace nrn::sim::bounds
