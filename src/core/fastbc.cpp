#include "core/fastbc.hpp"

#include <utility>

#include "core/decay.hpp"

namespace nrn::core {

Fastbc::Fastbc(const graph::Graph& g,
               std::shared_ptr<const trees::RankedBfsTree> tree,
               FastbcParams params)
    : graph_(&g), params_(params), tree_(std::move(tree)) {
  NRN_EXPECTS(tree_ != nullptr && tree_->node_count() == g.node_count(),
              "FASTBC needs a GBST of its graph");
  rank_modulus_ = params.rank_modulus > 0
                      ? params.rank_modulus
                      : default_rank_modulus(g.node_count());
  NRN_EXPECTS(tree_->max_rank <= rank_modulus_,
              "rank modulus below the realized max rank");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
  schedule_ = WaveSchedule::fastbc(*tree_, rank_modulus_);
}

Fastbc::Fastbc(const graph::Graph& g, radio::NodeId source, FastbcParams params)
    : Fastbc(g,
             std::make_shared<const trees::RankedBfsTree>(
                 trees::build_gbst(g, source)),
             params) {}

std::unique_ptr<RoundStepper> Fastbc::make_stepper(
    double effective_loss, radio::TraceRecorder* trace) const {
  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                32.0 / (1.0 - effective_loss) *
                static_cast<double>((tree_->depth + 4 * decay_phase_ + 32)) *
                static_cast<double>(decay_phase_));
  return make_wave_stepper(schedule_, graph_->node_count(), tree_->source,
                           decay_phase_, budget, trace);
}

BroadcastRunResult Fastbc::run(radio::RadioNetwork& net, Rng& rng,
                               radio::TraceRecorder* trace) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  auto stepper = make_stepper(net.channel().effective_loss(), trace);
  return run_stepped(*stepper, net, rng);
}

}  // namespace nrn::core
