#include "core/robust_fastbc.hpp"

#include <utility>

#include "core/decay.hpp"

namespace nrn::core {

RobustFastbc::RobustFastbc(const graph::Graph& g,
                           std::shared_ptr<const trees::RankedBfsTree> tree,
                           RobustFastbcParams params)
    : graph_(&g), params_(params), tree_(std::move(tree)) {
  NRN_EXPECTS(tree_ != nullptr && tree_->node_count() == g.node_count(),
              "Robust FASTBC needs a GBST of its graph");
  block_size_ = params.block_size > 0 ? params.block_size
                                      : default_block_size(g.node_count());
  window_multiplier_ = params.window_multiplier > 0 ? params.window_multiplier : 8;
  rank_modulus_ = params.rank_modulus > 0
                      ? params.rank_modulus
                      : default_rank_modulus(g.node_count());
  NRN_EXPECTS(tree_->max_rank <= rank_modulus_,
              "rank modulus below the realized max rank");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
  schedule_ = WaveSchedule::robust(*tree_, rank_modulus_, block_size_,
                                   window_multiplier_);
}

RobustFastbc::RobustFastbc(const graph::Graph& g, radio::NodeId source,
                           RobustFastbcParams params)
    : RobustFastbc(g,
                   std::make_shared<const trees::RankedBfsTree>(
                       trees::build_gbst(g, source)),
                   params) {}

std::unique_ptr<RoundStepper> RobustFastbc::make_stepper(
    double effective_loss, radio::TraceRecorder* trace) const {
  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                48.0 / (1.0 - effective_loss) *
                (static_cast<double>(tree_->depth) +
                 static_cast<double>(decay_phase_) *
                     static_cast<double>(block_size_) *
                     (4.0 * decay_phase_ + 32.0)));
  return make_wave_stepper(schedule_, graph_->node_count(), tree_->source,
                           decay_phase_, budget, trace);
}

BroadcastRunResult RobustFastbc::run(radio::RadioNetwork& net, Rng& rng,
                                     radio::TraceRecorder* trace) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  auto stepper = make_stepper(net.channel().effective_loss(), trace);
  return run_stepped(*stepper, net, rng);
}

}  // namespace nrn::core
