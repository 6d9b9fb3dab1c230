#include "core/robust_fastbc.hpp"

#include <cmath>
#include <utility>

#include "core/decay.hpp"

namespace nrn::core {

namespace {

std::int32_t ceil_log2(std::int32_t n) {
  std::int32_t bits = 0;
  while ((std::int64_t{1} << bits) < n) ++bits;
  return std::max(bits, 1);
}

}  // namespace

RobustFastbc::RobustFastbc(const graph::Graph& g,
                           std::shared_ptr<const trees::RankedBfsTree> tree,
                           RobustFastbcParams params)
    : graph_(&g), params_(params), tree_(std::move(tree)) {
  NRN_EXPECTS(tree_ != nullptr && tree_->node_count() == g.node_count(),
              "Robust FASTBC needs a GBST of its graph");
  const std::int32_t log_n = ceil_log2(g.node_count());
  block_size_ =
      params.block_size > 0
          ? params.block_size
          : std::max<std::int32_t>(
                2, 2 * ceil_log2(std::max<std::int32_t>(2, log_n)));
  window_multiplier_ = params.window_multiplier > 0 ? params.window_multiplier : 8;
  rank_modulus_ = params.rank_modulus > 0 ? params.rank_modulus : log_n;
  NRN_EXPECTS(tree_->max_rank <= rank_modulus_,
              "rank modulus below the realized max rank");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
}

RobustFastbc::RobustFastbc(const graph::Graph& g, radio::NodeId source,
                           RobustFastbcParams params)
    : RobustFastbc(g,
                   std::make_shared<const trees::RankedBfsTree>(
                       trees::build_gbst(g, source)),
                   params) {}

namespace {

/// One Robust FASTBC trial's round logic: odd rounds a Decay step, even
/// rounds the band schedule with mod-3 staggering -- eligible fast nodes
/// gathered into a scratch list and bulk-staged.
class RobustFastbcStepper final : public InformedSetStepper {
 public:
  RobustFastbcStepper(const trees::RankedBfsTree& tree,
                      std::int32_t node_count, radio::NodeId source,
                      std::int32_t block_size, std::int64_t window,
                      std::int32_t rank_modulus, std::int32_t decay_phase,
                      std::int64_t budget, radio::TraceRecorder* trace)
      : InformedSetStepper(node_count, source, budget, trace),
        tree_(&tree),
        block_size_(block_size),
        window_(window),
        period_(6 * rank_modulus),
        decay_phase_(decay_phase) {
    eligible_.reserve(static_cast<std::size_t>(node_count));
  }

  bool stage_round(radio::StagingPort& port, Rng& rng) override {
    if (!another_round()) return false;
    const std::int64_t round = round_;
    if (round % 2 == 1) {
      // Slow round: Decay step over informed nodes.
      const auto t = (round - 1) / 2;
      const auto sub = static_cast<std::int32_t>(t % decay_phase_);
      port.stage_bernoulli_pow2(informed_list_, sub, radio::PacketId{0}, rng);
    } else {
      // Fast round 2t': band schedule with mod-3 staggering.
      const std::int64_t t_half = round / 2;
      const std::int64_t band = t_half / window_;  // superround index
      eligible_.clear();
      for (const radio::NodeId u : informed_list_) {
        const auto ui = static_cast<std::size_t>(u);
        if (!tree_->is_fast(u)) continue;
        const std::int32_t l = tree_->level[ui];
        const std::int32_t r = tree_->rank[ui];
        const std::int64_t block = l / block_size_;
        // The +6 aligns rank-1 block-0 with band 0, so the wave starts at
        // the source immediately instead of after a full band cycle (a
        // constant-factor cold-start optimization; asymptotics unchanged).
        const std::int64_t lhs =
            ((block - 6LL * r + 6 - band) % period_ + period_) % period_;
        if (lhs != 0) continue;
        if ((l % 3) != (t_half % 3)) continue;
        eligible_.push_back(u);
      }
      port.stage_many(eligible_, radio::PacketId{0});
    }
    return true;
  }

 private:
  const trees::RankedBfsTree* tree_;
  std::int32_t block_size_;
  std::int64_t window_;
  std::int64_t period_;
  std::int32_t decay_phase_;
  std::vector<radio::NodeId> eligible_;
};

}  // namespace

std::unique_ptr<RoundStepper> RobustFastbc::make_stepper(
    double effective_loss, radio::TraceRecorder* trace) const {
  const std::int64_t window = static_cast<std::int64_t>(window_multiplier_) *
                              block_size_;  // even rounds per band step
  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                48.0 / (1.0 - effective_loss) *
                (static_cast<double>(tree_->depth) +
                 static_cast<double>(decay_phase_) *
                     static_cast<double>(block_size_) *
                     (4.0 * decay_phase_ + 32.0)));
  return std::make_unique<RobustFastbcStepper>(
      *tree_, graph_->node_count(), tree_->source, block_size_, window,
      rank_modulus_, decay_phase_, budget, trace);
}

BroadcastRunResult RobustFastbc::run(radio::RadioNetwork& net, Rng& rng,
                                     radio::TraceRecorder* trace) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  auto stepper = make_stepper(net.channel().effective_loss(), trace);
  return run_stepped(*stepper, net, rng);
}

}  // namespace nrn::core
