#include "core/wave_schedule.hpp"

#include <algorithm>

#include "common/int_math.hpp"

namespace nrn::core {

std::int32_t default_rank_modulus(std::int32_t node_count) {
  return ceil_log2(node_count);
}

std::int32_t default_block_size(std::int32_t node_count) {
  return std::max<std::int32_t>(
      2, 2 * default_rank_modulus(std::max<std::int32_t>(
                 2, default_rank_modulus(node_count))));
}

namespace {

/// The positive representative of x mod m.
std::int64_t residue(std::int64_t x, std::int64_t m) {
  return (x % m + m) % m;
}

}  // namespace

template <typename SlotOf>
void WaveSchedule::bucket(const trees::RankedBfsTree& tree,
                          std::int64_t slot_count, SlotOf slot_of) {
  // Counting sort by slot: one pass to size the slots, one to fill them in
  // ascending id order.
  offsets_.assign(static_cast<std::size_t>(slot_count) + 1, 0);
  const auto n = static_cast<std::size_t>(tree.node_count());
  for (std::size_t u = 0; u < n; ++u)
    if (tree.fast_child[u] >= 0)
      ++offsets_[static_cast<std::size_t>(slot_of(u)) + 1];
  for (std::size_t s = 1; s < offsets_.size(); ++s)
    offsets_[s] += offsets_[s - 1];
  nodes_.resize(static_cast<std::size_t>(offsets_.back()));
  std::vector<std::int32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t u = 0; u < n; ++u)
    if (tree.fast_child[u] >= 0)
      nodes_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(slot_of(u))]++)] =
          static_cast<trees::NodeId>(u);
}

WaveSchedule WaveSchedule::fastbc(const trees::RankedBfsTree& tree,
                                  std::int32_t rank_modulus) {
  NRN_EXPECTS(rank_modulus >= 1, "rank modulus must be positive");
  WaveSchedule schedule(6LL * rank_modulus, 0);
  schedule.bucket(tree, schedule.period_, [&](std::size_t u) {
    return residue(tree.level[u] - 6LL * tree.rank[u], schedule.period_);
  });
  return schedule;
}

WaveSchedule WaveSchedule::robust(const trees::RankedBfsTree& tree,
                                  std::int32_t rank_modulus,
                                  std::int32_t block_size,
                                  std::int32_t window_multiplier) {
  NRN_EXPECTS(rank_modulus >= 1 && block_size >= 1 && window_multiplier >= 1,
              "Robust FASTBC schedule parameters must be positive");
  WaveSchedule schedule(6LL * rank_modulus,
                        static_cast<std::int64_t>(window_multiplier) *
                            block_size);
  schedule.bucket(tree, 3 * schedule.period_, [&](std::size_t u) {
    const std::int32_t l = tree.level[u];
    const std::int64_t band =
        residue(l / block_size - 6LL * tree.rank[u] + 6, schedule.period_);
    return band * 3 + l % 3;
  });
  return schedule;
}

namespace {

class WaveStepper final : public InformedSetStepper {
 public:
  WaveStepper(const WaveSchedule& schedule, std::int32_t node_count,
              radio::NodeId source, std::int32_t decay_phase,
              std::int64_t budget, radio::TraceRecorder* trace)
      : InformedSetStepper(node_count, source, budget, trace),
        schedule_(&schedule),
        decay_phase_(decay_phase) {
    eligible_.reserve(static_cast<std::size_t>(node_count));
  }

  bool stage_round(radio::StagingPort& port, Rng& rng) override {
    if (!another_round()) return false;
    const std::int64_t round = round_;
    if (round % 2 == 1) {
      // Slow round 2t+1: Decay step over informed nodes.
      const auto t = (round - 1) / 2;
      const auto sub = static_cast<std::int32_t>(t % decay_phase_);
      port.stage_bernoulli_pow2(informed_list_, sub, rng);
    } else {
      // Fast round 2t: the scheduled wave step.
      eligible_.clear();
      for (const radio::NodeId u : schedule_->fast_round(round / 2))
        if (informed_[static_cast<std::size_t>(u)]) eligible_.push_back(u);
      port.stage_many(eligible_);
    }
    return true;
  }

 private:
  const WaveSchedule* schedule_;
  std::int32_t decay_phase_;
  std::vector<radio::NodeId> eligible_;
};

}  // namespace

std::unique_ptr<RoundStepper> make_wave_stepper(const WaveSchedule& schedule,
                                                std::int32_t node_count,
                                                trees::NodeId source,
                                                std::int32_t decay_phase,
                                                std::int64_t budget,
                                                radio::TraceRecorder* trace) {
  return std::make_unique<WaveStepper>(schedule, node_count, source,
                                       decay_phase, budget, trace);
}

}  // namespace nrn::core
