#include "core/multi_message.hpp"

#include <span>
#include <vector>

#include "core/decay.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

RlncBroadcast::RlncBroadcast(
    const graph::Graph& g, radio::NodeId source, MultiMessageParams params,
    const std::shared_ptr<const trees::RankedBfsTree>& tree)
    : graph_(&g), source_(source), params_(params) {
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
  if (params.pattern == MultiPattern::kRobustFastbc) {
    NRN_EXPECTS(tree != nullptr && tree->source == source,
                "the Robust FASTBC pattern needs a GBST of (graph, source)");
    wave_ = Fastbc::robust(g, tree,
                           {params.block_size, params.window_multiplier});
  }
}

RlncBroadcast::RlncBroadcast(const graph::Graph& g, radio::NodeId source,
                             MultiMessageParams params)
    : RlncBroadcast(g, source, params,
                    params.pattern == MultiPattern::kRobustFastbc
                        ? std::make_shared<const trees::RankedBfsTree>(
                              trees::build_gbst(g, source))
                        : nullptr) {}

MultiRunResult RlncBroadcast::run(radio::RadioNetwork& net, Rng& rng) const {
  return run_impl(net, rng, nullptr);
}

MultiRunResult RlncBroadcast::run_and_verify(
    radio::RadioNetwork& net, Rng& rng,
    const std::vector<std::vector<std::uint8_t>>& messages) const {
  NRN_EXPECTS(params_.block_len > 0, "verification requires payload mode");
  return run_impl(net, rng, &messages);
}

MultiRunResult RlncBroadcast::run_impl(
    radio::RadioNetwork& net, Rng& rng,
    const std::vector<std::vector<std::uint8_t>>* messages) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  const std::int32_t n = graph_->node_count();
  const auto k = params_.k;
  const double p = net.channel().effective_loss();
  const std::int32_t log_n = default_rank_modulus(n);

  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                32.0 / (1.0 - p) *
                (static_cast<double>(n) +
                 static_cast<double>(k + 8ULL * log_n) * decay_phase_ *
                     (wave_ ? std::max<std::int32_t>(2, wave_->block_size())
                            : 1)));

  // Per-node decoder state.
  std::vector<coding::RlncState> state;
  state.reserve(static_cast<std::size_t>(n));
  for (std::int32_t u = 0; u < n; ++u)
    state.emplace_back(k, params_.block_len);
  if (messages != nullptr) {
    state[static_cast<std::size_t>(source_)].seed_source(*messages);
  } else {
    state[static_cast<std::size_t>(source_)].seed_source({});
  }

  std::int32_t complete_count = 1;  // the source
  std::vector<char> complete(static_cast<std::size_t>(n), 0);
  complete[static_cast<std::size_t>(source_)] = 1;

  MultiRunResult result;
  result.messages = static_cast<std::int64_t>(k);
  if (complete_count == n) {
    result.completed = true;
    return result;
  }

  // This round's packets, by staging position (a delivery's plan_index):
  // the sender, its coefficient draw (k lambda bytes, rank() of them
  // used), and its combination (k coefficients, block_len payload
  // symbols).  stage() draws; the combination is built on the packet's
  // first delivery to an incomplete receiver, and most packets never reach
  // one.  A broadcaster does not listen, so its basis cannot change
  // between the two.
  const std::size_t block_len = params_.block_len;
  const auto slots = static_cast<std::size_t>(n);
  std::vector<radio::NodeId> senders;
  std::vector<std::uint8_t> lambdas(slots * k);
  std::vector<std::uint8_t> coeffs(slots * k);
  std::vector<std::uint8_t> payloads(slots * block_len);
  std::vector<char> built(slots, 0);
  senders.reserve(slots);

  for (std::int64_t round = 0; round < budget; ++round) {
    senders.clear();
    auto stage = [&](radio::NodeId u) {
      const auto& st = state[static_cast<std::size_t>(u)];
      if (st.rank() == 0) return;  // nothing informative to send
      const std::size_t pos = senders.size();
      st.draw(rng, {lambdas.data() + pos * k, k});
      built[pos] = 0;
      senders.push_back(u);
    };

    if (params_.pattern == MultiPattern::kDecay) {
      const auto sub = static_cast<std::int32_t>(round % decay_phase_);
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n), sub,
          [&](std::size_t u) { stage(static_cast<radio::NodeId>(u)); });
    } else if (round % 2 == 1) {
      const auto t = (round - 1) / 2;
      const auto sub = static_cast<std::int32_t>(t % decay_phase_);
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n), sub,
          [&](std::size_t u) { stage(static_cast<radio::NodeId>(u)); });
    } else {
      for (const radio::NodeId u : wave_->schedule().fast_round(round / 2))
        stage(u);
    }
    net.stage_many(senders);

    const auto& deliveries = net.run_round();
    for (const auto& d : deliveries) {
      auto& st = state[static_cast<std::size_t>(d.receiver)];
      if (st.complete()) continue;
      const auto pos = static_cast<std::size_t>(d.plan_index);
      const std::span<std::uint8_t> c{coeffs.data() + pos * k, k};
      const std::span<std::uint8_t> pl{payloads.data() + pos * block_len,
                                       block_len};
      if (!built[pos]) {
        state[static_cast<std::size_t>(d.sender)].combine(
            {lambdas.data() + pos * k, k}, c, pl);
        built[pos] = 1;
      }
      st.absorb(c, pl);
      if (st.complete()) {
        auto& flag = complete[static_cast<std::size_t>(d.receiver)];
        if (!flag) {
          flag = 1;
          ++complete_count;
        }
      }
    }
    result.rounds = round + 1;
    if (complete_count == n) {
      result.completed = true;
      break;
    }
  }

  if (result.completed && messages != nullptr) {
    for (std::int32_t u = 0; u < n; ++u) {
      if (state[static_cast<std::size_t>(u)].decode() != *messages) {
        result.completed = false;
        break;
      }
    }
  }
  return result;
}

}  // namespace nrn::core
