#include "core/bipartite_pipeline.hpp"

#include <cmath>

#include "core/decay.hpp"
#include "graph/algorithms.hpp"

namespace nrn::core {

namespace {

/// Progress state of one layer boundary within the current meta-round.
struct BoundaryWork {
  bool active = false;
  std::int64_t batch = -1;
  std::int64_t next_in_batch = 0;  ///< index within the batch
  std::int64_t local_round = 0;    ///< Decay clock for the current message
  std::int64_t remaining_targets = 0;
};

}  // namespace

MultiRunResult run_layered_pipeline_routing(radio::RadioNetwork& net,
                                            radio::NodeId source,
                                            const PipelineParams& params,
                                            Rng& rng) {
  const auto& g = net.graph();
  const std::int32_t n = g.node_count();
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  const std::int64_t k = params.k;
  MultiRunResult result;
  result.messages = k;
  if (n == 1) {  // the source is the only node: nothing to route
    result.completed = true;
    return result;
  }

  const auto layers = graph::bfs_layers(g, source);
  const auto depth = static_cast<std::int64_t>(layers.size()) - 1;
  NRN_EXPECTS(depth >= 1, "pipeline needs at least one boundary");
  const std::int64_t batch_size =
      params.batch > 0 ? params.batch
                       : (k + std::max<std::int64_t>(depth, 1) - 1) /
                             std::max<std::int64_t>(depth, 1);
  const std::int64_t batches = (k + batch_size - 1) / batch_size;

  const std::int32_t phase = params.decay_phase > 0
                                 ? params.decay_phase
                                 : Decay::default_phase_length(n);
  const double p = net.channel().effective_loss();
  const std::int64_t meta_cap =
      params.meta_round_cap > 0
          ? params.meta_round_cap
          : static_cast<std::int64_t>(
                std::ceil(16.0 / (1.0 - p) * static_cast<double>(batch_size) *
                          phase * (phase + 8.0)));

  // layer index per node, -1 outside the BFS cone (connected => none).
  std::vector<std::int32_t> layer_of(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 0; i < layers.size(); ++i)
    for (const auto u : layers[i])
      layer_of[static_cast<std::size_t>(u)] = static_cast<std::int32_t>(i);

  // has[u] bitset over messages.
  std::vector<std::vector<char>> has(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(k), 0));
  for (std::int64_t m = 0; m < k; ++m)
    has[static_cast<std::size_t>(source)][static_cast<std::size_t>(m)] = 1;

  bool any_cap_hit = false;

  std::vector<BoundaryWork> work(static_cast<std::size_t>(depth));
  const std::int64_t total_metas = 3 * (batches - 1) + depth;
  std::vector<radio::NodeId> senders;  // per-boundary staging scratch
  // The message each broadcast of this step carries, by staging position
  // (a delivery's plan_index); boundaries stage one after another.
  std::vector<std::int64_t> staged_msg;
  senders.reserve(static_cast<std::size_t>(n));
  staged_msg.reserve(static_cast<std::size_t>(n));

  for (std::int64_t meta = 0; meta < total_metas; ++meta) {
    // Activate boundaries for this meta-round: boundary i runs batch
    // (meta - i) / 3 when divisible and in range.
    for (std::int64_t i = 0; i < depth; ++i) {
      auto& w = work[static_cast<std::size_t>(i)];
      w.active = false;
      if (meta < i || (meta - i) % 3 != 0) continue;
      const std::int64_t j = (meta - i) / 3;
      if (j < 0 || j >= batches) continue;
      w.active = true;
      w.batch = j;
      w.next_in_batch = 0;
      w.local_round = 0;
      w.remaining_targets = -1;  // computed lazily per message
    }

    for (std::int64_t step = 0; step < meta_cap; ++step) {
      bool someone_active = false;
      staged_msg.clear();
      // Stage broadcasts for every still-active boundary.
      for (std::int64_t i = 0; i < depth; ++i) {
        auto& w = work[static_cast<std::size_t>(i)];
        if (!w.active) continue;
        const std::int64_t msg =
            w.batch * batch_size + w.next_in_batch;
        if (w.next_in_batch >= batch_size || msg >= k) {
          w.active = false;
          continue;
        }
        if (w.remaining_targets < 0) {
          w.remaining_targets = 0;
          for (const auto v : layers[static_cast<std::size_t>(i) + 1])
            if (!has[static_cast<std::size_t>(v)]
                    [static_cast<std::size_t>(msg)])
              ++w.remaining_targets;
          if (w.remaining_targets == 0) {
            ++w.next_in_batch;
            w.local_round = 0;
            w.remaining_targets = -1;
            // Re-examine this boundary next step.
            someone_active = true;
            continue;
          }
        }
        someone_active = true;
        const auto sub =
            static_cast<std::int32_t>(w.local_round % phase);
        const auto& layer = layers[static_cast<std::size_t>(i)];
        // Gather the selected holders of `msg`, then bulk-stage the
        // boundary's broadcasts in one call.
        senders.clear();
        rng.for_each_bernoulli_pow2(layer.size(), sub, [&](std::size_t li) {
          const auto u = layer[li];
          if (!has[static_cast<std::size_t>(u)][static_cast<std::size_t>(msg)])
            return;
          senders.push_back(u);
        });
        net.stage_many(senders);
        staged_msg.insert(staged_msg.end(), senders.size(), msg);
        ++w.local_round;
      }
      if (!someone_active) break;

      const auto& deliveries = net.run_round();
      ++result.rounds;
      for (const auto& d : deliveries) {
        const std::int64_t got =
            staged_msg[static_cast<std::size_t>(d.plan_index)];
        auto& flag = has[static_cast<std::size_t>(d.receiver)]
                        [static_cast<std::size_t>(got)];
        if (flag) continue;
        flag = 1;
        // Credit the boundary waiting on this (receiver-layer, message).
        const std::int32_t rl = layer_of[static_cast<std::size_t>(d.receiver)];
        if (rl >= 1) {
          auto& w = work[static_cast<std::size_t>(rl) - 1];
          const std::int64_t msg = w.batch * batch_size + w.next_in_batch;
          if (w.active && msg == got && w.remaining_targets > 0) {
            if (--w.remaining_targets == 0) {
              ++w.next_in_batch;
              w.local_round = 0;
              w.remaining_targets = -1;
            }
          }
        }
      }
    }
    for (std::int64_t i = 0; i < depth; ++i)
      if (work[static_cast<std::size_t>(i)].active) any_cap_hit = true;
  }

  result.completed = !any_cap_hit;
  for (std::int32_t u = 0; u < n && result.completed; ++u)
    for (std::int64_t m = 0; m < k; ++m)
      if (!has[static_cast<std::size_t>(u)][static_cast<std::size_t>(m)]) {
        result.completed = false;
        break;
      }
  return result;
}

}  // namespace nrn::core
