#include "core/erasure_broadcast.hpp"

#include "coding/reed_solomon.hpp"
#include "common/int_math.hpp"
#include "core/decay.hpp"

namespace nrn::core {

using Codec = coding::ReedSolomon<coding::Gf256>;

std::int64_t ErasureBroadcast::default_packet_count(std::int64_t n,
                                                    std::int64_t k) {
  return k + 4 * ceil_log2(n * k) + 8;
}

ErasureBroadcast::ErasureBroadcast(const graph::Graph& g, radio::NodeId source,
                                   ErasureParams params)
    : graph_(&g), source_(source), params_(params) {
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  NRN_EXPECTS(params.block_len >= 1, "need a positive payload length");
  const std::int64_t n = g.node_count();
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
  // Any k of m packets reconstruct; m = k + Theta(log nk) slack makes the
  // per-node coupon collection succeed w.h.p.
  const auto k = static_cast<std::int64_t>(params.k);
  packet_count_ = params.packet_count > 0 ? params.packet_count
                                          : default_packet_count(n, k);
  NRN_EXPECTS(k < packet_count_, "packet count must exceed k");
  NRN_EXPECTS(packet_count_ <= Codec::max_packets(),
              "k plus slack exceeds the GF(256) packet domain (255)");
}

MultiRunResult ErasureBroadcast::run_and_verify(
    radio::RadioNetwork& net, Rng& rng,
    const std::vector<std::vector<std::uint8_t>>& messages) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  NRN_EXPECTS(messages.size() == params_.k, "message count mismatch");
  const std::int32_t n = graph_->node_count();
  const auto k = static_cast<std::int64_t>(params_.k);
  const double p = net.channel().effective_loss();
  const std::int32_t log_n = ceil_log2(n);

  const Codec codec(params_.k, params_.block_len);
  const auto coded =
      codec.encode(messages, static_cast<std::uint32_t>(packet_count_));

  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                32.0 / (1.0 - p) *
                (static_cast<double>(n) +
                 static_cast<double>(packet_count_ + 8LL * log_n) *
                     decay_phase_));

  // Per-node reception state: which coded packets a node holds, in arrival
  // order, plus a round-robin forwarding cursor.  Store-and-forward: nodes
  // relay packet indices, never re-encode.
  std::vector<std::vector<std::uint32_t>> held(static_cast<std::size_t>(n));
  std::vector<std::vector<char>> has(
      static_cast<std::size_t>(n),
      std::vector<char>(static_cast<std::size_t>(packet_count_), 0));
  std::vector<std::size_t> cursor(static_cast<std::size_t>(n), 0);

  const auto si = static_cast<std::size_t>(source_);
  held[si].reserve(static_cast<std::size_t>(packet_count_));
  for (std::int64_t j = 0; j < packet_count_; ++j) {
    held[si].push_back(static_cast<std::uint32_t>(j));
    has[si][static_cast<std::size_t>(j)] = 1;
  }

  std::int32_t complete_count = 1;  // the source
  std::vector<char> complete(static_cast<std::size_t>(n), 0);
  complete[si] = 1;

  // Staging scratch: the round's selected relayers and, by staging
  // position (a delivery's plan_index), the coded packet each forwards;
  // bulk-staged in one call after the selection pass.
  std::vector<radio::NodeId> senders;
  std::vector<std::uint32_t> staged_pkt;
  senders.reserve(static_cast<std::size_t>(n));
  staged_pkt.reserve(static_cast<std::size_t>(n));

  MultiRunResult result;
  result.messages = k;
  if (complete_count == n) {
    result.completed = true;
  } else {
    for (std::int64_t round = 0; round < budget; ++round) {
      const auto sub = static_cast<std::int32_t>(round % decay_phase_);
      senders.clear();
      staged_pkt.clear();
      rng.for_each_bernoulli_pow2(
          static_cast<std::size_t>(n), sub, [&](std::size_t ui) {
            if (held[ui].empty()) return;
            // Round-robin over the held set: consecutive successful
            // receptions from the same sender are distinct packets.
            const std::uint32_t pkt = held[ui][cursor[ui] % held[ui].size()];
            ++cursor[ui];
            senders.push_back(static_cast<radio::NodeId>(ui));
            staged_pkt.push_back(pkt);
          });
      net.stage_many(senders);

      const auto& deliveries = net.run_round();
      for (const auto& d : deliveries) {
        const auto ri = static_cast<std::size_t>(d.receiver);
        const std::uint32_t pkt =
            staged_pkt[static_cast<std::size_t>(d.plan_index)];
        if (has[ri][pkt]) continue;
        has[ri][pkt] = 1;
        held[ri].push_back(pkt);
        if (static_cast<std::int64_t>(held[ri].size()) == k &&
            !complete[ri]) {
          complete[ri] = 1;
          ++complete_count;
        }
      }
      result.rounds = round + 1;
      if (complete_count == n) {
        result.completed = true;
        break;
      }
    }
  }

  if (result.completed) {
    // Decode at every node and check the payloads; any mismatch voids the
    // run (this is what kVerifiedPayload certifies).
    std::vector<coding::RsPacket<coding::Gf256>> pkts;
    for (std::int32_t u = 0; u < n; ++u) {
      const auto ui = static_cast<std::size_t>(u);
      pkts.clear();
      pkts.reserve(held[ui].size());
      for (const std::uint32_t j : held[ui]) pkts.push_back(coded[j]);
      if (codec.decode(pkts) != messages) {
        result.completed = false;
        break;
      }
    }
  }
  return result;
}

}  // namespace nrn::core
