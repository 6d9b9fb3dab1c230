#include "core/multi_message.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "coding/reed_solomon.hpp"
#include "coding/rlnc.hpp"
#include "common/int_math.hpp"
#include "core/decay.hpp"
#include "trees/gbst.hpp"

namespace nrn::core {

namespace {

using Messages = std::vector<std::vector<std::uint8_t>>;
using Codec = coding::ReedSolomon<coding::Gf256>;

// A code's node state answers the round loop's three questions: stage(u,
// pos, rng) fills staging position `pos` (a delivery's plan_index) with
// u's packet and says whether u has one; deliver(d) says whether the
// delivery just completed its receiver; decodes(messages) checks every
// node's decode.

/// RLNC.  stage() draws the packet's coefficients (k lambda bytes, rank()
/// of them used); its combination (k coefficients, block_len payload
/// symbols) is built on the packet's first delivery to an incomplete
/// receiver, and most packets never reach one.  A broadcaster does not
/// listen, so its basis cannot change between the two.
class RlncNodes {
 public:
  RlncNodes(std::int32_t n, std::size_t k, std::size_t block_len,
            radio::NodeId source, const Messages& messages)
      : k_(k),
        block_len_(block_len),
        lambdas_(static_cast<std::size_t>(n) * k),
        coeffs_(static_cast<std::size_t>(n) * k),
        payloads_(static_cast<std::size_t>(n) * block_len),
        built_(static_cast<std::size_t>(n), 0) {
    state_.reserve(static_cast<std::size_t>(n));
    for (std::int32_t u = 0; u < n; ++u) state_.emplace_back(k, block_len);
    state_[static_cast<std::size_t>(source)].seed_source(messages);
  }

  bool stage(radio::NodeId u, std::size_t pos, Rng& rng) {
    const auto& st = state_[static_cast<std::size_t>(u)];
    if (st.rank() == 0) return false;
    st.draw(rng, {lambdas_.data() + pos * k_, k_});
    built_[pos] = 0;
    return true;
  }

  bool deliver(const radio::Delivery& d) {
    auto& st = state_[static_cast<std::size_t>(d.receiver)];
    if (st.complete()) return false;
    const auto pos = static_cast<std::size_t>(d.plan_index);
    const std::span<std::uint8_t> c{coeffs_.data() + pos * k_, k_};
    const std::span<std::uint8_t> pl{payloads_.data() + pos * block_len_,
                                     block_len_};
    if (!built_[pos]) {
      state_[static_cast<std::size_t>(d.sender)].combine(
          {lambdas_.data() + pos * k_, k_}, c, pl);
      built_[pos] = 1;
    }
    st.absorb(c, pl);
    return st.complete();
  }

  bool decodes(const Messages& messages) const {
    for (const auto& st : state_)
      if (st.decode() != messages) return false;
    return true;
  }

 private:
  std::size_t k_;
  std::size_t block_len_;
  std::vector<coding::RlncState> state_;
  std::vector<std::uint8_t> lambdas_;
  std::vector<std::uint8_t> coeffs_;
  std::vector<std::uint8_t> payloads_;
  std::vector<char> built_;
};

/// Reed-Solomon.  A node holds coded packet indices in arrival order and
/// forwards them round-robin, so consecutive successful receptions from
/// one sender are distinct packets.  Store-and-forward: nodes relay packet
/// indices, never re-encode, and keep taking new packets after they
/// complete (the cursor reads the held count).
class ReedSolomonNodes {
 public:
  ReedSolomonNodes(std::int32_t n, std::size_t k, std::size_t block_len,
                   std::int64_t packet_count, radio::NodeId source,
                   const Messages& messages)
      : k_(k),
        codec_(k, block_len),
        coded_(codec_.encode(messages,
                             static_cast<std::uint32_t>(packet_count))),
        held_(static_cast<std::size_t>(n)),
        has_(static_cast<std::size_t>(n),
             std::vector<char>(static_cast<std::size_t>(packet_count), 0)),
        cursor_(static_cast<std::size_t>(n), 0),
        staged_(static_cast<std::size_t>(n)) {
    const auto si = static_cast<std::size_t>(source);
    held_[si].reserve(static_cast<std::size_t>(packet_count));
    for (std::int64_t j = 0; j < packet_count; ++j) {
      held_[si].push_back(static_cast<std::uint32_t>(j));
      has_[si][static_cast<std::size_t>(j)] = 1;
    }
  }

  bool stage(radio::NodeId u, std::size_t pos, Rng& /*rng*/) {
    const auto ui = static_cast<std::size_t>(u);
    if (held_[ui].empty()) return false;
    staged_[pos] = held_[ui][cursor_[ui]++ % held_[ui].size()];
    return true;
  }

  bool deliver(const radio::Delivery& d) {
    const auto ri = static_cast<std::size_t>(d.receiver);
    const std::uint32_t pkt = staged_[static_cast<std::size_t>(d.plan_index)];
    if (has_[ri][pkt]) return false;
    has_[ri][pkt] = 1;
    held_[ri].push_back(pkt);
    return held_[ri].size() == k_;
  }

  bool decodes(const Messages& messages) const {
    std::vector<coding::RsPacket<coding::Gf256>> pkts;
    for (const auto& held : held_) {
      pkts.clear();
      pkts.reserve(held.size());
      for (const std::uint32_t j : held) pkts.push_back(coded_[j]);
      if (codec_.decode(pkts) != messages) return false;
    }
    return true;
  }

 private:
  std::size_t k_;
  Codec codec_;
  std::vector<coding::RsPacket<coding::Gf256>> coded_;
  std::vector<std::vector<std::uint32_t>> held_;
  std::vector<std::vector<char>> has_;
  std::vector<std::size_t> cursor_;
  std::vector<std::uint32_t> staged_;  ///< packet index by staging position
};

}  // namespace

std::int64_t default_packet_count(std::int64_t n, std::int64_t k) {
  return k + 4 * ceil_log2(n * k) + 8;
}

CodedBroadcast::CodedBroadcast(
    const graph::Graph& g, radio::NodeId source, MultiMessageParams params,
    const std::shared_ptr<const trees::RankedBfsTree>& tree)
    : graph_(&g), source_(source), params_(params) {
  NRN_EXPECTS(params.k >= 1, "need at least one message");
  decay_phase_ = params.decay_phase > 0
                     ? params.decay_phase
                     : Decay::default_phase_length(g.node_count());
  units_ = static_cast<std::int64_t>(params.k);
  if (params.code == MultiCode::kReedSolomon) {
    NRN_EXPECTS(params.pattern == MultiPattern::kDecay,
                "Reed-Solomon runs on the Decay pattern");
    NRN_EXPECTS(params.block_len >= 1, "Reed-Solomon needs payloads");
    units_ = default_packet_count(g.node_count(), units_);
    NRN_EXPECTS(units_ <= Codec::max_packets(),
                "k plus slack exceeds the GF(256) packet domain (255)");
  }
  if (params.pattern == MultiPattern::kRobustFastbc) {
    NRN_EXPECTS(tree != nullptr && tree->source == source,
                "the Robust FASTBC pattern needs a GBST of (graph, source)");
    wave_ = Fastbc::robust(g, tree,
                           {params.block_size, params.window_multiplier});
  }
}

CodedBroadcast::CodedBroadcast(const graph::Graph& g, radio::NodeId source,
                               MultiMessageParams params)
    : CodedBroadcast(g, source, params,
                     params.pattern == MultiPattern::kRobustFastbc
                         ? std::make_shared<const trees::RankedBfsTree>(
                               trees::build_gbst(g, source))
                         : nullptr) {}

template <typename Nodes>
MultiRunResult CodedBroadcast::run_loop(radio::RadioNetwork& net, Rng& rng,
                                        Nodes& nodes,
                                        const Messages* messages) const {
  NRN_EXPECTS(&net.graph() == graph_, "network built on a different graph");
  const std::int32_t n = graph_->node_count();
  const double p = net.channel().effective_loss();
  const std::int32_t log_n = ceil_log2(n);

  const std::int64_t budget =
      params_.max_rounds > 0
          ? params_.max_rounds
          : static_cast<std::int64_t>(
                32.0 / (1.0 - p) *
                (static_cast<double>(n) +
                 static_cast<double>(units_ + 8LL * log_n) * decay_phase_ *
                     (wave_ ? std::max<std::int32_t>(2, wave_->block_size())
                            : 1)));

  // This round's senders in staging order; the node state keeps what each
  // one sends by its position.
  std::vector<radio::NodeId> senders;
  senders.reserve(static_cast<std::size_t>(n));
  auto stage = [&](radio::NodeId u) {
    if (nodes.stage(u, senders.size(), rng)) senders.push_back(u);
  };
  auto stage_decay = [&](std::int64_t t) {
    const auto sub = static_cast<std::int32_t>(t % decay_phase_);
    rng.for_each_bernoulli_pow2(
        static_cast<std::size_t>(n), sub,
        [&](std::size_t u) { stage(static_cast<radio::NodeId>(u)); });
  };

  MultiRunResult result;
  result.messages = static_cast<std::int64_t>(params_.k);
  std::int32_t complete_count = 1;  // the source
  for (std::int64_t round = 0; complete_count < n && round < budget;
       ++round) {
    senders.clear();
    if (!wave_) {
      stage_decay(round);
    } else if (round % 2 == 1) {
      stage_decay((round - 1) / 2);
    } else {
      for (const radio::NodeId u : wave_->schedule().fast_round(round / 2))
        stage(u);
    }
    net.stage_many(senders);
    for (const auto& d : net.run_round())
      if (nodes.deliver(d)) ++complete_count;
    result.rounds = round + 1;
  }
  result.completed = complete_count == n &&
                     (messages == nullptr || nodes.decodes(*messages));
  return result;
}

MultiRunResult CodedBroadcast::run(radio::RadioNetwork& net, Rng& rng) const {
  NRN_EXPECTS(params_.block_len == 0, "payload mode runs run_and_verify");
  RlncNodes nodes(graph_->node_count(), params_.k, 0, source_, {});
  return run_loop(net, rng, nodes, nullptr);
}

MultiRunResult CodedBroadcast::run_and_verify(
    radio::RadioNetwork& net, Rng& rng, const Messages& messages) const {
  NRN_EXPECTS(params_.block_len > 0, "verification requires payload mode");
  const std::int32_t n = graph_->node_count();
  if (params_.code == MultiCode::kReedSolomon) {
    ReedSolomonNodes nodes(n, params_.k, params_.block_len, units_, source_,
                           messages);
    return run_loop(net, rng, nodes, &messages);
  }
  RlncNodes nodes(n, params_.k, params_.block_len, source_, messages);
  return run_loop(net, rng, nodes, &messages);
}

}  // namespace nrn::core
