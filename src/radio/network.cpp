#include "radio/network.hpp"

#include <algorithm>
#include <bit>

namespace nrn::radio {

void DeliveryList::sort_by_receiver(std::vector<std::uint64_t>& scratch) {
  // Zip (receiver, plan index) into one u64 per delivery; receiver in the
  // high bits makes the u64 order the receiver order.
  scratch.clear();
  scratch.reserve(receivers_.size());
  for (std::size_t i = 0; i < receivers_.size(); ++i)
    scratch.push_back((static_cast<std::uint64_t>(receivers_[i]) << 32) |
                      static_cast<std::uint32_t>(plan_index_[i]));
  std::sort(scratch.begin(), scratch.end());
  for (std::size_t i = 0; i < scratch.size(); ++i) {
    receivers_[i] = static_cast<NodeId>(scratch[i] >> 32);
    plan_index_[i] = static_cast<std::int32_t>(scratch[i] & 0xffffffffu);
  }
}

RadioNetwork::RadioNetwork(const graph::Graph& g, const ChannelModel& channel,
                           Rng rng, const graph::Geometry* geometry)
    : graph_(&g), geometry_(geometry), rng_(rng) {
  const auto n = static_cast<std::size_t>(g.node_count());
  slots_.assign(n, NodeSlot{});
  candidates_.reserve(n);
  // Broadcaster count at which broadcasters * avg_degree reaches
  // kDenseWorkFactor * n, with avg_degree = 2E/n: F * n^2 / 2E.
  const std::int64_t n64 = g.node_count();
  const std::int64_t two_e = 2 * g.edge_count();
  dense_plan_threshold_ =
      two_e > 0 ? static_cast<std::size_t>(
                      (kDenseWorkFactor * n64 * n64 + two_e - 1) / two_e)
                : ~std::size_t{0};
  // Structured-adjacency eligibility: every edge joins consecutive ids.
  const std::size_t words = (n + 63) / 64;
  left_edge_mask_.assign(words, 0);
  right_edge_mask_.assign(words, 0);
  adjacent_ok_ = consecutive_adjacency(g);
  if (adjacent_ok_) {
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const auto vi = static_cast<std::size_t>(v);
      for (const NodeId u : g.neighbors(v)) {
        if (u == v - 1)
          left_edge_mask_[vi >> 6] |= std::uint64_t{1} << (vi & 63);
        else
          right_edge_mask_[vi >> 6] |= std::uint64_t{1} << (vi & 63);
      }
    }
    bcast_mask_.assign(words, 0);
    cand_mask_scratch_.assign(words, 0);
    hear_left_scratch_.assign(words, 0);
    plan_pos_.assign(n, 0);
  }
  reset(channel, rng);
}

void RadioNetwork::reset(const ChannelModel& channel, Rng rng) {
  NRN_EXPECTS(channel.is_edge_fault() || kernel_ != Kernel::kAdjacent,
              "adjacent kernel forced under the sinr channel");
  // Under SINR no coins are in play, so the rng stream is never drawn from.
  channel_.arm(channel, *graph_, geometry_);
  rng_ = rng;
  // A bitmask-mode plan abandoned mid-round leaves its broadcaster bits
  // set; clear them before dropping the plan (whole-word stores are fine:
  // every set bit in a touched word belongs to a staged sender).
  if (use_bitmask_plan_)
    for (const NodeId u : plan_senders_)
      bcast_mask_[static_cast<std::size_t>(u) >> 6] = 0;
  select_staging();  // the channel may have changed
  plan_senders_.clear();
  deliveries_.senders_.clear();
  deliveries_.clear();
  last_round_ = RoundStats{};
  totals_ = NetworkTotals{};
  // Skip two epochs so stamps from an abandoned staging (epoch_ + 1) or the
  // last executed round (epoch_) can never collide with the next round's.
  epoch_ += 2;
}

void RadioNetwork::prepare_epoch() {
  // Slot stamps are the low 32 bits of the epoch, so they are unique only
  // within one u32 cycle.  Flush the slots once a full cycle has elapsed
  // since the last flush (amortized free) -- checked as an elapsed
  // distance, not a single epoch value, because empty rounds and reset()
  // advance epoch_ without passing through here.  Stamp 0 is reserved for
  // "never touched" (the flushed state).
  if (epoch_ + 1 - slots_valid_since_ >= (std::uint64_t{1} << 32)) {
    std::fill(slots_.begin(), slots_.end(), NodeSlot{});
    slots_valid_since_ = epoch_ + 1;
  }
  if (static_cast<std::uint32_t>(epoch_ + 1) == 0) ++epoch_;
}

void RadioNetwork::stage_many(std::span<const NodeId> senders) {
  for (const NodeId u : senders) mark_broadcaster(u);
}

void RadioNetwork::stage_bernoulli_pow2(std::span<const NodeId> candidates,
                                        std::int32_t i, Rng& rng) {
  rng.for_each_bernoulli_pow2(candidates.size(), i, [&](std::size_t idx) {
    mark_broadcaster(candidates[idx]);
  });
}

void RadioNetwork::finalize_candidates(std::span<const NodeId> cands) {
  // Collided candidates were flagged in their slots; the survivors get
  // their fault coins here and become this round's deliveries.
  //
  // Every filter below is an unconditional write plus a cursor advance by
  // a 0/1 predicate (a cmov, never a branch): whether a candidate survives
  // a fault coin is a genuine coin flip, so a taken/not-taken branch here
  // would mispredict at the fault rate and dominate the pass.  The coins
  // themselves are counter-based -- pure functions of the round salt and
  // the node id -- so pricing them over the whole survivor array in one
  // vectorized mix64_batch sweep changes cost, never the tape.
  const std::size_t c = cands.size();
  if (c == 0) return;
  auto& recv = deliveries_.receivers_;
  auto& pidx = deliveries_.plan_index_;
  const std::size_t base = recv.size();
  recv.resize(base + c);
  pidx.resize(base + c);
  std::size_t w = base;
  if (channel_.sender_coins) {
    // Tombstones and the senders' shared coins (priced per plan slot up
    // front, plan_noisy_) fall out in the same compaction.
    std::int64_t losses = 0;
    for (const NodeId v : cands) {
      const auto& slot = slots_[static_cast<std::size_t>(v)];
      const int alive = slot.state >= 0 ? 1 : 0;
      // Tombstoned states are negative; clamp the index so the masked
      // plan_noisy_ read stays in bounds (its value is then ignored).
      const std::size_t pi = alive ? static_cast<std::size_t>(slot.state) : 0;
      const int noisy = plan_noisy_[pi] != 0 ? 1 : 0;
      losses += alive & noisy;
      recv[w] = v;
      pidx[w] = slot.state;
      w += static_cast<std::size_t>(alive & (noisy ^ 1));
    }
    last_round_.sender_fault_losses += losses;
  } else {
    for (const NodeId v : cands) {
      const auto& slot = slots_[static_cast<std::size_t>(v)];
      recv[w] = v;
      pidx[w] = slot.state;
      w += static_cast<std::size_t>(slot.state >= 0 ? 1 : 0);
    }
  }
  recv.resize(w);
  pidx.resize(w);
  if (channel_.receiver_coins) apply_receiver_coins(base);
}

void RadioNetwork::apply_receiver_coins(std::size_t base) {
  // One vectorized mix over every surviving receiver id, then an in-place
  // branch-free compaction (the read cursor never trails the write
  // cursor, so the overlap is safe).
  auto& recv = deliveries_.receivers_;
  auto& pidx = deliveries_.plan_index_;
  const std::size_t survivors = recv.size() - base;
  if (survivors == 0) return;
  coin_mix_scratch_.resize(survivors);
  Rng::mix64_batch(receiver_salt_, recv.data() + base,
                   coin_mix_scratch_.data(), survivors);
  std::size_t w = base;
  std::int64_t losses = 0;
  for (std::size_t j = 0; j < survivors; ++j) {
    const int ok = coin_mix_scratch_[j] >= channel_.receiver_threshold ? 1 : 0;
    recv[w] = recv[base + j];
    pidx[w] = pidx[base + j];
    w += static_cast<std::size_t>(ok);
    losses += ok ^ 1;
  }
  last_round_.receiver_fault_losses += losses;
  recv.resize(w);
  pidx.resize(w);
}

void RadioNetwork::run_round_sparse() {
  // One fused pass over the broadcasters' adjacency: a listener is
  // recorded as a delivery candidate at first touch (its slot holding the
  // sole sender's plan index) and flagged collided if a second
  // broadcasting neighbor appears.  Fault coins are applied only to the
  // candidates that survive (finalize_candidates), which is sound because
  // the receiver coin is a stateless function, not a stream draw.
  // The classification is branch-free except for one early-out: a re-touch
  // of a dead slot (broadcaster or already collided) changes nothing, and
  // that test is predictable at both extremes -- almost always false in
  // sparse rounds (touches are fresh), almost always true once a saturated
  // round has collided most listeners.  The remaining classification
  // (fresh vs. first collision, broadcaster vs. listener) flips like a
  // coin with random neighbors, so it stays select-based: every surviving
  // touch unconditionally rewrites the slot's (touch_epoch, state) pair
  // and candidate recording is a write-always/advance-by-predicate cursor.
  const auto stamp = static_cast<std::uint32_t>(epoch_);
  if (candidates_.size() < slots_.size()) candidates_.resize(slots_.size());
  NodeId* cand = candidates_.data();
  std::size_t nc = 0;
  std::int64_t collisions = 0;
  NodeSlot* const slots = slots_.data();
  for (std::size_t i = 0; i < plan_senders_.size(); ++i) {
    const NodeId b = plan_senders_[i];
    for (const NodeId v : graph_->neighbors(b)) {
      NodeSlot& slot = slots[static_cast<std::size_t>(v)];
      const int fresh = slot.touch_epoch != stamp ? 1 : 0;
      if (fresh == 0 && slot.state < 0) continue;  // dead slot: no-op touch
      const int bcast = slot.bcast_epoch == stamp ? 1 : 0;
      const std::int32_t first = bcast ? kNotListening
                                       : static_cast<std::int32_t>(i);
      slot.state = fresh ? first : kCollided;  // !fresh here => was live
      slot.touch_epoch = stamp;
      collisions += fresh ^ 1;
      cand[nc] = v;
      nc += static_cast<std::size_t>(fresh & (bcast ^ 1));
    }
  }
  last_round_.collision_losses += collisions;
  finalize_candidates({cand, nc});
}

void RadioNetwork::run_round_dense() {
  // Listener-centric flat pass over the CSR rows.  Counting stops at two
  // broadcasting neighbors -- collisions need no exact multiplicity -- so
  // rounds with many broadcasters touch only a short prefix of each row.
  // Unique listeners are recorded as candidates (ascending by
  // construction) and priced in the shared batched finalize pass.
  const auto stamp = static_cast<std::uint32_t>(epoch_);
  const NodeId n = graph_->node_count();
  if (candidates_.size() < slots_.size()) candidates_.resize(slots_.size());
  NodeId* cand = candidates_.data();
  std::size_t nc = 0;
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    if (slots_[vi].bcast_epoch == stamp) continue;  // not listening
    std::int32_t count = 0;
    NodeId sender = -1;
    for (const NodeId u : graph_->neighbors(v)) {
      if (slots_[static_cast<std::size_t>(u)].bcast_epoch == stamp) {
        sender = u;
        if (++count == 2) break;
      }
    }
    if (count == 0) continue;
    if (count >= 2) {
      ++last_round_.collision_losses;
      continue;
    }
    slots_[vi].state = slots_[static_cast<std::size_t>(sender)].plan_index;
    cand[nc++] = v;
  }
  finalize_candidates({cand, nc});
}

void RadioNetwork::run_round_adjacent() {
  // Word-parallel kernel for consecutive-id adjacency (see the header
  // comment): with B the broadcaster bitmask, listener v hears its left
  // neighbor iff B[v-1] and the (v-1, v) edge exists, symmetrically on the
  // right.  Exactly-one-neighbor reception is then XOR, collisions are
  // AND, and candidates and loss counts fall out of shifts, masks, and
  // popcounts 64 listeners at a time -- no per-touch slot traffic.  Fault
  // coins are id-keyed (v4 tape), so the bit-algebra formulation prices
  // coins identical to the sparse and dense kernels'.
  const std::size_t words = bcast_mask_.size();
  std::uint64_t* const B = bcast_mask_.data();  // populated at staging time
  // Counting pass: per-word candidate and hears-left masks (kept for the
  // emission pass), collision popcounts, and the exact candidate total so
  // the delivery arrays are sized once.
  std::int64_t collisions = 0;
  std::size_t total = 0;
  std::uint64_t prev = 0;
  for (std::size_t w = 0; w < words; ++w) {
    const std::uint64_t b = B[w];
    const std::uint64_t next = w + 1 < words ? B[w + 1] : 0;
    B[w] = 0;  // this pass visits every word anyway: reset inline for free
    const std::uint64_t hl = ((b << 1) | (prev >> 63)) & left_edge_mask_[w];
    const std::uint64_t hr = ((b >> 1) | (next << 63)) & right_edge_mask_[w];
    const std::uint64_t cand = ~b & (hl ^ hr);
    collisions +=
        static_cast<std::int64_t>(std::popcount(~b & hl & hr));
    total += static_cast<std::size_t>(std::popcount(cand));
    cand_mask_scratch_[w] = cand;
    hear_left_scratch_[w] = hl;
    prev = b;
  }
  last_round_.collision_losses += collisions;
  // Emission pass: walk the candidate bits (ascending, so the v4 ordering
  // contract holds with no sort) and read the sole sender's plan index
  // from its staging slot.
  auto& recv = deliveries_.receivers_;
  auto& pidx = deliveries_.plan_index_;
  const std::size_t base = recv.size();
  recv.resize(base + total);
  pidx.resize(base + total);
  std::size_t wr = base;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t cand = cand_mask_scratch_[w];
    const std::uint64_t hl = hear_left_scratch_[w];
    const NodeId word_base = static_cast<NodeId>(w << 6);
    while (cand != 0) {
      const int j = std::countr_zero(cand);
      const NodeId v = word_base + j;
      const NodeId s = v + (((hl >> j) & 1) != 0 ? -1 : 1);
      recv[wr] = v;
      pidx[wr] = static_cast<std::int32_t>(plan_pos_[static_cast<std::size_t>(s)]);
      ++wr;
      cand &= cand - 1;
    }
  }
  // Coin tail: the senders' shared coins compact in place (no tombstones
  // here -- collisions never entered the arrays), then the receiver pass.
  if (channel_.sender_coins) {
    std::size_t w2 = base;
    std::int64_t losses = 0;
    for (std::size_t j = base; j < wr; ++j) {
      const int noisy =
          plan_noisy_[static_cast<std::size_t>(pidx[j])] != 0 ? 1 : 0;
      recv[w2] = recv[j];
      pidx[w2] = pidx[j];
      w2 += static_cast<std::size_t>(noisy ^ 1);
      losses += noisy;
    }
    last_round_.sender_fault_losses += losses;
    recv.resize(w2);
    pidx.resize(w2);
  }
  if (channel_.receiver_coins) apply_receiver_coins(base);
}

template <typename IsTx, typename PlanOf>
void RadioNetwork::sinr_decode(NodeId v, IsTx&& is_tx, PlanOf&& plan_of) {
  // Ascending row walk is the canonical interference-summation order; all
  // kernels (and the lockstep bank) accumulate this way so floating-point
  // sums are bit-identical across execution paths.
  const auto row = graph_->neighbors(v);
  const double* gains =
      channel_.gain.data() + channel_.gain_row[static_cast<std::size_t>(v)];
  double sum = 0.0;
  double best = -1.0;
  NodeId best_u = -1;
  for (std::size_t j = 0; j < row.size(); ++j) {
    const NodeId u = row[j];
    if (!is_tx(u)) continue;
    const double g = gains[j];
    sum += g;
    if (g > best) {  // strict: a gain tie keeps the lower id
      best = g;
      best_u = u;
    }
  }
  if (best_u < 0) return;  // nobody in range transmitted
  const SinrParams& p = channel_.model.sinr;
  if (best >= p.beta * (p.noise_floor + (sum - best)))
    deliveries_.push(v, plan_of(best_u));
  else
    ++last_round_.interference_losses;
}

void RadioNetwork::run_round_sinr_sparse() {
  // Touch pass over the broadcasters' adjacency marks each heard listener
  // once; a second pass decodes each against its full row.  Unlike the
  // edge-fault sparse kernel there is no collided state: under SINR a
  // multiply-touched listener is still a decode candidate, interference
  // replaces the collision rule.
  const auto stamp = static_cast<std::uint32_t>(epoch_);
  if (candidates_.size() < slots_.size()) candidates_.resize(slots_.size());
  NodeId* cand = candidates_.data();
  std::size_t nc = 0;
  NodeSlot* const slots = slots_.data();
  for (const NodeId b : plan_senders_) {
    for (const NodeId v : graph_->neighbors(b)) {
      NodeSlot& slot = slots[static_cast<std::size_t>(v)];
      if (slot.touch_epoch == stamp) continue;
      slot.touch_epoch = stamp;
      const int listening = slot.bcast_epoch != stamp ? 1 : 0;
      cand[nc] = v;
      nc += static_cast<std::size_t>(listening);
    }
  }
  const auto is_tx = [&](NodeId u) {
    return slots[static_cast<std::size_t>(u)].bcast_epoch == stamp;
  };
  const auto plan_of = [&](NodeId u) {
    return slots[static_cast<std::size_t>(u)].plan_index;
  };
  for (std::size_t i = 0; i < nc; ++i) sinr_decode(cand[i], is_tx, plan_of);
}

void RadioNetwork::run_round_sinr_dense() {
  // Listener-centric flat pass, like run_round_dense but with no early
  // exit: the SINR sum needs every broadcasting neighbor's gain.
  const auto stamp = static_cast<std::uint32_t>(epoch_);
  const NodeId n = graph_->node_count();
  NodeSlot* const slots = slots_.data();
  const auto is_tx = [&](NodeId u) {
    return slots[static_cast<std::size_t>(u)].bcast_epoch == stamp;
  };
  const auto plan_of = [&](NodeId u) {
    return slots[static_cast<std::size_t>(u)].plan_index;
  };
  for (NodeId v = 0; v < n; ++v) {
    if (slots[static_cast<std::size_t>(v)].bcast_epoch == stamp) continue;
    sinr_decode(v, is_tx, plan_of);
  }
}

const DeliveryList& RadioNetwork::run_round() {
  ++epoch_;
  deliveries_.clear();
  last_round_ = RoundStats{};
  const std::size_t staged = plan_senders_.size();
  last_round_.broadcasters = static_cast<std::int64_t>(staged);

  // v4 tape: a round with broadcasters and any coin in play draws exactly
  // one salt; both coin families derive from it by domain separation.
  // Sender coins are then priced per plan slot in one batched pass (each
  // sender's coin is shared by all its receivers).
  if ((channel_.sender_coins || channel_.receiver_coins) && staged != 0) {
    const std::uint64_t salt = rng_();
    sender_salt_ = salt ^ kSenderSaltTweak;
    receiver_salt_ = salt ^ kReceiverSaltTweak;
    if (channel_.sender_coins) {
      plan_noisy_.resize(staged);
      std::uint64_t ids[Rng::kCoinBatch];
      std::uint64_t mixed[Rng::kCoinBatch];
      for (std::size_t base = 0; base < staged; base += Rng::kCoinBatch) {
        const std::size_t m = std::min(Rng::kCoinBatch, staged - base);
        for (std::size_t j = 0; j < m; ++j)
          ids[j] = static_cast<std::uint64_t>(plan_senders_[base + j]);
        Rng::mix64_batch(sender_salt_, ids, mixed, m);
        for (std::size_t j = 0; j < m; ++j)
          plan_noisy_[base + j] = mixed[j] < channel_.sender_threshold ? 1 : 0;
      }
    }
  }

  if (staged != 0) {
    if (use_bitmask_plan_) {
      run_round_adjacent();
      // Deliveries were emitted by ascending bit walk: already in the v4
      // contract's order, no probe needed.
    } else {
      if (kernel_ == Kernel::kDense ||
          (kernel_ == Kernel::kAuto && staged >= dense_plan_threshold_)) {
        if (channel_.sinr)
          run_round_sinr_dense();
        else
          run_round_dense();
      } else {
        if (channel_.sinr)
          run_round_sinr_sparse();
        else
          run_round_sparse();
      }
      // v4 contract: deliveries are emitted in ascending receiver id.
      // The dense kernels scan that way natively; the sparse kernels'
      // touch order usually is ascending too, so probe before sorting.
      if (!std::is_sorted(deliveries_.receivers_.begin(),
                          deliveries_.receivers_.end()))
        deliveries_.sort_by_receiver(sort_scratch_);
    }
  }
  last_round_.deliveries = static_cast<std::int64_t>(deliveries_.size());

  totals_.rounds += 1;
  totals_.broadcasts += last_round_.broadcasters;
  totals_.deliveries += last_round_.deliveries;
  totals_.collision_losses += last_round_.collision_losses;
  totals_.sender_fault_losses += last_round_.sender_fault_losses;
  totals_.receiver_fault_losses += last_round_.receiver_fault_losses;
  totals_.interference_losses += last_round_.interference_losses;

  // Hand the executed plan to the delivery list (it reads senders from
  // it); the buffers swap back and forth so neither ever reallocates in
  // steady state.
  plan_senders_.swap(deliveries_.senders_);
  plan_senders_.clear();
  return deliveries_;
}

}  // namespace nrn::radio
