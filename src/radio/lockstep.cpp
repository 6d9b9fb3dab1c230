#include "radio/lockstep.hpp"

#include <algorithm>
#include <bit>

namespace nrn::radio {

LockstepNetwork::LockstepNetwork(const graph::Graph& g,
                                 const ChannelModel& channel,
                                 const graph::Geometry* geometry)
    : graph_(&g), geometry_(geometry) {
  const auto n = static_cast<std::size_t>(g.node_count());
  bcast_mask_.assign(n, 0);
  once_.assign(n, 0);
  twice_.assign(n, 0);
  union_.reserve(n);
  reset(channel);
}

void LockstepNetwork::reset(const ChannelModel& channel) {
  // Under SINR no coins are priced, so the lanes' rng streams are never
  // drawn from.
  channel_.arm(channel, *graph_, geometry_);
  if (channel_.sender_coins && sole_sender_.empty())
    sole_sender_.resize(static_cast<std::size_t>(graph_->node_count()) *
                        static_cast<std::size_t>(kMaxLanes));
  lanes_ = 0;
  // Per-round scratch self-clears at the end of run_round; after an
  // abandoned round (reset mid-bank) it must be scrubbed here.
  std::fill(bcast_mask_.begin(), bcast_mask_.end(), LaneMask{0});
  std::fill(once_.begin(), once_.end(), LaneMask{0});
  std::fill(twice_.begin(), twice_.end(), LaneMask{0});
  union_.clear();
  for (int l = 0; l < kMaxLanes; ++l) {
    const auto li = static_cast<std::size_t>(l);
    staged_[li] = 0;
    cand_send_[li].clear();
    receivers_[li].clear();
    stats_[li] = RoundStats{};
  }
}

int LockstepNetwork::add_lane(Rng rng) {
  NRN_EXPECTS(lanes_ < kMaxLanes, "lockstep bank is full");
  rng_[static_cast<std::size_t>(lanes_)] = rng;
  return lanes_++;
}

void LockstepNetwork::stage_many(int lane, std::span<const NodeId> senders) {
  NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
  const LaneMask bit = LaneMask{1} << lane;
  auto& staged = staged_[static_cast<std::size_t>(lane)];
  for (const NodeId u : senders) mark_broadcaster(bit, staged, u);
}

void LockstepNetwork::stage_bernoulli_pow2(int lane,
                                           std::span<const NodeId> candidates,
                                           std::int32_t i, Rng& rng) {
  NRN_EXPECTS(lane >= 0 && lane < lanes_, "lane out of range");
  const LaneMask bit = LaneMask{1} << lane;
  auto& staged = staged_[static_cast<std::size_t>(lane)];
  rng.for_each_bernoulli_pow2(candidates.size(), i, [&](std::size_t idx) {
    mark_broadcaster(bit, staged, candidates[idx]);
  });
}

void LockstepNetwork::run_round(LaneMask lanes) {
  // Widened first: a full bank's lanes_ equals the mask's bit width.
  NRN_EXPECTS((std::uint64_t{lanes} >> lanes_) == 0,
              "round mask addresses unknown lanes");
  const bool coins = channel_.sender_coins || channel_.receiver_coins;
  for (int l = 0; l < lanes_; ++l) {
    const auto li = static_cast<std::size_t>(l);
    if (((lanes >> l) & 1U) == 0) {
      NRN_EXPECTS(staged_[li] == 0, "staged lane missing from round mask");
      continue;
    }
    stats_[li] = RoundStats{};
    stats_[li].broadcasters = staged_[li];
    receivers_[li].clear();
    cand_send_[li].clear();
    // Tape v4, per lane: one salt draw iff the lane broadcast and any coin
    // is in play -- exactly the scalar engine's stream consumption.
    if (coins && staged_[li] != 0) {
      const std::uint64_t salt = rng_[li]();
      sender_salt_[li] = salt ^ kSenderSaltTweak;
      receiver_salt_[li] = salt ^ kReceiverSaltTweak;
    }
  }

  if (channel_.sinr) {
    // SINR route: the shared gain pass replaces the once/twice collision
    // accounting; lanes are resolved inside, so skip straight to the
    // per-lane bookkeeping tail.
    run_round_sinr();
    for (int l = 0; l < lanes_; ++l) {
      const auto li = static_cast<std::size_t>(l);
      if (((lanes >> l) & 1U) == 0) continue;
      stats_[li].deliveries =
          static_cast<std::int64_t>(receivers_[li].size());
      staged_[li] = 0;
    }
    for (const NodeId b : union_) bcast_mask_[static_cast<std::size_t>(b)] = 0;
    union_.clear();
    return;
  }

  // One shared adjacency pass over the union of every lane's broadcasters:
  // per listener, accumulate which lanes touched it once and which twice,
  // and -- only if a sender fault coin will need to be keyed by it --
  // remember the sender behind each lane's first touch.
  if (channel_.sender_coins) {
    for (const NodeId b : union_) {
      const LaneMask bm = bcast_mask_[static_cast<std::size_t>(b)];
      for (const NodeId v : graph_->neighbors(b)) {
        const auto vi = static_cast<std::size_t>(v);
        const LaneMask prev = once_[vi];
        LaneMask newly = bm & ~prev;
        twice_[vi] |= bm & prev;
        once_[vi] = prev | bm;
        while (newly != 0) {
          const int l = std::countr_zero(newly);
          newly &= newly - 1;
          sole_sender_[vi * static_cast<std::size_t>(kMaxLanes) +
                       static_cast<std::size_t>(l)] = b;
        }
      }
    }
  } else {
    for (const NodeId b : union_) {
      const LaneMask bm = bcast_mask_[static_cast<std::size_t>(b)];
      for (const NodeId v : graph_->neighbors(b)) {
        const auto vi = static_cast<std::size_t>(v);
        const LaneMask prev = once_[vi];
        twice_[vi] |= bm & prev;
        once_[vi] = prev | bm;
      }
    }
  }

  // Ascending-listener scan: per lane, a touched listener that is not
  // itself broadcasting is a collision (touched twice) or a delivery
  // candidate (touched exactly once), appended to the lane's receivers_
  // for resolve_lane to filter.  Reading a slot also clears it, so the
  // shared scratch needs no separate wipe.
  const NodeId n = graph_->node_count();
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const LaneMask on = once_[vi];
    if (on == 0) continue;
    once_[vi] = 0;
    const LaneMask twice = twice_[vi];
    twice_[vi] = 0;
    const LaneMask listening = ~bcast_mask_[vi];
    LaneMask col = twice & listening;
    LaneMask del = on & ~twice & listening;
    while (col != 0) {
      ++stats_[static_cast<std::size_t>(std::countr_zero(col))]
            .collision_losses;
      col &= col - 1;
    }
    while (del != 0) {
      const auto li = static_cast<std::size_t>(std::countr_zero(del));
      del &= del - 1;
      receivers_[li].push_back(v);
      if (channel_.sender_coins)
        cand_send_[li].push_back(
            sole_sender_[vi * static_cast<std::size_t>(kMaxLanes) + li]);
    }
  }

  for (int l = 0; l < lanes_; ++l) {
    const auto li = static_cast<std::size_t>(l);
    if (((lanes >> l) & 1U) == 0) continue;
    resolve_lane(l);
    stats_[li].deliveries = static_cast<std::int64_t>(receivers_[li].size());
    staged_[li] = 0;
  }
  for (const NodeId b : union_) bcast_mask_[static_cast<std::size_t>(b)] = 0;
  union_.clear();
}

void LockstepNetwork::run_round_sinr() {
  // Shared touch pass: once_ doubles as a "lanes that reached v" mask (the
  // once/twice distinction is meaningless under SINR -- interference, not
  // collision, decides reception).
  for (const NodeId b : union_) {
    const LaneMask bm = bcast_mask_[static_cast<std::size_t>(b)];
    for (const NodeId v : graph_->neighbors(b))
      once_[static_cast<std::size_t>(v)] |= bm;
  }
  // Ascending-listener scan; reading a touch mask clears it, as in the
  // edge-fault scan.  Per touched listener one row walk accumulates every
  // listening lane's interference sum and best gain at once: per lane the
  // additions run in ascending neighbor id, exactly the scalar sinr_decode
  // order, so the floating-point sums (and hence deliveries) are
  // bit-identical to scalar trials.  Only the listening lanes' slots are
  // set up and read, so a partly filled bank pays for the lanes it has.
  const SinrParams& p = channel_.model.sinr;
  const NodeId n = graph_->node_count();
  std::array<double, kMaxLanes> sum{};
  std::array<double, kMaxLanes> best{};
  for (NodeId v = 0; v < n; ++v) {
    const auto vi = static_cast<std::size_t>(v);
    const LaneMask on = once_[vi];
    if (on == 0) continue;
    once_[vi] = 0;
    const LaneMask listen = on & ~bcast_mask_[vi];
    if (listen == 0) continue;
    for (LaneMask m = listen; m != 0; m &= m - 1) {
      const auto l = static_cast<std::size_t>(std::countr_zero(m));
      sum[l] = 0.0;
      best[l] = -1.0;
    }
    const auto row = graph_->neighbors(v);
    const double* gains = channel_.gain.data() + channel_.gain_row[vi];
    for (std::size_t j = 0; j < row.size(); ++j) {
      LaneMask m = bcast_mask_[static_cast<std::size_t>(row[j])] & listen;
      if (m == 0) continue;
      const double g = gains[j];
      while (m != 0) {
        const auto l = static_cast<std::size_t>(std::countr_zero(m));
        m &= m - 1;
        sum[l] += g;
        if (g > best[l]) best[l] = g;  // strict: gain tie keeps lower id
      }
    }
    LaneMask todo = listen;
    while (todo != 0) {
      const auto l = static_cast<std::size_t>(std::countr_zero(todo));
      todo &= todo - 1;
      if (best[l] >= p.beta * (p.noise_floor + (sum[l] - best[l])))
        receivers_[l].push_back(v);
      else
        ++stats_[l].interference_losses;
    }
  }
}

void LockstepNetwork::resolve_lane(int lane) {
  const auto li = static_cast<std::size_t>(lane);
  if (!channel_.sender_coins && !channel_.receiver_coins) return;
  const auto& send = cand_send_[li];
  auto& recv = receivers_[li];
  // Batched coins in the scalar engine's order: the sender's shared coin
  // first, then the survivor's receiver coin.  Both are counter-based
  // mixes of this lane's round salts, so outcomes match the scalar kernels
  // coin for coin.  The whole candidate array is mixed up front and the
  // survivors compacted in place, write-always (w <= j) -- a
  // taken/not-taken branch per coin would be unlearnable for the
  // predictor at the fault rates we sweep.
  const std::size_t count = recv.size();
  std::size_t w = 0;
  std::int64_t sender_losses = 0;
  std::int64_t receiver_losses = 0;
  if (channel_.sender_coins) {
    send_mix_.resize(count);
    Rng::mix64_batch(sender_salt_[li], send.data(), send_mix_.data(), count);
  }
  if (channel_.receiver_coins) {
    recv_mix_.resize(count);
    Rng::mix64_batch(receiver_salt_[li], recv.data(), recv_mix_.data(), count);
  }
  if (channel_.sender_coins && channel_.receiver_coins) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t sf = send_mix_[j] < channel_.sender_threshold;
      const std::size_t rf = recv_mix_[j] < channel_.receiver_threshold;
      sender_losses += static_cast<std::int64_t>(sf);
      receiver_losses += static_cast<std::int64_t>((sf ^ 1U) & rf);
      recv[w] = recv[j];
      w += (sf | rf) ^ 1U;
    }
  } else if (channel_.sender_coins) {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t sf = send_mix_[j] < channel_.sender_threshold;
      sender_losses += static_cast<std::int64_t>(sf);
      recv[w] = recv[j];
      w += sf ^ 1U;
    }
  } else {
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t rf = recv_mix_[j] < channel_.receiver_threshold;
      receiver_losses += static_cast<std::int64_t>(rf);
      recv[w] = recv[j];
      w += rf ^ 1U;
    }
  }
  recv.resize(w);
  stats_[li].sender_fault_losses += sender_losses;
  stats_[li].receiver_fault_losses += receiver_losses;
}

}  // namespace nrn::radio
