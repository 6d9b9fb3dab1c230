// The round-based noisy radio network engine.
//
// Usage per round:
//   net.set_broadcast(u);       // stage any number of broadcasters, or
//   net.stage_many(senders);    // whole sets (the StagingPort surface)
//   const auto& deliveries = net.run_round();
// A staged broadcast is its sender and nothing else: the model fixes who
// hears a broadcast, not what it carries.  Each delivery names its
// sender's plan_index, the sender's position in the round's staging order
// (0 for the first node staged), so a protocol that ships data fills an
// array in staging order and reads what was heard at d.plan_index.
//
// run_round applies the model's reception rule exactly:
//   a listening node hears a broadcast iff exactly one of its neighbors
//   broadcast this round, and neither a sender fault (one coin per
//   broadcaster per round, shared by all its receivers) nor a receiver
//   fault (one coin per receiver) struck.
//
// Three kernels implement the rule; all produce bit-identical rounds:
//   * sparse   -- one pass over the staged broadcasters' adjacency: a
//     listener becomes a delivery candidate at first touch (its slot
//     records the sole sender's plan index) and is flagged collided if a
//     second broadcasting neighbor appears; a final pass over the
//     candidate list applies the fault coins to the survivors.
//     Epoch-stamped 16-byte node slots; no O(n) clearing.
//   * dense    -- one flat listener-centric pass over the CSR rows,
//     counting broadcasting neighbors with an early exit at two (a
//     collision is a collision regardless of multiplicity).
//   * adjacent -- for graphs whose every edge joins consecutive node ids
//     (paths and unions of subpaths): reception becomes word-parallel bit
//     algebra on a broadcaster bitmask, candidates and collisions falling
//     out of shifts, masks, and popcounts 64 listeners at a time.  Edge-fault
//     channel only.
// Auto selection prefers adjacent when the topology and channel qualify,
// otherwise dense once broadcasters times the graph's average degree
// reaches kDenseWorkFactor * n (see run_round), otherwise sparse;
// set_kernel can force any eligible one for tests and benchmarks.
//
// v4 coin-tape contract (deterministic given the engine seed; asserted in
// tests/test_engine_kernels.cpp):
//   1. All coins are u64 values compared against Rng::coin_threshold(p);
//      no doubles on the tape.
//   2. Per round, iff the model has any fault probability > 0 AND at least
//      one broadcaster is staged, exactly ONE u64 salt is drawn from the
//      engine's xoshiro stream.  The round's sender-coin and receiver-coin
//      salts derive from that draw by the domain-separation tweaks
//      kSenderSaltTweak / kReceiverSaltTweak.
//   3. Every fault coin is stateless and counter-based: broadcaster u's
//      sender coin is Rng::mix64(sender_salt, u) and listener v's receiver
//      coin is Rng::mix64(receiver_salt, v), each compared against its
//      coin_threshold.  Coins are keyed by node id -- never by staging
//      order or plan position -- so any kernel (scalar sparse/dense, or a
//      lane of the lockstep bank) prices identical coins in any evaluation
//      order, and batch mixers price them eight at a time.  A round's
//      whole fault tape hangs off one stream draw, which is what makes
//      lockstep lanes cheap (radio/lockstep.hpp).
//   4. Deliveries are emitted in ascending receiver id.
//   5. Empty rounds (a run_round() with nothing staged, e.g. a Decay round
//      whose every Bernoulli coin failed) and zero-probability models draw
//      no coins at all.
// The tape is independent of kernel choice and of any algorithm
// randomness, so an algorithm change never perturbs the fault tape.
// (v3 drew one sender coin per broadcaster in staging order plus a
// separate receiver salt; v4 collapses a round's fault randomness to a
// single draw.  Record/shard/cache formats bumped to v5 -- docs/formats.md.)
//
// Channel models: the contract above describes the kEdgeFault channel,
// which a bare FaultModel converts into.  The engine takes one
// ChannelModel at construction and at every reset, and arms it through
// radio::ChannelState (radio/channel_state.hpp) -- coin thresholds and the
// SINR gain table derived in one place, shared with the lockstep bank.
// Under a kSinr channel (radio/channel_model.hpp) reception is resolved
// from summed transmitter gains instead of collision + coins; the channel
// is deterministic, so NO salts are ever drawn -- point 5 of the contract
// degenerates to every round, and the engine's rng stream is untouched.
// SINR rounds always take the sparse or dense row walk, even on a
// consecutive-id topology.  Interference sums are accumulated in ascending
// neighbor id within each listener's CSR row in every kernel (scalar
// sparse/dense and the lockstep bank), so floating-point results are
// bit-identical across kernels.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "radio/channel_model.hpp"
#include "radio/channel_state.hpp"
#include "radio/staging.hpp"

namespace nrn::radio {

/// Domain-separation tweaks: a round's single salt draw is XORed with
/// these to key the sender-coin and receiver-coin families independently
/// (tape v4, point 2 of the contract above).  Arbitrary odd constants;
/// changing them changes the tape and requires a format bump.
inline constexpr std::uint64_t kSenderSaltTweak = 0x53454e444552ULL << 8 | 1;
inline constexpr std::uint64_t kReceiverSaltTweak = 0x524543564552ULL << 8 | 3;

/// The deliveries of one round, structure-of-arrays: receiver ids plus
/// indices into the executed round's staging plan.  Iteration yields
/// Delivery values; the list stays valid until the next run_round call.
class DeliveryList {
 public:
  /// One successful reception.
  struct Delivery {
    NodeId receiver;
    NodeId sender;
    /// The sender's position in the round's staging order.
    std::int32_t plan_index;
  };

  class const_iterator {
   public:
    const_iterator(const DeliveryList* list, std::size_t pos)
        : list_(list), pos_(pos) {}
    Delivery operator*() const { return (*list_)[pos_]; }
    const_iterator& operator++() {
      ++pos_;
      return *this;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    const DeliveryList* list_;
    std::size_t pos_;
  };

  std::size_t size() const { return receivers_.size(); }
  bool empty() const { return receivers_.empty(); }

  /// Receiver ids only (ascending).  Informed-set protocols that ignore
  /// who sent (Decay and the FASTBC family track one message) iterate
  /// this span instead of the Delivery values, skipping the per-delivery
  /// sender lookup.
  std::span<const NodeId> receivers() const { return receivers_; }

  Delivery operator[](std::size_t i) const {
    const std::int32_t idx = plan_index_[i];
    return Delivery{receivers_[i], senders_[static_cast<std::size_t>(idx)],
                    idx};
  }
  Delivery front() const {
    NRN_EXPECTS(!empty(), "front() of an empty delivery list");
    return (*this)[0];
  }

  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

 private:
  friend class RadioNetwork;

  void clear() {
    receivers_.clear();
    plan_index_.clear();
  }
  void push(NodeId receiver, std::int32_t plan_index) {
    receivers_.push_back(receiver);
    plan_index_.push_back(plan_index);
  }
  /// Restores the ascending-receiver-id emission order after a kernel that
  /// visits listeners out of order; `scratch` is caller-owned to keep the
  /// hot path allocation-free.
  void sort_by_receiver(std::vector<std::uint64_t>& scratch);

  std::vector<NodeId> receivers_;
  std::vector<std::int32_t> plan_index_;
  // The executed round's staged senders, in staging order.  The list OWNS
  // them (the network swaps its staging buffer in at round end), so it is
  // self-contained and a moved RadioNetwork's deliveries never dangle.
  std::vector<NodeId> senders_;
};

/// Alias so call sites can keep spelling the element type `Delivery`.
using Delivery = DeliveryList::Delivery;

/// Per-round aggregate counters (diagnostics and Lemma 18-style stats).
struct RoundStats {
  std::int64_t broadcasters = 0;     ///< nodes that transmitted
  std::int64_t deliveries = 0;       ///< successful receptions
  std::int64_t collision_losses = 0; ///< listeners with >= 2 tx neighbors
  std::int64_t sender_fault_losses = 0;
  std::int64_t receiver_fault_losses = 0;
  /// Listeners that heard >= 1 transmitter but decoded none because the
  /// SINR threshold failed (kSinr channel only; 0 under kEdgeFault).
  std::int64_t interference_losses = 0;

  friend bool operator==(const RoundStats&, const RoundStats&) = default;
};

/// Cumulative counters over the life of the network.
struct NetworkTotals {
  std::int64_t rounds = 0;
  std::int64_t broadcasts = 0;
  std::int64_t deliveries = 0;
  std::int64_t collision_losses = 0;
  std::int64_t sender_fault_losses = 0;
  std::int64_t receiver_fault_losses = 0;
  std::int64_t interference_losses = 0;
};

class RadioNetwork final : public StagingPort {
 public:
  enum class Kernel { kAuto, kSparse, kDense, kAdjacent };

  /// Dense kernel threshold: auto selects dense when broadcasters times
  /// the graph's average degree reaches kDenseWorkFactor * node_count,
  /// i.e. when the sparse kernel would expect to touch every listener
  /// several times anyway.
  static constexpr std::int64_t kDenseWorkFactor = 1;

  /// The graph must outlive the network.  `channel` may be a bare
  /// FaultModel (the edge-fault channel).  A kSinr channel requires
  /// `geometry` (node placement matching the graph; the caller keeps it
  /// alive alongside the graph); kEdgeFault ignores it.
  RadioNetwork(const graph::Graph& g, const ChannelModel& channel, Rng rng,
               const graph::Geometry* geometry = nullptr);

  /// Binding a temporary graph would dangle; force callers to keep the
  /// topology alive.
  RadioNetwork(graph::Graph&&, const ChannelModel&, Rng,
               const graph::Geometry* = nullptr) = delete;

  /// Rearms the network for a fresh trial on the same graph: new channel
  /// and coin stream, zeroed counters and round clock -- without
  /// reallocating the O(n) scratch.  O(1) (the SINR gain table is reused
  /// while its parameters are unchanged); the workhorse of the Driver's
  /// per-worker TrialWorkspace reuse.
  void reset(const ChannelModel& channel, Rng rng);

  const graph::Graph& graph() const { return *graph_; }
  const ChannelModel& channel() const { return channel_.model; }

  /// True iff every edge of `g` joins consecutive node ids (the topology
  /// is a disjoint union of id-contiguous subpaths), i.e. the adjacent
  /// word-parallel kernel is eligible under the edge-fault channel (SINR
  /// rounds walk rows regardless).  The Driver consults this when
  /// choosing between the scalar engine and a lockstep bank: on such
  /// graphs the scalar adjacent kernel beats the bank's shared pass.
  static bool consecutive_adjacency(const graph::Graph& g) {
    for (NodeId v = 0; v < g.node_count(); ++v)
      for (const NodeId u : g.neighbors(v))
        if (u != v - 1 && u != v + 1) return false;
    return true;
  }

  /// Forces a round kernel (kAuto re-enables the heuristics; kAdjacent
  /// requires a consecutive-id topology and the edge-fault channel).
  /// Kernel choice never changes results; this exists for tests and
  /// benchmarks.  Must be called with no broadcasts staged: the staging
  /// representation (bitmask plan vs node slots) is chosen per kernel
  /// route, so it cannot change mid-round.
  void set_kernel(Kernel kernel) {
    NRN_EXPECTS(plan_senders_.empty(),
                "set_kernel with broadcasts already staged");
    NRN_EXPECTS(kernel != Kernel::kAdjacent || (adjacent_ok_ && !channel_.sinr),
                "adjacent kernel forced on a non-consecutive-id topology "
                "or under the sinr channel");
    kernel_ = kernel;
    select_staging();
  }

  /// Stages node `u` to broadcast this round, at the next plan position.
  /// A node may be staged at most once per round.
  void set_broadcast(NodeId u) { mark_broadcaster(u); }

  /// Stages every node of `senders`, in order: the same plan and tape as
  /// one set_broadcast per node.
  void stage_many(std::span<const NodeId> senders) override;

  /// Stages the coin-selected subset of `candidates`, drawing from `rng`
  /// exactly the Rng::for_each_bernoulli_pow2 tape over the candidate list
  /// (i == 0 stages all of them and draws nothing).
  void stage_bernoulli_pow2(std::span<const NodeId> candidates,
                            std::int32_t i, Rng& rng) override;

  /// Executes one synchronized round with the staged broadcasters, clears
  /// the plan, and returns the deliveries (buffer reused across rounds).
  /// With nothing staged the round only advances the clock.
  const DeliveryList& run_round();

  const RoundStats& last_round() const { return last_round_; }
  const NetworkTotals& totals() const { return totals_; }
  std::int64_t round_number() const { return totals_.rounds; }

 private:
  void run_round_sparse();
  void run_round_dense();
  void run_round_adjacent();
  // SINR interference routes, one per scan shape (see run_round for
  // selection).  Both accumulate each listener's interference sum in
  // ascending neighbor id.
  void run_round_sinr_sparse();
  void run_round_sinr_dense();

  /// Resolves the staging representation: the bitmask plan iff the
  /// adjacent kernel is the round route (eligible topology, edge-fault
  /// channel, kAuto or kAdjacent).  Re-run whenever the kernel or the
  /// channel changes.
  void select_staging() {
    use_bitmask_plan_ =
        adjacent_ok_ && !channel_.sinr &&
        (kernel_ == Kernel::kAuto || kernel_ == Kernel::kAdjacent);
  }

  /// Decodes one listener under the SINR rule: walks its CSR row in
  /// ascending neighbor id, sums the broadcasting neighbors' gains, and
  /// pushes a delivery (or counts an interference loss).  `is_tx` reports
  /// whether a neighbor is staged this round; `plan_of` maps a
  /// broadcasting neighbor to its plan index.
  template <typename IsTx, typename PlanOf>
  void sinr_decode(NodeId v, IsTx&& is_tx, PlanOf&& plan_of);

  /// Shared final pass of the sparse and dense kernels: drops tombstoned
  /// delivery candidates, applies the senders' shared fault coins (priced
  /// once per plan slot, batched), then prices the survivors' receiver
  /// coins -- the only place fault coins are evaluated.
  void finalize_candidates(std::span<const NodeId> cands);

  /// Receiver-coin tail shared by every kernel: prices the id-keyed coins
  /// of deliveries_[base..] in one vectorized sweep and compacts the
  /// survivors in place.
  void apply_receiver_coins(std::size_t base);

  /// Ensures the next round's u32 epoch stamp is non-zero, flushing the
  /// slot arrays once every 2^32 rounds so stale stamps can never match.
  void prepare_epoch();

  /// Appends `u` to the plan and records it in the active staging
  /// representation (bitmask plan or epoch-stamped slot), enforcing the
  /// range and staged-once contracts; the first broadcaster of a round
  /// prepares its epoch.  Inline: every staging entry point runs it per
  /// node, and schedule loops stage millions of nodes per sweep.
  void mark_broadcaster(NodeId u) {
    NRN_EXPECTS(u >= 0 && u < graph_->node_count(),
                "broadcaster out of range");
    const std::size_t pos = plan_senders_.size();
    if (pos == 0) prepare_epoch();
    const auto ui = static_cast<std::size_t>(u);
    if (use_bitmask_plan_) {
      std::uint64_t& word = bcast_mask_[ui >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (ui & 63);
      NRN_EXPECTS((word & bit) == 0,
                  "node staged to broadcast twice in one round");
      word |= bit;
      plan_pos_[ui] = static_cast<std::uint32_t>(pos);
    } else {
      const auto stamp = static_cast<std::uint32_t>(epoch_ + 1);
      NodeSlot& slot = slots_[ui];
      NRN_EXPECTS(slot.bcast_epoch != stamp,
                  "node staged to broadcast twice in one round");
      slot.bcast_epoch = stamp;
      slot.plan_index = static_cast<std::int32_t>(pos);
    }
    plan_senders_.push_back(u);
  }

  const graph::Graph* graph_;
  const graph::Geometry* geometry_;
  Rng rng_;
  // The armed channel: coin flags and thresholds, SINR gain table.
  ChannelState channel_;
  // This round's tweaked mix64 salts.
  std::uint64_t sender_salt_ = 0;
  std::uint64_t receiver_salt_ = 0;

  Kernel kernel_ = Kernel::kAuto;
  // Auto selection compares staged broadcasters against this count, the
  // precomputed kDenseWorkFactor * n / avg_degree (see run_round).
  std::size_t dense_plan_threshold_ = ~std::size_t{0};

  // Structured-adjacency kernel (run_round_adjacent): eligible when every
  // edge of the graph joins consecutive node ids, i.e. the topology is a
  // disjoint union of subpaths laid out along the integer line (paths are
  // the motivating case).  Reception then reduces to word-parallel bit
  // algebra on a broadcaster bitmask -- no per-touch slot traffic at all.
  // left/right_edge_mask_ record, per node bit, whether the edge to v-1 /
  // v+1 exists; bcast_mask_ is the per-round broadcaster set (cleared
  // per-sender after use so sparse rounds never pay O(n)).
  bool adjacent_ok_ = false;
  // True when the adjacent kernel is the resolved round route (see
  // select_staging): staging then records broadcasters in bcast_mask_ +
  // plan_pos_ (one bit set and one u32 store per stage) instead of the
  // 16-byte node slots the sparse/dense kernels read.
  bool use_bitmask_plan_ = false;
  std::vector<std::uint32_t> plan_pos_;
  std::vector<std::uint64_t> bcast_mask_;
  std::vector<std::uint64_t> left_edge_mask_;
  std::vector<std::uint64_t> right_edge_mask_;
  // Per-word candidate and hears-left masks staged between the counting
  // and emission passes of the adjacent kernel.
  std::vector<std::uint64_t> cand_mask_scratch_;
  std::vector<std::uint64_t> hear_left_scratch_;

  // The staging plan: this round's broadcasters in staging order, so a
  // sender's index here is its deliveries' plan_index.
  std::vector<NodeId> plan_senders_;
  // The last executed round's plan lives inside deliveries_ (the list owns
  // the sender array it reads); the buffers swap back and forth so neither
  // reallocates in steady state.
  // Sender-fault coin outcomes for the current round, one byte per staged
  // broadcaster: mix64(sender_salt_, sender) priced for the whole plan in
  // one batched pass, then read per delivery candidate (a sender's coin is
  // shared by all its receivers).
  std::vector<std::uint8_t> plan_noisy_;
  DeliveryList deliveries_;
  std::vector<std::uint64_t> sort_scratch_;
  // Receiver-coin pricing scratch: the survivors' mixed coin values, sized
  // to the round's survivor count so mix64_batch runs one vectorized sweep
  // over the whole array (apply_receiver_coins).
  std::vector<std::uint64_t> coin_mix_scratch_;

  // Epoch-stamped per-node scratch; avoids O(n) clearing each round.  The
  // per-node fields are packed into 8-byte slots (u32 epoch stamps; see
  // prepare_epoch for the once-per-2^32-rounds flush) so a kernel's inner
  // loop touches one cache line per sixteen nodes.
  //
  // NodeSlot.state encodes a listener's status for the current round: the
  // sole broadcasting neighbor's plan index >= 0 (a live delivery
  // candidate), or one of the codes below.  The broadcast half is written
  // at staging time; keeping both halves in one 16-byte slot means the
  // sparse kernel's first-touch classification reads a single cache line.
  static constexpr std::int32_t kNotListening = -1;
  static constexpr std::int32_t kCollided = -2;
  struct NodeSlot {
    std::uint32_t touch_epoch = 0;
    std::int32_t state = 0;
    std::uint32_t bcast_epoch = 0;  // staged for the round when == epoch+1
    std::int32_t plan_index = -1;   // index into the staging plan
  };
  std::uint64_t epoch_ = 0;
  // Epoch of the last slot flush: stamps are unique within one u32 cycle
  // of this point (see prepare_epoch).
  std::uint64_t slots_valid_since_ = 0;
  std::vector<NodeSlot> slots_;
  std::vector<NodeId> candidates_;  // sparse kernel's first-touch listeners

  RoundStats last_round_;
  NetworkTotals totals_;
};

}  // namespace nrn::radio
