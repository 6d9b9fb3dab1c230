// The armed channel: a ChannelModel in the form the round kernels read.
//
// Both engines (the scalar RadioNetwork and the LockstepNetwork bank) hold
// one ChannelState and re-arm it on every reset, so the two always derive
// the same coins and the same gains from a channel:
//   * the v4 tape's fault coins (radio/network.hpp): which coin families
//     are in play and their u64 Rng::coin_threshold values, taken from
//     ChannelModel::coins() -- none under kSinr;
//   * under kSinr, the listener-centric gain table: per listener v, the
//     gain of each graph neighbor u at v in CSR row order,
//         gain(u, v) = power_u / dist(u, v)^alpha
//     Gains exist only on graph edges -- out-of-range transmitters
//     contribute nothing, in the style of ROOT-Sim's gain adjacency
//     (SNIPPETS.md section 1).  One builder means both engines read the
//     exact same doubles, which the bit-identity contract between them
//     depends on.  The table is rebuilt only when the SINR parameters
//     change, so the Driver's per-trial resets of one channel stay O(1).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "radio/channel_model.hpp"

namespace nrn::radio {

/// Coincident points would divide by zero; clamp the distance instead.
/// Placement is continuous random, so real collisions are measure-zero.
inline constexpr double kMinSinrDistance = 1e-9;

/// Written only by arm(); the engines' kernels read the fields directly.
struct ChannelState {
  ChannelModel model;
  bool sinr = false;  ///< model.kind == kSinr: the hot path tests one bool
  bool sender_coins = false;
  bool receiver_coins = false;
  std::uint64_t sender_threshold = 0;
  std::uint64_t receiver_threshold = 0;
  /// gain[gain_row[v] + j] is the gain of the j-th neighbor of v (CSR row
  /// order, ascending node id) at v; gain_row has node_count() + 1 entries.
  std::vector<std::int64_t> gain_row;
  std::vector<double> gain;

  /// Arms `channel` on `g`.  A kSinr channel requires `geometry` (node
  /// placement matching the graph); kEdgeFault ignores it.  The gain table
  /// is keyed on the SINR parameters alone, so every call on one state
  /// passes the same graph and geometry (each engine passes its own).
  void arm(const ChannelModel& channel, const graph::Graph& g,
           const graph::Geometry* geometry) {
    const bool to_sinr = channel.kind == ChannelKind::kSinr;
    if (to_sinr && gain_for_ != channel.sinr) {
      NRN_EXPECTS(geometry != nullptr, "sinr channel requires node geometry");
      build_gain_table(g, *geometry, channel.sinr.alpha);
      gain_for_ = channel.sinr;
    }
    model = channel;
    sinr = to_sinr;
    const FaultModel coins = channel.coins();
    const double ps = sender_fault_probability(coins);
    const double pr = receiver_fault_probability(coins);
    sender_coins = ps > 0.0;
    receiver_coins = pr > 0.0;
    sender_threshold = Rng::coin_threshold(ps);
    receiver_threshold = Rng::coin_threshold(pr);
  }

 private:
  void build_gain_table(const graph::Graph& g, const graph::Geometry& geometry,
                        double alpha) {
    NRN_EXPECTS(geometry.node_count() == g.node_count(),
                "sinr channel requires node geometry matching the graph");
    gain_for_.reset();  // a throw below leaves no stale table marked valid
    const graph::NodeId n = g.node_count();
    gain_row.assign(static_cast<std::size_t>(n) + 1, 0);
    gain.clear();
    gain.reserve(static_cast<std::size_t>(2 * g.edge_count()));
    for (graph::NodeId v = 0; v < n; ++v) {
      const auto vi = static_cast<std::size_t>(v);
      gain_row[vi] = static_cast<std::int64_t>(gain.size());
      for (const graph::NodeId u : g.neighbors(v)) {
        const auto ui = static_cast<std::size_t>(u);
        const double dx = geometry.x[ui] - geometry.x[vi];
        const double dy = geometry.y[ui] - geometry.y[vi];
        const double d =
            std::max(std::sqrt(dx * dx + dy * dy), kMinSinrDistance);
        gain.push_back(geometry.power[ui] / std::pow(d, alpha));
      }
    }
    gain_row[static_cast<std::size_t>(n)] =
        static_cast<std::int64_t>(gain.size());
  }

  std::optional<SinrParams> gain_for_;  ///< parameters the table holds
};

}  // namespace nrn::radio
