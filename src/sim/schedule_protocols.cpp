// Schedule-level protocol adapters: the Lemma 25/26 transforms, the
// Section 5.1.1 star schedules with Appendix A's single link as the
// one-leaf star, and the Section 5.1.2 WCT schedules behind the uniform
// BroadcastProtocol interface.  Unlike the builtin broadcast protocols
// these only run on the topologies whose base schedules exist (star/path
// for the transforms, star or link for the star schedules, wct for the WCT
// schedules) and only from source 0 (the routing transform also only
// without receiver faults), so their factories validate the scenario and
// throw SpecError on one they cannot schedule.
//
// These are the protocols behind the paper's gap experiments: each one
// carries the kScheduleGap capability and a theory bound, so the e7/e8
// benches and `nrn_sim sweep` read the routing-vs-coding separations
// straight off the emitters' gap columns instead of bespoke trial loops.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "core/star_schedules.hpp"
#include "core/transforms.hpp"
#include "core/wct_schedules.hpp"
#include "sim/registry.hpp"
#include "sim/theory_bounds.hpp"
#include "topology/wct.hpp"

namespace nrn::sim {

namespace {

/// Every schedule here broadcasts from node 0: the star's hub, the link's
/// sending end, the transforms' base-schedule source and the WCT source.
void require_source_zero(const ProtocolContext& ctx,
                         const std::string& protocol) {
  if (ctx.scenario.source != 0)
    throw SpecError(protocol + " needs source 0, got " +
                    std::to_string(ctx.scenario.source));
}

/// Lemma 25 counts a sub-message delivered once any listener hears it.
/// That is sound only when a fault silences a sender for all its listeners
/// at once; under receiver faults another listener can miss it, and the
/// routing transform never completes.
void require_no_receiver_faults(const ProtocolContext& ctx,
                                const std::string& protocol) {
  if (radio::receiver_fault_probability(ctx.scenario.channel.coins()) > 0.0)
    throw SpecError(protocol + " tolerates sender faults only, got fault '" +
                    ctx.scenario.fault_text + "'");
}

std::unique_ptr<core::BaseSchedule> base_schedule_for(
    const ProtocolContext& ctx, const std::string& protocol) {
  require_source_zero(ctx, protocol);
  const auto& topology = ctx.scenario.topology;
  const std::int64_t k0 = ctx.scenario.k;
  if (topology.kind == "star")
    return std::make_unique<core::StarBaseSchedule>(k0);
  if (topology.kind == "path")
    return std::make_unique<core::PathPipelineBaseSchedule>(
        static_cast<std::int32_t>(topology.ints.at(0)), k0);
  throw SpecError(protocol + " needs a star:* or path:* topology, got '" +
                  topology.text + "'");
}

core::TransformParams transform_params(const ProtocolContext& ctx) {
  core::TransformParams params;
  if (ctx.tuning.transform_x > 0) params.x = ctx.tuning.transform_x;
  else params.x = 64;  // the experiments' x cap (paper takes x -> infinity)
  params.eta = ctx.tuning.transform_eta > 0.0
                   ? ctx.tuning.transform_eta
                   : core::recommended_transform_eta(
                         ctx.scenario.channel.effective_loss());
  return params;
}

class TransformProtocol final : public BroadcastProtocol {
 public:
  TransformProtocol(const ProtocolContext& ctx, bool coding)
      : coding_(coding),
        base_(base_schedule_for(
            ctx, coding ? "transform-coding" : "transform-routing")),
        params_(transform_params(ctx)) {}

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    const auto result =
        coding_ ? core::run_coding_transform(net, *base_, params_, rng)
                : core::run_routing_transform(net, *base_, params_, rng);
    // The run is in sub-message units, so rounds_per_message() inverts to
    // the transform's measured throughput.
    return Outcome::from(result.run);
  }

 private:
  bool coding_;
  std::unique_ptr<core::BaseSchedule> base_;
  core::TransformParams params_;
};

// ------------------------------------------------- star and link schedules

enum class StarMode { kAdaptive, kNonadaptive, kCoding };

/// The star schedules on a star:* topology, or on the link: the one-leaf
/// star, run with the link's own repetition and packet-count formulas.
class StarProtocol final : public BroadcastProtocol {
 public:
  StarProtocol(const ProtocolContext& ctx, StarMode mode, bool link,
               const std::string& name)
      : mode_(mode), k_(ctx.scenario.k) {
    const auto& topology = ctx.scenario.topology;
    const std::string kind = link ? "link" : "star";
    if (topology.kind != kind)
      throw SpecError(name + " needs a " + kind + " topology, got '" +
                      topology.text + "'");
    require_source_zero(ctx, name);
    const double p = ctx.scenario.channel.effective_loss();
    if (link) {
      reps_ = p > 0.0 ? core::link_nonadaptive_reps(k_, p) : 1;
      packets_ = core::rs_packet_count(k_, 1, p);
    } else {
      const std::int64_t n = topology.ints.at(0);  // leaves
      // Lemma 15 ablation: repetitions for per-leaf, per-message failure
      // below 1/(n k): p^r <= 1/(n k^2), i.e. r = ceil(log_{1/p}(n k^2)).
      reps_ = p <= 0.0
                  ? 1
                  : std::max<std::int64_t>(
                        1, static_cast<std::int64_t>(std::ceil(
                               std::log(std::max<double>(
                                   2.0, static_cast<double>(n * k_ * k_))) /
                               std::log(1.0 / p))));
      packets_ = core::rs_packet_count(
          k_, static_cast<std::int32_t>(n + 1), p);
    }
    max_rounds_ =
        ctx.tuning.max_rounds > 0 ? ctx.tuning.max_rounds : 1'000'000'000;
  }

  Outcome run(radio::RadioNetwork& net, Rng& /*rng*/,
              radio::TraceRecorder* /*trace*/) const override {
    // The star schedules draw all randomness from the network fault tape.
    switch (mode_) {
      case StarMode::kAdaptive:
        return Outcome::from(
            core::run_star_adaptive_routing(net, k_, max_rounds_));
      case StarMode::kNonadaptive:
        return Outcome::from(
            core::run_star_nonadaptive_routing(net, k_, reps_));
      case StarMode::kCoding:
        return Outcome::from(core::run_star_rs_coding(net, k_, packets_));
    }
    NRN_EXPECTS(false, "unhandled star mode");
    return {};
  }

 private:
  StarMode mode_;
  std::int64_t k_;
  std::int64_t reps_ = 1;
  std::int64_t packets_ = 1;
  std::int64_t max_rounds_ = 0;
};

// ------------------------------------------------------- wct gap schedules

/// Rebuilds the scenario's WctNetwork (cluster structure included) by
/// replaying the exact stream build_graph() used; the Driver's graph and
/// this network are bit-identical.  Full adjacency is verified here, once
/// per protocol construction, so the per-trial core check stays cheap.
topology::WctNetwork wct_for(const ProtocolContext& ctx,
                             const std::string& protocol) {
  if (ctx.scenario.topology.kind != "wct")
    throw SpecError(protocol + " needs a wct:* topology, got '" +
                    ctx.scenario.topology.text + "'");
  require_source_zero(ctx, protocol);
  Rng rng = ctx.scenario.topology_rng();
  topology::WctNetwork wct(ctx.scenario.topology.wct_params(), rng);
  const auto& rebuilt = wct.graph();
  NRN_ENSURES(rebuilt.node_count() == ctx.graph.node_count() &&
                  rebuilt.edge_count() == ctx.graph.edge_count(),
              "WCT reconstruction diverged from the scenario graph");
  for (graph::NodeId u = 0; u < rebuilt.node_count(); ++u) {
    const auto a = rebuilt.neighbors(u);
    const auto b = ctx.graph.neighbors(u);
    NRN_ENSURES(a.size() == b.size() &&
                    std::equal(a.begin(), a.end(), b.begin()),
                "WCT reconstruction diverged from the scenario graph");
  }
  return wct;
}

class WctCodingProtocol final : public BroadcastProtocol {
 public:
  explicit WctCodingProtocol(const ProtocolContext& ctx)
      : wct_(wct_for(ctx, "wct-coding")) {
    params_.k = ctx.scenario.k;
    params_.decay_phase = ctx.tuning.decay_phase;
    params_.max_rounds = ctx.tuning.max_rounds;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    return Outcome::from(core::run_wct_rs_coding(net, wct_, params_, rng));
  }

 private:
  topology::WctNetwork wct_;
  core::WctCodedParams params_;
};

/// The Lemma 18 structural probe: for broadcast sets of every power-of-two
/// size, the worst observed fraction of clusters with exactly one
/// broadcasting neighbor.  Emits "unique_fraction" (should be O(1/L)) and
/// "unique_fraction_x_classes" (should stay bounded as L grows); runs no
/// broadcast rounds.
class WctUniqueProbeProtocol final : public BroadcastProtocol {
 public:
  explicit WctUniqueProbeProtocol(const ProtocolContext& ctx)
      : wct_(wct_for(ctx, "wct-unique-probe")) {}

  Outcome run(radio::RadioNetwork& /*net*/, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    const std::int32_t senders = wct_.params().sender_count;
    double worst = 0.0;
    std::vector<std::int32_t> ids(static_cast<std::size_t>(senders));
    for (std::int32_t i = 0; i < senders; ++i)
      ids[static_cast<std::size_t>(i)] = i;
    for (std::int32_t s = 1; s <= senders; s *= 2) {
      for (int shuffle = 0; shuffle < 12; ++shuffle) {
        rng.shuffle(ids);
        std::vector<bool> mask(static_cast<std::size_t>(senders), false);
        for (std::int32_t i = 0; i < s; ++i)
          mask[static_cast<std::size_t>(ids[static_cast<std::size_t>(i)])] =
              true;
        worst = std::max(worst, wct_.unique_reception_fraction(mask));
      }
    }
    Outcome out;
    out.completed = true;
    out.set("rounds", std::int64_t{0});
    out.set("unique_fraction", worst);
    out.set("unique_fraction_x_classes",
            worst * static_cast<double>(wct_.params().class_count));
    return out;
  }

 private:
  topology::WctNetwork wct_;
};

// ------------------------------------------------------------- the bounds

using bounds::kd;
using bounds::log2n;
using bounds::loss_factor;

/// Leaves, not nodes: the star's coupon collection runs over the n leaves.
double star_leaves(const TheoryContext& ctx) {
  return std::max<double>(
      2.0, static_cast<double>(ctx.scenario.topology.ints.at(0)));
}

double coded_stream_bound(const TheoryContext& ctx) {
  // Theta(1) rounds/message: k/(1-p) rounds end to end (Lemmas 16, 30, 32).
  return kd(ctx) * loss_factor(ctx);
}

double star_adaptive_bound(const TheoryContext& ctx) {
  // Lemma 15: log_{1/p} n rounds/message (last-of-n coupons).
  const double p = ctx.scenario.channel.effective_loss();
  if (p <= 0.0) return kd(ctx);
  return kd(ctx) *
         std::max(1.0, std::log(star_leaves(ctx)) / std::log(1.0 / p));
}

double star_nonadaptive_bound(const TheoryContext& ctx) {
  // The repetition law the adapter implements: log_{1/p}(n k^2)
  // rounds/message (one round/message when faultless).
  const double p = ctx.scenario.channel.effective_loss();
  if (p <= 0.0) return kd(ctx);
  return kd(ctx) *
         std::max(1.0, std::log(star_leaves(ctx) * kd(ctx) * kd(ctx)) /
                           std::log(1.0 / p));
}

double wct_coding_bound(const TheoryContext& ctx) {
  // Lemma 23: Theta(1/log n) throughput.
  return kd(ctx) * log2n(ctx) * loss_factor(ctx);
}

double link_nonadaptive_bound(const TheoryContext& ctx) {
  // Lemma 29: Theta(log k) rounds/message.
  return kd(ctx) * std::max(1.0, std::log2(std::max(2.0, kd(ctx))));
}

}  // namespace

void register_schedule_protocols(ProtocolRegistry& registry) {
  registry.add("transform-routing",
               "Lemma 25: routing transform of a faultless base schedule "
               "(star/path), throughput tau(1-p) under sender faults",
               kMultiMessage,
               [](const ProtocolContext& ctx) {
                 require_no_receiver_faults(ctx, "transform-routing");
                 return std::make_unique<TransformProtocol>(ctx, false);
               });
  registry.add("transform-coding",
               "Lemma 26: coding transform of a faultless base schedule "
               "(star/path), robust to sender or receiver faults",
               kMultiMessage,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<TransformProtocol>(ctx, true);
               });
  registry.add("link-nonadaptive",
               "Lemma 29: non-adaptive repetition schedule on the single "
               "link, Theta(log k) rounds/message",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<StarProtocol>(
                     ctx, StarMode::kNonadaptive, true, "link-nonadaptive");
               },
               link_nonadaptive_bound);
  registry.add("link-adaptive",
               "Lemma 32: adaptive feedback schedule on the single link, "
               "1/(1-p) rounds/message",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<StarProtocol>(
                     ctx, StarMode::kAdaptive, true, "link-adaptive");
               },
               coded_stream_bound);
  registry.add("link-coding",
               "Lemma 30: Reed-Solomon stream on the single link, Theta(1) "
               "rounds/message",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<StarProtocol>(
                     ctx, StarMode::kCoding, true, "link-coding");
               },
               coded_stream_bound);
  registry.add("star-adaptive",
               "Lemma 15: hub resends each message until all leaves have "
               "it; Theta(log n) rounds/message under receiver faults",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<StarProtocol>(
                     ctx, StarMode::kAdaptive, false, "star-adaptive");
               },
               star_adaptive_bound);
  registry.add("star-nonadaptive",
               "Non-adaptive star routing: each message repeated "
               "ceil(log_{1/p} n k^2) times (the adaptivity ablation)",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<StarProtocol>(
                     ctx, StarMode::kNonadaptive, false, "star-nonadaptive");
               },
               star_nonadaptive_bound);
  registry.add("star-coding",
               "Lemma 16: hub streams Reed-Solomon packets; Theta(1) "
               "rounds/message -- the Theorem 17 coding gap's fast side",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<StarProtocol>(
                     ctx, StarMode::kCoding, false, "star-coding");
               },
               coded_stream_bound);
  registry.add("wct-coding",
               "Lemma 23: coded schedule on the worst-case topology, "
               "Theta(1/log n) throughput (Theorem 24's fast side)",
               kMultiMessage | kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<WctCodingProtocol>(ctx);
               },
               wct_coding_bound);
  registry.add("wct-unique-probe",
               "Lemma 18 structural probe: worst unique-reception fraction "
               "over broadcast set sizes (no rounds run)",
               kScheduleGap,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<WctUniqueProbeProtocol>(ctx);
               });
}

}  // namespace nrn::sim
