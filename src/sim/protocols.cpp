// Built-in protocol adapters: the library's broadcast algorithms wrapped
// behind the uniform BroadcastProtocol interface and registered by name,
// together with each protocol's capabilities and its theory bound (the
// paper's asymptotic round count, Theta-constants dropped, evaluated on the
// concrete scenario so reports can emit gap-vs-theory columns).  This file
// is the single place where protocol names meet concrete types.
#include <cmath>
#include <utility>

#include "core/bipartite_pipeline.hpp"
#include "core/decay.hpp"
#include "core/fastbc.hpp"
#include "core/greedy_router.hpp"
#include "core/multi_message.hpp"
#include "sim/registry.hpp"
#include "sim/theory_bounds.hpp"

namespace nrn::sim {

namespace {

using bounds::depth;
using bounds::kd;
using bounds::log2n;
using bounds::loglog2n;
using bounds::loss_factor;

// ----------------------------------------------------------- the adapters

// decay, fastbc and robust define only make_stepper(); their run() is
// BroadcastProtocol's, run_stepped over that stepper.

class DecayProtocol final : public BroadcastProtocol {
 public:
  explicit DecayProtocol(const ProtocolContext& ctx)
      : source_(ctx.scenario.source),
        node_count_(ctx.graph.node_count()),
        effective_loss_(ctx.scenario.channel.effective_loss()),
        algo_(core::DecayParams{ctx.tuning.decay_phase,
                                ctx.tuning.max_rounds}) {}

  std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const override {
    return algo_.make_stepper(node_count_, source_, effective_loss_, trace);
  }

 private:
  graph::NodeId source_;
  std::int32_t node_count_;
  double effective_loss_;
  core::Decay algo_;
};

/// fastbc and robust: one core::Fastbc, built with FASTBC's schedule or
/// with the band schedule.
class FastbcProtocol final : public BroadcastProtocol {
 public:
  FastbcProtocol(const ProtocolContext& ctx, core::Fastbc algo)
      : effective_loss_(ctx.scenario.channel.effective_loss()),
        algo_(std::move(algo)) {}

  std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const override {
    return algo_.make_stepper(effective_loss_, trace);
  }

 private:
  double effective_loss_;
  core::Fastbc algo_;
};

core::RobustFastbcParams robust_params(const ProtocolContext& ctx) {
  core::RobustFastbcParams params;
  params.block_size = ctx.tuning.block_size;
  params.rank_modulus = ctx.tuning.rank_modulus;
  params.decay_phase = ctx.tuning.decay_phase;
  params.max_rounds = ctx.tuning.max_rounds;
  // The paper's "sufficiently large constant c" depends on the loss rate;
  // size the window for the scenario's fault model unless overridden.
  params.window_multiplier =
      ctx.tuning.window_multiplier != 0
          ? ctx.tuning.window_multiplier
          : core::Fastbc::recommended_window_multiplier(
                ctx.scenario.channel.effective_loss());
  return params;
}

core::MultiMessageParams coded_params(const ProtocolContext& ctx,
                                      core::MultiPattern pattern,
                                      core::MultiCode code,
                                      std::size_t block_len) {
  core::MultiMessageParams params;
  params.k = static_cast<std::size_t>(ctx.scenario.k);
  params.block_len = block_len;
  params.pattern = pattern;
  params.code = code;
  params.decay_phase = ctx.tuning.decay_phase;
  params.block_size = ctx.tuning.block_size;
  params.window_multiplier = ctx.tuning.window_multiplier;
  params.max_rounds = ctx.tuning.max_rounds;
  return params;
}

/// Payload length for verified runs: tuning override or 16 bytes/message.
std::size_t verified_block_len(const ProtocolContext& ctx) {
  return ctx.tuning.payload_len > 0
             ? static_cast<std::size_t>(ctx.tuning.payload_len)
             : 16;
}

/// Deterministic per-trial payloads, drawn from the trial's algo stream so
/// a trial is reproducible from its recorded seeds alone.
std::vector<std::vector<std::uint8_t>> draw_payloads(std::size_t k,
                                                     std::size_t block_len,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint8_t>> messages(
      k, std::vector<std::uint8_t>(block_len));
  for (auto& m : messages)
    for (auto& byte : m)
      byte = static_cast<std::uint8_t>(rng.next_below(256));
  return messages;
}

/// The five coded entries, RLNC or Reed-Solomon over the Decay or the
/// Robust FASTBC pattern: rank-only when `block_len` is 0, else carrying
/// `block_len` payload bytes per message, every node's decode verified and
/// the bytes certified reported as `verified_bytes`.
class CodedProtocol final : public BroadcastProtocol {
 public:
  CodedProtocol(const ProtocolContext& ctx, core::MultiPattern pattern,
                core::MultiCode code, std::size_t block_len)
      : nodes_(ctx.graph.node_count()),
        k_(static_cast<std::size_t>(ctx.scenario.k)),
        block_len_(block_len),
        algo_(ctx.graph, ctx.scenario.source,
              coded_params(ctx, pattern, code, block_len),
              pattern == core::MultiPattern::kRobustFastbc ? ctx.gbst()
                                                           : nullptr) {}

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    if (block_len_ == 0) return Outcome::from(algo_.run(net, rng));
    const auto messages = draw_payloads(k_, block_len_, rng);
    Outcome out = Outcome::from(algo_.run_and_verify(net, rng, messages));
    const std::int64_t bytes =
        out.completed ? nodes_ * static_cast<std::int64_t>(k_ * block_len_)
                      : 0;
    out.set("verified_bytes", bytes);
    return out;
  }

 private:
  std::int64_t nodes_;
  std::size_t k_;
  std::size_t block_len_;
  core::CodedBroadcast algo_;
};

class PipelineProtocol final : public BroadcastProtocol {
 public:
  explicit PipelineProtocol(const ProtocolContext& ctx)
      : source_(ctx.scenario.source) {
    params_.k = ctx.scenario.k;
    params_.batch = ctx.tuning.batch;
    params_.decay_phase = ctx.tuning.decay_phase;
  }

  Outcome run(radio::RadioNetwork& net, Rng& rng,
              radio::TraceRecorder* /*trace*/) const override {
    return Outcome::from(
        core::run_layered_pipeline_routing(net, source_, params_, rng));
  }

 private:
  graph::NodeId source_;
  core::PipelineParams params_;
};

class GreedyRouterProtocol final : public BroadcastProtocol {
 public:
  explicit GreedyRouterProtocol(const ProtocolContext& ctx)
      : source_(ctx.scenario.source) {
    params_.k = ctx.scenario.k;
    params_.max_rounds = ctx.tuning.max_rounds;
  }

  Outcome run(radio::RadioNetwork& net, Rng& /*rng*/,
              radio::TraceRecorder* /*trace*/) const override {
    // The greedy router is deterministic given the network's fault tape.
    return Outcome::from(
        core::run_greedy_adaptive_routing(net, source_, params_));
  }

 private:
  graph::NodeId source_;
  core::GreedyRouterParams params_;
};

// ------------------------------------------------------------- the bounds

double decay_bound(const TheoryContext& ctx) {
  // Lemma 9: O((D + log n) log n), inflated by the loss rate.
  return (depth(ctx) + log2n(ctx)) * log2n(ctx) * loss_factor(ctx);
}

double fastbc_bound(const TheoryContext& ctx) {
  // Lemma 8 (faultless): D + O(log^2 n).
  return depth(ctx) + log2n(ctx) * log2n(ctx);
}

double robust_bound(const TheoryContext& ctx) {
  // Theorem 11: O(D + log^2 n) under constant noise.
  return (depth(ctx) + log2n(ctx) * log2n(ctx)) * loss_factor(ctx);
}

double rlnc_decay_bound(const TheoryContext& ctx) {
  // Lemma 12: O(D log n + k log n + log^2 n).
  return ((depth(ctx) + kd(ctx)) * log2n(ctx) + log2n(ctx) * log2n(ctx)) *
         loss_factor(ctx);
}

double rlnc_robust_bound(const TheoryContext& ctx) {
  // Lemma 13: O(D + (k + log n) log n loglog n).
  return (depth(ctx) +
          (kd(ctx) + log2n(ctx)) * log2n(ctx) * loglog2n(ctx)) *
         loss_factor(ctx);
}

double routing_pipeline_bound(const TheoryContext& ctx) {
  // Lemmas 20-22: adaptive routing pays Theta(log^2 n) per message on the
  // hard topologies.
  return (depth(ctx) + kd(ctx) * log2n(ctx) * log2n(ctx)) * loss_factor(ctx);
}

}  // namespace

void register_builtin_protocols(ProtocolRegistry& registry) {
  registry.add("decay", "Decay (Lemma 9): topology-oblivious, noise-robust",
               kTraced | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<DecayProtocol>(ctx);
               },
               decay_bound);
  registry.add("fastbc",
               "FASTBC (Lemma 8): known-topology, D + O(log^2 n), fragile "
               "under noise",
               kTraced | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 const core::FastbcParams params{ctx.tuning.rank_modulus,
                                                 ctx.tuning.decay_phase,
                                                 ctx.tuning.max_rounds};
                 return std::make_unique<FastbcProtocol>(
                     ctx, core::Fastbc(ctx.graph, ctx.gbst(), params));
               },
               fastbc_bound);
  registry.add("robust",
               "Robust FASTBC (Theorem 11): noise-robust diameter-linear",
               kTraced | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<FastbcProtocol>(
                     ctx, core::Fastbc::robust(ctx.graph, ctx.gbst(),
                                               robust_params(ctx)));
               },
               robust_bound);
  registry.add("rlnc-decay",
               "RLNC over the Decay pattern (Lemma 12): k-message coding",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<CodedProtocol>(
                     ctx, core::MultiPattern::kDecay, core::MultiCode::kRlnc,
                     0);
               },
               rlnc_decay_bound);
  registry.add("rlnc-robust",
               "RLNC over the Robust FASTBC pattern (Lemma 13)",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<CodedProtocol>(
                     ctx, core::MultiPattern::kRobustFastbc,
                     core::MultiCode::kRlnc, 0);
               },
               rlnc_robust_bound);
  registry.add("rlnc-decay-verified",
               "Lemma 12 composition carrying real payloads; every node's "
               "decode is checked against the source bytes",
               kMultiMessage | kVerifiedPayload | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<CodedProtocol>(
                     ctx, core::MultiPattern::kDecay, core::MultiCode::kRlnc,
                     verified_block_len(ctx));
               },
               rlnc_decay_bound);
  registry.add("rlnc-robust-verified",
               "Lemma 13 composition carrying real payloads; every node's "
               "decode is checked against the source bytes",
               kMultiMessage | kVerifiedPayload | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<CodedProtocol>(
                     ctx, core::MultiPattern::kRobustFastbc,
                     core::MultiCode::kRlnc, verified_block_len(ctx));
               },
               rlnc_robust_bound);
  registry.add("erasure-decay",
               "Source-side RS/GF(256) erasure coding over the Decay "
               "pattern (arXiv:1805.04165), payload-verified",
               kMultiMessage | kVerifiedPayload | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 // The GF(256) domain caps k + slack at 255; surface that
                 // as a spec error (the scenario asked for more than the
                 // protocol can encode), not a contract violation deep
                 // inside a trial.
                 if (core::default_packet_count(ctx.graph.node_count(),
                                                ctx.scenario.k) > 255)
                   throw SpecError(
                       "erasure-decay: k + Chernoff slack exceeds the "
                       "GF(256) packet domain of 255 coded packets");
                 return std::make_unique<CodedProtocol>(
                     ctx, core::MultiPattern::kDecay,
                     core::MultiCode::kReedSolomon, verified_block_len(ctx));
               },
               rlnc_decay_bound);
  registry.add("pipeline",
               "Layered adaptive-routing pipeline (Lemmas 20-21)",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<PipelineProtocol>(ctx);
               },
               routing_pipeline_bound);
  registry.add("greedy",
               "Greedy centralized adaptive router (Definition 14)",
               kMultiMessage | kSinrCapable,
               [](const ProtocolContext& ctx) {
                 return std::make_unique<GreedyRouterProtocol>(ctx);
               },
               routing_pipeline_bound);
}

}  // namespace nrn::sim
