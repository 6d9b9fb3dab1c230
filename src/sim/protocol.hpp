// The uniform broadcast-protocol interface (Protocol v2).
//
// Every algorithm in the library -- Decay, FASTBC, Robust FASTBC, the RLNC
// compositions, the erasure-coded variant, the layered pipeline, the greedy
// adaptive router, and the star/WCT/link schedule protocols -- is wrapped
// behind one polymorphic run() signature so drivers, benches, and tools
// never dispatch on protocol names themselves.  Protocols are built from a
// (graph, scenario) context by the ProtocolRegistry; construction performs
// any known-topology precomputation (e.g. the GBST), and run() executes one
// trial.
//
// v2 replaces the fixed RunReport struct with an extensible Outcome: a
// `completed` verdict plus a typed metrics map.  A protocol reports only
// the metrics it actually measures -- a single-message run carries
// "informed", a verified run carries "verified_bytes", the WCT structural
// probe carries "unique_fraction" -- and drivers, emitters, and sweep
// aggregation handle arbitrary keys uniformly.  Sentinels are gone: a
// metric a protocol cannot measure is absent, never -1.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "common/numio.hpp"
#include "common/rng.hpp"
#include "core/run_result.hpp"
#include "core/stepper.hpp"
#include "radio/network.hpp"
#include "radio/trace.hpp"

namespace nrn::sim {

// ------------------------------------------------------------ capabilities

/// What a protocol can do beyond "broadcast and count rounds".  The
/// registry stores a CapabilitySet per protocol; drivers and sweeps
/// interrogate it instead of special-casing protocol names.
enum Capability : std::uint32_t {
  /// Broadcasts k > 1 messages; emits the "messages" metric.
  kMultiMessage = 1u << 0,
  /// Carries real payload bytes and checks every delivery against the
  /// source payload; emits the "verified_bytes" metric.
  kVerifiedPayload = 1u << 1,
  /// A schedule-level protocol measured against a registered theory bound
  /// (the star/WCT/link gap experiments); may emit gap observables such as
  /// "unique_fraction".
  kScheduleGap = 1u << 2,
  /// Records per-round progress into a TraceRecorder when one is supplied.
  kTraced = 1u << 3,
  /// Runs correctly under a kSinr channel: the protocol makes no
  /// assumption tied to the edge-fault model (e.g. a precomputed schedule
  /// calibrated to collision-freeness).  The Driver rejects non-capable
  /// protocols under SINR, and theory bounds are reported as n/a -- the
  /// paper's bounds assume the edge-fault model.
  kSinrCapable = 1u << 4,
};

using CapabilitySet = std::uint32_t;

/// "multi-message+verified-payload", or "-" for an empty set.
std::string capability_names(CapabilitySet caps);

// ----------------------------------------------------------------- metrics

/// One metric value: an exact 64-bit integer or a double.  Integers stay
/// integers through serialization (shard files and the result cache must
/// round-trip bit-identically); reals serialize as hexfloats for the same
/// reason.
class MetricValue {
 public:
  MetricValue() = default;
  MetricValue(std::int64_t v) : kind_(Kind::kInt), int_(v) {}
  MetricValue(int v) : MetricValue(static_cast<std::int64_t>(v)) {}
  MetricValue(double v) : kind_(Kind::kReal), real_(v) {}

  bool is_int() const { return kind_ == Kind::kInt; }

  std::int64_t as_int() const {
    NRN_EXPECTS(is_int(), "metric is not an integer");
    return int_;
  }

  /// Either kind, widened to double.
  double as_real() const {
    return is_int() ? static_cast<double>(int_) : real_;
  }

  /// "i<decimal>" for integers, "r<hexfloat>" for reals; both round-trip
  /// exactly through parse().  Rendering is locale-independent
  /// (common/numio), so records written under any process locale are
  /// byte-identical.
  std::string serialize() const {
    if (is_int()) {
      char buf[24];
      std::snprintf(buf, sizeof buf, "i%lld", static_cast<long long>(int_));
      return buf;
    }
    // Prepend via insert rather than `"r" + <temporary>`: the rvalue
    // operator+ overload trips gcc 12's -Wrestrict false positive
    // (gcc bug 105651) at -O3, and the tree builds with -Werror.
    std::string out = format_real_hex(real_);
    out.insert(0, 1, 'r');
    return out;
  }

  /// Inverse of serialize(); nullopt on any malformed input (trailing
  /// junk, overflow, wrong kind tag).  Real values that underflow to a
  /// subnormal or zero are accepted -- they are the closest representable
  /// doubles, and serialized subnormals must round-trip.
  static std::optional<MetricValue> parse(std::string_view text) {
    if (text.size() < 2) return std::nullopt;
    const std::string body(text.substr(1));
    if (text[0] == 'i') {
      char* end = nullptr;
      errno = 0;
      const long long v = std::strtoll(body.c_str(), &end, 10);
      if (end != body.c_str() + body.size() || errno == ERANGE)
        return std::nullopt;
      return MetricValue(static_cast<std::int64_t>(v));
    }
    if (text[0] == 'r') {
      const ParseRealResult r = parse_real(body);
      if (!r.ok()) return std::nullopt;
      return MetricValue(r.value);
    }
    return std::nullopt;
  }

  friend bool operator==(const MetricValue&, const MetricValue&) = default;

 private:
  enum class Kind { kInt, kReal };
  Kind kind_ = Kind::kInt;
  std::int64_t int_ = 0;
  double real_ = 0.0;
};

/// Sorted key -> value map; sorted so every emitter and serialization
/// enumerates metrics in one deterministic order.
using Metrics = std::map<std::string, MetricValue>;

/// Per-round series: key -> one value per recorded round, in round order.
/// Same key grammar and ordering guarantees as Metrics.
using MetricSeries = std::map<std::string, std::vector<MetricValue>>;

/// True iff `key` is a legal metric name: nonempty, [a-z0-9_] only.  Keys
/// appear as serialization tokens and CSV column names, so the grammar is
/// deliberately narrow.
bool valid_metric_key(std::string_view key);

// ----------------------------------------------------------------- outcome

/// Uniform outcome of one protocol trial: the completion verdict plus the
/// metrics the protocol measured.  Conventional keys:
///   rounds          rounds executed (every protocol)
///   messages        k, multi-message protocols only (absent => 1)
///   informed        informed nodes at the end, when tracked (absent
///                   otherwise -- never a -1 sentinel)
///   verified_bytes  payload bytes checked against the source payload
///
/// Tracing (Protocol v4): when the Driver runs a kTraced protocol with
/// tracing enabled, the outcome additionally carries per-round *series* --
/// one value per round under conventional keys ("informed", "deliveries",
/// "collisions", "broadcasters").  Series are empty for untraced runs, so
/// tracing costs nothing when disabled and untraced outcomes serialize
/// exactly as before.
struct Outcome {
  bool completed = false;
  Metrics metrics;
  MetricSeries series;

  std::int64_t rounds() const { return int_metric("rounds", 0); }
  std::int64_t messages() const { return int_metric("messages", 1); }

  double rounds_per_message() const {
    const std::int64_t m = messages();
    return m <= 0 ? 0.0
                  : static_cast<double>(rounds()) / static_cast<double>(m);
  }

  const MetricValue* find(const std::string& key) const {
    const auto it = metrics.find(key);
    return it == metrics.end() ? nullptr : &it->second;
  }

  Outcome& set(const std::string& key, MetricValue value) {
    NRN_EXPECTS(valid_metric_key(key),
                "invalid metric key '" + key + "'");
    metrics[key] = value;
    return *this;
  }

  const std::vector<MetricValue>* find_series(const std::string& key) const {
    const auto it = series.find(key);
    return it == series.end() ? nullptr : &it->second;
  }

  Outcome& set_series(const std::string& key,
                      std::vector<MetricValue> values) {
    NRN_EXPECTS(valid_metric_key(key),
                "invalid series key '" + key + "'");
    series[key] = std::move(values);
    return *this;
  }

  static Outcome from(const core::BroadcastRunResult& r) {
    Outcome out;
    out.completed = r.completed;
    out.set("rounds", r.rounds);
    out.set("informed", r.informed);
    return out;
  }

  /// Multi-message results do not track informed counts; the metric is
  /// simply absent (v1 emitted informed = -1 here).
  static Outcome from(const core::MultiRunResult& r) {
    Outcome out;
    out.completed = r.completed;
    out.set("rounds", r.rounds);
    out.set("messages", r.messages);
    return out;
  }

  friend bool operator==(const Outcome&, const Outcome&) = default;

 private:
  std::int64_t int_metric(const std::string& key, std::int64_t fallback) const {
    const MetricValue* v = find(key);
    return v == nullptr ? fallback : v->as_int();
  }
};

// ------------------------------------------------------------------ tuning

/// Optional protocol knobs for ablations; 0 keeps each protocol's own
/// default.  Protocols read only the fields they understand.
struct Tuning {
  std::int32_t decay_phase = 0;        ///< Decay phase length
  std::int32_t rank_modulus = 0;       ///< FASTBC-family schedule modulus
  std::int32_t block_size = 0;         ///< Robust FASTBC block size S
  std::int32_t window_multiplier = 0;  ///< Robust FASTBC window constant c
  std::int64_t batch = 0;              ///< pipeline batch size k'
  std::int64_t max_rounds = 0;         ///< round budget override
  std::int64_t transform_x = 0;        ///< Lemma 25/26 sub-messages per base
  double transform_eta = 0.0;          ///< Lemma 25/26 meta-round slack
  std::int64_t payload_len = 0;        ///< bytes/message for verified runs

  friend bool operator==(const Tuning&, const Tuning&) = default;
};

// ---------------------------------------------------------------- protocol

/// A broadcast protocol bound to a concrete (graph, scenario).
///
/// run() must be safe to call concurrently from multiple threads on the
/// same instance (the Driver batches trials across threads): all per-trial
/// state lives in the RadioNetwork and Rng arguments, never in the protocol
/// object.  Protocols with the kTraced capability record per-round progress
/// into `trace` when it is non-null; others ignore it.
class BroadcastProtocol {
 public:
  virtual ~BroadcastProtocol() = default;

  virtual Outcome run(radio::RadioNetwork& net, Rng& rng,
                      radio::TraceRecorder* trace = nullptr) const = 0;

  /// The protocol's per-round logic as a core::RoundStepper, or nullptr if
  /// the protocol cannot step (the default).  A non-null stepper lets the
  /// Driver run multi-trial cells in the lockstep bank; the protocol's own
  /// run() must be run_stepped over the identical stepper so scalar and
  /// lockstep trials are bit-identical by construction.  One stepper per
  /// trial: steppers hold trial state and are never shared.
  virtual std::unique_ptr<core::RoundStepper> make_stepper(
      radio::TraceRecorder* trace) const {
    (void)trace;
    return nullptr;
  }
};

}  // namespace nrn::sim
