#include "sim/protocol.hpp"

namespace nrn::sim {

std::string capability_names(CapabilitySet caps) {
  static constexpr struct {
    Capability bit;
    const char* name;
  } kNames[] = {
      {kMultiMessage, "multi-message"},
      {kVerifiedPayload, "verified-payload"},
      {kScheduleGap, "schedule-gap"},
      {kTraced, "traced"},
      {kSinrCapable, "sinr-capable"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((caps & bit) == 0) continue;
    if (!out.empty()) out += '+';
    out += name;
  }
  return out.empty() ? "-" : out;
}

bool valid_metric_key(std::string_view key) {
  if (key.empty()) return false;
  for (const char c : key) {
    const bool ok =
        (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

Outcome BroadcastProtocol::run(radio::RadioNetwork& net, Rng& rng,
                               radio::TraceRecorder* trace) const {
  const auto stepper = make_stepper(trace);
  NRN_EXPECTS(stepper != nullptr,
              "a protocol that cannot step must override run()");
  return Outcome::from(core::run_stepped(*stepper, net, rng));
}

}  // namespace nrn::sim
