#include "core/stepper.hpp"

namespace nrn::core {

BroadcastRunResult run_stepped(RoundStepper& stepper, radio::RadioNetwork& net,
                               Rng& rng) {
  while (stepper.stage_round(net, rng)) {
    const auto& deliveries = net.run_round();
    if (stepper.absorb_round(deliveries.receivers(), net.last_round())) break;
  }
  return stepper.result();
}

}  // namespace nrn::core
