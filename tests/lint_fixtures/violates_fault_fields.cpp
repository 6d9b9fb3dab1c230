// Fixture: FaultModel field access outside src/radio/ the fault-fields
// rule must catch.  (Fixtures lint as their own one-file tree, so this
// file is "outside radio/" by construction.)
// expect: fault-fields
// expect: fault-fields
// expect: fault-fields
// expect: fault-fields
// expect: fault-fields
#include "radio/channel_model.hpp"

bool bad_kind_enum(const nrn::radio::FaultModel& fault) {
  const auto sender = nrn::radio::FaultKind::kSender;  // raw enum access
  return fault.kind == sender;  // raw kind field, bypassing is_faultless()
}

double bad_probability(const nrn::radio::FaultModel& fault) {
  return fault.p;  // raw sender probability, bypassing effective_loss()
}

double bad_receiver_probability(const nrn::radio::FaultModel& fault) {
  return fault.p_receiver;
}

double bad_coin_probability(const nrn::radio::ChannelModel& channel) {
  return channel.coins().p;  // raw coin field, bypassing effective_loss()
}
