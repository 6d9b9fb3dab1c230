// The single source of truth for the on-disk record/shard/cache format
// version ("experiment vN" / "nrn-sweep-shard vN" / "nrn-sweep-cache vN";
// grammar in docs/formats.md).
//
// Bump this (and every vN literal -- nrn_lint cross-checks them against
// this constant) whenever the serialized bytes change meaning: a new or
// reordered field, a changed number rendering, a different checksum body.
// History: v2 typed metrics, v3 engine coin-tape overhaul (new seeds), v4
// per-round series lines, v5 engine v4 batched coin tape (one salt per
// round, id-keyed stateless coins -- every seeded outcome changes), v6
// channel models (an optional "channel " record line for non-edge
// channels; edge-fault records change only in the version header).  An
// unbumped change silently corrupts every warm cache and poisons fleet
// merges, which assume bit-identical recomputes.
//
// Edits to the serialization files that keep every byte are noted here
// instead, with their proof: v6 also covers CellExecutor's per-scenario
// setup memo (the goldens under tests/golden/ did not change), and the
// removal of BroadcastProtocol::name() and of the never-set heartbeat
// option (goldens and the record hashes pinned in tests/test_channel.cpp
// unchanged), and BroadcastProtocol::make_stepper's comment on the
// uncapped lockstep bank (a comment only).
#pragma once

namespace nrn::sim {

inline constexpr int kSweepFormatVersion = 6;

}  // namespace nrn::sim
