// Star-topology schedules (paper Section 5.1.1 and Appendix A).
//
// Receiver faults turn the star into the paper's cleanest coding-gap
// witness:
//   * adaptive routing (Lemma 15): the hub broadcasts message i until every
//     leaf has it; the last of n leaves costs ~log_{1/p} n rounds per
//     message, so throughput is Theta(1/log n);
//   * Reed-Solomon coding (Lemma 16): the hub streams m coded packets such
//     that every leaf collects >= k of them w.h.p.; m = O(k + log n), so
//     throughput is Theta(1);
//   * non-adaptive routing repeats each message a fixed count (used by the
//     adaptivity ablation).
//
// Appendix A's single link (Lemmas 29-33) is the star with one leaf, so
// these cores are its schedules too: non-adaptive routing must repeat each
// message Theta(log k) times to push the failure probability below 1/k
// (Lemma 29), while coding (Lemma 30) and adaptive routing (Lemma 32) run
// at Theta(1).  Only the parameter formulas differ.
//
// The cores read the star off the network: hub 0 broadcasts, nodes
// 1..n-1 are the leaves (graph::make_star's layout), and a network of any
// other shape is a contract violation.  All schedules run in counting mode
// (the hub's round index names what it sends, no payloads); the RS
// any-k-of-m property is exercised with real payloads by the coding tests.
#pragma once

#include <cstdint>

#include "core/run_result.hpp"
#include "radio/network.hpp"

namespace nrn::core {

/// Lemma 15's achievable side.  Sends messages 0..k-1 in order, each until
/// all leaves received it (the hub adapts using full reception feedback).
MultiRunResult run_star_adaptive_routing(radio::RadioNetwork& net,
                                         std::int64_t k,
                                         std::int64_t max_rounds);

/// Non-adaptive routing: each message exactly `reps` times.
/// completed = every leaf got every message.
MultiRunResult run_star_nonadaptive_routing(radio::RadioNetwork& net,
                                            std::int64_t k, std::int64_t reps);

/// Lemma 16's coded schedule: the hub streams `packet_count` distinct coded
/// packets; completed = every leaf received at least k distinct packets
/// (the Reed-Solomon reconstruction condition).
MultiRunResult run_star_rs_coding(radio::RadioNetwork& net, std::int64_t k,
                                  std::int64_t packet_count);

/// Packet count sufficient for the coded schedule to succeed w.h.p.:
/// (k + Chernoff slack for failure probability ~1/(nk)) / (1 - p).  The
/// link's count (Lemma 30) is n = 1.
std::int64_t rs_packet_count(std::int64_t k, std::int32_t n, double p);

/// Lemma 29's repetition count on the link, making the non-adaptive
/// schedule succeed with probability >= 1 - 1/k by a union bound:
/// ceil(2 ln(k + 1) / ln(1/p)) + 1.
std::int64_t link_nonadaptive_reps(std::int64_t k, double p);

}  // namespace nrn::core
