// Scenario: transferring a file over one lossy radio hop (Appendix A made
// concrete).
//
// A ground station sends a firmware image to a probe over a half-duplex
// link that corrupts half of all frames (receiver faults, p = 0.5).  Three
// strategies race:
//   1. fixed repetition (Lemma 29)  -- each chunk sent ~2 log2(k) times;
//   2. stop-and-wait ACK (Lemma 32) -- resend the chunk until it lands;
//   3. Reed-Solomon fountain-style streaming (Lemma 30) -- no feedback at
//      all, decode once any k coded frames arrive.
// The radio decides only whether the probe hears a round; the RS stream
// keeps the frame sent in each round it hears, decodes the image from
// those frames, and compares it byte-for-byte with the original.
#include <iostream>
#include <utility>

#include "coding/reed_solomon.hpp"
#include "core/star_schedules.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"

int main() {
  using namespace nrn;

  constexpr std::int64_t kChunks = 512;       // file = 512 chunks
  constexpr std::size_t kSymbolsPerChunk = 16; // of 16 GF(2^16) symbols
  constexpr double kLossRate = 0.5;

  // The "file".
  using Field = coding::Gf65536;
  Rng payload_rng(7);
  coding::ReedSolomon<Field>::Messages file(
      kChunks, std::vector<Field::Symbol>(kSymbolsPerChunk));
  for (auto& chunk : file)
    for (auto& s : chunk)
      s = static_cast<Field::Symbol>(payload_rng.next_below(Field::kFieldSize));

  const auto link = graph::make_star(1);  // the link is the one-leaf star
  std::cout << "file: " << kChunks << " chunks x " << kSymbolsPerChunk * 2
            << " bytes; link loss rate " << kLossRate << "\n\n";

  // --- Strategy 1: fixed repetition (no feedback).
  {
    radio::RadioNetwork net(link, radio::FaultModel::receiver(kLossRate),
                            Rng(1));
    const auto reps = core::link_nonadaptive_reps(kChunks, kLossRate);
    const auto r = core::run_star_nonadaptive_routing(net, kChunks, reps);
    std::cout << "repetition x" << reps << ":   " << r.rounds << " frames, "
              << (r.completed ? "file complete" : "CHUNKS LOST") << "\n";
  }

  // --- Strategy 2: stop-and-wait with perfect feedback.
  {
    radio::RadioNetwork net(link, radio::FaultModel::receiver(kLossRate),
                            Rng(2));
    const auto r =
        core::run_star_adaptive_routing(net, kChunks, 100 * kChunks);
    std::cout << "stop-and-wait:    " << r.rounds << " frames, "
              << (r.completed ? "file complete" : "FAILED") << "\n";
  }

  // --- Strategy 3: Reed-Solomon streaming, decoded from the frames heard.
  {
    radio::RadioNetwork net(link, radio::FaultModel::receiver(kLossRate),
                            Rng(3));
    const coding::ReedSolomon<Field> rs(kChunks, kSymbolsPerChunk);
    const auto frame_count = core::rs_packet_count(kChunks, 1, kLossRate);

    // Frame j goes on the air in round j.
    std::vector<coding::RsPacket<Field>> received;
    std::int64_t frames_sent = 0;
    for (std::int64_t j = 0; j < frame_count; ++j) {
      auto frame = rs.encode_packet(file, static_cast<std::uint32_t>(j));
      net.set_broadcast(0);
      const auto& deliveries = net.run_round();
      ++frames_sent;
      if (!deliveries.empty()) {
        // The probe keeps the frame it heard this round.
        received.push_back(std::move(frame));
        if (received.size() >= static_cast<std::size_t>(kChunks)) break;
      }
    }
    const bool enough = received.size() >= static_cast<std::size_t>(kChunks);
    const bool intact = enough && rs.decode(received) == file;
    std::cout << "RS streaming:     " << frames_sent << " frames, "
              << received.size() << " survived, file "
              << (intact ? "reassembled byte-exact" : "INCOMPLETE") << "\n";
    if (!intact) return 1;
  }

  std::cout << "\nreading: with feedback, stop-and-wait already achieves the "
               "optimal ~2 frames/chunk\n(Lemma 32); without feedback, "
               "repetition pays an extra log k factor (Lemma 29)\nwhile "
               "Reed-Solomon streaming needs none of it (Lemma 30).\n";
  return 0;
}
