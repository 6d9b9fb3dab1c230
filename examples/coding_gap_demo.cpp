// Scenario: a lecture-hall beacon pushing course notes to laptops.
//
// One transmitter (the hub) serves n receivers over a lossy channel -- the
// paper's star topology with receiver faults.  The demo shows the
// Theta(log n) advantage of Reed-Solomon coding over even fully adaptive
// per-message retransmission (Theorem 17), with real RS payloads decoded
// on a sampled receiver as a correctness spot-check.
#include <iostream>

#include "coding/reed_solomon.hpp"
#include "core/star_schedules.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace nrn;

  constexpr std::int32_t kReceivers = 1024;
  constexpr std::int64_t kChunks = 128;  // file chunks to distribute
  constexpr double kLossRate = 0.5;

  const auto star = graph::make_star(kReceivers);
  std::cout << "star: 1 beacon, " << kReceivers
            << " receivers, loss rate " << kLossRate << ", " << kChunks
            << " chunks\n\n";

  // Plan A: adaptive routing -- resend each chunk until every receiver
  // has it (the beacon gets perfect feedback, the best case for routing).
  radio::RadioNetwork routing_net(star, radio::FaultModel::receiver(kLossRate),
                                  Rng(1));
  const auto routing =
      core::run_star_adaptive_routing(routing_net, kChunks, 100'000'000);
  std::cout << "adaptive routing:  " << routing.rounds << " rounds ("
            << routing.rounds_per_message() << " per chunk)\n";

  // Plan B: Reed-Solomon -- stream coded packets; any kChunks of them
  // reconstruct the file at each receiver independently.
  const auto packet_count =
      core::rs_packet_count(kChunks, kReceivers + 1, kLossRate);
  radio::RadioNetwork coding_net(star, radio::FaultModel::receiver(kLossRate),
                                 Rng(2));
  const auto coding =
      core::run_star_rs_coding(coding_net, kChunks, packet_count);
  std::cout << "Reed-Solomon:      " << coding.rounds << " rounds ("
            << coding.rounds_per_message() << " per chunk)\n";
  std::cout << "coding gap:        "
            << routing.rounds_per_message() / coding.rounds_per_message()
            << "x  (log2(n) = 10)\n\n";

  // Spot-check the actual codec: encode kChunks chunks, drop half the
  // packets, decode from the survivors.
  using Field = coding::Gf65536;
  Rng rng(3);
  coding::ReedSolomon<Field>::Messages chunks(
      kChunks, std::vector<Field::Symbol>(8));
  for (auto& c : chunks)
    for (auto& s : c)
      s = static_cast<Field::Symbol>(rng.next_below(Field::kFieldSize));
  const coding::ReedSolomon<Field> rs(kChunks, 8);
  auto packets = rs.encode(chunks, static_cast<std::uint32_t>(packet_count));
  std::vector<coding::RsPacket<Field>> survivors;
  for (auto& p : packets)
    if (rng.bernoulli(1.0 - kLossRate)) survivors.push_back(std::move(p));
  const bool decoded = rs.decode(survivors) == chunks;
  std::cout << "codec spot-check: " << survivors.size() << "/"
            << packet_count << " packets survived; decode "
            << (decoded ? "OK" : "FAILED") << "\n";

  return routing.completed && coding.completed && decoded ? 0 : 1;
}
