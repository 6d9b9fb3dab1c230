// Quickstart: run a broadcast protocol on a noisy radio scenario.
//
//   $ ./examples/quickstart
//
// Walks through the two layers of the library:
//   1. the one-call experiment API -- Scenario + ProtocolRegistry + Driver,
//      which is all most callers need;
//   2. the underlying objects (graph::Graph, radio::RadioNetwork, a
//      BroadcastProtocol) for callers that want a round-level trace.
#include <iostream>

#include "graph/algorithms.hpp"
#include "sim/sim.hpp"

int main() {
  using namespace nrn;

  // 1. Declare the experiment: a 12x12 grid where every reception
  //    independently turns to noise with probability 0.3 (the paper's
  //    receiver-fault model), source at the corner, seed 42.
  const auto scenario = sim::Scenario::parse("grid:12x12", "receiver:0.3",
                                             /*source=*/0, /*k=*/1,
                                             /*seed=*/42);
  std::cout << "scenario: " << scenario.describe() << "\n";

  // 2. Run five trials of Decay through the Driver.  Protocol selection is
  //    by name: any protocol in the registry works here.
  const auto report = sim::Driver().run(scenario, "decay", /*trials=*/5);
  std::cout << "decay completed all trials: "
            << (report.all_completed() ? "yes" : "no") << ", median "
            << report.median_rounds() << " rounds over "
            << report.trials.size() << " trials\n\n";
  sim::write_table(std::cout, report);

  // 3. Drop one layer for a round-by-round view: build the graph and the
  //    protocol explicitly and attach a trace recorder.
  const graph::Graph grid = scenario.build_graph();
  std::cout << "\ntopology: n = " << grid.node_count()
            << ", diameter = " << graph::diameter_exact(grid) << "\n";

  const sim::ProtocolContext ctx{grid, scenario, sim::Tuning{}};
  const auto decay = sim::extended_registry().create("decay", ctx);

  radio::RadioNetwork net(grid, scenario.channel, Rng(99));
  Rng algorithm_rng(7);
  radio::TraceRecorder trace;
  const sim::Outcome result = decay->run(net, algorithm_rng, &trace);

  // v2 outcomes carry a typed metrics map; "informed" is present because
  // decay is a single-message protocol that tracks its frontier.
  const sim::MetricValue* informed = result.find("informed");
  std::cout << "traced run " << (result.completed ? "completed" : "FAILED")
            << " in " << result.rounds() << " rounds; informed "
            << (informed ? informed->as_int() : 0) << "/"
            << grid.node_count() << "\n";

  const auto totals = net.totals();
  std::cout << "engine totals: " << totals.broadcasts << " broadcasts, "
            << totals.deliveries << " deliveries, " << totals.collision_losses
            << " collision losses, " << totals.receiver_fault_losses
            << " receiver-fault losses\n";

  // The trace shows the informed count over time; print a tiny sparkline.
  std::cout << "frontier growth (every 20 rounds): ";
  for (std::size_t i = 0; i < trace.progress().size(); i += 20)
    std::cout << static_cast<int>(trace.progress()[i]) << " ";
  std::cout << "\n";
  return report.all_completed() && result.completed ? 0 : 1;
}
