// E11/E12 (Appendix A, Lemmas 29-33): the single-link topology.
// Non-adaptive routing pays Theta(log k) per message; coding and adaptive
// routing pay Theta(1); so the non-adaptive gap grows like log k and the
// adaptive gap is constant.
//
// Both tables are SweepPlans over the registry's link-* protocols (the
// repetition/packet budgets derive from the scenario's fault model); the
// bench only formats the resulting grid.
#include <cmath>

#include "bench_common.hpp"

namespace {

using namespace nrn;

double completed_rounds(const sim::ExperimentReport& exp) {
  NRN_ENSURES(exp.all_completed(),
              exp.protocol + " failed on the link in E11/E12");
  return exp.median_rounds();
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::seed_from_args(argc, argv);
  const int trials = 5;
  const std::string common =
      " trials=" + std::to_string(trials) + "; seed=" + std::to_string(seed);

  {
    TableWriter t(
        "E11  Single link, receiver faults p=0.5: rounds/message vs k "
        "(Lemmas 29/30/31)",
        {"k", "non-adaptive rpm", "adaptive rpm", "coding rpm",
         "non-adaptive gap", "gap/log2(k)"});
    t.add_note("seed: " + std::to_string(seed));
    t.add_note("theory: non-adaptive = Theta(log k); adaptive and coding "
               "= Theta(1); gap/log2(k) ~ constant");
    const auto report = bench::run_sweep(
        "topology=link; fault=receiver:0.5; k={16..16384*4}; "
        "protocols=link-nonadaptive,link-adaptive,link-coding;" + common);
    for (const std::int64_t k : {16, 64, 256, 1024, 4096, 16384}) {
      const double na = completed_rounds(bench::sweep_cell(
          report, "link", "receiver:0.5", k, "link-nonadaptive"));
      const double ad = completed_rounds(bench::sweep_cell(
          report, "link", "receiver:0.5", k, "link-adaptive"));
      const double cd = completed_rounds(bench::sweep_cell(
          report, "link", "receiver:0.5", k, "link-coding"));
      const double gap = na / cd;
      t.add_row({fmt(k), fmt(na / k, 2), fmt(ad / k, 2), fmt(cd / k, 2),
                 fmt(gap, 2), fmt(gap / std::log2(k), 3)});
    }
    t.print(std::cout);
  }

  {
    TableWriter t(
        "E12  Adaptive routing on the link: rounds/message vs p "
        "(Lemma 32: 1/(1-p))",
        {"p", "fault model", "rounds/message", "1/(1-p)"});
    const std::int64_t k = 4096;
    const auto report = bench::run_sweep(
        "topology=link; protocols=link-adaptive; k=4096; "
        "fault=receiver:{0.1,0.3,0.5,0.7,0.9},sender:{0.1,0.3,0.5,0.7,0.9};" +
        common);
    for (const auto& cell : report.cells) {
      const double q = cell.experiment.scenario.channel.effective_loss();
      const double ad = completed_rounds(cell.experiment);
      // "sender:0.1" -> "sender": the spec text names the model.
      const std::string& spec = cell.experiment.scenario.fault_text;
      t.add_row({fmt(q, 1), spec.substr(0, spec.find(':')),
                 fmt(ad / k, 2), fmt(1.0 / (1.0 - q), 2)});
    }
    t.print(std::cout);
  }
  return 0;
}
