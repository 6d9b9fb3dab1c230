// M0: wall-clock micro benchmarks of the substrates (google-benchmark).
// These justify the engineering choices in DESIGN.md: epoch-stamped
// collision counters, table-driven GF arithmetic, and GF(2^8) for RLNC.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "coding/binary_field.hpp"
#include "coding/reed_solomon.hpp"
#include "coding/rlnc.hpp"
#include "common/rng.hpp"
#include "core/decay.hpp"
#include "graph/generators.hpp"
#include "radio/network.hpp"
#include "sim/sim.hpp"

namespace {

using namespace nrn;

void BM_EngineRoundStar(benchmark::State& state) {
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_star(n);
  radio::RadioNetwork net(g, radio::FaultModel::receiver(0.5), Rng(1));
  for (auto _ : state) {
    net.set_broadcast(0);
    benchmark::DoNotOptimize(net.run_round());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EngineRoundStar)->Arg(64)->Arg(1024)->Arg(16384);

void BM_EngineRoundManyBroadcasters(benchmark::State& state) {
  // Half of a complete graph broadcasting: the collision-heavy worst case.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_complete(n);
  radio::RadioNetwork net(g, radio::FaultModel::faultless(), Rng(1));
  for (auto _ : state) {
    for (graph::NodeId u = 0; u < n / 2; ++u)
      net.set_broadcast(u);
    benchmark::DoNotOptimize(net.run_round());
  }
  state.SetItemsProcessed(state.iterations() * (n / 2) * (n - 1));
}
BENCHMARK(BM_EngineRoundManyBroadcasters)->Arg(64)->Arg(256);

void BM_EngineDecayPath(benchmark::State& state) {
  // Full Decay broadcast on a path: end-to-end simulator throughput.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  const auto g = graph::make_path(n);
  std::uint64_t seed = 7;
  for (auto _ : state) {
    radio::RadioNetwork net(g, radio::FaultModel::receiver(0.3), Rng(seed));
    Rng rng(seed ^ 0xfeed);
    ++seed;
    benchmark::DoNotOptimize(core::Decay().run(net, 0, rng));
  }
}
BENCHMARK(BM_EngineDecayPath)->Arg(256)->Arg(1024);

void BM_EngineKernel(benchmark::State& state, radio::RadioNetwork::Kernel k) {
  // The kernel-selection regime: a G(n, p) graph with half the nodes
  // broadcasting, forced through one kernel.
  const auto n = static_cast<graph::NodeId>(state.range(0));
  Rng grng(11);
  const auto g = graph::make_connected_gnp(n, 16.0 / n, grng);
  radio::RadioNetwork net(g, radio::FaultModel::combined(0.1, 0.1), Rng(2));
  net.set_kernel(k);
  for (auto _ : state) {
    for (graph::NodeId u = 0; u < n; u += 2)
      net.set_broadcast(u);
    benchmark::DoNotOptimize(net.run_round());
  }
  state.SetItemsProcessed(state.iterations() * (n / 2));
}
void BM_EngineKernelSparse(benchmark::State& state) {
  BM_EngineKernel(state, radio::RadioNetwork::Kernel::kSparse);
}
void BM_EngineKernelDense(benchmark::State& state) {
  BM_EngineKernel(state, radio::RadioNetwork::Kernel::kDense);
}
BENCHMARK(BM_EngineKernelSparse)->Arg(1024)->Arg(16384);
BENCHMARK(BM_EngineKernelDense)->Arg(1024)->Arg(16384);

void BM_EngineSinrDisk(benchmark::State& state) {
  // SINR interference round on a unit-disk graph, half the nodes
  // broadcasting: one gain-table walk per touched listener.  Comparable to
  // BM_EngineKernel* (same items metric), which prices the edge-fault rule.
  const auto n = state.range(0);
  const auto scenario = sim::Scenario::parse(
      "disk:" + std::to_string(n) + (n >= 1024 ? ":0.08" : ":0.15"), "none",
      0, 1, 17, "sinr:2.5:0.001:1.0");
  graph::Geometry geometry;
  const auto g = scenario.build_graph(&geometry);
  radio::RadioNetwork net(g, scenario.channel, Rng(2), &geometry);
  for (auto _ : state) {
    for (graph::NodeId u = 0; u < g.node_count(); u += 2)
      net.set_broadcast(u);
    benchmark::DoNotOptimize(net.run_round());
  }
  state.SetItemsProcessed(state.iterations() * (n / 2));
}
BENCHMARK(BM_EngineSinrDisk)->Arg(256)->Arg(1024);

void BM_EngineTrials(benchmark::State& state, const std::string& topology,
                     const std::string& protocol, const std::string& fault,
                     int trials, sim::TrialExecution execution) {
  // `trials` trials through the Driver over a setup built once, in one
  // execution mode.  Auto banks every cell of the matrix that is not
  // consecutive-id, so each scalar/auto pair prices the lockstep bank
  // against the scalar engine: 8 trials fill a quarter of one bank, 96
  // make three full ones.  On a path auto runs the scalar engine, so each
  // auto/lockstep pair prices the bank against the consecutive-id rule.
  // Outcomes are bit-identical; only the wall clock differs.
  const bool sinr = topology.rfind("disk:", 0) == 0;
  const auto scenario = sim::Scenario::parse(
      topology, fault, 0, 1, 21, sinr ? "sinr:2.5:0.001:1.0" : "none");
  const sim::ScenarioSetup setup(scenario);
  sim::DriverOptions options;
  options.execution = execution;
  const sim::Driver driver;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        driver.run(setup, scenario, protocol, trials, options));
  state.SetItemsProcessed(state.iterations() * trials);
}

// The execution-mode matrix, named
// BM_EngineTrials/<protocol>/<topology>[/<fault>][/<trials>]/<mode>:
//   * scalar and auto: 8 trials of decay and robust on edge-fault gnp and
//     grid graphs and SINR unit-disk graphs at n = 256 and 2048;
//   * scalar and auto: 96 trials (full banks) of both at n = 2048, plus
//     one sender-fault cell, the only fault that keys coins by each
//     listener's sole sender;
//   * auto and lockstep: 8 and 32 trials of both on path:512 and
//     path:2048, the consecutive-id graphs auto never banks.
// Edge cells run under receiver:0.3 unless the name gives a fault.
const bool kTrialMatrixRegistered = [] {
  using Modes = std::vector<std::pair<const char*, sim::TrialExecution>>;
  const Modes scalar_auto = {{"scalar", sim::TrialExecution::kScalar},
                             {"auto", sim::TrialExecution::kAuto}};
  const Modes auto_lockstep = {{"auto", sim::TrialExecution::kAuto},
                               {"lockstep", sim::TrialExecution::kLockstep}};
  auto add = [&](const std::string& protocol, const std::string& topology,
                 const std::string& fault, int trials,
                 const Modes& modes) {
    const bool sinr = topology.rfind("disk:", 0) == 0;
    std::string name = "BM_EngineTrials/" + protocol + "/" + topology + "/";
    if (fault != "receiver:0.3") name.append(fault).append("/");
    if (trials != 8) name.append(std::to_string(trials)).append("/");
    for (const auto& [mode, execution] : modes)
      benchmark::RegisterBenchmark((name + mode).c_str(),
                                   BM_EngineTrials, topology, protocol,
                                   sinr ? "none" : fault, trials, execution)
          ->Unit(benchmark::kMillisecond);
  };
  for (const char* protocol : {"decay", "robust"})
    for (const char* topology :
         {"gnp:256:0.04", "gnp:2048:0.005", "grid:16x16", "grid:32x64",
          "disk:256:0.15", "disk:2048:0.05"})
      add(protocol, topology, "receiver:0.3", 8, scalar_auto);
  for (const char* protocol : {"decay", "robust"})
    for (const char* topology :
         {"gnp:2048:0.005", "grid:32x64", "disk:2048:0.05"})
      add(protocol, topology, "receiver:0.3", 96, scalar_auto);
  add("decay", "gnp:2048:0.005", "sender:0.3", 96, scalar_auto);
  for (const char* protocol : {"decay", "robust"})
    for (const char* topology : {"path:512", "path:2048"})
      for (const int trials : {8, 32})
        add(protocol, topology, "receiver:0.3", trials, auto_lockstep);
  return true;
}();

enum class SetupLayer { kGraph, kGbst, kFactory };

void BM_CellSetup(benchmark::State& state, const std::string& topology,
                  SetupLayer layer) {
  // The per-cell setup a sweep pays once per graph identity, one layer at
  // a time: the ScenarioSetup build (graph, placement, source depth), the
  // GBST its first gbst() call builds, and one robust factory call over
  // the built tree (the wave schedule precompute).
  const bool sinr = topology.rfind("disk:", 0) == 0;
  const auto scenario = sim::Scenario::parse(
      topology, sinr ? "none" : "receiver:0.3", 0, 1, 21,
      sinr ? "sinr:2.5:0.001:1.0" : "none");
  const sim::ScenarioSetup built(scenario);
  built.gbst();
  const sim::ProtocolContext ctx{built.graph(), scenario, {}, &built};
  const auto& registry = sim::extended_registry();
  for (auto _ : state) {
    switch (layer) {
      case SetupLayer::kGraph: {
        const sim::ScenarioSetup setup(scenario);
        benchmark::DoNotOptimize(setup.depth());
        break;
      }
      case SetupLayer::kGbst: {
        state.PauseTiming();
        auto setup = std::make_unique<sim::ScenarioSetup>(scenario);
        state.ResumeTiming();
        benchmark::DoNotOptimize(setup->gbst());
        state.PauseTiming();
        setup.reset();
        state.ResumeTiming();
        break;
      }
      case SetupLayer::kFactory:
        benchmark::DoNotOptimize(registry.create("robust", ctx));
        break;
    }
  }
}

// Named BM_CellSetup/<graph|gbst|robust_factory>/<topology>.
const bool kCellSetupRegistered = [] {
  const std::pair<const char*, SetupLayer> layers[] = {
      {"graph", SetupLayer::kGraph},
      {"gbst", SetupLayer::kGbst},
      {"robust_factory", SetupLayer::kFactory}};
  for (const auto& [name, layer] : layers)
    for (const char* topology : {"gnp:512:0.02", "grid:16x32", "disk:512:0.1"})
      benchmark::RegisterBenchmark(
          (std::string("BM_CellSetup/") + name + "/" + topology).c_str(),
          BM_CellSetup, std::string(topology), layer)
          ->Unit(benchmark::kMicrosecond);
  return true;
}();

void BM_SweepThroughput(benchmark::State& state) {
  // End-to-end: SweepRunner -> Driver -> protocol -> engine, the path a
  // production grid run exercises (no cache, single worker -- the engine
  // dominates).
  const auto plan = sim::SweepPlan::parse(
      "topology=gnp:192:0.08,path:96; fault=none,receiver:0.3; "
      "protocols=decay; trials=3; seed=11");
  const sim::SweepRunner runner;
  std::int64_t trials = 0;
  for (auto _ : state) {
    const auto report = runner.run(plan);
    for (const auto& cell : report.cells)
      trials += static_cast<std::int64_t>(cell.experiment.trials.size());
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(trials);
}
BENCHMARK(BM_SweepThroughput);

void BM_Gf256Mul(benchmark::State& state) {
  const auto& f = coding::Gf256::instance();
  Rng rng(3);
  std::vector<std::uint8_t> xs(4096), ys(4096);
  for (auto& x : xs) x = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto& y : ys) y = static_cast<std::uint8_t>(rng.next_below(256));
  for (auto _ : state) {
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      acc = f.add(acc, f.mul(xs[i], ys[i]));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Gf256Mul);

void BM_Gf65536Mul(benchmark::State& state) {
  const auto& f = coding::Gf65536::instance();
  Rng rng(4);
  std::vector<std::uint16_t> xs(4096), ys(4096);
  for (auto& x : xs) x = static_cast<std::uint16_t>(rng.next_below(65536));
  for (auto& y : ys) y = static_cast<std::uint16_t>(rng.next_below(65536));
  for (auto _ : state) {
    std::uint16_t acc = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      acc = f.add(acc, f.mul(xs[i], ys[i]));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Gf65536Mul);

template <typename Field>
void BM_GfMulAdd(benchmark::State& state) {
  // One region op, dst ^= f * src, over rows of state.range(0) symbols: the
  // inner loop of RLNC elimination and combination and of Reed-Solomon.
  // GF(2^8) reads its product table, GF(2^16) a log-domain row.  f cycles
  // through 255 nonzero values so no single table row stays hot.
  using Symbol = typename Field::Symbol;
  const auto& f = Field::instance();
  const auto len = static_cast<std::size_t>(state.range(0));
  Rng rng(12);
  std::vector<Symbol> dst(len), src(len);
  for (auto& x : src) x = static_cast<Symbol>(rng.next_below(Field::kFieldSize));
  std::uint32_t factor = 0;
  for (auto _ : state) {
    factor = factor % 255 + 1;
    f.mul_add(dst.data(), src.data(), static_cast<Symbol>(factor), len);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK_TEMPLATE(BM_GfMulAdd, coding::Gf256)
    ->Name("BM_GfMulAdd/gf256")
    ->Arg(32)
    ->Arg(1024);
BENCHMARK_TEMPLATE(BM_GfMulAdd, coding::Gf65536)
    ->Name("BM_GfMulAdd/gf65536")
    ->Arg(32)
    ->Arg(1024);

using Rs65536 = coding::ReedSolomon<coding::Gf65536>;

Rs65536::Messages random_rs_messages(std::size_t k, std::size_t len,
                                     Rng& rng) {
  Rs65536::Messages msgs(k, std::vector<coding::Gf65536::Symbol>(len));
  for (auto& m : msgs)
    for (auto& s : m)
      s = static_cast<coding::Gf65536::Symbol>(rng.next_below(65536));
  return msgs;
}

void BM_RsEncode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const auto msgs = random_rs_messages(k, 8, rng);
  const Rs65536 rs(k, 8);
  std::uint32_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode_packet(msgs, idx));
    idx = (idx + 1) % Rs65536::max_packets();
  }
}
BENCHMARK(BM_RsEncode)->Arg(16)->Arg(64)->Arg(256);

void BM_RsDecode(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(6);
  const auto msgs = random_rs_messages(k, 4, rng);
  const Rs65536 rs(k, 4);
  const auto packets = rs.encode(msgs, static_cast<std::uint32_t>(k));
  for (auto _ : state) benchmark::DoNotOptimize(rs.decode(packets));
}
BENCHMARK(BM_RsDecode)->Arg(16)->Arg(64);

/// One coded packet from `src`: its coefficient draw, then the combination
/// the draw names (coefficient-only mode, so no payload).
std::vector<std::uint8_t> rlnc_packet(const coding::RlncState& src,
                                      Rng& rng) {
  std::vector<std::uint8_t> lambda(src.k()), coeffs(src.k());
  src.draw(rng, lambda);
  src.combine(lambda, coeffs, {});
  return coeffs;
}

void BM_RlncAbsorb(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  coding::RlncState src(k, 0);
  src.seed_source({});
  for (auto _ : state) {
    state.PauseTiming();
    coding::RlncState sink(k, 0);
    std::vector<std::vector<std::uint8_t>> packets;
    for (std::size_t i = 0; i < k; ++i)
      packets.push_back(rlnc_packet(src, rng));
    state.ResumeTiming();
    for (const auto& p : packets) sink.absorb(p, {});
    benchmark::DoNotOptimize(sink.rank());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_RlncAbsorb)->Arg(16)->Arg(64)->Arg(128);

void BM_RlncEmit(benchmark::State& state) {
  // A full-rank sender's draw + combine: what one delivered coded packet
  // costs its sender.
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  coding::RlncState src(k, 0);
  src.seed_source({});
  std::vector<std::uint8_t> lambda(k), coeffs(k);
  for (auto _ : state) {
    src.draw(rng, lambda);
    src.combine(lambda, coeffs, {});
    benchmark::DoNotOptimize(coeffs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_RlncEmit)->Arg(16)->Arg(64)->Arg(128);

void BM_RlncTrial(benchmark::State& state, const std::string& topology,
                  const std::string& protocol) {
  // One k = 32 coded trial under receiver:0.3 through the Driver over a
  // setup built once, as in BM_EngineTrials: the coded plans cannot step,
  // so this is the scalar engine plus the coding layer, whole.
  const auto scenario =
      sim::Scenario::parse(topology, "receiver:0.3", 0, 32, 21, "none");
  const sim::ScenarioSetup setup(scenario);
  const sim::Driver driver;
  for (auto _ : state)
    benchmark::DoNotOptimize(driver.run(setup, scenario, protocol, 1, {}));
  state.SetItemsProcessed(state.iterations());
}

// Named BM_RlncTrial/<protocol>/<topology>/k32.
const bool kRlncTrialsRegistered = [] {
  for (const char* protocol : {"rlnc-decay", "rlnc-robust", "erasure-decay"})
    for (const char* topology : {"grid:16x16", "star:255"})
      benchmark::RegisterBenchmark(
          (std::string("BM_RlncTrial/") + protocol + "/" + topology + "/k32")
              .c_str(),
          BM_RlncTrial, std::string(topology), std::string(protocol))
          ->Unit(benchmark::kMillisecond);
  return true;
}();

void BM_RngBernoulliTape(benchmark::State& state) {
  // Cost of per-delivery fault coins (the design DESIGN.md ablates
  // against pre-sampled tapes).
  Rng rng(9);
  for (auto _ : state) {
    int hits = 0;
    for (int i = 0; i < 4096; ++i) hits += rng.bernoulli(0.5) ? 1 : 0;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RngBernoulliTape);

void BM_RngBernoulliSkip(benchmark::State& state) {
  // O(k) selection over 4096 candidates at p = 2^-i: the Decay staging
  // loop's cost model.  Items = candidates considered, so this is directly
  // comparable to BM_RngBernoulliTape.
  const auto i = static_cast<std::int32_t>(state.range(0));
  Rng rng(10);
  for (auto _ : state) {
    int hits = 0;
    rng.for_each_bernoulli_pow2(4096, i, [&](std::size_t) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_RngBernoulliSkip)->Arg(1)->Arg(4)->Arg(8);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): stamp the *benchmark binary's*
// build type into the JSON context.  The library's own "library_build_type"
// reflects how the system libbenchmark was compiled, not this code, so
// tools/bench_diff gates on "nrn_build_type" to refuse comparing numbers
// from unoptimized builds.
int main(int argc, char** argv) {
#if defined(NDEBUG) && defined(__OPTIMIZE__)
  benchmark::AddCustomContext("nrn_build_type", "release");
#else
  benchmark::AddCustomContext("nrn_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
