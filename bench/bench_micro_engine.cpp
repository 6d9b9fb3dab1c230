// M0: wall-clock micro benchmarks of the substrates (google-benchmark).
// These justify the engineering choices in DESIGN.md: epoch-stamped
// collision counters, table-driven GF arithmetic, and GF(2^8) for RLNC.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>

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
  std::int64_t id = 0;
  for (auto _ : state) {
    net.set_broadcast(0, radio::Packet{id++});
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
      net.set_broadcast(u, radio::Packet{u});
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
      net.set_broadcast(u, radio::Packet{u});
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
      net.set_broadcast(u, radio::Packet{u});
    benchmark::DoNotOptimize(net.run_round());
  }
  state.SetItemsProcessed(state.iterations() * (n / 2));
}
BENCHMARK(BM_EngineSinrDisk)->Arg(256)->Arg(1024);

void BM_EngineSilentRounds(benchmark::State& state) {
  const auto g = graph::make_path(1024);
  radio::RadioNetwork net(g, radio::FaultModel::receiver(0.3), Rng(3));
  for (auto _ : state) {
    net.run_silent_rounds(1024);
    benchmark::DoNotOptimize(net.round_number());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_EngineSilentRounds);

void BM_EngineTrials(benchmark::State& state, const std::string& topology,
                     const std::string& protocol,
                     sim::TrialExecution execution) {
  // Eight trials (one full lockstep bank) through the Driver over a setup
  // built once, forced scalar or left to auto.  Auto banks every cell of
  // the matrix (none is consecutive-id), so each scalar/auto pair prices
  // the lockstep bank against the scalar engine.  Outcomes are
  // bit-identical; only the wall clock differs.
  const bool sinr = topology.rfind("disk:", 0) == 0;
  const auto scenario = sim::Scenario::parse(
      topology, sinr ? "none" : "receiver:0.3", 0, 1, 21,
      sinr ? "sinr:2.5:0.001:1.0" : "none");
  const sim::ScenarioSetup setup(scenario);
  sim::DriverOptions options;
  options.execution = execution;
  const sim::Driver driver;
  for (auto _ : state)
    benchmark::DoNotOptimize(
        driver.run(setup, scenario, protocol, 8, options));
  state.SetItemsProcessed(state.iterations() * 8);
}

// The scalar-vs-auto matrix: decay and robust on edge-fault gnp and grid
// graphs and SINR unit-disk graphs at n = 256 and 2048, named
// BM_EngineTrials/<protocol>/<topology>/<scalar|auto>.
const bool kTrialMatrixRegistered = [] {
  const std::pair<const char*, sim::TrialExecution> modes[] = {
      {"scalar", sim::TrialExecution::kScalar},
      {"auto", sim::TrialExecution::kAuto}};
  for (const char* protocol : {"decay", "robust"})
    for (const char* topology :
         {"gnp:256:0.04", "gnp:2048:0.005", "grid:16x16", "grid:32x64",
          "disk:256:0.15", "disk:2048:0.05"})
      for (const auto& [mode, execution] : modes)
        benchmark::RegisterBenchmark(
            (std::string("BM_EngineTrials/") + protocol + "/" + topology +
             "/" + mode)
                .c_str(),
            BM_EngineTrials, std::string(topology), std::string(protocol),
            execution)
            ->Unit(benchmark::kMillisecond);
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

void BM_RlncAbsorb(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  coding::RlncState src(k, 0);
  src.seed_source({});
  for (auto _ : state) {
    state.PauseTiming();
    coding::RlncState sink(k, 0);
    std::vector<coding::RlncPacket> packets;
    for (std::size_t i = 0; i < k; ++i) packets.push_back(src.emit(rng));
    state.ResumeTiming();
    for (const auto& p : packets) sink.absorb(p);
    benchmark::DoNotOptimize(sink.rank());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(k));
}
BENCHMARK(BM_RlncAbsorb)->Arg(16)->Arg(64)->Arg(128);

void BM_RlncEmit(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  coding::RlncState src(k, 0);
  src.seed_source({});
  for (auto _ : state) benchmark::DoNotOptimize(src.emit(rng));
}
BENCHMARK(BM_RlncEmit)->Arg(16)->Arg(64)->Arg(128);

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
