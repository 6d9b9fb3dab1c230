#include "sim/driver.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <set>

#include "common/stats.hpp"
#include "common/task_pool.hpp"

namespace nrn::sim {

bool ExperimentReport::all_completed() const {
  for (const auto& trial : trials)
    if (!trial.run.completed) return false;
  return true;
}

int ExperimentReport::completed_trials() const {
  int done = 0;
  for (const auto& trial : trials) done += trial.run.completed ? 1 : 0;
  return done;
}

std::vector<double> ExperimentReport::rounds() const {
  std::vector<double> out;
  out.reserve(trials.size());
  for (const auto& trial : trials)
    out.push_back(static_cast<double>(trial.run.rounds()));
  return out;
}

double ExperimentReport::median_rounds() const {
  return trials.empty() ? 0.0 : quantile(rounds(), 0.5);
}

double ExperimentReport::mean_rounds() const {
  return trials.empty() ? 0.0 : mean(rounds());
}

double ExperimentReport::gap() const {
  return has_theory_bound() ? median_rounds() / theory_bound : 0.0;
}

std::vector<std::string> ExperimentReport::metric_keys() const {
  std::set<std::string> keys;
  for (const auto& trial : trials)
    for (const auto& [key, unused] : trial.run.metrics) keys.insert(key);
  return {keys.begin(), keys.end()};
}

std::vector<std::string> ExperimentReport::series_keys() const {
  std::set<std::string> keys;
  for (const auto& trial : trials)
    for (const auto& [key, unused] : trial.run.series) keys.insert(key);
  return {keys.begin(), keys.end()};
}

std::vector<double> ExperimentReport::metric_values(
    const std::string& key) const {
  std::vector<double> out;
  out.reserve(trials.size());
  for (const auto& trial : trials)
    if (const MetricValue* v = trial.run.find(key))
      out.push_back(v->as_real());
  return out;
}

MetricSummary ExperimentReport::metric_summary(const std::string& key) const {
  MetricSummary s;
  for (const double v : metric_values(key)) {
    if (s.count == 0) {
      s.min = s.max = v;
    } else {
      s.min = std::min(s.min, v);
      s.max = std::max(s.max, v);
    }
    s.mean += v;
    ++s.count;
  }
  if (s.count > 0) s.mean /= s.count;
  return s;
}

namespace {

/// A trace progress value is conventionally a count (informed nodes); keep
/// integral values exact so the series round-trips as integers.
MetricValue progress_value(double p) {
  constexpr double kExactIntLimit = 9.0e15;  // below 2^53: cast is exact
  if (p == std::floor(p) && std::abs(p) < kExactIntLimit)
    return MetricValue(static_cast<std::int64_t>(p));
  return MetricValue(p);
}

/// Folds one trial's TraceRecorder into the outcome's series map.  Under a
/// kSinr channel the per-round interference losses are traced too; the
/// series is absent for edge-fault channels (where it would be all zeros),
/// so edge-fault traces are byte-identical to pre-channel runs.
void fold_trace(Outcome& run, const radio::TraceRecorder& trace, bool sinr) {
  const std::size_t rounds = trace.round_count();
  if (rounds == 0) return;
  std::vector<MetricValue> informed, deliveries, collisions, broadcasters;
  std::vector<MetricValue> interference;
  informed.reserve(rounds);
  deliveries.reserve(rounds);
  collisions.reserve(rounds);
  broadcasters.reserve(rounds);
  if (sinr) interference.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    const radio::RoundStats& s = trace.rounds()[i];
    informed.push_back(progress_value(trace.progress()[i]));
    deliveries.emplace_back(s.deliveries);
    collisions.emplace_back(s.collision_losses);
    broadcasters.emplace_back(s.broadcasters);
    if (sinr) interference.emplace_back(s.interference_losses);
  }
  run.set_series("informed", std::move(informed));
  run.set_series("deliveries", std::move(deliveries));
  run.set_series("collisions", std::move(collisions));
  run.set_series("broadcasters", std::move(broadcasters));
  if (sinr) run.set_series("interference", std::move(interference));
}

}  // namespace

ExperimentReport Driver::run(const Scenario& scenario,
                             const std::string& protocol_name, int trials,
                             const DriverOptions& options) const {
  const ScenarioSetup setup(scenario);
  return run(setup, scenario, protocol_name, trials, options);
}

ExperimentReport Driver::run(const ScenarioSetup& setup,
                             const Scenario& scenario,
                             const std::string& protocol_name, int trials,
                             const DriverOptions& options) const {
  NRN_EXPECTS(trials >= 1, "driver needs at least one trial");
  NRN_EXPECTS(setup.key() == ScenarioSetup::identity(scenario),
              "setup built for a different graph than the scenario's");

  ExperimentReport report;
  report.protocol = protocol_name;
  report.scenario = scenario;

  // The setup outlives the workspaces below (networks borrow its graph
  // and, under SINR, its node placement).
  const bool sinr = !scenario.channel.is_edge_fault();
  const graph::Graph& graph = setup.graph();
  const graph::Geometry* geometry = sinr ? setup.geometry() : nullptr;
  report.node_count = graph.node_count();
  report.edge_count = graph.edge_count();
  report.depth = setup.depth();
  report.capabilities = registry_->capabilities(protocol_name);
  if (sinr && (report.capabilities & kSinrCapable) == 0u)
    throw SpecError("protocol '" + protocol_name +
                    "' does not support the sinr channel");
  // The paper's bounds assume the edge-fault model; under SINR they are
  // reported as n/a (0 = none).
  report.theory_bound =
      sinr ? 0.0
           : registry_->theory_bound(
                 protocol_name, TheoryContext{scenario, report.node_count,
                                              report.edge_count, report.depth});

  const ProtocolContext ctx{graph, scenario, options.tuning, &setup};
  const auto protocol = registry_->create(protocol_name, ctx);

  // Derive every trial's seeds up front, in trial order, from one master
  // stream: trial t's coins are independent of the thread that runs it.
  report.trials.resize(static_cast<std::size_t>(trials));
  Rng master(scenario.seed);
  for (int t = 0; t < trials; ++t) {
    Rng stream = master.split(static_cast<std::uint64_t>(t));
    auto& trial = report.trials[static_cast<std::size_t>(t)];
    trial.index = t;
    trial.net_seed = stream();
    trial.algo_seed = stream();
  }

  // One workspace per pool slot: the slot's RadioNetwork is built for the
  // first trial it runs and reset -- not reallocated -- for every later
  // one.  Slots are owned by one thread at a time, so no locking.
  auto& pool = common::TaskPool::shared();
  std::vector<TrialWorkspace> workspaces(
      static_cast<std::size_t>(pool.slot_count()));
  const bool traced =
      options.trace && (report.capabilities & kTraced) != 0u;

  // Lockstep bank path: banks of up to kMaxLanes consecutive trials share
  // one adjacency pass per round.  Available only when the protocol can
  // step (make_stepper non-null); a lane replays exactly the scalar tape
  // -- same stepper, same per-trial Rng streams -- so reports are
  // bit-identical to the scalar path below.
  bool lockstep = false;
  if (options.execution != TrialExecution::kScalar &&
      protocol->make_stepper(nullptr) != nullptr) {
    // Auto never banks a consecutive-id topology: there the scalar
    // engine's word-parallel adjacent kernel resolves a round in O(n/64),
    // which beats the bank's shared per-edge pass even across 8 lanes.
    // SINR rounds never take that kernel, but random placement links
    // only consecutive ids on tiny graphs such as disk:2.
    // Every other multi-trial cell banks, whatever its size: the bank's
    // shared adjacency pass wins at every measured n (kLockstepAutoMaxNodes).
    lockstep = options.execution == TrialExecution::kLockstep ||
               (trials >= 2 &&
                !radio::RadioNetwork::consecutive_adjacency(graph));
  }
  if (lockstep) {
    constexpr std::size_t kLanes =
        static_cast<std::size_t>(radio::LockstepNetwork::kMaxLanes);
    const std::size_t bank_count =
        (report.trials.size() + kLanes - 1) / kLanes;
    auto run_bank = [&](std::size_t b, int slot) {
      const std::size_t first = b * kLanes;
      const std::size_t last = std::min(first + kLanes, report.trials.size());
      radio::LockstepNetwork& bank =
          workspaces[static_cast<std::size_t>(slot)].acquire_bank(
              graph, scenario.channel, geometry);
      std::array<std::unique_ptr<core::RoundStepper>, kLanes> steppers;
      std::array<std::optional<radio::TraceRecorder>, kLanes> recorders;
      std::array<Rng, kLanes> algo_rngs;
      unsigned active = 0;
      for (std::size_t t = first; t < last; ++t) {
        auto& trial = report.trials[t];
        const auto l =
            static_cast<std::size_t>(bank.add_lane(Rng(trial.net_seed)));
        if (traced) recorders[l].emplace();
        steppers[l] =
            protocol->make_stepper(traced ? &*recorders[l] : nullptr);
        algo_rngs[l] = Rng(trial.algo_seed);
        active |= 1u << l;
      }
      auto finish = [&](std::size_t l) {
        auto& trial = report.trials[first + l];
        trial.run = Outcome::from(steppers[l]->result());
        if (traced) fold_trace(trial.run, *recorders[l], sinr);
        active &= ~(1u << l);
      };
      while (active != 0) {
        unsigned ran = 0;
        for (std::size_t l = 0; l < kLanes; ++l) {
          if ((active & (1u << l)) == 0) continue;
          auto port = bank.port(static_cast<int>(l));
          if (steppers[l]->stage_round(port, algo_rngs[l]))
            ran |= 1u << l;
          else
            finish(l);
        }
        if (ran == 0) break;
        bank.run_round(ran);
        for (std::size_t l = 0; l < kLanes; ++l) {
          if ((ran & (1u << l)) == 0) continue;
          if (steppers[l]->absorb_round(
                  bank.receivers(static_cast<int>(l)),
                  bank.last_round(static_cast<int>(l))))
            finish(l);
        }
      }
    };
    const int bank_workers =
        std::min(options.threads, static_cast<int>(bank_count));
    if (bank_workers <= 1) {
      for (std::size_t b = 0; b < bank_count; ++b) run_bank(b, 0);
    } else {
      pool.run(bank_count, bank_workers, run_bank);
    }
    return report;
  }

  auto run_trial = [&](std::size_t t, int slot) {
    auto& trial = report.trials[t];
    radio::RadioNetwork& net = workspaces[static_cast<std::size_t>(slot)]
                                   .acquire(graph, scenario.channel, geometry,
                                            Rng(trial.net_seed));
    Rng algo_rng(trial.algo_seed);
    if (traced) {
      radio::TraceRecorder recorder;
      trial.run = protocol->run(net, algo_rng, &recorder);
      fold_trace(trial.run, recorder, sinr);
    } else {
      trial.run = protocol->run(net, algo_rng);
    }
  };

  const int workers = std::min(options.threads, trials);
  if (workers <= 1) {
    for (std::size_t t = 0; t < report.trials.size(); ++t) run_trial(t, 0);
  } else {
    pool.run(report.trials.size(), workers, run_trial);
  }
  return report;
}

}  // namespace nrn::sim
