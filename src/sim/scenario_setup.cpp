#include "sim/scenario_setup.hpp"

#include "common/contracts.hpp"
#include "graph/algorithms.hpp"
#include "trees/gbst.hpp"

namespace nrn::sim {

ScenarioSetup::ScenarioSetup(const Scenario& scenario)
    : key_(identity(scenario)),
      source_(scenario.source),
      geometric_(scenario.topology.geometric()),
      graph_(scenario.build_graph(geometric_ ? &geometry_ : nullptr)) {
  if (source_ >= graph_.node_count())
    throw SpecError("source " + std::to_string(source_) + " is not a node of " +
                    scenario.topology.text + " (" +
                    std::to_string(graph_.node_count()) + " nodes)");
  depth_ = graph::eccentricity(graph_, source_);
}

std::string ScenarioSetup::identity(const Scenario& scenario) {
  std::string key = scenario.topology.text;
  if (scenario.topology.randomized())
    key += "|seed=" + std::to_string(scenario.seed);
  key += "|source=" + std::to_string(scenario.source);
  return key;
}

std::shared_ptr<const trees::RankedBfsTree> ScenarioSetup::gbst() const {
  std::call_once(gbst_once_, [this] {
    gbst_ = std::make_shared<const trees::RankedBfsTree>(
        trees::build_gbst(graph_, source_));
  });
  return gbst_;
}

ScenarioSetupMemo::ScenarioSetupMemo(std::size_t capacity)
    : capacity_(capacity) {
  NRN_EXPECTS(capacity >= 1, "setup memo needs room for one setup");
}

std::shared_ptr<const ScenarioSetup> ScenarioSetupMemo::get(
    const Scenario& scenario) {
  std::string key = ScenarioSetup::identity(scenario);
  std::shared_ptr<Slot> slot;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = slots_.begin();
    while (it != slots_.end() && it->first != key) ++it;
    if (it != slots_.end()) {
      slots_.splice(slots_.begin(), slots_, it);
    } else {
      if (slots_.size() == capacity_) slots_.pop_back();
      slots_.emplace_front(std::move(key), std::make_shared<Slot>());
    }
    slot = slots_.front().second;
  }
  // Built under the slot's lock, not the memo's: a failed build (a
  // geometric placement that never connects) leaves the slot empty, so the
  // next request for the identity tries again.
  const std::lock_guard<std::mutex> lock(slot->mutex);
  if (slot->setup == nullptr)
    slot->setup = std::make_shared<const ScenarioSetup>(scenario);
  return slot->setup;
}

std::size_t ScenarioSetupMemo::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return slots_.size();
}

}  // namespace nrn::sim
