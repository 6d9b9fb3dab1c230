#include "sim/registry.hpp"

#include "sim/scenario_setup.hpp"
#include "trees/gbst.hpp"

namespace nrn::sim {

std::shared_ptr<const trees::RankedBfsTree> ProtocolContext::gbst() const {
  if (setup == nullptr)
    return std::make_shared<const trees::RankedBfsTree>(
        trees::build_gbst(graph, scenario.source));
  NRN_EXPECTS(&setup->graph() == &graph,
              "protocol context graph is not its setup's graph");
  return setup->gbst();
}

void ProtocolRegistry::add(const std::string& name,
                           const std::string& description,
                           CapabilitySet capabilities, Factory factory,
                           TheoryBound bound) {
  entries_[name] =
      Entry{description, capabilities, std::move(factory), std::move(bound)};
}

void ProtocolRegistry::add(const std::string& name,
                           const std::string& description, Factory factory) {
  add(name, description, 0, std::move(factory));
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return entries_.count(name) > 0;
}

const ProtocolRegistry::Entry& ProtocolRegistry::entry(
    const std::string& name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::string known;
    for (const auto& [key, unused] : entries_) {
      if (!known.empty()) known += " ";
      known += key;
    }
    throw SpecError("unknown protocol '" + name + "' (registered: " + known +
                    ")");
  }
  return it->second;
}

std::unique_ptr<BroadcastProtocol> ProtocolRegistry::create(
    const std::string& name, const ProtocolContext& ctx) const {
  return entry(name).factory(ctx);
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [key, unused] : entries_) out.push_back(key);
  return out;
}

const std::string& ProtocolRegistry::description(
    const std::string& name) const {
  return entry(name).description;
}

CapabilitySet ProtocolRegistry::capabilities(const std::string& name) const {
  return entry(name).capabilities;
}

bool ProtocolRegistry::has_theory_bound(const std::string& name) const {
  return entry(name).bound != nullptr;
}

double ProtocolRegistry::theory_bound(const std::string& name,
                                      const TheoryContext& ctx) const {
  const Entry& e = entry(name);
  return e.bound ? e.bound(ctx) : 0.0;
}

// Defined beside their protocols, in protocols.cpp and
// schedule_protocols.cpp.
void register_builtin_protocols(ProtocolRegistry& registry);
void register_schedule_protocols(ProtocolRegistry& registry);

const ProtocolRegistry& extended_registry() {
  static const ProtocolRegistry* registry = [] {
    auto* r = new ProtocolRegistry();
    register_builtin_protocols(*r);
    register_schedule_protocols(*r);
    return r;
  }();
  return *registry;
}

}  // namespace nrn::sim
