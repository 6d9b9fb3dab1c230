// Per-scenario structures built once and shared by every cell on one graph.
//
// FASTBC (Lemma 8) and Robust FASTBC (Theorem 11) run over a GBST "agreed
// upon in advance".  Like the graph itself and the source's BFS depth, it
// depends only on the topology and the source: never on the fault model,
// the channel, k, the protocol or the trial seeds.  A ScenarioSetup holds
// these structures for one graph identity, so the cells of a sweep that
// share a graph build it, run its BFS and build its GBST once.  The
// identity is the topology text, the seed when the topology is randomized
// (the only case where the seed reaches the graph), and the source.
//
// A setup is read-only after construction except for the GBST, which is
// built on first request -- decay-family cells never pay for it -- under a
// once-flag, so concurrent cells share one build.  It is handed out as a
// shared_ptr to const; protocols keep it alive for as long as they run.
//
// ScenarioSetupMemo maps identities to setups for CellExecutor, the one
// cell path behind static sweeps, fleet sweeps and the serve scheduler.
// Plans enumerate topology-major, so a scenario's cells are adjacent and a
// small least-recently-used memo catches every reuse; CellExecutor bounds
// it by the task pool's slot count, one setup per concurrent cell.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "graph/geometry.hpp"
#include "graph/graph.hpp"
#include "sim/scenario.hpp"
#include "trees/ranked_bfs.hpp"

namespace nrn::sim {

class ScenarioSetup {
 public:
  /// Builds `scenario`'s graph (with the node placement for geometric
  /// families) and the source's BFS depth.  Throws SpecError when the
  /// source is not a node of the graph.
  explicit ScenarioSetup(const Scenario& scenario);

  ScenarioSetup(const ScenarioSetup&) = delete;
  ScenarioSetup& operator=(const ScenarioSetup&) = delete;

  /// The memo key of `scenario`'s graph, e.g. "grid:4x6|source=0" or
  /// "gnp:24:0.3|seed=9|source=0".  Scenarios with equal identities build
  /// identical graphs, geometries, depths and GBSTs.
  static std::string identity(const Scenario& scenario);

  const std::string& key() const { return key_; }
  const graph::Graph& graph() const { return graph_; }
  /// The node placement, or null for a non-geometric topology.
  const graph::Geometry* geometry() const {
    return geometric_ ? &geometry_ : nullptr;
  }
  /// BFS eccentricity of the source (the paper's D).
  std::int64_t depth() const { return depth_; }

  /// The GBST rooted at the source (trees/gbst.hpp), built on the first
  /// call; every call, from any thread, returns the same tree.
  std::shared_ptr<const trees::RankedBfsTree> gbst() const;

 private:
  std::string key_;
  graph::NodeId source_;
  bool geometric_;
  graph::Geometry geometry_;
  graph::Graph graph_;
  std::int64_t depth_ = 0;
  mutable std::once_flag gbst_once_;
  mutable std::shared_ptr<const trees::RankedBfsTree> gbst_;
};

/// A thread-safe memo of at most `capacity` setups, least recently used
/// evicted first.  An evicted setup stays alive for the cells still
/// holding it.
class ScenarioSetupMemo {
 public:
  explicit ScenarioSetupMemo(std::size_t capacity);

  /// The setup for `scenario`'s identity, built on the first request.
  /// Concurrent requests for one identity share one build; builds of
  /// different identities run in parallel.
  std::shared_ptr<const ScenarioSetup> get(const Scenario& scenario);

  std::size_t size() const;

 private:
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<const ScenarioSetup> setup;  ///< null until built
  };

  std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Most recently used first.
  std::list<std::pair<std::string, std::shared_ptr<Slot>>> slots_;
};

}  // namespace nrn::sim
