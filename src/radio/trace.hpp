// Round-by-round trace recording.
//
// Protocols append one RoundStats snapshot plus a progress metric (the
// informed-node count) per executed round; the Driver folds the recorded
// window into an Outcome's traced series, and examples read it directly.
#pragma once

#include <vector>

#include "radio/network.hpp"

namespace nrn::radio {

/// Accumulates RoundStats snapshots plus an optional scalar progress metric
/// (e.g. number of informed nodes) per round.
class TraceRecorder {
 public:
  void record(const RoundStats& stats, double progress_metric = 0.0) {
    stats_.push_back(stats);
    progress_.push_back(progress_metric);
  }

  std::size_t round_count() const { return stats_.size(); }
  const std::vector<RoundStats>& rounds() const { return stats_; }
  const std::vector<double>& progress() const { return progress_; }

 private:
  std::vector<RoundStats> stats_;
  std::vector<double> progress_;
};

}  // namespace nrn::radio
