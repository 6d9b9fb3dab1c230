#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/task_pool.hpp"

namespace nrn::serve {

using Clock = std::chrono::steady_clock;

struct PlanScheduler::Impl {
  Impl(const sim::ProtocolRegistry* registry_in, std::string cache_dir,
       SchedulerOptions options_in, EventSink sink_in)
      : registry(registry_in),
        cache(std::move(cache_dir)),
        options(options_in),
        sink(std::move(sink_in)) {}

  // ----- immutable after construction
  const sim::ProtocolRegistry* registry;
  sim::ResultCache cache;
  SchedulerOptions options;
  EventSink sink;
  std::unique_ptr<sim::CellExecutor> executor;

  // ----- guarded by mutex
  mutable std::mutex mutex;

  /// A cold cell awaiting (or under) computation, deduplicated by cache
  /// key across every active plan.
  struct CellState {
    sim::SweepCell cell;
    std::string key;
    std::string hash;
    bool running = false;
    bool deferred = false;  ///< an external fleet worker holds the claim
    Clock::time_point retry_at{};
    std::vector<std::pair<int, int>> waiters;  ///< (plan_id, cell position)
  };

  struct PlanState {
    int id = 0;
    int client_id = 0;
    std::string plan_text;
    std::uint64_t master_seed = 1;
    int total = 0;
    std::vector<sim::SweepCellReport> cells;  ///< plan order; filled as resolved
    int done = 0;
    int computed = 0;  ///< fresh computes attributed to this plan
    int cached = 0;
    std::deque<std::string> queue;  ///< keys not yet picked for this plan
  };

  std::map<std::string, CellState> cells;
  std::map<int, PlanState> plans;
  std::vector<int> rotation;  ///< active plan ids, round-robin order
  std::size_t cursor = 0;
  std::deque<std::string> retry_ready;  ///< deferred cells due for re-probe
  int next_plan_id = 1;
  SchedulerStats lifetime;  ///< only the lifetime counters are maintained

  // ----- deferred-cell timer
  std::thread timer;
  std::condition_variable timer_cv;
  bool stopping = false;

  // Declared last so jobs never outlive the state they capture; the
  // destructor still tears it down explicitly first.
  std::unique_ptr<common::TaskPool::Stream> stream;

  // ------------------------------------------------------------ helpers

  void push_ticks(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      stream->push([this](int /*slot*/) { tick(); });
  }

  /// Next dispatchable cell: deferred retries first, then fair
  /// round-robin over the active plans' queues.  Caller holds the mutex.
  CellState* pick_next() {
    while (!retry_ready.empty()) {
      const std::string key = std::move(retry_ready.front());
      retry_ready.pop_front();
      const auto it = cells.find(key);
      if (it != cells.end() && !it->second.running && !it->second.deferred)
        return &it->second;
    }
    for (std::size_t scanned = 0; scanned < rotation.size(); ++scanned) {
      cursor = (cursor + 1) % rotation.size();
      PlanState& plan = plans.at(rotation[cursor]);
      while (!plan.queue.empty()) {
        const std::string key = std::move(plan.queue.front());
        plan.queue.pop_front();
        const auto it = cells.find(key);
        if (it == cells.end()) continue;  // resolved while queued
        if (it->second.running || it->second.deferred)
          continue;  // another plan's dispatch (or the timer) owns it
        return &it->second;
      }
    }
    return nullptr;
  }

  void remove_plan(int plan_id) {
    plans.erase(plan_id);
    const auto it = std::find(rotation.begin(), rotation.end(), plan_id);
    if (it != rotation.end()) rotation.erase(it);
    for (auto cell = cells.begin(); cell != cells.end();) {
      auto& waiters = cell->second.waiters;
      waiters.erase(std::remove_if(waiters.begin(), waiters.end(),
                                   [&](const std::pair<int, int>& w) {
                                     return w.first == plan_id;
                                   }),
                    waiters.end());
      // An unclaimed-by-anyone cell that is not running is abandoned; a
      // running one finishes into the cache for the next submission.
      if (waiters.empty() && !cell->second.running)
        cell = cells.erase(cell);
      else
        ++cell;
    }
  }

  PlanEvent base_event(const PlanState& plan) const {
    PlanEvent event;
    event.client_id = plan.client_id;
    event.plan_id = plan.id;
    event.total = plan.total;
    event.done = plan.done;
    event.computed = plan.computed;
    event.cached_cells = plan.cached;
    return event;
  }

  /// Emits kPlanDone with the full report.  Caller removes the plan.
  void emit_plan_done(const PlanState& plan) {
    sim::SweepReport report;
    report.plan_text = plan.plan_text;
    report.master_seed = plan.master_seed;
    report.total_cells = plan.total;
    report.cells = plan.cells;
    std::ostringstream out;
    sim::write_shard_file(out, report);
    PlanEvent event = base_event(plan);
    event.kind = PlanEvent::Kind::kPlanDone;
    event.report_text = out.str();
    ++lifetime.plans_done;
    sink(std::move(event));
  }

  /// Hands a resolved cell to every live waiter.  `fresh_compute` is
  /// attributed to the first live waiter (its plan "computed" the cell);
  /// the rest share it as cached, so summing per-plan computed counters
  /// across clients counts every Driver run exactly once.
  void deliver(const std::vector<std::pair<int, int>>& waiters,
               const sim::ExperimentReport& experiment, bool fresh_compute,
               const std::string& hash) {
    bool attributed = false;
    for (const auto& [plan_id, pos] : waiters) {
      const auto pit = plans.find(plan_id);
      if (pit == plans.end()) continue;  // client detached meanwhile
      PlanState& plan = pit->second;
      auto& slot = plan.cells[static_cast<std::size_t>(pos)];
      slot.experiment = experiment;
      const bool as_computed = fresh_compute && !attributed;
      attributed |= as_computed;
      slot.from_cache = !as_computed;
      ++plan.done;
      ++(as_computed ? plan.computed : plan.cached);
      ++(as_computed ? lifetime.cells_computed : lifetime.cells_cached);
      PlanEvent event = base_event(plan);
      event.kind = PlanEvent::Kind::kCellDone;
      event.cell_index = slot.cell_index;
      event.cached = !as_computed;
      event.hash = hash;
      sink(std::move(event));
      if (plan.done == plan.total) {
        emit_plan_done(plan);
        remove_plan(plan_id);
      }
    }
    // Every waiter detached mid-compute: the work still happened (and is
    // cached for the next submission).
    if (fresh_compute && !attributed) ++lifetime.cells_computed;
  }

  /// One dispatch: pick a cell, resolve it through the shared
  /// CellExecutor, deliver or defer.  Runs on a pool worker.
  void tick() {
    std::unique_lock<std::mutex> lock(mutex);
    CellState* picked = pick_next();
    if (picked == nullptr) return;
    picked->running = true;
    const sim::SweepCell cell = picked->cell;
    const std::string key = picked->key;
    lock.unlock();

    sim::CellExecutor::Result result;
    std::string error;
    try {
      result = executor->resolve(cell);
    } catch (const std::exception& e) {
      error = e.what();
      if (error.empty()) error = "cell execution failed";
    } catch (...) {
      error = "cell execution failed with an unknown error";
    }

    lock.lock();
    const auto it = cells.find(key);
    if (it == cells.end()) return;  // unreachable; defensive
    CellState& state = it->second;
    state.running = false;

    if (!error.empty()) {
      // The cell is unrunnable (e.g. a schedule protocol rejecting the
      // topology): fail every plan that contains it.
      const auto waiters = std::move(state.waiters);
      cells.erase(it);
      for (const auto& [plan_id, pos] : waiters) {
        (void)pos;
        const auto pit = plans.find(plan_id);
        if (pit == plans.end()) continue;
        PlanEvent event = base_event(pit->second);
        event.kind = PlanEvent::Kind::kPlanFailed;
        event.error = error;
        ++lifetime.plans_failed;
        sink(std::move(event));
        remove_plan(plan_id);
      }
      return;
    }

    if (result.resolution == sim::CellExecutor::Resolution::kBusy) {
      // A live external fleet worker holds the claim: re-probe after the
      // poll interval (its store will then resolve the cell for free).
      state.deferred = true;
      state.retry_at = Clock::now() + std::chrono::milliseconds(
                                          options.claim_poll_ms);
      timer_cv.notify_all();
      return;
    }

    const bool fresh_compute =
        result.resolution != sim::CellExecutor::Resolution::kCached;
    const auto waiters = std::move(state.waiters);
    const std::string hash = state.hash;
    const sim::ExperimentReport experiment = std::move(result.experiment);
    cells.erase(it);
    deliver(waiters, experiment, fresh_compute, hash);
  }

  /// Moves due deferred cells back to the dispatch queue.
  void timer_loop() {
    std::unique_lock<std::mutex> lock(mutex);
    while (!stopping) {
      std::optional<Clock::time_point> next;
      for (const auto& [key, state] : cells)
        if (state.deferred && (!next || state.retry_at < *next))
          next = state.retry_at;
      if (!next) {
        timer_cv.wait(lock);
        continue;
      }
      timer_cv.wait_until(lock, *next);
      if (stopping) return;
      const auto now = Clock::now();
      std::size_t due = 0;
      for (auto& [key, state] : cells) {
        if (!state.deferred || state.retry_at > now) continue;
        state.deferred = false;
        retry_ready.push_back(key);
        ++due;
      }
      if (due > 0) {
        lock.unlock();
        push_ticks(due);
        lock.lock();
      }
    }
  }
};

PlanScheduler::PlanScheduler(const sim::ProtocolRegistry& registry,
                             std::string cache_dir, SchedulerOptions options,
                             EventSink sink)
    : impl_(new Impl(&registry, std::move(cache_dir), options,
                     std::move(sink))) {
  NRN_EXPECTS(options.cell_threads >= 1, "cell threads must be positive");
  NRN_EXPECTS(impl_->sink != nullptr, "scheduler needs an event sink");
  sim::CellExecutor::Options exec_options;
  exec_options.trial_threads = options.trial_threads;
  exec_options.use_claims = true;
  exec_options.claim_ttl_seconds = options.claim_ttl_seconds;
  impl_->executor = std::make_unique<sim::CellExecutor>(
      registry, &impl_->cache, exec_options);
  impl_->stream =
      common::TaskPool::shared().open_stream(options.cell_threads);
  impl_->timer = std::thread([this] { impl_->timer_loop(); });
}

PlanScheduler::~PlanScheduler() {
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
  }
  impl_->timer_cv.notify_all();
  impl_->timer.join();
  impl_->stream->cancel();
  impl_->stream->drain();  // running cells finish into the cache
  impl_->stream.reset();
  delete impl_;
}

SubmitResult PlanScheduler::submit(const sim::SweepPlan& plan,
                                   int client_id) {
  for (const auto& protocol : plan.protocols)
    if (!impl_->registry->contains(protocol))
      throw sim::SpecError("sweep plan names unknown protocol '" + protocol +
                           "'");

  // Probe the warm cache outside the scheduler lock: loads are pure reads
  // and this is the submit path's only heavy work.
  const std::size_t n = plan.cells.size();
  std::vector<std::string> keys(n);
  std::vector<std::string> hashes(n);
  std::vector<std::optional<sim::ExperimentReport>> warm(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys[i] = impl_->executor->key(plan.cells[i]);
    hashes[i] = sim::fnv1a64_hex(keys[i]);
    warm[i] = impl_->cache.load(keys[i]);
  }

  std::size_t fresh_cells = 0;
  SubmitResult result;
  {
    const std::lock_guard<std::mutex> lock(impl_->mutex);
    Impl::PlanState plan_state;
    plan_state.id = impl_->next_plan_id++;
    plan_state.client_id = client_id;
    plan_state.plan_text = plan.text;
    plan_state.master_seed = plan.master_seed;
    plan_state.total = static_cast<int>(n);
    plan_state.cells.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      plan_state.cells[i].cell_index = plan.cells[i].index;

    // Warm cells resolve immediately; cold cells join (or create) the
    // shared per-key CellState.
    for (std::size_t i = 0; i < n; ++i) {
      if (warm[i]) {
        auto& slot = plan_state.cells[i];
        slot.experiment = std::move(*warm[i]);
        slot.from_cache = true;
        ++plan_state.done;
        ++plan_state.cached;
        ++impl_->lifetime.cells_cached;
        PlanEvent event = impl_->base_event(plan_state);
        event.kind = PlanEvent::Kind::kCellDone;
        event.cell_index = slot.cell_index;
        event.cached = true;
        event.hash = hashes[i];
        impl_->sink(std::move(event));
        continue;
      }
      auto [it, inserted] = impl_->cells.try_emplace(keys[i]);
      if (inserted) {
        it->second.cell = plan.cells[i];
        it->second.key = keys[i];
        it->second.hash = hashes[i];
        ++fresh_cells;
      }
      it->second.waiters.emplace_back(plan_state.id,
                                      static_cast<int>(i));
      plan_state.queue.push_back(keys[i]);
    }

    result.plan_id = plan_state.id;
    result.total_cells = plan_state.total;
    result.cached = plan_state.cached;
    result.done = plan_state.done == plan_state.total;
    if (result.done) {
      impl_->emit_plan_done(plan_state);
    } else {
      impl_->rotation.push_back(plan_state.id);
      impl_->plans.emplace(plan_state.id, std::move(plan_state));
    }
  }
  impl_->push_ticks(fresh_cells);
  return result;
}

void PlanScheduler::detach_client(int client_id) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::vector<int> doomed;
  for (const auto& [id, plan] : impl_->plans)
    if (plan.client_id == client_id) doomed.push_back(id);
  for (const int id : doomed) impl_->remove_plan(id);
}

QueryResult PlanScheduler::query(const sim::SweepPlan& plan) const {
  QueryResult result;
  result.total_cells = static_cast<int>(plan.cells.size());
  sim::SweepReport report;
  report.plan_text = plan.text;
  report.master_seed = plan.master_seed;
  report.total_cells = result.total_cells;
  report.cells.resize(plan.cells.size());
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    report.cells[i].cell_index = plan.cells[i].index;
    if (auto cached =
            impl_->cache.load(impl_->executor->key(plan.cells[i]))) {
      report.cells[i].experiment = std::move(*cached);
      report.cells[i].from_cache = true;
      ++result.cached;
    }
  }
  result.complete = result.cached == result.total_cells;
  if (result.complete) {
    std::ostringstream out;
    sim::write_shard_file(out, report);
    result.report_text = out.str();
  }
  return result;
}

SchedulerStats PlanScheduler::stats() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  SchedulerStats stats = impl_->lifetime;
  stats.plans_active = static_cast<int>(impl_->plans.size());
  for (const auto& [key, state] : impl_->cells)
    ++(state.running ? stats.cells_running : stats.cells_pending);
  return stats;
}

}  // namespace nrn::serve
