#include "sim/sweep_runner.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "common/errors.hpp"
#include "common/numio.hpp"
#include "common/task_pool.hpp"
#include "sim/format_version.hpp"

namespace nrn::sim {

namespace {

// Every "experiment vN" / "nrn-sweep-shard vN" / "nrn-sweep-cache vN"
// literal below must track this constant (nrn_lint enforces agreement).
static_assert(kSweepFormatVersion == 6,
              "update every vN format literal in this file alongside "
              "kSweepFormatVersion, then regenerate the goldens");

[[noreturn]] void bad_format(const std::string& what) { throw SpecError(what); }

std::string hex64(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Strict line-by-line reader for the record formats below.
struct LineCursor {
  std::vector<std::string> lines;
  std::size_t pos = 0;

  explicit LineCursor(const std::string& text) {
    std::string line;
    std::istringstream in(text);
    while (std::getline(in, line)) lines.push_back(line);
  }

  bool done() const { return pos >= lines.size(); }

  /// True when the next line (if any) starts with `prefix`; consumes
  /// nothing.  Used for the optional series lines after each trial.
  bool peek_prefix(const std::string& prefix) const {
    return pos < lines.size() && lines[pos].rfind(prefix, 0) == 0;
  }

  const std::string& next(const std::string& context) {
    if (done()) bad_format(context + ": unexpected end of record");
    return lines[pos++];
  }

  /// Consumes the next line, which must start with `prefix`; returns the
  /// remainder.
  std::string field(const std::string& prefix) {
    const std::string& line = next("after '" + prefix + "'");
    if (line.rfind(prefix, 0) != 0)
      bad_format("expected '" + prefix + "...', got '" + line + "'");
    return line.substr(prefix.size());
  }

  void literal(const std::string& expected) {
    const std::string& line = next("expecting '" + expected + "'");
    if (line != expected)
      bad_format("expected '" + expected + "', got '" + line + "'");
  }
};

std::vector<std::string> split_spaces(const std::string& s) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  std::string token;
  while (in >> token) parts.push_back(token);
  return parts;
}

void append_experiment_record(std::ostream& os,
                              const ExperimentReport& report) {
  os << "experiment v6\n"
     << "protocol " << report.protocol << "\n"
     << "topology " << report.scenario.topology.text << "\n"
     << "fault " << report.scenario.fault_text << "\n";
  // Since v6: one optional channel line for non-edge channels.  Edge-fault
  // records stay byte-identical to v5 modulo the version header.
  if (report.scenario.channel_text != "none")
    os << "channel " << report.scenario.channel_text << "\n";
  os << "source " << report.scenario.source << "\n"
     << "k " << report.scenario.k << "\n"
     << "seed " << report.scenario.seed << "\n"
     << "nodes " << report.node_count << "\n"
     << "edges " << report.edge_count << "\n"
     << "depth " << report.depth << "\n"
     << "capabilities " << report.capabilities << "\n"
     // Hexfloat via MetricValue: bit-exact round trip for the bound.
     << "theory-bound " << MetricValue(report.theory_bound).serialize()
     << "\n"
     << "trials " << report.trials.size() << "\n";
  for (const auto& trial : report.trials) {
    os << "trial " << trial.index << " " << trial.net_seed << " "
       << trial.algo_seed << " " << (trial.run.completed ? 1 : 0) << " "
       << trial.run.metrics.size();
    for (const auto& [key, value] : trial.run.metrics)
      os << " " << key << "=" << value.serialize();
    os << "\n";
    // Since v4: zero or more per-round series after the trial line they
    // belong to.  Untraced trials emit nothing.  v5 keeps the grammar of
    // v4 unchanged; the bump marks the engine's v4 coin tape (every
    // seeded outcome differs from v4 records).
    for (const auto& [key, values] : trial.run.series) {
      os << "series " << key << " " << values.size();
      for (const auto& value : values) os << " " << value.serialize();
      os << "\n";
    }
  }
  os << "end\n";
}

ExperimentReport parse_experiment_cursor(LineCursor& cursor) {
  cursor.literal("experiment v6");
  ExperimentReport report;
  report.protocol = cursor.field("protocol ");
  const std::string topology = cursor.field("topology ");
  const std::string fault = cursor.field("fault ");
  const std::string channel =
      cursor.peek_prefix("channel ") ? cursor.field("channel ") : "none";
  const std::int64_t source = parse_spec_int(cursor.field("source "), "source");
  const std::int64_t k = parse_spec_int(cursor.field("k "), "k");
  const std::uint64_t seed = parse_spec_uint(cursor.field("seed "), "seed");
  report.scenario = Scenario::parse(topology, fault,
                                    static_cast<graph::NodeId>(source), k,
                                    seed, channel);
  report.node_count = parse_spec_int(cursor.field("nodes "), "nodes");
  report.edge_count = parse_spec_int(cursor.field("edges "), "edges");
  report.depth = parse_spec_int(cursor.field("depth "), "depth");
  report.capabilities = static_cast<CapabilitySet>(
      parse_spec_uint(cursor.field("capabilities "), "capabilities"));
  const auto bound = MetricValue::parse(cursor.field("theory-bound "));
  if (!bound || bound->is_int()) bad_format("malformed theory bound");
  report.theory_bound = bound->as_real();
  const std::int64_t trials =
      parse_spec_int(cursor.field("trials "), "trials");
  if (trials < 0 || trials > 10'000'000) bad_format("implausible trial count");
  report.trials.resize(static_cast<std::size_t>(trials));
  for (std::int64_t t = 0; t < trials; ++t) {
    const auto tokens = split_spaces(cursor.field("trial "));
    if (tokens.size() < 5) bad_format("malformed trial line");
    auto& trial = report.trials[static_cast<std::size_t>(t)];
    trial.index = static_cast<int>(parse_spec_int(tokens[0], "trial index"));
    if (trial.index != static_cast<int>(t)) bad_format("trial out of order");
    trial.net_seed = parse_spec_uint(tokens[1], "net seed");
    trial.algo_seed = parse_spec_uint(tokens[2], "algo seed");
    const std::int64_t completed = parse_spec_int(tokens[3], "completed");
    if (completed != 0 && completed != 1) bad_format("bad completed flag");
    trial.run.completed = completed == 1;
    const std::int64_t metric_count =
        parse_spec_int(tokens[4], "metric count");
    if (metric_count < 0 ||
        metric_count != static_cast<std::int64_t>(tokens.size()) - 5)
      bad_format("metric count mismatch on trial line");
    for (std::size_t i = 5; i < tokens.size(); ++i) {
      const auto eq = tokens[i].find('=');
      if (eq == std::string::npos) bad_format("malformed metric token");
      const std::string key = tokens[i].substr(0, eq);
      if (!valid_metric_key(key)) bad_format("invalid metric key");
      const auto value = MetricValue::parse(tokens[i].substr(eq + 1));
      if (!value) bad_format("malformed metric value");
      if (!trial.run.metrics.emplace(key, *value).second)
        bad_format("duplicate metric key");
    }
    while (cursor.peek_prefix("series ")) {
      const auto series = split_spaces(cursor.field("series "));
      if (series.size() < 2) bad_format("malformed series line");
      const std::string& key = series[0];
      if (!valid_metric_key(key)) bad_format("invalid series key");
      const std::int64_t count = parse_spec_int(series[1], "series count");
      if (count < 0 ||
          count != static_cast<std::int64_t>(series.size()) - 2)
        bad_format("series count mismatch");
      std::vector<MetricValue> values;
      values.reserve(static_cast<std::size_t>(count));
      for (std::size_t i = 2; i < series.size(); ++i) {
        const auto value = MetricValue::parse(series[i]);
        if (!value) bad_format("malformed series value");
        values.push_back(*value);
      }
      if (!trial.run.series.emplace(key, std::move(values)).second)
        bad_format("duplicate series key");
    }
  }
  cursor.literal("end");
  return report;
}

/// Splits `text` into (body, checksum) at the trailing checksum line and
/// verifies the checksum; the returned body still ends with '\n'.
std::string verified_body(const std::string& text) {
  if (text.empty() || text.back() != '\n')
    bad_format("record is truncated (no trailing newline)");
  const auto line_start = text.rfind('\n', text.size() - 2);
  const std::size_t begin = line_start == std::string::npos ? 0 : line_start + 1;
  const std::string last = text.substr(begin, text.size() - begin - 1);
  const std::string prefix = "checksum ";
  if (last.rfind(prefix, 0) != 0) bad_format("record has no checksum line");
  const std::string body = text.substr(0, begin);
  if (hex64(fnv1a64(body)) != last.substr(prefix.size()))
    bad_format("record checksum mismatch");
  return body;
}

void write_with_checksum(std::ostream& os, const std::string& body) {
  os << body << "checksum " << hex64(fnv1a64(body)) << "\n";
}

}  // namespace

std::string experiment_record(const ExperimentReport& report) {
  std::ostringstream out;
  append_experiment_record(out, report);
  return out.str();
}

ExperimentReport parse_experiment_record(const std::string& text) {
  LineCursor cursor(text);
  ExperimentReport report = parse_experiment_cursor(cursor);
  if (!cursor.done()) bad_format("trailing data after experiment record");
  return report;
}

// ----------------------------------------------------------------- cache

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  NRN_EXPECTS(!dir_.empty(), "cache directory must be non-empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec)
    throw SpecError("cache: cannot create directory '" + dir_ +
                    "': " + errno_text(ec.value()));
}

std::string ResultCache::entry_path(const std::string& key) const {
  return (std::filesystem::path(dir_) / (hex64(fnv1a64(key)) + ".nrnc"))
      .string();
}

std::optional<ExperimentReport> ResultCache::load(
    const std::string& key) const {
  std::ifstream in(entry_path(key), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream raw;
  raw << in.rdbuf();
  try {
    LineCursor cursor(verified_body(raw.str()));
    cursor.literal("nrn-sweep-cache v6");
    if (cursor.field("key ") != key) return std::nullopt;  // hash collision
    ExperimentReport report = parse_experiment_cursor(cursor);
    if (!cursor.done()) bad_format("trailing data in cache entry");
    return report;
  } catch (const SpecError&) {
    return std::nullopt;  // damaged entry: recompute, never trust
  }
}

namespace {

/// Temp/steal suffix unique across cooperating processes AND threads: the
/// pid separates processes sharing a cache directory, the atomic counter
/// separates threads within one process.  (The old cell-index tag collided
/// when two processes wrote the same cell, interleaving their temp writes
/// into an entry that failed verification on every later load -- the cell
/// silently recomputed forever.)
std::string unique_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return std::to_string(static_cast<long long>(::getpid())) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

}  // namespace

void ResultCache::store(const std::string& key,
                        const ExperimentReport& report) const {
  std::ostringstream body;
  body << "nrn-sweep-cache v6\n"
       << "key " << key << "\n";
  append_experiment_record(body, report);
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp." + unique_suffix();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable cache never fails the sweep
    write_with_checksum(out, body.str());
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) std::filesystem::remove(tmp, ec);
}

std::string ResultCache::claim_path(const std::string& key) const {
  return (std::filesystem::path(dir_) / (hex64(fnv1a64(key)) + ".claim"))
      .string();
}

bool ResultCache::try_claim(const std::string& key) const {
  // O_EXCL is the one primitive here that is atomic across processes on
  // every POSIX filesystem; exactly one creator wins.
  const std::string path = claim_path(key);
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    // Only EEXIST means "a peer holds it".  Anything else (EACCES on a
    // mis-permissioned shared mount, ENOENT on a vanished directory)
    // would make the fleet's poll loop spin forever with no diagnostic:
    // fail loudly instead.
    if (errno != EEXIST)
      throw SpecError("fleet: cannot create claim file '" + path +
                      "': " + errno_text(errno));
    return false;
  }
  const std::string owner = unique_suffix() + "\n";
  // The content is diagnostic only; claims are judged by existence + mtime.
  [[maybe_unused]] const auto written =
      ::write(fd, owner.data(), owner.size());
  ::close(fd);
  return true;
}

void ResultCache::refresh_claim(const std::string& key) const {
  std::error_code ec;
  std::filesystem::last_write_time(
      claim_path(key), std::filesystem::file_time_type::clock::now(), ec);
}

bool ResultCache::steal_stale_claim(const std::string& key,
                                    double ttl_seconds) const {
  namespace fs = std::filesystem;
  const fs::path claim = claim_path(key);
  std::error_code ec;
  const auto mtime = fs::last_write_time(claim, ec);
  if (ec) return false;  // already gone: claimant finished or was stolen
  const auto age = std::chrono::duration_cast<std::chrono::duration<double>>(
      fs::file_time_type::clock::now() - mtime);
  if (age.count() < ttl_seconds) return false;
  // Rename-away makes the steal atomic: when several workers observe the
  // same stale claim, the one whose rename succeeds owns the removal and
  // the others keep waiting.
  const fs::path away = claim.string() + ".stale." + unique_suffix();
  fs::rename(claim, away, ec);
  if (ec) return false;
  fs::remove(away, ec);
  return true;
}

void ResultCache::release_claim(const std::string& key) const {
  std::error_code ec;
  std::filesystem::remove(claim_path(key), ec);
}

std::string sweep_cache_key(const SweepCell& cell, const Tuning& tuning) {
  // transform_eta is rendered as an exact hexfloat: any bitwise change to
  // the tuning must change the key, so default stream precision (which
  // collapses nearby doubles) would poison the cache.  format_real_hex is
  // locale-independent -- a daemon and a fleet peer under different
  // locales must derive the same key for the same cell.
  std::ostringstream key;
  key << cell.key() << "|tuning=" << tuning.decay_phase << ","
      << tuning.rank_modulus << "," << tuning.block_size << ","
      << tuning.window_multiplier << "," << tuning.batch << ","
      << tuning.max_rounds << "," << tuning.transform_x << ","
      << format_real_hex(tuning.transform_eta) << "," << tuning.payload_len;
  return key.str();
}

// ---------------------------------------------------------------- report

int SweepReport::cache_hits() const {
  int hits = 0;
  for (const auto& cell : cells) hits += cell.from_cache ? 1 : 0;
  return hits;
}

bool SweepReport::all_completed() const {
  for (const auto& cell : cells)
    if (!cell.experiment.all_completed()) return false;
  return true;
}

void write_shard_file(std::ostream& os, const SweepReport& report) {
  std::ostringstream body;
  body << "nrn-sweep-shard v6\n"
       << "plan " << report.plan_text << "\n"
       << "master-seed " << report.master_seed << "\n"
       << "total-cells " << report.total_cells << "\n"
       << "cells " << report.cells.size() << "\n";
  for (const auto& cell : report.cells) {
    body << "cell " << cell.cell_index << "\n";
    append_experiment_record(body, cell.experiment);
  }
  write_with_checksum(os, body.str());
}

SweepReport read_shard_file(std::istream& is) {
  std::ostringstream raw;
  raw << is.rdbuf();
  LineCursor cursor(verified_body(raw.str()));
  cursor.literal("nrn-sweep-shard v6");
  SweepReport report;
  report.plan_text = cursor.field("plan ");
  report.master_seed =
      parse_spec_uint(cursor.field("master-seed "), "master seed");
  report.total_cells = static_cast<int>(
      parse_spec_int(cursor.field("total-cells "), "total cells"));
  const std::int64_t count =
      parse_spec_int(cursor.field("cells "), "cell count");
  if (count < 0 || count > report.total_cells)
    bad_format("shard cell count out of range");
  int previous = -1;
  for (std::int64_t i = 0; i < count; ++i) {
    SweepCellReport cell;
    cell.cell_index = static_cast<int>(
        parse_spec_int(cursor.field("cell "), "cell index"));
    if (cell.cell_index <= previous)
      bad_format("shard cells out of order");
    if (cell.cell_index >= report.total_cells)
      bad_format("cell index exceeds total-cells");
    previous = cell.cell_index;
    cell.experiment = parse_experiment_cursor(cursor);
    report.cells.push_back(std::move(cell));
  }
  if (!cursor.done()) bad_format("trailing data after shard cells");
  return report;
}

SweepReport merge_sweep_reports(const std::vector<SweepReport>& shards) {
  if (shards.empty()) bad_format("nothing to merge");
  SweepReport merged;
  merged.plan_text = shards.front().plan_text;
  merged.master_seed = shards.front().master_seed;
  merged.total_cells = shards.front().total_cells;
  std::vector<const SweepCellReport*> slots(
      static_cast<std::size_t>(merged.total_cells), nullptr);
  for (const auto& shard : shards) {
    if (shard.plan_text != merged.plan_text ||
        shard.master_seed != merged.master_seed ||
        shard.total_cells != merged.total_cells)
      bad_format("cannot merge shards of different sweep plans");
    for (const auto& cell : shard.cells) {
      if (cell.cell_index < 0 || cell.cell_index >= merged.total_cells)
        bad_format("merge: cell index " + std::to_string(cell.cell_index) +
                   " outside the plan");
      auto& slot = slots[static_cast<std::size_t>(cell.cell_index)];
      if (slot != nullptr) {
        // Fleet shards overlap; a duplicate is legal iff bit-identical
        // (deterministic cells recomputed by different workers are).
        if (!(*slot == cell))
          bad_format("merge: cell " + std::to_string(cell.cell_index) +
                     " differs between shards");
        continue;
      }
      slot = &cell;
    }
  }
  merged.cells.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i] == nullptr)
      bad_format("merge: cell " + std::to_string(i) + " is missing");
    merged.cells.push_back(*slots[i]);
  }
  return merged;
}

// ------------------------------------------------------------- heartbeat

ClaimHeartbeat::ClaimHeartbeat(const ResultCache& cache, std::string key,
                               double interval_seconds) {
  NRN_EXPECTS(interval_seconds > 0.0, "heartbeat interval must be positive");
  const auto interval = std::chrono::duration<double>(interval_seconds);
  // nrn-lint: allow(raw-thread): the heartbeat must tick while every pool
  // slot (including the caller's) is busy inside Driver::run, so it cannot
  // be a pool job; it is observability-only and joined in the destructor.
  ticker_ = std::thread([this, &cache, key = std::move(key), interval] {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
      lock.unlock();
      cache.refresh_claim(key);
      lock.lock();
    }
  });
}

ClaimHeartbeat::~ClaimHeartbeat() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  ticker_.join();
}

// -------------------------------------------------------------- executor

namespace {

/// Releases a held claim on every exit path.  (Before this guard existed,
/// an exception between try_claim and store -- a protocol factory
/// rejecting its scenario, a failing store -- stranded the marker until a
/// peer's TTL expired.)
class ClaimGuard {
 public:
  ClaimGuard(const ResultCache& cache, const std::string& key)
      : cache_(&cache), key_(&key) {}
  ~ClaimGuard() { cache_->release_claim(*key_); }

  ClaimGuard(const ClaimGuard&) = delete;
  ClaimGuard& operator=(const ClaimGuard&) = delete;

 private:
  const ResultCache* cache_;
  const std::string* key_;
};

/// Serialized SweepProgressEvent emission with running counters.
class ProgressEmitter {
 public:
  ProgressEmitter(const ProgressFn& fn, int total,
                  const CellExecutor& executor)
      : fn_(fn), executor_(executor) {
    event_.total = total;
  }

  void accepted() {
    if (!fn_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    event_.kind = SweepProgressEvent::Kind::kAccepted;
    fn_(event_);
  }

  /// Builds the cell's cache-entry hash only when a sink listens.
  void cell_done(const SweepCell& cell, bool cached) {
    if (!fn_) return;
    std::string hash = fnv1a64_hex(executor_.key(cell));
    const std::lock_guard<std::mutex> lock(mutex_);
    event_.kind = SweepProgressEvent::Kind::kCellDone;
    ++event_.done;
    (cached ? event_.cached_cells : event_.computed) += 1;
    event_.cell_index = cell.index;
    event_.cached = cached;
    event_.cell_hash = std::move(hash);
    fn_(event_);
  }

  void plan_done() {
    if (!fn_) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    event_.kind = SweepProgressEvent::Kind::kPlanDone;
    event_.cell_hash.clear();
    fn_(event_);
  }

 private:
  const ProgressFn& fn_;
  const CellExecutor& executor_;
  std::mutex mutex_;
  SweepProgressEvent event_;
};

}  // namespace

CellExecutor::CellExecutor(const ProtocolRegistry& registry,
                           const ResultCache* cache, Options options)
    : registry_(&registry),
      cache_(cache),
      options_(std::move(options)),
      driver_(registry),
      setups_(static_cast<std::size_t>(
          common::TaskPool::shared().slot_count())) {
  NRN_EXPECTS(options_.trial_threads >= 1, "trial threads must be positive");
  NRN_EXPECTS(!options_.use_claims || cache_ != nullptr,
              "claim markers need a result cache");
}

std::string CellExecutor::key(const SweepCell& cell) const {
  return sweep_cache_key(cell, options_.tuning);
}

ExperimentReport CellExecutor::compute(const SweepCell& cell) const {
  DriverOptions driver_options;
  driver_options.threads = options_.trial_threads;
  driver_options.tuning = options_.tuning;
  driver_options.trace = cell.trace;
  const auto setup = setups_.get(cell.scenario);
  return driver_.run(*setup, cell.scenario, cell.protocol, cell.trials,
                     driver_options);
}

CellExecutor::Result CellExecutor::resolve(const SweepCell& cell) const {
  const std::string cache_key = cache_ ? key(cell) : std::string();

  if (cache_) {
    if (auto cached = cache_->load(cache_key))
      return {Resolution::kCached, std::move(*cached)};
  }
  if (cache_ == nullptr || !options_.use_claims) {
    Result result{Resolution::kComputed, compute(cell)};
    if (cache_) cache_->store(cache_key, result.experiment);
    return result;
  }

  bool stole = false;
  if (!cache_->try_claim(cache_key)) {
    if (!cache_->steal_stale_claim(cache_key, options_.claim_ttl_seconds))
      return {Resolution::kBusy, {}};  // fresh foreign claim: retry later
    if (!cache_->try_claim(cache_key))
      return {Resolution::kBusy, {}};  // lost the post-steal race
    stole = true;
  }
  const ClaimGuard guard(*cache_, cache_key);
  // Claim held.  Recheck the cache: the previous holder may have stored
  // the entry and died between store and release.
  if (auto cached = cache_->load(cache_key))
    return {Resolution::kCached, std::move(*cached)};
  // A ttl <= 0 makes every claim fair game at once: nothing to refresh.
  std::optional<ClaimHeartbeat> heartbeat;  // destroyed before the guard
  if (options_.claim_ttl_seconds > 0.0)
    heartbeat.emplace(*cache_, cache_key,
                      std::max(options_.claim_ttl_seconds / 4.0, 0.05));
  Result result{stole ? Resolution::kStolen : Resolution::kComputed,
                compute(cell)};
  cache_->store(cache_key, result.experiment);
  return result;
}

// ---------------------------------------------------------------- runner

SweepReport SweepRunner::run(const SweepPlan& plan,
                             const SweepOptions& options) const {
  NRN_EXPECTS(options.shard_count >= 1, "shard count must be positive");
  NRN_EXPECTS(options.shard_index >= 0 &&
                  options.shard_index < options.shard_count,
              "shard index must be in [0, shard_count)");
  NRN_EXPECTS(options.cell_threads >= 1, "cell threads must be positive");
  NRN_EXPECTS(options.trial_threads >= 1, "trial threads must be positive");
  for (const auto& protocol : plan.protocols)
    if (!registry_->contains(protocol))
      throw SpecError("sweep plan names unknown protocol '" + protocol + "'");
  const bool fleet = options.assignment != SweepAssignment::kStatic;
  const bool resume = options.assignment == SweepAssignment::kResume;
  if (fleet) {
    NRN_EXPECTS(!options.cache_dir.empty(),
                "fleet/resume modes need a cache directory");
    NRN_EXPECTS(options.shard_count == 1,
                "fleet/resume modes replace static sharding");
  }

  SweepReport report;
  report.plan_text = plan.text;
  report.master_seed = plan.master_seed;
  report.total_cells = static_cast<int>(plan.cells.size());
  report.fleet.active = fleet;

  std::vector<const SweepCell*> mine;
  for (const auto& cell : plan.cells)
    if (cell.index % options.shard_count == options.shard_index)
      mine.push_back(&cell);
  report.cells.resize(mine.size());

  std::optional<ResultCache> cache;
  if (!options.cache_dir.empty()) cache.emplace(options.cache_dir);

  CellExecutor::Options exec_options;
  exec_options.trial_threads = options.trial_threads;
  exec_options.tuning = options.tuning;
  exec_options.use_claims = options.assignment == SweepAssignment::kFleet;
  exec_options.claim_ttl_seconds = options.claim_ttl_seconds;
  const CellExecutor executor(*registry_, cache ? &*cache : nullptr,
                              exec_options);
  ProgressEmitter progress(options.on_progress,
                           static_cast<int>(mine.size()), executor);
  progress.accepted();

  std::atomic<int> claimed{0}, stolen{0}, skipped{0}, missing{0};

  // Resolves one cell, returning false when a live peer holds its claim
  // (the loop revisits it on a later pass).  Resume is the cache-only
  // pass: it computes nothing and counts a miss instead.
  auto resolve = [&](std::size_t slot) -> bool {
    const SweepCell& cell = *mine[slot];
    CellExecutor::Result result;
    if (resume) {
      auto cached = cache->load(executor.key(cell));
      if (!cached) {
        missing.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      result = {CellExecutor::Resolution::kCached, std::move(*cached)};
    } else {
      result = executor.resolve(cell);
    }
    switch (result.resolution) {
      case CellExecutor::Resolution::kBusy:
        return false;
      case CellExecutor::Resolution::kCached:
        skipped.fetch_add(1, std::memory_order_relaxed);
        break;
      case CellExecutor::Resolution::kComputed:
        claimed.fetch_add(1, std::memory_order_relaxed);
        break;
      case CellExecutor::Resolution::kStolen:
        stolen.fetch_add(1, std::memory_order_relaxed);
        break;
    }
    auto& out = report.cells[slot];
    out.cell_index = cell.index;
    out.experiment = std::move(result.experiment);
    out.from_cache = result.resolution == CellExecutor::Resolution::kCached;
    progress.cell_done(cell, out.from_cache);
    return true;
  };

  std::vector<std::size_t> pending(mine.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  // Under claims, start each process at a different point of the grid so
  // cooperating fleets fan out instead of racing for the same first
  // claims.  Purely a contention hint: results are position-independent.
  if (exec_options.use_claims && !pending.empty())
    std::rotate(pending.begin(),
                pending.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(::getpid()) %
                                      pending.size()),
                pending.end());

  // Without claims no cell is ever busy, so this is a single pass.
  while (!pending.empty()) {
    std::vector<std::uint8_t> done(pending.size(), 0);
    const int workers = std::min<int>(options.cell_threads,
                                      static_cast<int>(pending.size()));
    if (workers <= 1) {
      for (std::size_t i = 0; i < pending.size(); ++i)
        done[i] = resolve(pending[i]) ? 1 : 0;
    } else {
      // Cells batch over the shared persistent pool; a cell's own Driver
      // batching (trial_threads) runs inline on the cell's slot.
      common::TaskPool::shared().run(
          pending.size(), workers, [&](std::size_t i, int /*worker*/) {
            done[i] = resolve(pending[i]) ? 1 : 0;
          });
    }
    std::vector<std::size_t> next;
    for (std::size_t i = 0; i < pending.size(); ++i)
      if (!done[i]) next.push_back(pending[i]);
    // No progress means every remaining cell is claimed by a live peer:
    // wait for their entries to land (or their claims to go stale).
    if (next.size() == pending.size())
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options.fleet_poll_ms));
    pending = std::move(next);
  }

  if (missing.load() > 0)
    throw SpecError("resume: " + std::to_string(missing.load()) + " of " +
                    std::to_string(mine.size()) +
                    " cells are missing from the cache; run the sweep "
                    "with --fleet first");
  if (fleet) {
    report.fleet.claimed = claimed.load();
    report.fleet.stolen = stolen.load();
    report.fleet.skipped = skipped.load();
  }
  progress.plan_done();
  return report;
}

}  // namespace nrn::sim
