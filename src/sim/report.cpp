#include "sim/report.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <tuple>

#include "common/numio.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace nrn::sim {

namespace {

/// Human rendering of one metric value: integers exact, reals at three
/// digits.
std::string metric_cell(const MetricValue& value) {
  return value.is_int() ? fmt(value.as_int()) : fmt(value.as_real(), 3);
}

/// Metric keys beyond the first-class rounds/messages columns, sorted.
std::vector<std::string> extra_metric_keys(const ExperimentReport& report) {
  std::vector<std::string> keys;
  for (const auto& key : report.metric_keys())
    if (key != "rounds" && key != "messages") keys.push_back(key);
  return keys;
}

/// 1-based round at which the "informed" series first reaches
/// `frac * nodes`, or nullopt when the trial has no informed series or
/// never got there.
std::optional<std::int64_t> convergence_round(const Outcome& run, double frac,
                                              std::int64_t nodes) {
  const std::vector<MetricValue>* informed = run.find_series("informed");
  if (informed == nullptr || nodes <= 0) return std::nullopt;
  const double target = frac * static_cast<double>(nodes);
  for (std::size_t i = 0; i < informed->size(); ++i)
    if ((*informed)[i].as_real() >= target)
      return static_cast<std::int64_t>(i) + 1;
  return std::nullopt;
}

std::string convergence_cell(const Outcome& run, double frac,
                             std::int64_t nodes) {
  const auto round = convergence_round(run, frac, nodes);
  return round ? fmt(*round) : "-";
}

/// True when any trial carries an "informed" series (the convergence
/// columns' source).
bool has_informed_series(const ExperimentReport& report) {
  for (const auto& trial : report.trials)
    if (trial.run.find_series("informed") != nullptr) return true;
  return false;
}

TableWriter build_table(const ExperimentReport& report) {
  const auto extras = extra_metric_keys(report);
  // Convergence columns appear only for traced experiments: the round at
  // which the informed count first reached 50% / 90% / 100% of n.
  const bool convergence = has_informed_series(report);
  std::vector<std::string> columns = {"trial", "rounds", "completed",
                                      "rounds/message"};
  if (convergence) {
    columns.push_back("r50");
    columns.push_back("r90");
    columns.push_back("r100");
  }
  columns.insert(columns.end(), extras.begin(), extras.end());
  // to_string(channel) renders the fault model for edge channels, so
  // pre-channel experiments keep their exact titles.
  TableWriter table(report.protocol + " on " + report.scenario.topology.text +
                        " under " + to_string(report.scenario.channel),
                    columns);
  table.add_note("n = " + std::to_string(report.node_count) +
                 ", edges = " + std::to_string(report.edge_count) +
                 ", depth = " + std::to_string(report.depth) +
                 ", k = " + std::to_string(report.scenario.k) +
                 ", source = " + std::to_string(report.scenario.source) +
                 ", seed = " + std::to_string(report.scenario.seed));
  table.add_note("capabilities: " + capability_names(report.capabilities));
  for (const auto& trial : report.trials) {
    std::vector<std::string> row = {fmt(trial.index), fmt(trial.run.rounds()),
                                    verdict(trial.run.completed),
                                    fmt(trial.run.rounds_per_message(), 2)};
    if (convergence) {
      row.push_back(convergence_cell(trial.run, 0.5, report.node_count));
      row.push_back(convergence_cell(trial.run, 0.9, report.node_count));
      row.push_back(convergence_cell(trial.run, 1.0, report.node_count));
    }
    for (const auto& key : extras) {
      const MetricValue* v = trial.run.find(key);
      row.push_back(v == nullptr ? "-" : metric_cell(*v));
    }
    table.add_row(std::move(row));
  }
  if (!report.trials.empty()) {
    const auto s = summarize(report.rounds());
    table.add_note("median rounds: " + fmt(s.median, 0) + ", mean " +
                   fmt(s.mean, 1) + " +/- " + fmt(ci95_halfwidth(s), 1));
  }
  if (convergence)
    table.add_note("r50/r90/r100: first round with informed >= that "
                   "fraction of n (per-round trace)");
  if (report.has_theory_bound())
    table.add_note("theory bound: " + fmt(report.theory_bound, 1) +
                   " rounds; gap (median/bound): " + fmt(report.gap(), 2));
  return table;
}

/// JSON rendering of a double at max_digits10, so real-valued fields
/// (theory bounds, gaps, real metrics) round-trip exactly through a
/// conforming parser instead of truncating at stream precision.  Routed
/// through common/numio so the decimal point is '.' under every process
/// locale (JSON requires it, and goldens must not depend on LC_NUMERIC).
std::string json_real(double value) {
  return format_real(value, std::numeric_limits<double>::max_digits10);
}

/// One series value in CSV/JSON: integers exact, reals at max_digits10.
std::string series_value(const MetricValue& value) {
  return value.is_int() ? std::to_string(value.as_int())
                        : json_real(value.as_real());
}

/// The body of one experiment's JSON object (no surrounding braces); each
/// line is prefixed with `indent`.  write_json and the sweep cell array
/// share this so the two emitters cannot drift apart.
void write_experiment_fields(std::ostream& os, const ExperimentReport& report,
                             const std::string& indent) {
  os << indent << "\"protocol\": \"" << json_escape(report.protocol)
     << "\",\n"
     << indent << "\"topology\": \""
     << json_escape(report.scenario.topology.text) << "\",\n"
     << indent << "\"fault\": \"" << json_escape(report.scenario.fault_text)
     << "\",\n";
  // The channel field appears only for non-edge channels, so pre-channel
  // JSON keeps its exact shape.
  if (report.scenario.channel_text != "none")
    os << indent << "\"channel\": \""
       << json_escape(report.scenario.channel_text) << "\",\n";
  os << indent << "\"source\": " << report.scenario.source << ",\n"
     << indent << "\"k\": " << report.scenario.k << ",\n"
     // Seeds are full-range uint64; emit as strings so double-backed JSON
     // parsers cannot round them (they must reproduce trials exactly).
     << indent << "\"seed\": \"" << report.scenario.seed << "\",\n"
     << indent << "\"nodes\": " << report.node_count << ",\n"
     << indent << "\"edges\": " << report.edge_count << ",\n"
     << indent << "\"depth\": " << report.depth << ",\n"
     << indent << "\"capabilities\": \""
     << capability_names(report.capabilities) << "\",\n";
  if (report.has_theory_bound())
    os << indent << "\"theory_bound\": " << json_real(report.theory_bound)
       << ",\n"
       << indent << "\"gap\": " << json_real(report.gap()) << ",\n";
  os << indent << "\"trials\": [\n";
  for (std::size_t i = 0; i < report.trials.size(); ++i) {
    const auto& trial = report.trials[i];
    os << indent << "  {\"trial\": " << trial.index
       << ", \"rounds\": " << trial.run.rounds() << ", \"completed\": "
       << (trial.run.completed ? "true" : "false")
       << ", \"messages\": " << trial.run.messages() << ", \"metrics\": {";
    bool first = true;
    for (const auto& [key, value] : trial.run.metrics) {
      if (key == "rounds" || key == "messages") continue;
      if (!first) os << ", ";
      first = false;
      os << "\"" << key << "\": ";
      if (value.is_int()) os << value.as_int();
      else os << json_real(value.as_real());
    }
    os << "}";
    // Per-round series ride only on traced trials, so untraced reports
    // emit the exact pre-v4 shape.
    if (!trial.run.series.empty()) {
      os << ", \"series\": {";
      bool first_series = true;
      for (const auto& [key, values] : trial.run.series) {
        if (!first_series) os << ", ";
        first_series = false;
        os << "\"" << key << "\": [";
        for (std::size_t v = 0; v < values.size(); ++v)
          os << (v > 0 ? ", " : "") << series_value(values[v]);
        os << "]";
      }
      os << "}";
    }
    os << ", \"net_seed\": \"" << trial.net_seed
       << "\", \"algo_seed\": \"" << trial.algo_seed << "\"}"
       << (i + 1 < report.trials.size() ? "," : "") << "\n";
  }
  os << indent << "],\n"
     << indent << "\"median_rounds\": " << json_real(report.median_rounds())
     << ",\n"
     << indent << "\"all_completed\": "
     << (report.all_completed() ? "true" : "false") << "\n";
}

/// Median rounds-per-message across a cell's trials.
double median_rpm(const ExperimentReport& report) {
  if (report.trials.empty()) return 0.0;
  std::vector<double> rpm;
  rpm.reserve(report.trials.size());
  for (const auto& trial : report.trials)
    rpm.push_back(trial.run.rounds_per_message());
  return quantile(rpm, 0.5);
}

std::string completed_cell(const ExperimentReport& report) {
  return std::to_string(report.completed_trials()) + "/" +
         std::to_string(report.trials.size());
}

/// Sorted union of the extra metric keys across every cell of a sweep --
/// the sweep emitters' dynamic column set.
std::vector<std::string> sweep_metric_keys(const SweepReport& report) {
  std::set<std::string> keys;
  for (const auto& cell : report.cells)
    for (const auto& key : extra_metric_keys(cell.experiment))
      keys.insert(key);
  return {keys.begin(), keys.end()};
}

std::string theory_bound_cell(const ExperimentReport& exp) {
  return exp.has_theory_bound() ? fmt(exp.theory_bound, 1) : "-";
}

std::string gap_cell(const ExperimentReport& exp) {
  return exp.has_theory_bound() ? fmt(exp.gap(), 2) : "-";
}

std::string metric_mean_cell(const ExperimentReport& exp,
                             const std::string& key) {
  const auto s = exp.metric_summary(key);
  return s.count == 0 ? "-" : fmt(s.mean, 3);
}

bool sweep_has_informed_series(const SweepReport& report) {
  for (const auto& cell : report.cells)
    if (has_informed_series(cell.experiment)) return true;
  return false;
}

/// True when any cell runs a non-edge channel -- the gate for the channel
/// column and the fits' channel field, so pre-channel sweeps keep their
/// exact bytes.
bool sweep_has_channel(const SweepReport& report) {
  for (const auto& cell : report.cells)
    if (cell.experiment.scenario.channel_text != "none") return true;
  return false;
}

/// Median across trials of the 90%-informed round; "-" when no trial's
/// trace got there.
std::string median_r90_cell(const ExperimentReport& exp) {
  std::vector<double> rounds;
  for (const auto& trial : exp.trials)
    if (const auto r = convergence_round(trial.run, 0.9, exp.node_count))
      rounds.push_back(static_cast<double>(*r));
  return rounds.empty() ? "-" : fmt(quantile(rounds, 0.5), 1);
}

/// Long-format series rows appended to the CSV emitters, one row per
/// (trial, round, series key).  `prefix` carries the sweep emitter's
/// leading cell index (empty for a single experiment).
void write_series_csv(std::ostream& os, const ExperimentReport& report,
                      const std::string& prefix) {
  for (const auto& trial : report.trials) {
    for (const auto& [key, values] : trial.run.series) {
      for (std::size_t round = 0; round < values.size(); ++round) {
        os << prefix << trial.index << "," << round + 1 << "," << key << ","
           << series_value(values[round]) << "\n";
      }
    }
  }
}

bool report_has_series(const ExperimentReport& report) {
  for (const auto& trial : report.trials)
    if (!trial.run.series.empty()) return true;
  return false;
}

std::string fit_shape(const SweepFit& f) {
  return f.metric + " ~ " + fmt(f.fit.intercept, 3) + " + " +
         fmt(f.fit.slope, 3) + " * log2(nodes)";
}

}  // namespace

std::vector<SweepFit> sweep_fits(const SweepReport& report) {
  // Group cells by everything but the size axis; regress each group's
  // summary metrics against log2(node count).
  using GroupKey =
      std::tuple<std::string, std::string, std::string, std::int64_t>;
  std::map<GroupKey, std::vector<const ExperimentReport*>> groups;
  for (const auto& cell : report.cells) {
    const auto& exp = cell.experiment;
    const auto& sc = exp.scenario;
    groups[GroupKey{exp.protocol, sc.fault_text, sc.channel_text, sc.k}]
        .push_back(&exp);
  }
  std::vector<SweepFit> fits;
  for (const auto& [key, cells] : groups) {
    std::vector<double> xs;
    std::set<std::int64_t> distinct;
    bool valid = true;
    for (const ExperimentReport* exp : cells) {
      if (exp->node_count <= 0 || exp->trials.empty()) valid = false;
      xs.push_back(static_cast<double>(exp->node_count));
      distinct.insert(exp->node_count);
    }
    // A fit needs a real size axis: three distinct node counts, so a
    // two-point "fit" (always r2 = 1) never poisons a report.
    if (!valid || distinct.size() < 3) continue;
    for (const char* metric : {"median_rounds", "median_rpm"}) {
      std::vector<double> ys;
      ys.reserve(cells.size());
      for (const ExperimentReport* exp : cells)
        ys.push_back(metric == std::string("median_rounds")
                         ? exp->median_rounds()
                         : median_rpm(*exp));
      SweepFit fit;
      fit.protocol = std::get<0>(key);
      fit.fault = std::get<1>(key);
      fit.channel = std::get<2>(key);
      fit.k = std::get<3>(key);
      fit.metric = metric;
      fit.cells = static_cast<int>(cells.size());
      fit.fit = fit_log_linear(xs, ys);
      fits.push_back(std::move(fit));
    }
  }
  return fits;
}

void write_table(std::ostream& os, const ExperimentReport& report) {
  build_table(report).print(os);
}

void write_csv(std::ostream& os, const ExperimentReport& report) {
  build_table(report).print_csv(os);
  if (report_has_series(report)) {
    os << "# series long format: trial,round,metric,value\n";
    write_series_csv(os, report, "");
  }
}

void write_json(std::ostream& os, const ExperimentReport& report) {
  os << "{\n";
  write_experiment_fields(os, report, "  ");
  os << "}\n";
}

void write_sweep_table(std::ostream& os, const SweepReport& report) {
  const auto metric_keys = sweep_metric_keys(report);
  const bool convergence = sweep_has_informed_series(report);
  const bool channels = sweep_has_channel(report);
  std::vector<std::string> columns = {"cell", "topology", "fault"};
  if (channels) columns.push_back("channel");
  for (const char* column : {"k", "protocol", "trials", "nodes", "completed",
                             "median rounds", "mean rounds", "median rpm",
                             "theory bound", "gap"})
    columns.push_back(column);
  if (convergence) columns.push_back("median r90");
  for (const auto& key : metric_keys) columns.push_back("mean " + key);
  columns.push_back("cache");
  TableWriter table("sweep: " + report.plan_text, columns);
  table.add_note("master seed = " + std::to_string(report.master_seed) +
                 ", cells = " + std::to_string(report.cells.size()) + " of " +
                 std::to_string(report.total_cells) +
                 (report.complete() ? "" : " (shard subset)"));
  table.add_note("cache hits: " + std::to_string(report.cache_hits()) + "/" +
                 std::to_string(report.cells.size()));
  if (report.fleet.active)
    table.add_note("fleet: claimed " + std::to_string(report.fleet.claimed) +
                   ", stolen " + std::to_string(report.fleet.stolen) +
                   ", cache-skipped " + std::to_string(report.fleet.skipped));
  table.add_note("gap = median rounds / registered theory bound "
                 "(Theta-constants dropped)");
  if (convergence)
    table.add_note("median r90: median across trials of the first round "
                   "with informed >= 0.9 n");
  for (const auto& fit : sweep_fits(report))
    table.add_note("fit " + fit.protocol + " | " + fit.fault + " | " +
                   (channels ? fit.channel + " | " : "") + "k=" +
                   std::to_string(fit.k) + ": " + fit_shape(fit) + "  (r2 " +
                   fmt(fit.fit.r2, 3) + ", " + std::to_string(fit.cells) +
                   " cells)");
  for (const auto& cell : report.cells) {
    const auto& exp = cell.experiment;
    std::vector<std::string> row = {fmt(cell.cell_index),
                                    exp.scenario.topology.text,
                                    exp.scenario.fault_text};
    if (channels) row.push_back(exp.scenario.channel_text);
    const std::vector<std::string> tail = {
        fmt(exp.scenario.k), exp.protocol,
        fmt(static_cast<std::int64_t>(exp.trials.size())),
        fmt(exp.node_count), completed_cell(exp),
        fmt(exp.median_rounds(), 1), fmt(exp.mean_rounds(), 2),
        fmt(median_rpm(exp), 2), theory_bound_cell(exp), gap_cell(exp)};
    row.insert(row.end(), tail.begin(), tail.end());
    if (convergence) row.push_back(median_r90_cell(exp));
    for (const auto& key : metric_keys)
      row.push_back(metric_mean_cell(exp, key));
    row.push_back(cell.from_cache ? "hit" : "-");
    table.add_row(std::move(row));
  }
  table.print(os);
}

void write_sweep_csv(std::ostream& os, const SweepReport& report) {
  const auto metric_keys = sweep_metric_keys(report);
  os << "# sweep: " << report.plan_text << "\n"
     << "# master_seed = " << report.master_seed << ", cells = "
     << report.cells.size() << " of " << report.total_cells << "\n";
  // Fleet provenance rides in a comment so fleet and static runs of the
  // same plan emit identical data rows.
  if (report.fleet.active)
    os << "# fleet: claimed=" << report.fleet.claimed
       << ", stolen=" << report.fleet.stolen
       << ", skipped=" << report.fleet.skipped << "\n";
  const bool convergence = sweep_has_informed_series(report);
  const bool channels = sweep_has_channel(report);
  // Fits ride in comments like the fleet counters: the data rows of the
  // same cells stay byte-identical whether or not the plan had a fittable
  // size axis.  Coefficients print at max_digits10 so downstream tooling
  // recovers the regression exactly.
  for (const auto& fit : sweep_fits(report))
    os << "# fit: protocol=" << fit.protocol << ",fault=" << fit.fault
       << (channels ? ",channel=" + fit.channel : "")
       << ",k=" << fit.k << ",metric=" << fit.metric
       << ",axis=nodes,model=log2,cells=" << fit.cells
       << ",slope=" << json_real(fit.fit.slope)
       << ",intercept=" << json_real(fit.fit.intercept)
       << ",r2=" << json_real(fit.fit.r2) << "\n";
  os << "cell,topology,fault," << (channels ? "channel," : "")
     << "source,k,protocol,trials,seed,nodes,edges,"
        "depth,completed_trials,median_rounds,mean_rounds,median_rpm,"
        "theory_bound,gap";
  if (convergence) os << ",median_r90";
  for (const auto& key : metric_keys) os << ",mean_" << key;
  os << "\n";
  bool any_series = false;
  for (const auto& cell : report.cells) {
    const auto& exp = cell.experiment;
    any_series = any_series || report_has_series(exp);
    os << cell.cell_index << "," << exp.scenario.topology.text << ","
       << exp.scenario.fault_text << ","
       << (channels ? exp.scenario.channel_text + "," : "")
       << exp.scenario.source << ","
       << exp.scenario.k << "," << exp.protocol << "," << exp.trials.size()
       << "," << exp.scenario.seed << "," << exp.node_count << ","
       << exp.edge_count << "," << exp.depth << ","
       << exp.completed_trials() << "," << fmt(exp.median_rounds(), 1) << ","
       << fmt(exp.mean_rounds(), 2) << "," << fmt(median_rpm(exp), 2) << ","
       << (exp.has_theory_bound() ? fmt(exp.theory_bound, 1) : "") << ","
       << (exp.has_theory_bound() ? fmt(exp.gap(), 2) : "");
    if (convergence)
      os << "," << (median_r90_cell(exp) == "-" ? "" : median_r90_cell(exp));
    for (const auto& key : metric_keys) {
      const auto s = exp.metric_summary(key);
      os << "," << (s.count == 0 ? "" : fmt(s.mean, 3));
    }
    os << "\n";
  }
  if (any_series) {
    os << "# series long format: cell,trial,round,metric,value\n";
    for (const auto& cell : report.cells)
      write_series_csv(os, cell.experiment,
                       std::to_string(cell.cell_index) + ",");
  }
}

void write_sweep_json(std::ostream& os, const SweepReport& report) {
  os << "{\n"
     << "  \"plan\": \"" << json_escape(report.plan_text) << "\",\n"
     << "  \"master_seed\": \"" << report.master_seed << "\",\n"
     << "  \"total_cells\": " << report.total_cells << ",\n"
     << "  \"cell_count\": " << report.cells.size() << ",\n";
  if (report.fleet.active)
    os << "  \"fleet\": {\"claimed\": " << report.fleet.claimed
       << ", \"stolen\": " << report.fleet.stolen
       << ", \"skipped\": " << report.fleet.skipped << "},\n";
  os << "  \"all_completed\": "
     << (report.all_completed() ? "true" : "false") << ",\n";
  const auto fits = sweep_fits(report);
  const bool channels = sweep_has_channel(report);
  if (!fits.empty()) {
    os << "  \"fits\": [\n";
    for (std::size_t i = 0; i < fits.size(); ++i) {
      const auto& f = fits[i];
      os << "    {\"protocol\": \"" << json_escape(f.protocol)
         << "\", \"fault\": \"" << json_escape(f.fault) << "\""
         << (channels ? ", \"channel\": \"" + json_escape(f.channel) + "\""
                      : "")
         << ", \"k\": " << f.k << ", \"metric\": \"" << f.metric
         << "\", \"axis\": \"nodes\", \"model\": \"log2\", \"cells\": "
         << f.cells << ", \"slope\": " << json_real(f.fit.slope)
         << ", \"intercept\": " << json_real(f.fit.intercept)
         << ", \"r2\": " << json_real(f.fit.r2) << "}"
         << (i + 1 < fits.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
  }
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < report.cells.size(); ++i) {
    const auto& cell = report.cells[i];
    os << "    {\n"
       << "      \"cell\": " << cell.cell_index << ",\n";
    write_experiment_fields(os, cell.experiment, "      ");
    os << "    }" << (i + 1 < report.cells.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace nrn::sim
