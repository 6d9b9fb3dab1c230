// bench_diff: compares two google-benchmark JSON output files and reports
// per-benchmark speedups/regressions.
//
//   bench_diff BASELINE.json CURRENT.json [--threshold=0.25] [--fail]
//              [--allow-debug]
//
// Prints one line per benchmark present in both files with the time ratio
// (current / baseline; < 1 is faster) and items/sec where available.  A
// benchmark whose time ratio exceeds 1 + threshold is flagged as a
// regression.  A benchmark present in only one file is listed by name as
// unmatched: a new benchmark with no baseline entry, or a baseline entry
// whose benchmark is gone, would otherwise escape the gate unseen.  Exit
// status is 0 unless --fail is given and a regression or an unmatched
// name was found, so CI can start warn-only and tighten later.
//
// Both files must declare an optimized build: the bench binary stamps
// "nrn_build_type" into the JSON context (falling back to the library's
// "library_build_type"), and bench_diff refuses (exit 2) to compare a file
// that says "debug" -- debug timings are noise and would both mask real
// regressions and flag phantom ones.  --allow-debug overrides the refusal
// for local experimentation only; never commit debug numbers.
//
// The parser is deliberately minimal: it understands exactly the flat
// "benchmarks" array google-benchmark emits ("name", "real_time",
// "time_unit", "items_per_second"), not general JSON.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Locale-independent double parse (bench_diff links no library code, so it
/// cannot use common::parse_real; std::from_chars is locale-free by spec).
/// Returns 0.0 on malformed input, matching the old atof behavior.
double parse_double(const std::string& text) {
  double value = 0.0;
  std::from_chars(text.data(), text.data() + text.size(), value);
  return value;
}

struct BenchResult {
  double real_time = 0.0;  // nanoseconds
  double items_per_second = 0.0;
};

double unit_to_ns(const std::string& unit) {
  if (unit == "ns") return 1.0;
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;
}

/// Extracts a "key": value pair scanning forward from `pos`; returns the
/// raw value token (string values come back without quotes).
bool find_field(const std::string& text, std::size_t pos, std::size_t limit,
                const std::string& key, std::string& out) {
  const std::string needle = "\"" + key + "\":";
  const auto at = text.find(needle, pos);
  if (at == std::string::npos || at >= limit) return false;
  auto v = at + needle.size();
  while (v < text.size() && (text[v] == ' ' || text[v] == '\t')) ++v;
  if (v >= text.size()) return false;
  if (text[v] == '"') {
    const auto close = text.find('"', v + 1);
    if (close == std::string::npos) return false;
    out = text.substr(v + 1, close - v - 1);
    return true;
  }
  auto end = v;
  while (end < text.size() && std::strchr(",}\n\r ", text[end]) == nullptr)
    ++end;
  out = text.substr(v, end - v);
  return true;
}

/// The file's declared build type: "nrn_build_type" (stamped by our bench
/// main) if present, else the library's "library_build_type", else "".
std::string declared_build_type(const std::string& text) {
  std::string value;
  if (find_field(text, 0, text.size(), "nrn_build_type", value)) return value;
  if (find_field(text, 0, text.size(), "library_build_type", value))
    return value;
  return "";
}

std::map<std::string, BenchResult> parse_bench_file(const std::string& path,
                                                    bool allow_debug) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string text = raw.str();

  const std::string build_type = declared_build_type(text);
  if (build_type != "release" && !allow_debug) {
    std::fprintf(stderr,
                 "bench_diff: %s declares build type '%s', not 'release' -- "
                 "debug timings are noise; regenerate from an optimized "
                 "build or pass --allow-debug\n",
                 path.c_str(),
                 build_type.empty() ? "(none)" : build_type.c_str());
    std::exit(2);
  }

  std::map<std::string, BenchResult> results;
  // Benchmark entries all carry "run_type"; each object starts at a '{'
  // shortly before its "name" field.
  std::size_t pos = text.find("\"benchmarks\"");
  if (pos == std::string::npos) {
    std::fprintf(stderr, "bench_diff: %s has no benchmarks array\n",
                 path.c_str());
    std::exit(2);
  }
  while ((pos = text.find("\"name\":", pos)) != std::string::npos) {
    const auto object_end = text.find('}', pos);
    const auto limit =
        object_end == std::string::npos ? text.size() : object_end;
    std::string name, run_type, time, unit, items;
    if (!find_field(text, pos, limit, "name", name)) break;
    find_field(text, pos, limit, "run_type", run_type);
    BenchResult r;
    if (find_field(text, pos, limit, "real_time", time)) {
      r.real_time = parse_double(time);
      if (find_field(text, pos, limit, "time_unit", unit))
        r.real_time *= unit_to_ns(unit);
    }
    if (find_field(text, pos, limit, "items_per_second", items))
      r.items_per_second = parse_double(items);
    // Skip aggregate rows (mean/median/stddev) -- compare raw iterations.
    if (run_type.empty() || run_type == "iteration") results[name] = r;
    pos = limit + 1;
  }
  return results;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  double threshold = 0.25;
  bool fail_on_regression = false;
  bool allow_debug = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--threshold=", 0) == 0)
      threshold = parse_double(arg.substr(12));
    else if (arg == "--fail")
      fail_on_regression = true;
    else if (arg == "--allow-debug")
      allow_debug = true;
    else
      files.push_back(arg);
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASELINE.json CURRENT.json "
                 "[--threshold=0.25] [--fail] [--allow-debug]\n");
    return 2;
  }

  const auto baseline = parse_bench_file(files[0], allow_debug);
  const auto current = parse_bench_file(files[1], allow_debug);

  int regressions = 0, compared = 0;
  std::printf("%-44s %12s %12s %8s\n", "benchmark", "base(ns)", "cur(ns)",
              "ratio");
  for (const auto& [name, base] : baseline) {
    const auto it = current.find(name);
    if (it == current.end() || base.real_time <= 0.0) continue;
    ++compared;
    const double ratio = it->second.real_time / base.real_time;
    const bool regressed = ratio > 1.0 + threshold;
    regressions += regressed ? 1 : 0;
    // nrn-lint: allow(locale-float): human-facing diagnostic in a
    // standalone tool (links no library code, so numio is unavailable);
    // nothing parses this output.
    std::printf("%-44s %12.0f %12.0f %7.2fx%s\n", name.c_str(),
                base.real_time, it->second.real_time, ratio,
                regressed ? "  REGRESSION" : "");
  }
  int unmatched = 0;
  auto list_unmatched = [&](const std::map<std::string, BenchResult>& from,
                            const std::map<std::string, BenchResult>& other,
                            const char* where) {
    for (const auto& entry : from) {
      if (other.count(entry.first) != 0) continue;
      ++unmatched;
      std::printf("%-44s only in %s\n", entry.first.c_str(), where);
    }
  };
  list_unmatched(baseline, current, "baseline");
  list_unmatched(current, baseline, "current");
  if (compared == 0) {
    std::fprintf(stderr, "bench_diff: no common benchmarks to compare\n");
    return 2;
  }
  // nrn-lint: allow(locale-float): human-facing summary line, same as above.
  std::printf("%d benchmark(s) compared, %d regression(s) beyond %.0f%%, "
              "%d unmatched\n",
              compared, regressions, threshold * 100.0, unmatched);
  return (fail_on_regression && regressions + unmatched > 0) ? 1 : 0;
}
