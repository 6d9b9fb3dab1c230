// nrn_sim -- command-line driver for the noisy radio network simulator.
//
// A thin shell over the library's Scenario / ProtocolRegistry / Driver /
// SweepPlan API: all spec parsing, protocol selection, and the trial and
// cell loops live in src/sim.
//
//   nrn_sim --topology=path:512 --algorithm=decay --fault=receiver:0.3
//   nrn_sim --topology=grid:16x16 --algorithm=rlnc-decay --k=32 --trials=5
//   nrn_sim --topology=star:1024 --algorithm=greedy --k=64 --fault=combined:0.2:0.2 --csv
//   nrn_sim protocols          (capabilities + theory bounds per protocol)
//
//   nrn_sim sweep "--plan=topology=path:{64..256*2}; protocols=decay,robust;
//                  fault=receiver:{0.1,0.3}; trials=5; seed=7" --csv
//   nrn_sim sweep --plan=... --shard=0/2 --out=shard0.nrns
//   nrn_sim sweep --plan=... --shard=1/2 --out=shard1.nrns
//   nrn_sim sweep --merge=shard0.nrns,shard1.nrns --out=merged.nrns --csv
//
//   nrn_sim serve --socket=/run/nrn.sock --cache-dir=cache --cell-threads=4
//   nrn_sim submit --socket=/run/nrn.sock --plan=... --progress --csv
//   nrn_sim status --socket=/run/nrn.sock
//   nrn_sim shutdown --socket=/run/nrn.sock
//
// Exit status: 0 if every trial completed, 1 otherwise, 2 on usage errors
// (unknown flags, malformed specs/plans, non-numeric values).
#include <algorithm>
#include <clocale>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/ticker.hpp"
#include "sim/sim.hpp"

namespace {

using namespace nrn;

enum class Format { kTable, kCsv, kJson };

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n\n"
            << "usage: nrn_sim [--topology=SPEC] [--algorithm=NAME] "
               "[--fault=SPEC]\n"
            << "               [--channel=SPEC] [--source=N] [--k=N] "
               "[--seed=N] [--trials=N]\n"
            << "               [--threads=N] [--trace] [--csv] [--json] "
               "[--list]\n"
            << "       nrn_sim protocols   (list protocols with "
               "capabilities)\n"
            << "       nrn_sim topologies  (list topology families with "
               "their arguments)\n"
            << "       nrn_sim sweep --plan=PLAN [--shard=I/K] "
               "[--cache-dir=DIR]\n"
            << "               [--fleet | --resume] [--claim-ttl=SECONDS]\n"
            << "               [--cell-threads=N] [--threads=N] [--out=FILE]\n"
            << "               [--csv] [--json]\n"
            << "       nrn_sim sweep --merge=FILE[,FILE...] [--out=FILE] "
               "[--csv] [--json]\n"
            << "       nrn_sim serve --socket=PATH --cache-dir=DIR "
               "[--tcp-port=N]\n"
            << "               [--cell-threads=N] [--threads=N] "
               "[--claim-ttl=SECONDS]\n"
            << "       nrn_sim submit (--socket=PATH | --tcp-port=N) "
               "--plan=PLAN\n"
            << "               [--progress] [--out=FILE] [--csv] [--json]\n"
            << "       nrn_sim status (--socket=PATH | --tcp-port=N)\n"
            << "       nrn_sim shutdown (--socket=PATH | --tcp-port=N)\n\n"
            << "topologies: path:n  cycle:n  star:leaves  complete:n  "
               "grid:RxC\n"
            << "            gnp:n:p  tree:n  binary-tree:n  hypercube:d\n"
            << "            caterpillar:spine:legs  ring:cliques:size\n"
            << "            barbell:clique:bridge  lollipop:clique:tail\n"
            << "            regular:n:d  link  wct:budget  wct:M:L:C:S\n"
            << "            disk:n:radius[:power]  uniform:n:density\n"
            << "algorithms:";
  for (const auto& name : sim::extended_registry().names())
    std::cerr << " " << name;
  std::cerr << "\nfaults:     none  sender:p  receiver:p  combined:ps:pr\n"
            << "channels:   none  sinr:alpha:noise:beta  (sinr needs a "
               "geometric\n"
            << "            topology -- disk or uniform -- and fault=none)\n"
            << "plans:      topology=...; protocols=...; fault=...; "
               "channel=...; k=...;\n"
            << "            trials=N; seed=N; source=N; trace=0|1  (lists "
               "expand {a,b},\n"
            << "            {lo..hi*f}, {lo..hi+d})\n"
            << "tracing:    --trace / trace=1 records per-round series "
               "(informed,\n"
            << "            deliveries, collisions, broadcasters) for "
               "protocols that\n"
            << "            support it; reports gain convergence (r50/r90/"
               "r100) columns,\n"
            << "            JSON series blocks, and long-format CSV rows\n"
            << "sharding:   --shard=I/K runs cells with index mod K == I "
               "(0-based); --out\n"
            << "            writes a mergeable shard file\n"
            << "fleet:      --fleet claims cells dynamically over a shared "
               "--cache-dir\n"
            << "            (work stealing, resumable: re-invoke to finish "
               "a killed run);\n"
            << "            --resume rebuilds the report from a warm cache "
               "without\n"
            << "            computing; --claim-ttl=SECONDS expires dead "
               "workers' claims\n"
            << "serving:    `serve` runs the sweep daemon over a shared "
               "cache; `submit`\n"
            << "            streams a plan's progress and report from it; "
               "--progress\n"
            << "            renders a live ticker on stderr (also for "
               "`sweep`)\n";
  std::exit(2);
}

// ------------------------------------------------------------------ flags

/// One `--name[=value]` flag of a subcommand's table; `set` receives the
/// text after '=' (empty when there is none).
struct Flag {
  std::string name;
  std::function<void(const std::string& value)> set;
};
using Flags = std::vector<Flag>;

/// The one argv loop: dispatches argv[first..] to the subcommand's
/// tables.  --help/-h asks for the usage text; any other name is an
/// "unknown <noun> '<name>'<tail>".  A malformed value throws SpecError,
/// which main() reports like every other usage error.
void parse_flags(int argc, char** argv, int first,
                 std::initializer_list<Flags> tables, const std::string& noun,
                 const std::string& tail = "") {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--help" || key == "-h") usage("help requested");
    const Flag* flag = nullptr;
    for (const Flags& table : tables)
      for (const Flag& candidate : table)
        if (candidate.name == key) flag = &candidate;
    if (flag == nullptr) usage("unknown " + noun + " '" + key + "'" + tail);
    flag->set(value);
  }
}

/// The one integer-flag helper: `value` as an integer in [lo, hi].  A
/// non-integer throws SpecError naming `name`; an integer out of range is
/// the usage error "<name> must be in [lo, hi]".
std::int64_t int_flag(
    const std::string& name, const std::string& value,
    std::int64_t lo = std::numeric_limits<std::int64_t>::min(),
    std::int64_t hi = std::numeric_limits<std::int64_t>::max()) {
  const std::int64_t parsed = sim::parse_spec_int(value, name);
  if (parsed < lo || parsed > hi)
    usage(name + " must be in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "]");
  return parsed;
}

Flag text_flag(const char* name, std::string& out) {
  return {name, [&out](const std::string& value) { out = value; }};
}

/// A flag whose value may not be empty: "<name> needs <what>" otherwise.
Flag path_flag(const char* name, std::string& out, const char* what) {
  return {name, [name, &out, what](const std::string& value) {
            if (value.empty()) usage(std::string(name) + " needs " + what);
            out = value;
          }};
}

Flags format_flags(Format& format) {
  return {{"--csv", [&format](const std::string&) { format = Format::kCsv; }},
          {"--json",
           [&format](const std::string&) { format = Format::kJson; }}};
}

/// --threads, --cell-threads, --claim-ttl and --cache-dir: how `sweep`
/// and `serve` resolve cells.
Flags worker_flags(int& trial_threads, int& cell_threads, double& claim_ttl,
                   std::string& cache_dir) {
  return {
      {"--threads",
       [&trial_threads](const std::string& value) {
         trial_threads =
             static_cast<int>(int_flag("--threads", value, 1, 4096));
       }},
      {"--cell-threads",
       [&cell_threads](const std::string& value) {
         cell_threads =
             static_cast<int>(int_flag("--cell-threads", value, 1, 4096));
       }},
      {"--claim-ttl",
       [&claim_ttl](const std::string& value) {
         const std::int64_t ttl = int_flag("--claim-ttl", value);
         if (ttl < 0) usage("--claim-ttl must be non-negative seconds");
         claim_ttl = static_cast<double>(ttl);
       }},
      path_flag("--cache-dir", cache_dir, "a directory"),
  };
}

/// --socket and --tcp-port: where `serve` listens and its clients connect.
/// The daemon also takes port 0 (an ephemeral port); a client needs a real
/// one.
Flags endpoint_flags(std::string& socket_path, int& tcp_port,
                     int lowest_port) {
  return {path_flag("--socket", socket_path, "a path"),
          {"--tcp-port", [&tcp_port, lowest_port](const std::string& value) {
             tcp_port = static_cast<int>(
                 int_flag("--tcp-port", value, lowest_port, 65535));
           }}};
}

/// What `sweep` and `submit` share: the plan, and where and how its report
/// goes.
struct PlanCliOptions {
  std::string text;
  std::string out_file;
  Format format = Format::kTable;
  bool progress = false;
};

Flags plan_flags(PlanCliOptions& plan) {
  Flags flags = format_flags(plan.format);
  flags.push_back(text_flag("--plan", plan.text));
  flags.push_back(path_flag("--out", plan.out_file, "a file name"));
  flags.push_back(
      {"--progress", [&plan](const std::string&) { plan.progress = true; }});
  return flags;
}

/// The one sweep-report writer: the mergeable shard file to --out, then
/// the chosen emitter on stdout.  Returns the exit status.
int write_report(const PlanCliOptions& plan, const sim::SweepReport& report) {
  if (!plan.out_file.empty()) {
    std::ofstream out(plan.out_file, std::ios::binary | std::ios::trunc);
    if (!out) usage("cannot write '" + plan.out_file + "'");
    sim::write_shard_file(out, report);
  }
  switch (plan.format) {
    case Format::kTable:
      sim::write_sweep_table(std::cout, report);
      break;
    case Format::kCsv:
      sim::write_sweep_csv(std::cout, report);
      break;
    case Format::kJson:
      sim::write_sweep_json(std::cout, report);
      break;
  }
  return report.all_completed() ? 0 : 1;
}

// --------------------------------------------------------------- listings

// The `protocols` subcommand (and --list): every registered protocol with
// its capability set, whether a theory bound is registered, and the
// one-line description.
int protocols_main(int /*argc*/, char** /*argv*/) {
  const auto& registry = sim::extended_registry();
  std::size_t name_width = 0, caps_width = 0;
  for (const auto& name : registry.names()) {
    name_width = std::max(name_width, name.size());
    caps_width = std::max(
        caps_width,
        sim::capability_names(registry.capabilities(name)).size());
  }
  for (const auto& name : registry.names()) {
    const std::string caps =
        sim::capability_names(registry.capabilities(name));
    std::cout << name << std::string(name_width - name.size() + 2, ' ')
              << caps << std::string(caps_width - caps.size() + 2, ' ')
              << (registry.has_theory_bound(name) ? "bound " : "-     ")
              << " " << registry.description(name) << "\n";
  }
  return 0;
}

// The `topologies` subcommand: every family the grammar accepts with its
// argument signature and one-line description, read from the grammar's
// own table.
int topologies_main(int /*argc*/, char** /*argv*/) {
  std::size_t args_width = 0;
  for (const auto& kind : sim::topology_kinds())
    args_width = std::max(args_width, sim::topology_usage(kind).size());
  for (const auto& kind : sim::topology_kinds()) {
    const std::string args = sim::topology_usage(kind);
    std::cout << args << std::string(args_width - args.size() + 2, ' ')
              << sim::topology_doc(kind) << "\n";
  }
  return 0;
}

// ------------------------------------------------------------- single run

struct Options {
  std::string topology = "path:64";
  std::string algorithm = "decay";
  std::string fault = "none";
  std::string channel = "none";
  std::int64_t source = 0;
  std::int64_t k = 1;
  std::uint64_t seed = 1;
  std::int64_t trials = 1;
  std::int64_t threads = 1;
  Format format = Format::kTable;
  bool list = false;
  bool trace = false;
};

Options parse_args(int argc, char** argv) {
  Options opt;
  const auto integer = [](const char* name, std::int64_t& out) {
    return Flag{name, [name, &out](const std::string& value) {
                  out = int_flag(name, value);
                }};
  };
  const Flags flags = {
      text_flag("--topology", opt.topology),
      text_flag("--algorithm", opt.algorithm),
      text_flag("--fault", opt.fault),
      text_flag("--channel", opt.channel),
      integer("--source", opt.source),
      integer("--k", opt.k),
      {"--seed",
       [&opt](const std::string& value) {
         opt.seed = sim::parse_spec_uint(value, "--seed");
       }},
      integer("--trials", opt.trials),
      integer("--threads", opt.threads),
      {"--trace", [&opt](const std::string&) { opt.trace = true; }},
      {"--list", [&opt](const std::string&) { opt.list = true; }},
  };
  parse_flags(argc, argv, 1, {flags, format_flags(opt.format)}, "flag");
  if (opt.k < 1) usage("--k must be positive");
  if (opt.trials < 1) usage("--trials must be positive");
  if (opt.threads < 1) usage("--threads must be positive");
  if (opt.source < 0) usage("--source must be non-negative");
  return opt;
}

int run_main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  if (opt.list) return protocols_main(argc, argv);
  const auto scenario = sim::Scenario::parse(
      opt.topology, opt.fault, static_cast<graph::NodeId>(opt.source), opt.k,
      opt.seed, opt.channel);
  sim::DriverOptions driver_options;
  driver_options.threads = static_cast<int>(opt.threads);
  driver_options.trace = opt.trace;
  const auto report = sim::Driver(sim::extended_registry())
                          .run(scenario, opt.algorithm,
                               static_cast<int>(opt.trials), driver_options);
  switch (opt.format) {
    case Format::kTable:
      sim::write_table(std::cout, report);
      break;
    case Format::kCsv:
      sim::write_csv(std::cout, report);
      break;
    case Format::kJson:
      sim::write_json(std::cout, report);
      break;
  }
  return report.all_completed() ? 0 : 1;
}

// ------------------------------------------------------------------ sweep

int sweep_main(int argc, char** argv) {
  PlanCliOptions plan;
  std::vector<std::string> merge_files;
  sim::SweepOptions run;
  const auto assign = [&run](sim::SweepAssignment mode) {
    return [&run, mode](const std::string&) {
      if (run.assignment != sim::SweepAssignment::kStatic &&
          run.assignment != mode)
        usage("--fleet and --resume are mutually exclusive");
      run.assignment = mode;
    };
  };
  const Flags flags = {
      {"--merge",
       [&merge_files](const std::string& value) {
         std::stringstream files(value);
         std::string file;
         while (std::getline(files, file, ','))
           if (!file.empty()) merge_files.push_back(file);
         if (merge_files.empty()) usage("--merge needs at least one file");
       }},
      {"--shard",
       [&run](const std::string& value) {
         const auto slash = value.find('/');
         if (slash == std::string::npos)
           usage("--shard wants I/K (0-based I)");
         const std::int64_t index =
             int_flag("--shard index", value.substr(0, slash));
         const std::int64_t count =
             int_flag("--shard count", value.substr(slash + 1));
         if (count < 1 || count > 1'000'000 || index < 0 || index >= count)
           usage("--shard=I/K needs 0 <= I < K (K at most 1000000)");
         run.shard_index = static_cast<int>(index);
         run.shard_count = static_cast<int>(count);
       }},
      {"--fleet", assign(sim::SweepAssignment::kFleet)},
      {"--resume", assign(sim::SweepAssignment::kResume)},
  };
  parse_flags(argc, argv, 2,
              {flags, plan_flags(plan),
               worker_flags(run.trial_threads, run.cell_threads,
                            run.claim_ttl_seconds, run.cache_dir)},
              "sweep flag");
  if (plan.text.empty() == merge_files.empty())
    usage("sweep wants exactly one of --plan or --merge");
  if (!merge_files.empty() &&
      (run.shard_count != 1 || !run.cache_dir.empty() ||
       run.assignment != sim::SweepAssignment::kStatic))
    usage("--merge does not combine with --shard, --cache-dir, --fleet, "
          "or --resume");
  if (run.assignment != sim::SweepAssignment::kStatic) {
    if (run.cache_dir.empty())
      usage("--fleet/--resume need --cache-dir (the shared fleet state)");
    if (run.shard_count != 1)
      usage("--fleet/--resume replace static --shard partitioning");
  }
  if (plan.progress) run.on_progress = serve::ProgressTicker(std::cerr);

  if (!merge_files.empty()) {
    std::vector<sim::SweepReport> shards;
    for (const auto& file : merge_files) {
      std::ifstream in(file, std::ios::binary);
      if (!in) usage("cannot open shard file '" + file + "'");
      shards.push_back(sim::read_shard_file(in));
    }
    return write_report(plan, sim::merge_sweep_reports(shards));
  }
  return write_report(plan, sim::SweepRunner(sim::extended_registry())
                                .run(sim::SweepPlan::parse(plan.text), run));
}

// ------------------------------------------------------------------ serve

serve::SweepServer* g_serve_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_serve_server != nullptr) g_serve_server->request_stop();
}

int serve_main(int argc, char** argv) {
  serve::ServerOptions opt;
  auto& workers = opt.scheduler;
  parse_flags(argc, argv, 2,
              {endpoint_flags(opt.socket_path, opt.tcp_port, 0),
               worker_flags(workers.trial_threads, workers.cell_threads,
                            workers.claim_ttl_seconds, opt.cache_dir)},
              "serve flag");
  if (opt.cache_dir.empty()) usage("serve needs --cache-dir");
  if (opt.socket_path.empty() && opt.tcp_port < 0)
    usage("serve needs --socket and/or --tcp-port");
  serve::SweepServer server(sim::extended_registry(), opt);
  g_serve_server = &server;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::cerr << "serve: listening";
  if (!opt.socket_path.empty()) std::cerr << " on " << opt.socket_path;
  if (server.tcp_port() >= 0)
    std::cerr << " (tcp 127.0.0.1:" << server.tcp_port() << ")";
  std::cerr << ", cache " << opt.cache_dir << "\n" << std::flush;
  server.run();
  g_serve_server = nullptr;
  std::cerr << "serve: stopped\n";
  return 0;
}

// -------------------------------------------------- serve-client commands

struct ClientCliOptions {
  std::string socket_path;
  int tcp_port = -1;
  PlanCliOptions plan;
};

ClientCliOptions parse_client_args(int argc, char** argv, bool wants_plan) {
  ClientCliOptions opt;
  parse_flags(argc, argv, 2,
              {endpoint_flags(opt.socket_path, opt.tcp_port, 1),
               wants_plan ? plan_flags(opt.plan) : Flags{}},
              "flag", " for this subcommand");
  if (opt.socket_path.empty() && opt.tcp_port < 0)
    usage("need --socket=PATH or --tcp-port=N to reach the daemon");
  if (wants_plan && opt.plan.text.empty()) usage("submit needs --plan");
  return opt;
}

serve::LineClient connect_client(const ClientCliOptions& opt) {
  return opt.socket_path.empty()
             ? serve::LineClient::connect_tcp(opt.tcp_port)
             : serve::LineClient::connect_unix(opt.socket_path);
}

/// A reply the daemon must send; EOF or an `error` reply aborts with a
/// usage-style diagnostic.
serve::Message expect_reply(serve::LineClient& client) {
  auto reply = client.recv();
  if (!reply) usage("daemon closed the connection unexpectedly");
  if (reply->type() == "error") usage("daemon: " + reply->str("error"));
  return std::move(*reply);
}

int submit_main(int argc, char** argv) {
  const ClientCliOptions opt = parse_client_args(argc, argv, true);
  serve::LineClient client = connect_client(opt);
  client.send(serve::Message("submit").set("plan", opt.plan.text));
  const serve::Message accepted = expect_reply(client);
  if (accepted.type() != "accepted")
    usage("daemon sent unexpected '" + accepted.type() + "'");
  const int plan_id = static_cast<int>(accepted.integer("plan"));

  serve::ProgressTicker ticker(std::cerr);
  sim::SweepProgressEvent event;
  event.total = static_cast<int>(accepted.integer("cells"));
  if (opt.plan.progress) {
    event.kind = sim::SweepProgressEvent::Kind::kAccepted;
    ticker(event);
  }

  std::string report_text;
  int computed = 0, cached = 0;
  while (report_text.empty()) {
    const serve::Message reply = expect_reply(client);
    if (reply.type() == "cell_done") {
      if (static_cast<int>(reply.integer("plan")) != plan_id) continue;
      if (opt.plan.progress) {
        event.kind = sim::SweepProgressEvent::Kind::kCellDone;
        event.done = static_cast<int>(reply.integer("done"));
        event.cell_index = static_cast<int>(reply.integer("cell"));
        event.cached = reply.str("resolution") == "cached";
        event.cell_hash = reply.str("hash");
        event.computed = static_cast<int>(reply.integer("computed"));
        event.cached_cells = static_cast<int>(reply.integer("cached"));
        ticker(event);
      }
    } else if (reply.type() == "plan_done") {
      if (static_cast<int>(reply.integer("plan")) != plan_id) continue;
      report_text = reply.str("report");
      computed = static_cast<int>(reply.integer("computed"));
      cached = static_cast<int>(reply.integer("cached"));
      if (opt.plan.progress) {
        event.kind = sim::SweepProgressEvent::Kind::kPlanDone;
        event.done = event.total;
        event.computed = computed;
        event.cached_cells = cached;
        ticker(event);
      }
    } else if (reply.type() == "plan_failed") {
      usage("daemon: plan failed: " + reply.str("error"));
    } else {
      usage("daemon sent unexpected '" + reply.type() + "'");
    }
  }

  std::istringstream in(report_text);
  const sim::SweepReport report = sim::read_shard_file(in);
  std::cerr << "# serve: plan=" << plan_id << " cells=" << report.total_cells
            << " cached=" << cached << " computed=" << computed << "\n";
  return write_report(opt.plan, report);
}

int status_main(int argc, char** argv) {
  const ClientCliOptions opt = parse_client_args(argc, argv, false);
  serve::LineClient client = connect_client(opt);
  client.send(serve::Message("status"));
  const serve::Message reply = expect_reply(client);
  if (reply.type() != "status")
    usage("daemon sent unexpected '" + reply.type() + "'");
  for (const auto* key :
       {"protocol", "cache_dir", "plans_active", "plans_done", "plans_failed",
        "cells_pending", "cells_running", "cells_computed", "cells_cached"}) {
    if (!reply.has(key)) continue;
    std::cout << key << "  ";
    if (key == std::string("protocol") || key == std::string("cache_dir"))
      std::cout << reply.str(key);
    else
      std::cout << reply.integer(key);
    std::cout << "\n";
  }
  return 0;
}

int shutdown_main(int argc, char** argv) {
  const ClientCliOptions opt = parse_client_args(argc, argv, false);
  serve::LineClient client = connect_client(opt);
  client.send(serve::Message("shutdown"));
  const serve::Message reply = expect_reply(client);
  if (reply.type() != "bye")
    usage("daemon sent unexpected '" + reply.type() + "'");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Honor the environment's locale for the process at large: this is what a
  // localized deployment does, and it is exactly the configuration the
  // locale-independent numeric round-trips (common/numio) must survive.
  // CI runs the smoke suites under LC_ALL=de_DE.UTF-8 to prove it.
  // Deliberate and safe: called once before any thread exists.
  std::setlocale(LC_ALL, "");  // NOLINT(concurrency-mt-unsafe)
  const std::string command = argc > 1 ? argv[1] : "";
  int (*subcommand)(int, char**) = run_main;  // no subcommand: a single run
  if (command == "sweep") subcommand = sweep_main;
  if (command == "serve") subcommand = serve_main;
  if (command == "submit") subcommand = submit_main;
  if (command == "status") subcommand = status_main;
  if (command == "shutdown") subcommand = shutdown_main;
  if (command == "protocols") subcommand = protocols_main;
  if (command == "topologies") subcommand = topologies_main;
  // The one error path: a malformed spec, a broken contract or a garbled
  // daemon reply is a usage error (exit 2).
  try {
    return subcommand(argc, argv);
  } catch (const sim::SpecError& e) {
    usage(e.what());
  } catch (const nrn::ContractViolation& e) {
    usage(e.what());
  } catch (const serve::WireError& e) {
    usage(std::string("wire error: ") + e.what());
  }
}
