// mot3d_experiments — one CLI over the whole scenario registry.
//
//   mot3d_experiments list                      # every registered scenario
//   mot3d_experiments run <name>... [flags]     # run registered scenarios
//   mot3d_experiments trace <name> [flags]      # run with tracing+metrics on
//   mot3d_experiments grid --apps=... [flags]   # ad-hoc declarative grid
//   mot3d_experiments bench --apps=... [flags]  # timed grid (perf guardrail)
//   mot3d_experiments update-golden [name...]   # regenerate golden baselines
//   mot3d_experiments check-golden [name...]    # compare against baselines
//
// `run`, `trace`, `grid` and `bench` take the run flags:
//   --scale=<double>    fraction of each app's full instruction budget
//                       (default = the scenario's registered default)
//   --seed=<u64>        workload RNG seed (default 42)
//   --threads=<n>       sweep worker threads; 0 = hardware concurrency
//   --json=<path>       write a perf + metrics JSON report
//   --scheduler=event|dense
//                       cluster time-advance mode (default: event; results
//                       are bit-identical, only wall-clock differs)
//   --timeout=<seconds> per-run wall-clock budget (0 = none); a run over
//                       budget dies with a watchdog error recorded against
//                       that run, and the command exits non-zero
//   --trace=<path>      write a Chrome-trace-event JSON of every run
//   --metrics=<path>    write the interval-metrics time series (JSON, or
//                       long-format CSV when the path ends in .csv)
// Unknown flags are rejected with an error — a typo like --sacle=0.5 must
// never silently fall back to the default.  `run` and `trace` also take
// --golden to force a scenario's pinned golden options (golden_scale +
// registry seed) — handy to eyeball exactly what the regression suite
// compares.
//
// `trace` is `run` for one scenario with observability on by default:
// --trace/--metrics fall back to <name>.trace.json / <name>.metrics.json.
// Open the trace in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// `grid` builds a one-off ScenarioSpec from comma-separated axis lists:
//   --apps=fft,fmm            (default: all eight SPLASH-2 programs)
//   --fabrics=mot,mesh3d,busmesh,bustree        (default: mot)
//   --states=Full,PC16-MB8,PC4-MB32,PC4-MB8,PC8-MB16,...  (default: Full)
//   --dram=200,63,42          (default: 200)
// Invalid combinations (gated states on packet-switched fabrics) are
// skipped with a note, exactly like registered sweeps.
//
// `bench` takes grid's axes and times the cells one by one, with
// --baseline=<path> comparing them against a committed BENCH_*.json (see
// the bench section below for the three tiers and the exit codes).  Each
// cell runs alone and untraced, so --threads, --trace and --metrics are
// usage errors.
//
// `update-golden` re-runs every golden scenario (or just the named ones)
// at its pinned golden options and rewrites tests/golden/<name>.json.
// This is the one sanctioned way to change a baseline: do it on purpose,
// look at the diff, and say why in the commit message (see DESIGN.md).
//
// Results are shape-stable in scale — the paper's absolute testbed numbers
// are not reproducible by construction (see DESIGN.md), so each scenario
// prints our measured series next to the paper's reported deltas.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/table.hpp"
#include "sim/json_reader.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/sweep_service.hpp"

namespace {

using namespace mot3d;

#ifndef MOT3D_SOURCE_DIR
#define MOT3D_SOURCE_DIR "."
#endif

void print_cli_usage(std::ostream& os) {
  os << "usage: mot3d_experiments <command> [flags]\n"
     << "  list | --list               list registered scenarios\n"
     << "  describe <name>...          print a scenario's axes and run count\n"
     << "  run <name>... [flags]       run registered scenarios by name\n"
     << "  trace <name> [flags]        run one scenario with tracing+metrics on\n"
     << "  grid [axes] [flags]         run an ad-hoc grid\n"
     << "  bench [axes] [flags]        time an ad-hoc grid cell by cell\n"
     << "                              [--baseline=<path>]; no --threads,\n"
     << "                              --trace or --metrics\n"
     << "  update-golden [name...]     regenerate golden baselines\n"
     << "  check-golden [name...]      re-run and diff against baselines\n"
     << "  serve --cache-dir=<path>    cache-backed request/response daemon\n"
     << "  batch --cache-dir=<path>    drain NDJSON requests (stdin or\n"
     << "                              --requests=<file>) through the cache\n"
     << "  cache stats|clear --cache-dir=<path>   inspect / empty the cache\n"
     << "flags: --scale=<d> --seed=<u64> --threads=<n> --json=<path>\n"
     << "       --scheduler=event|dense --timeout=<seconds> --golden\n"
     << "       --trace=<path> --metrics=<path>\n"
     << "grid axes: --apps=a,b --fabrics=mot,mesh3d,busmesh,bustree\n"
     << "           --states=Full,PC4-MB8,... --dram=200,63,42\n"
     << "update-golden/check-golden: --dir=<path> (default: " MOT3D_SOURCE_DIR
        "/tests/golden)\n"
     << "serve/batch: --cache-dir=<path> [--threads=<n>]\n"
     << "             [--scheduler=event|dense] [--max-cache-bytes=<n>]\n"
     << "             [--requests=<file>]  (scale/seed/timeout are\n"
     << "             per-request JSON fields, not flags)\n";
}

std::vector<std::string> split_csv(const std::string& flag, const std::string& v) {
  std::vector<std::string> out;
  std::stringstream ss(v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  // "--apps=" or "--apps=,," must fail loudly, not silently mean "all".
  if (out.empty()) {
    throw std::invalid_argument("empty value in '" + flag +
                                "' (give a comma-separated list)");
  }
  return out;
}

void list_registered_names(std::ostream& os) {
  os << "registered scenarios:";
  for (const sim::ScenarioSpec& s : sim::all_scenarios()) os << " " << s.name;
  os << "\n";
}

int cmd_list() {
  TextTable tbl("registered scenarios (mot3d_experiments run <name>)");
  tbl.set_header({"name", "figure", "kind", "grid", "golden", "description"});
  for (const sim::ScenarioSpec& s : sim::all_scenarios()) {
    const char* kind = s.kind == sim::ScenarioSpec::Kind::kSweep    ? "sweep"
                       : s.kind == sim::ScenarioSpec::Kind::kTiming ? "timing"
                                                                    : "custom";
    tbl.add_row({s.name, s.figure, kind,
                 s.kind == sim::ScenarioSpec::Kind::kSweep
                     ? std::to_string(s.grid_size()) + " runs"
                     : "-",
                 s.has_golden ? "yes" : "-", s.description});
  }
  tbl.print(std::cout);
  return 0;
}

/// `describe <name>...` — everything one wants to know about a scenario's
/// grid *before* paying for the runs: the declared axes, the expanded run
/// count, and how many grid cells are dropped as invalid.
int cmd_describe(const std::vector<std::string>& names) {
  if (names.empty()) {
    std::cerr << "error: describe needs at least one scenario name (see list)\n";
    return 2;
  }
  for (const std::string& name : names) {
    if (sim::find_scenario(name) == nullptr) {
      std::cerr << "error: scenario '" << name << "' is not registered\n";
      list_registered_names(std::cerr);
      return 2;
    }
  }
  for (const std::string& name : names) {
    const sim::ScenarioSpec& s = *sim::find_scenario(name);
    const char* kind = s.kind == sim::ScenarioSpec::Kind::kSweep    ? "sweep"
                       : s.kind == sim::ScenarioSpec::Kind::kTiming ? "timing"
                                                                    : "custom";
    std::cout << "scenario: " << s.name << "\n"
              << "  figure: " << s.figure << "\n"
              << "  kind: " << kind << "\n"
              << "  description: " << s.description << "\n"
              << "  golden: "
              << (s.has_golden ? "yes (scale=" + std::to_string(s.golden_scale) +
                                     ", seed=" + std::to_string(s.seed) + ")"
                               : "no")
              << "\n";
    if (s.kind == sim::ScenarioSpec::Kind::kCustom) {
      std::cout << "  axes: none (self-driving custom body)\n"
                << "  expected runs: 1 invocation\n";
      continue;
    }
    if (s.kind == sim::ScenarioSpec::Kind::kTiming) {
      std::cout << "  axis states:";
      for (const auto& st : s.power_states) std::cout << " " << st.name();
      std::cout << "\n  expected runs: " << s.power_states.size()
                << " analytic rows (no simulation)\n";
      continue;
    }
    std::cout << "  axis apps (" << s.apps.size() << "):";
    for (const auto& a : s.apps) std::cout << " " << a;
    std::cout << "\n  axis fabrics (" << s.fabrics.size() << "):";
    for (auto f : s.fabrics) std::cout << " " << sim::fabric_key(f);
    std::cout << "\n  axis states (" << s.power_states.size() << "):";
    for (const auto& st : s.power_states) std::cout << " " << st.name();
    std::cout << "\n  axis dram (" << s.dram_presets.size() << "):";
    for (auto d : s.dram_presets)
      std::cout << " " << static_cast<int>(mem::dram_latency_ns(d)) << "ns";
    if (!s.thermal_envelopes.empty()) {
      std::cout << "\n  axis thermal envelopes: " << s.thermal_envelopes.size()
                << " (ambient x ceiling cells)";
    }
    if (!s.fault_envelopes.empty()) {
      std::cout << "\n  axis fault envelopes: " << s.fault_envelopes.size()
                << " (fault-rate x seed cells)";
    }
    if (!s.dram_backends.empty()) {
      std::cout << "\n  axis dram_backend (" << s.dram_backends.size() << "):";
      for (auto b : s.dram_backends)
        std::cout << " " << sim::dram_backend_key(b);
    }
    std::size_t skipped = 0;
    const std::size_t valid = sim::expand_grid(s, &skipped).size();
    std::cout << "\n  grid cells: " << s.grid_size() << "\n"
              << "  expected runs: " << valid;
    if (skipped > 0) {
      std::cout << " (" << skipped
                << " invalid cells skipped: " << sim::invalid_cell_reason()
                << ")";
    }
    std::cout << "\n";
  }
  return 0;
}

/// Every flag is parsed straight into its destination.  Each command
/// allows its own flag groups (CliFlagSet); a flag outside them is
/// reported by the command itself, so a flag given to the wrong subcommand
/// (`run --apps=...`, `update-golden --scale=...`) fails loudly instead of
/// being silently ignored.
struct CliArgs {
  std::vector<std::string> names;        ///< positional scenario names
  std::vector<std::string> stray_flags;  ///< flags the command does not take
  /// Run flags; the scale is resolved per scenario (see run_options).
  sim::ScenarioOptions run;
  std::optional<double> scale;
  std::vector<std::string> apps;
  std::vector<std::string> fabrics;
  std::vector<std::string> states;
  std::vector<std::string> dram;
  std::string baseline_path;  ///< bench --baseline
  std::string golden_dir = MOT3D_SOURCE_DIR "/tests/golden";
  bool use_golden_options = false;
  // serve/batch/cache flags (--threads and --scheduler land in `run`)
  std::string cache_dir;
  std::string requests_path;
  std::uint64_t max_cache_bytes = 0;
};

/// Which flag groups a subcommand understands.
struct CliFlagSet {
  bool run = false;      ///< --scale/--seed/--json/...    (run/trace/grid/bench)
  bool axes = false;     ///< --apps/--fabrics/--states/--dram      (grid/bench)
  bool golden = false;   ///< --golden                              (run/trace)
  bool dir = false;      ///< --dir                                 (*-golden)
  bool service = false;  ///< --cache-dir/--requests/...            (serve/batch)
  /// --baseline; refuses --threads/--trace/--metrics               (bench)
  bool bench = false;
};

/// Whole-string numeric parse of a flag's value: trailing junk
/// (--scale=0,75, --seed=5abc) must fail loudly, not silently truncate at
/// the first bad character.
template <typename T>
T parse_number(const std::string& arg, const std::string& value) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, out);
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("value out of range in '" + arg + "'");
  }
  if (ec != std::errc{} || stop != end) {
    throw std::invalid_argument("malformed value in '" + arg + "'");
  }
  return out;
}

std::string path_value(const std::string& flag, const std::string& value) {
  if (value.empty()) throw std::invalid_argument(flag + " needs a path");
  return value;
}

CliArgs parse_cli(int argc, char** argv, const CliFlagSet& allow) {
  CliArgs out;
  const bool sweep = allow.run || allow.service;  // --threads, --scheduler
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    // Valued flags match on "--name=" and take everything after the '='.
    const std::size_t eq = arg.find('=');
    const std::string flag = eq == std::string::npos ? arg : arg.substr(0, eq + 1);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (allow.bench && (flag == "--threads=" || flag == "--trace=" ||
                        flag == "--metrics=")) {
      throw std::invalid_argument("bench runs every cell alone and untraced ('" +
                                  arg + "' does not apply)");
    } else if (allow.bench && flag == "--baseline=") {
      out.baseline_path = path_value(flag, value);
    } else if (allow.axes && flag == "--apps=") {
      out.apps = split_csv(arg, value);
    } else if (allow.axes && flag == "--fabrics=") {
      out.fabrics = split_csv(arg, value);
    } else if (allow.axes && flag == "--states=") {
      out.states = split_csv(arg, value);
    } else if (allow.axes && flag == "--dram=") {
      out.dram = split_csv(arg, value);
    } else if (allow.dir && flag == "--dir=") {
      out.golden_dir = path_value(flag, value);
    } else if (allow.service && flag == "--cache-dir=") {
      out.cache_dir = value;
    } else if (allow.service && flag == "--requests=") {
      out.requests_path = path_value(flag, value);
    } else if (allow.service && flag == "--max-cache-bytes=") {
      out.max_cache_bytes = parse_number<std::uint64_t>(arg, value);
    } else if (sweep && flag == "--threads=") {
      out.run.threads = parse_number<unsigned>(arg, value);
      if (out.run.threads > 1024) {
        throw std::invalid_argument(arg + " is out of range (max 1024)");
      }
    } else if (sweep && flag == "--scheduler=") {
      if (value == "event") {
        out.run.scheduler = cluster::SchedulerMode::kEventDriven;
      } else if (value == "dense") {
        out.run.scheduler = cluster::SchedulerMode::kDenseTick;
      } else {
        throw std::invalid_argument("unknown scheduler '" + value +
                                    "' (want event|dense)");
      }
    } else if (allow.run && flag == "--scale=") {
      // The workload plan scales an instruction budget, so the fraction
      // must be a positive finite number.
      out.scale = parse_number<double>(arg, value);
      if (!std::isfinite(*out.scale) || *out.scale <= 0.0) {
        throw std::invalid_argument(
            "scale must be a positive finite number, got " + value);
      }
    } else if (allow.run && flag == "--seed=") {
      out.run.seed = parse_number<std::uint64_t>(arg, value);
    } else if (allow.run && flag == "--timeout=") {
      out.run.timeout_seconds = parse_number<double>(arg, value);
      if (!std::isfinite(out.run.timeout_seconds) ||
          out.run.timeout_seconds < 0.0) {
        throw std::invalid_argument(
            "--timeout must be a non-negative finite number of seconds");
      }
    } else if (allow.run && flag == "--json=") {
      out.run.json_path = path_value(flag, value);
    } else if (allow.run && flag == "--trace=") {
      out.run.trace_path = path_value(flag, value);
    } else if (allow.run && flag == "--metrics=") {
      out.run.metrics_path = path_value(flag, value);
    } else if (allow.golden && arg == "--golden") {
      out.use_golden_options = true;
    } else if (arg.rfind("--", 0) == 0) {
      if (allow.run) throw std::invalid_argument("unknown option '" + arg + "'");
      out.stray_flags.push_back(arg);  // the command names it in its error
    } else {
      out.names.push_back(arg);
    }
  }
  return out;
}

/// The options one scenario runs under: the run flags, at the scenario's
/// default scale unless --scale was given.  --golden swaps in the pinned
/// golden options (scale, seed); output paths and the scheduler are
/// observer-side and survive the override.
sim::ScenarioOptions run_options(const CliArgs& cli, const sim::ScenarioSpec& spec) {
  sim::ScenarioOptions opt = cli.run;
  opt.scale = cli.scale.value_or(spec.default_scale);
  if (!cli.use_golden_options) return opt;
  sim::ScenarioOptions golden = sim::golden_options(spec);
  golden.json_path = opt.json_path;
  golden.trace_path = opt.trace_path;
  golden.metrics_path = opt.metrics_path;
  golden.scheduler = opt.scheduler;
  return golden;
}

int cmd_run(const CliArgs& cli) {
  if (cli.names.empty()) {
    std::cerr << "error: run needs at least one scenario name (see list)\n";
    return 2;
  }
  // One output path cannot hold several scenarios' files; refuse rather
  // than silently keep only the last one written.
  if (cli.names.size() > 1) {
    for (const auto& [flag, path] : {std::pair{"--json", &cli.run.json_path},
                                     std::pair{"--trace", &cli.run.trace_path},
                                     std::pair{"--metrics", &cli.run.metrics_path}}) {
      if (!path->empty()) {
        std::cerr << "error: " << flag
                  << " with multiple scenarios would overwrite the same "
                     "file; run them one at a time\n";
        return 2;
      }
    }
  }
  // Validate every name up front: a typo in the third scenario must not
  // waste the first two runs before failing.
  for (const std::string& name : cli.names) {
    if (sim::find_scenario(name) == nullptr) {
      std::cerr << "error: scenario '" << name << "' is not registered\n";
      list_registered_names(std::cerr);
      return 2;
    }
  }
  for (const std::string& name : cli.names) {
    const sim::ScenarioSpec& spec = *sim::find_scenario(name);
    const int rc = sim::run_and_present(spec, run_options(cli, spec), std::cout);
    if (rc != 0) return rc;
  }
  return 0;
}

/// `trace <name>` — `run` for one scenario with observability on by
/// default: --trace/--metrics fall back to <name>.trace.json /
/// <name>.metrics.json next to the current directory.
int cmd_trace(const CliArgs& cli) {
  if (cli.names.size() != 1) {
    std::cerr << "error: trace takes exactly one scenario name (see list)\n";
    return 2;
  }
  const std::string& name = cli.names.front();
  const sim::ScenarioSpec* spec = sim::find_scenario(name);
  if (spec == nullptr) {
    std::cerr << "error: scenario '" << name << "' is not registered\n";
    list_registered_names(std::cerr);
    return 2;
  }
  if (spec->kind != sim::ScenarioSpec::Kind::kSweep) {
    std::cerr << "error: trace needs a sweep scenario ('" << name << "' is "
              << (spec->kind == sim::ScenarioSpec::Kind::kTiming ? "analytic"
                                                                 : "custom")
              << ", nothing to trace)\n";
    return 2;
  }
  sim::ScenarioOptions opt = run_options(cli, *spec);
  if (opt.trace_path.empty()) opt.trace_path = name + ".trace.json";
  if (opt.metrics_path.empty()) opt.metrics_path = name + ".metrics.json";
  return sim::run_and_present(*spec, opt, std::cout);
}

/// The ad-hoc grid that `grid` and `bench` run: axis flags, no names.
sim::ScenarioSpec cli_grid(const CliArgs& cli, const std::string& verb) {
  if (!cli.names.empty()) {
    throw std::invalid_argument(verb +
                                " takes axis flags, not positional names (got '" +
                                cli.names.front() + "')");
  }
  return sim::adhoc_grid(cli.apps, cli.fabrics, cli.states, cli.dram, {});
}

int cmd_grid(const CliArgs& cli) {
  const sim::ScenarioSpec spec = cli_grid(cli, "grid");
  return sim::run_and_present(spec, run_options(cli, spec), std::cout);
}

// ---- bench: the perf guardrail (BENCH_scale.json, BENCH_noc*.json) ---------
//
// `bench` runs an ad-hoc grid one cell at a time on this thread with phase
// timing on, and reports modeled results (cycles, instructions) next to
// simulator work (core ticks, router-output visits) and throughput
// (cycles/s), then the process's peak RSS over the whole grid
// (`peak_rss_mb`, never compared).  --baseline=<path> compares each cell
// against a committed BENCH document in three tiers:
//  * cycles and instructions are modeled and deterministic, so they must
//    match exactly — drift means simulator behaviour changed, and the
//    baseline (with the goldens) needs a deliberate refresh;
//  * core_ticks (Core::tick calls) and output_visits (a packet fabric's
//    router (output, VC) arbitration attempts; 0 on the MoT) are
//    deterministic host work, so each must match exactly (every baseline
//    cell records both, and its fabric): a scheduler that ticks more
//    cores, or a switch allocator that visits idle outputs, fails even on
//    a host fast enough to hide the cost;
//  * cycles/s depends on the machine and its load, so a cell fails only
//    below kThroughputFloor x its baseline — loose enough for shared-runner
//    noise, tight enough for an O(cores) scan re-entering the hot path.
// Exit codes: 0 ok; 1 a cell failed (watchdog, topology) or regressed;
// 2 usage error; 3 baseline missing, malformed, recorded with other knobs
// (scheduler, scale, seed) or lacking one of the grid's cells.

constexpr double kThroughputFloor = 0.5;

/// One grid cell as bench times it.
struct BenchCell {
  sim::ScenarioRun run;
  std::string key;                 ///< baseline key, see bench_key()
  std::uint64_t cycles = 0;        ///< modeled
  std::uint64_t instructions = 0;  ///< modeled
  std::uint64_t core_ticks = 0;    ///< host work
  std::uint64_t output_visits = 0; ///< host work (packet fabrics)
  double wall_seconds = 0.0;
  obs::PhaseSeconds phases;  ///< telemetry only, never compared
  std::string error;         ///< non-empty if the run threw

  double cycles_per_second() const {
    return wall_seconds > 0.0 ? static_cast<double>(cycles) / wall_seconds
                              : 0.0;
  }
};

/// `app@cores`, plus `@fabric` for a packet-fabric cell, so MoT baselines
/// recorded before the fabric axis existed still match.
std::string bench_key(const std::string& app, std::size_t cores,
                      const std::string& fabric) {
  std::string key = app + "@" + std::to_string(cores);
  if (fabric != "mot") key += "@" + fabric;
  return key;
}

struct BaselineCell {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t core_ticks = 0;
  std::uint64_t output_visits = 0;
  double cycles_per_second = 0.0;
};

/// A baseline that cannot be used at all (exit 3).
struct BaselineError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A baseline count (seed, cores, cycles, ...): JsonValue::as_count of a
/// present field, below 2^53 — far above any cell's budget.
std::optional<std::uint64_t> baseline_count(const sim::JsonValue* v) {
  return v != nullptr ? v->as_count() : std::nullopt;
}

/// The baseline's cells by key; the document must have been recorded with
/// `opt`'s scheduler, scale and seed.
std::map<std::string, BaselineCell> load_baseline(
    const std::string& path, const sim::ScenarioOptions& opt) {
  std::ifstream in(path);
  if (!in) throw BaselineError("cannot open '" + path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::optional<sim::JsonValue> doc = sim::JsonReader(buf.str()).parse();
  if (!doc || doc->type != sim::JsonValue::Type::kObject) {
    throw BaselineError("'" + path + "' is not a JSON object");
  }
  using Type = sim::JsonValue::Type;
  const sim::JsonValue* sched = doc->find("scheduler");
  const sim::JsonValue* scale = doc->find("scale");
  const std::optional<std::uint64_t> seed = baseline_count(doc->find("seed"));
  const sim::JsonValue* cells = doc->find("cells");
  if (!sched || sched->type != Type::kString || !scale ||
      scale->type != Type::kNumber || !seed || !cells ||
      cells->type != Type::kArray) {
    throw BaselineError("'" + path + "' is missing required fields");
  }
  if (sched->string != cluster::scheduler_name(opt.scheduler) ||
      scale->number != opt.scale || *seed != opt.seed) {
    throw BaselineError("baseline was recorded with --scheduler=" +
                        sched->string +
                        " --scale=" + sim::json_number(scale->number) +
                        " --seed=" + std::to_string(*seed) +
                        "; rerun with matching flags or refresh it");
  }
  std::map<std::string, BaselineCell> out;
  for (const sim::JsonValue& c : cells->array) {
    const sim::JsonValue* app = c.find("app");
    const sim::JsonValue* fabric = c.find("fabric");
    const sim::JsonValue* cps = c.find("cycles_per_second");
    const std::optional<std::uint64_t> cores = baseline_count(c.find("cores"));
    const std::optional<std::uint64_t> cycles = baseline_count(c.find("cycles"));
    const std::optional<std::uint64_t> instrs =
        baseline_count(c.find("instructions"));
    const std::optional<std::uint64_t> ticks =
        baseline_count(c.find("core_ticks"));
    const std::optional<std::uint64_t> visits =
        baseline_count(c.find("output_visits"));
    if (!app || app->type != Type::kString || !fabric ||
        fabric->type != Type::kString || !cores || !cycles || !instrs ||
        !ticks || !visits || !cps || cps->type != Type::kNumber) {
      throw BaselineError("malformed cell in '" + path + "'");
    }
    const std::string key = bench_key(app->string, *cores, fabric->string);
    if (!out.emplace(key, BaselineCell{*cycles, *instrs, *ticks, *visits,
                                       cps->number})
             .second) {
      throw BaselineError("two cells of '" + path + "' share the key " + key);
    }
  }
  return out;
}

/// Times Cluster construction through run() — what a sweep pays per run.
/// A throw (watchdog, topology builder) becomes the cell's error.
void run_bench_cell(BenchCell& c, const sim::ScenarioOptions& opt) {
  try {
    const cluster::ClusterConfig cfg = sim::make_run_config(c.run, opt);
    const auto t0 = std::chrono::steady_clock::now();
    const cluster::SimResult r = cluster::Cluster(cfg).run();
    c.wall_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    c.cycles = r.cycles;
    c.instructions = r.instructions;
    c.core_ticks = r.core_ticks;
    c.output_visits = r.interconnect.output_visits;
    c.phases = r.phase_seconds;
  } catch (const std::exception& e) {
    c.error = e.what();
  }
}

/// Peak resident set of this process so far, in MB (getrusage's
/// ru_maxrss, in KiB on Linux).
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string bench_report(const sim::ScenarioOptions& opt,
                         const std::vector<BenchCell>& cells,
                         double peak_rss) {
  double total_wall = 0.0;
  std::uint64_t total_cycles = 0;
  sim::JsonArray arr;
  for (const BenchCell& c : cells) {
    sim::JsonObject o;
    o.set("app", c.run.app)
        .set("fabric", sim::fabric_key(c.run.fabric))
        .set("cores", static_cast<std::uint64_t>(c.run.state.total_cores()))
        .set("banks", static_cast<std::uint64_t>(c.run.state.total_banks()))
        .set("state", c.run.state.name())
        .set("cycles", c.cycles)
        .set("instructions", c.instructions)
        .set("core_ticks", c.core_ticks)
        .set("output_visits", c.output_visits)
        .set("wall_seconds", c.wall_seconds)
        .set("cycles_per_second", c.cycles_per_second());
    if (c.phases.valid) {
      sim::JsonObject p;
      p.set("workload", c.phases.workload)
          .set("coherence", c.phases.coherence)
          .set("fabric", c.phases.fabric)
          .set("l2", c.phases.l2)
          .set("dram", c.phases.dram);
      o.set_raw("phase_seconds", p.str());
    }
    arr.push(o);
    total_wall += c.wall_seconds;
    total_cycles += c.cycles;
  }
  sim::JsonObject out;
  out.set("bench", "bench")
      .set("scheduler", cluster::scheduler_name(opt.scheduler))
      .set("scale", opt.scale)
      .set("seed", opt.seed)
      .set_raw("cells", arr.str(2))
      .set("total_wall_seconds", total_wall)
      .set("total_simulated_cycles", total_cycles)
      .set("cycles_per_second",
           total_wall > 0.0 ? static_cast<double>(total_cycles) / total_wall
                            : 0.0)
      .set("peak_rss_mb", peak_rss);
  return out.str();
}

/// Cells that drifted or slowed against the baseline, each named on stderr.
int count_regressions(const std::vector<BenchCell>& cells,
                      const std::map<std::string, BaselineCell>& baseline) {
  int regressions = 0;
  for (const BenchCell& c : cells) {
    const BaselineCell& b = baseline.at(c.key);
    if (c.cycles != b.cycles || c.instructions != b.instructions) {
      std::cerr << "REGRESSION " << c.key << ": modeled drift — cycles "
                << c.cycles << " vs baseline " << b.cycles << ", instructions "
                << c.instructions << " vs " << b.instructions
                << " (simulator behaviour changed; refresh deliberately)\n";
      ++regressions;
    } else if (c.core_ticks != b.core_ticks) {
      std::cerr << "REGRESSION " << c.key << ": work drift — core_ticks "
                << c.core_ticks << " vs baseline " << b.core_ticks
                << " (the scheduler changed how many cores it ticks; "
                   "refresh deliberately)\n";
      ++regressions;
    } else if (c.output_visits != b.output_visits) {
      std::cerr << "REGRESSION " << c.key << ": work drift — output_visits "
                << c.output_visits << " vs baseline " << b.output_visits
                << " (the switch allocator changed how many router outputs "
                   "it visits; refresh deliberately)\n";
      ++regressions;
    } else if (c.cycles_per_second() < kThroughputFloor * b.cycles_per_second) {
      std::cerr << "REGRESSION " << c.key << ": throughput "
                << sim::json_number(c.cycles_per_second())
                << " cycles/s below " << kThroughputFloor << "x baseline "
                << sim::json_number(b.cycles_per_second) << "\n";
      ++regressions;
    }
  }
  return regressions;
}

int cmd_bench(const CliArgs& cli) {
  const sim::ScenarioSpec spec = cli_grid(cli, "bench");
  sim::ScenarioOptions opt = run_options(cli, spec);
  opt.phase_timing = true;  // host clock reads; modeled metrics untouched

  std::size_t skipped = 0;
  std::vector<BenchCell> cells;
  std::set<std::string> keys;
  for (const sim::ScenarioRun& run : sim::expand_grid(spec, &skipped)) {
    BenchCell& c = cells.emplace_back();
    c.run = run;
    c.key = bench_key(run.app, run.state.total_cores(),
                      sim::fabric_key(run.fabric));
    // One baseline cell must vouch for exactly one run.
    if (!keys.insert(c.key).second) {
      std::cerr << "error: two bench cells share the key '" << c.key
                << "' (app@cores[@fabric]); give each core count one state "
                   "and the grid one DRAM preset\n";
      return 2;
    }
  }

  // Check the baseline before paying for the grid.
  std::map<std::string, BaselineCell> baseline;
  if (!cli.baseline_path.empty()) {
    try {
      baseline = load_baseline(cli.baseline_path, opt);
      for (const BenchCell& c : cells) {
        if (baseline.count(c.key) == 0) {
          throw BaselineError("cell " + c.key + " missing from '" +
                              cli.baseline_path + "' (grid changed?)");
        }
      }
    } catch (const BaselineError& e) {
      std::cerr << "baseline error: " << e.what() << "\n"
                << "refresh with: mot3d_experiments bench <same flags> "
                   "--json=<baseline>\n";
      return 3;
    }
  }

  std::cout << "bench: " << cells.size() << " cell(s), scale=" << opt.scale
            << ", seed=" << opt.seed
            << ", scheduler=" << cluster::scheduler_name(opt.scheduler) << "\n";
  if (skipped > 0) {
    std::cout << "note: skipped " << skipped << " invalid grid cells ("
              << sim::invalid_cell_reason() << ")\n";
  }
  std::cout << "  app                fabric    cores   banks        cycles  "
            << "  core_ticks  output_visits     wall_s      cycles/s\n";
  int failed = 0;
  for (BenchCell& c : cells) {
    run_bench_cell(c, opt);
    if (!c.error.empty()) {
      std::cerr << "FAILED " << c.key << ": " << c.error << "\n";
      ++failed;
      continue;
    }
    std::printf(
        "  %-18s %-8s %6zu  %6zu  %12llu  %12llu  %13llu  %9.3f  %12.0f\n",
        c.run.app.c_str(), sim::fabric_key(c.run.fabric),
        c.run.state.total_cores(), c.run.state.total_banks(),
        static_cast<unsigned long long>(c.cycles),
        static_cast<unsigned long long>(c.core_ticks),
        static_cast<unsigned long long>(c.output_visits), c.wall_seconds,
        c.cycles_per_second());
  }
  // Telemetry, like wall time: --baseline never compares it.
  const double peak_rss = peak_rss_mb();
  std::printf("  peak RSS %.1f MB\n", peak_rss);
  if (failed > 0) {
    std::cerr << failed << " cell(s) failed\n";
    return 1;
  }

  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    out << bench_report(opt, cells, peak_rss) << "\n" << std::flush;
    if (!out) {
      std::cerr << "error: cannot write '" << opt.json_path << "'\n";
      return 1;
    }
    std::cout << "[perf] report written to " << opt.json_path << "\n";
  }
  if (cli.baseline_path.empty()) return 0;
  const int regressions = count_regressions(cells, baseline);
  if (regressions > 0) {
    std::cerr << regressions << " cell(s) regressed against '"
              << cli.baseline_path << "'\n";
    return 1;
  }
  std::cout << "baseline OK: " << cells.size()
            << " cell(s) match, each at >= " << kThroughputFloor
            << "x its recorded cycles/s\n";
  return 0;
}

int cmd_update_golden(const CliArgs& cli) {
  // Baselines are only valid at each scenario's pinned golden options —
  // reject any attempt to bend them with run-time flags.
  if (!cli.stray_flags.empty()) {
    std::cerr << "error: update-golden takes no run flags (got '"
              << cli.stray_flags.front()
              << "'); baselines always use each scenario's golden options\n";
    return 2;
  }
  std::vector<std::string> names =
      cli.names.empty() ? sim::golden_scenario_names() : cli.names;
  std::error_code ec;
  std::filesystem::create_directories(cli.golden_dir, ec);
  for (const std::string& name : names) {
    const sim::ScenarioSpec* spec = sim::find_scenario(name);
    if (spec == nullptr || !spec->has_golden) {
      std::cerr << "error: '" << name << "' is not a golden scenario\n";
      return 2;
    }
    const sim::ScenarioOutcome out =
        sim::run_scenario(*spec, sim::golden_options(*spec));
    const std::string path = cli.golden_dir + "/" + name + ".json";
    std::ofstream f(path);
    if (!f) {
      std::cerr << "error: cannot write " << path << "\n";
      return 1;
    }
    f << sim::scenario_metrics_json(out);
    std::cout << "wrote " << path << " (" << (out.runs.empty()
                                                  ? out.timing_rows.size()
                                                  : out.results.size())
              << " entries)\n";
  }
  std::cout << "golden baselines updated — commit the diff together with the\n"
               "model change that motivated it (tests/test_golden_figures.cpp\n"
               "compares these files byte-for-byte under both schedulers).\n";
  return 0;
}

/// `check-golden` — the golden regression check as a CLI verb: re-run each
/// golden scenario at its pinned options and byte-compare against the
/// committed baseline.  Every failure path exits non-zero with one
/// structured "error: ..." line (missing file, mismatch, unknown name), so
/// scripts and CI steps can gate on it without parsing tables.
int cmd_check_golden(const CliArgs& cli) {
  if (!cli.stray_flags.empty()) {
    std::cerr << "error: check-golden takes no run flags (got '"
              << cli.stray_flags.front()
              << "'); baselines always use each scenario's golden options\n";
    return 2;
  }
  std::vector<std::string> names =
      cli.names.empty() ? sim::golden_scenario_names() : cli.names;
  int failures = 0;
  for (const std::string& name : names) {
    const sim::ScenarioSpec* spec = sim::find_scenario(name);
    if (spec == nullptr || !spec->has_golden) {
      std::cerr << "error: '" << name << "' is not a golden scenario\n";
      return 2;
    }
    const std::string path = cli.golden_dir + "/" + name + ".json";
    std::ifstream f(path, std::ios::binary);
    if (!f) {
      std::cerr << "error: missing golden baseline " << path
                << " (run update-golden " << name << ")\n";
      ++failures;
      continue;
    }
    std::ostringstream want;
    want << f.rdbuf();
    const sim::ScenarioOutcome out =
        sim::run_scenario(*spec, sim::golden_options(*spec));
    const std::string got = sim::scenario_metrics_json(out);
    if (got != want.str()) {
      std::cerr << "error: golden mismatch for " << name << " (" << path
                << "); inspect with update-golden --dir=<tmp> " << name
                << " and diff\n";
      ++failures;
      continue;
    }
    std::cout << "ok: " << name << " matches " << path << "\n";
  }
  if (failures > 0) {
    std::cerr << "error: " << failures << "/" << names.size()
              << " golden baselines failed\n";
    return 1;
  }
  return 0;
}

/// `serve` / `batch` — the sweep service (src/sim/sweep_service.hpp).
/// Modeled inputs (scale, seed, timeout) are per-request JSON fields, so
/// every run flag is rejected loudly: a --scale here would silently skew
/// what the cache memoizes.
int cmd_service(const CliArgs& cli, sim::ServiceLoopMode mode) {
  const char* verb = mode == sim::ServiceLoopMode::kServe ? "serve" : "batch";
  if (!cli.names.empty()) {
    std::cerr << "error: " << verb << " takes flags only (got '"
              << cli.names.front() << "')\n";
    return 2;
  }
  if (!cli.stray_flags.empty()) {
    std::cerr << "error: " << verb << " takes no run flags (got '"
              << cli.stray_flags.front()
              << "'); scale/seed/timeout_seconds are per-request fields\n";
    return 2;
  }
  if (cli.cache_dir.empty()) {
    std::cerr << "error: " << verb << " needs --cache-dir=<path>\n";
    return 2;
  }
  sim::ServiceConfig cfg;
  cfg.cache_dir = cli.cache_dir;
  cfg.threads = cli.run.threads;
  cfg.scheduler = cli.run.scheduler;
  cfg.max_cache_bytes = cli.max_cache_bytes;
  sim::SweepService service(cfg);  // throws on unwritable cache dir
  if (!cli.requests_path.empty()) {
    std::ifstream f(cli.requests_path, std::ios::binary);
    if (!f) {
      std::cerr << "error: cannot read requests file '" << cli.requests_path
                << "'\n";
      return 2;
    }
    return sim::service_loop(f, std::cout, service, mode);
  }
  return sim::service_loop(std::cin, std::cout, service, mode);
}

/// `cache stats` / `cache clear` — one JSON line each, so scripts can gate
/// on the cache without scraping tables.
int cmd_cache(const CliArgs& cli) {
  if (cli.names.size() != 1 ||
      (cli.names.front() != "stats" && cli.names.front() != "clear")) {
    std::cerr << "error: cache takes one verb: stats|clear\n";
    return 2;
  }
  if (!cli.stray_flags.empty()) {
    std::cerr << "error: cache " << cli.names.front()
              << " takes no run flags (got '" << cli.stray_flags.front()
              << "')\n";
    return 2;
  }
  if (cli.cache_dir.empty()) {
    std::cerr << "error: cache " << cli.names.front()
              << " needs --cache-dir=<path>\n";
    return 2;
  }
  sim::ServiceConfig cfg;
  cfg.cache_dir = cli.cache_dir;
  sim::SweepService service(cfg);  // throws on unwritable cache dir
  sim::JsonObject o;
  o.set("cache_dir", cfg.cache_dir);
  if (cli.names.front() == "stats") {
    const sim::CacheStats stats = service.cache_stats();
    o.set("entries", stats.entries).set("bytes", stats.bytes);
  } else {
    o.set("removed", static_cast<std::uint64_t>(service.cache_clear()));
  }
  std::cout << o.str() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_cli_usage(std::cerr);
    return 2;
  }
  const std::string cmd = argv[1];
  if (cmd == "list" || cmd == "--list") return cmd_list();
  if (cmd == "--help" || cmd == "-h" || cmd == "help") {
    print_cli_usage(std::cout);
    return 0;
  }
  for (int i = 2; i < argc; ++i) {
    if (std::string(argv[i]) == "--help") {
      print_cli_usage(std::cout);
      return 0;
    }
  }
  try {
    if (cmd == "describe") {
      const CliArgs cli = parse_cli(argc, argv, {});
      if (!cli.stray_flags.empty()) {
        std::cerr << "error: describe takes no flags (got '"
                  << cli.stray_flags.front() << "')\n";
        return 2;
      }
      return cmd_describe(cli.names);
    }
    if (cmd == "run") {
      return cmd_run(parse_cli(argc, argv, {.run = true, .golden = true}));
    }
    if (cmd == "trace") {
      return cmd_trace(parse_cli(argc, argv, {.run = true, .golden = true}));
    }
    if (cmd == "grid") {
      return cmd_grid(parse_cli(argc, argv, {.run = true, .axes = true}));
    }
    if (cmd == "bench") {
      return cmd_bench(
          parse_cli(argc, argv, {.run = true, .axes = true, .bench = true}));
    }
    if (cmd == "update-golden") {
      return cmd_update_golden(parse_cli(argc, argv, {.dir = true}));
    }
    if (cmd == "check-golden") {
      return cmd_check_golden(parse_cli(argc, argv, {.dir = true}));
    }
    if (cmd == "serve") {
      return cmd_service(parse_cli(argc, argv, {.service = true}),
                         sim::ServiceLoopMode::kServe);
    }
    if (cmd == "batch") {
      return cmd_service(parse_cli(argc, argv, {.service = true}),
                         sim::ServiceLoopMode::kBatch);
    }
    if (cmd == "cache") {
      return cmd_cache(parse_cli(argc, argv, {.service = true}));
    }
  } catch (const std::invalid_argument& e) {
    // Malformed or unknown flags (an empty axis list, --sacle=0.5, ...).
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    // Anything else that escapes a command body (a scenario whose every
    // run is isolated still throws on config errors, bad alloc, ...) —
    // one structured line, non-zero exit, never a silent stack unwind.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cerr << "error: unknown command '" << cmd << "'\n";
  print_cli_usage(std::cerr);
  return 2;
}
