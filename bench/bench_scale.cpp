// Scale-out throughput bench: the perf trajectory behind BENCH_scale.json
// and BENCH_noc.json.
//
// Runs a (sharing pattern x core count x fabric) grid at `FullNx2N` power
// states, one cluster simulation per cell, and reports modeled results
// (cycles, instructions) next to simulator work (core ticks executed) and
// throughput (wall seconds, simulated cycles/s).  The fabric axis defaults
// to the MoT, the only fabric with scale-out shapes; the packet-switched
// fabrics run only the paper's 16x32 shape.  The committed baselines
// (BENCH_scale.json for the MoT at 64-1024 cores, BENCH_noc.json for the
// packet fabrics at 16 cores) pin all three:
//
//  * modeled metrics are deterministic, so they must match the baseline
//    EXACTLY — any drift means simulator behaviour changed and the golden
//    story needs a deliberate refresh;
//  * the work counter (Core::tick calls) is deterministic too, so it also
//    matches exactly when the baseline records it: a scheduler change that
//    ticks more cores fails even when the host is fast enough to hide it;
//  * cycles/s is machine- and load-dependent, so it is compared with a
//    deliberately loose relative tolerance (default 0.5: fail only when a
//    cell's throughput drops below half the baseline).  The tolerance is
//    wide enough to absorb CI-runner noise yet still catches the
//    order-of-magnitude regressions that matter (an accidental O(cores)
//    scan re-entering the per-cycle hot path).
//
// This binary owns its command line (mot3d_experiments rejects flags it
// does not know by design):
//
//   bench_scale [--cores=64,256,1024] [--patterns=all_to_all,...]
//               [--fabrics=mot,mesh3d,busmesh,bustree]
//               [--scale=<f>] [--seed=<u64>] [--scheduler=event|dense]
//               [--timeout=<seconds>] [--json=<path>]
//               [--baseline=<path>] [--update-baseline]
//               [--tolerance=<frac>]
//
// Exit codes (asserted by tests/soak_harness.py --bench and the CI
// perf-guardrail job):
//   0  grid ran; no baseline requested, or baseline matched
//   1  regression: modeled or work-counter mismatch, throughput below
//      tolerance, or a cell's simulation failed (watchdog timeout, config
//      error)
//   2  usage error (unknown flag or fabric, malformed value, a packet
//      fabric with --cores other than 16)
//   3  baseline missing, unparsable, or incompatible with this invocation
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/json_reader.hpp"
#include "sim/perf_report.hpp"
#include "sim/scenario.hpp"
#include "workload/app_profile.hpp"

namespace {

using mot3d::sim::JsonArray;
using mot3d::sim::JsonObject;
using mot3d::sim::JsonReader;
using mot3d::sim::JsonValue;

constexpr double kDefaultTolerance = 0.5;
constexpr double kDefaultScale = 0.02;

struct Options {
  std::vector<std::size_t> cores{64, 256, 1024};
  std::vector<std::string> patterns{"all_to_all", "producer_consumer",
                                    "read_mostly", "migratory"};
  std::vector<mot3d::cluster::Fabric> fabrics{mot3d::cluster::Fabric::kMot};
  double scale = kDefaultScale;
  std::uint64_t seed = 42;
  mot3d::cluster::SchedulerMode scheduler =
      mot3d::cluster::SchedulerMode::kEventDriven;
  double timeout_seconds = 0.0;
  std::string json_path;
  std::string baseline_path;
  bool update_baseline = false;
  double tolerance = kDefaultTolerance;
};

void print_usage(std::ostream& os) {
  os << "usage: bench_scale [--cores=<list>] [--patterns=<list>]\n"
     << "                   [--fabrics=<list>] [--scale=<double>] [--seed=<u64>]\n"
     << "                   [--scheduler=event|dense] [--timeout=<seconds>]\n"
     << "                   [--json=<path>] [--baseline=<path>]\n"
     << "                   [--update-baseline] [--tolerance=<frac>]\n"
     << "  --cores       comma list of core counts (powers of two >= 16)\n"
     << "  --patterns    comma list of sharing workloads (see --patterns=help)\n"
     << "  --fabrics     comma list of mot|mesh3d|busmesh|bustree (default mot);\n"
     << "                mesh3d, busmesh and bustree need --cores=16\n"
     << "  --baseline    compare against a committed BENCH_scale.json or\n"
     << "                BENCH_noc.json;\n"
     << "                with --update-baseline, (re)write it instead\n"
     << "  --tolerance   allowed relative cycles/s drop per cell (default "
     << kDefaultTolerance << ")\n";
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "error: " << msg << "\n";
  print_usage(std::cerr);
  std::exit(2);
}

double parse_double(const std::string& flag, const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) usage_error("malformed value in '" + flag + "'");
    return d;
  } catch (const std::exception&) {
    usage_error("malformed value in '" + flag + "'");
  }
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v[0] == '-') usage_error("malformed value in '" + flag + "'");
  try {
    std::size_t pos = 0;
    const std::uint64_t n = std::stoull(v, &pos);
    if (pos != v.size()) usage_error("malformed value in '" + flag + "'");
    return n;
  } catch (const std::exception&) {
    usage_error("malformed value in '" + flag + "'");
  }
}

std::vector<std::string> split_list(const std::string& v) {
  std::vector<std::string> out;
  std::string item;
  std::istringstream is(v);
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--cores=", 0) == 0) {
      opt.cores.clear();
      for (const std::string& c : split_list(arg.substr(8))) {
        opt.cores.push_back(static_cast<std::size_t>(parse_u64(arg, c)));
      }
      if (opt.cores.empty()) usage_error("--cores= needs at least one count");
    } else if (arg.rfind("--patterns=", 0) == 0) {
      if (arg.substr(11) == "help") {
        for (const auto& n : mot3d::workload::sharing_profile_names()) {
          std::cout << n << "\n";
        }
        std::exit(0);
      }
      opt.patterns = split_list(arg.substr(11));
      if (opt.patterns.empty()) usage_error("--patterns= needs at least one name");
    } else if (arg.rfind("--fabrics=", 0) == 0) {
      opt.fabrics.clear();
      for (const std::string& f : split_list(arg.substr(10))) {
        try {
          opt.fabrics.push_back(mot3d::sim::fabric_by_key(f));
        } catch (const std::invalid_argument& e) {
          usage_error(e.what());
        }
      }
      if (opt.fabrics.empty()) usage_error("--fabrics= needs at least one fabric");
    } else if (arg.rfind("--scale=", 0) == 0) {
      opt.scale = parse_double(arg, arg.substr(8));
      if (!std::isfinite(opt.scale) || opt.scale <= 0.0) {
        usage_error("scale must be a positive finite number");
      }
    } else if (arg.rfind("--seed=", 0) == 0) {
      opt.seed = parse_u64(arg, arg.substr(7));
    } else if (arg.rfind("--scheduler=", 0) == 0) {
      const std::string mode = arg.substr(12);
      if (mode == "event") {
        opt.scheduler = mot3d::cluster::SchedulerMode::kEventDriven;
      } else if (mode == "dense") {
        opt.scheduler = mot3d::cluster::SchedulerMode::kDenseTick;
      } else {
        usage_error("unknown scheduler '" + mode + "' (want event|dense)");
      }
    } else if (arg.rfind("--timeout=", 0) == 0) {
      opt.timeout_seconds = parse_double(arg, arg.substr(10));
      if (!std::isfinite(opt.timeout_seconds) || opt.timeout_seconds < 0.0) {
        usage_error("--timeout must be a non-negative finite number");
      }
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = arg.substr(7);
      if (opt.json_path.empty()) usage_error("--json= needs a path");
    } else if (arg.rfind("--baseline=", 0) == 0) {
      opt.baseline_path = arg.substr(11);
      if (opt.baseline_path.empty()) usage_error("--baseline= needs a path");
    } else if (arg == "--update-baseline") {
      opt.update_baseline = true;
    } else if (arg.rfind("--tolerance=", 0) == 0) {
      opt.tolerance = parse_double(arg, arg.substr(12));
      if (!std::isfinite(opt.tolerance) || opt.tolerance < 0.0 ||
          opt.tolerance >= 1.0) {
        usage_error("--tolerance must be in [0, 1)");
      }
    } else if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      std::exit(0);
    } else {
      usage_error("unknown option '" + arg + "'");
    }
  }
  if (opt.update_baseline && opt.baseline_path.empty()) {
    usage_error("--update-baseline needs --baseline=<path>");
  }
  const bool packet_fabric =
      std::any_of(opt.fabrics.begin(), opt.fabrics.end(), [](auto f) {
        return f != mot3d::cluster::Fabric::kMot;
      });
  const bool paper_shape_only =
      std::all_of(opt.cores.begin(), opt.cores.end(),
                  [](std::size_t c) { return c == 16; });
  if (packet_fabric && !paper_shape_only) {
    usage_error("mesh3d, busmesh and bustree run only --cores=16");
  }
  return opt;
}

// ---------------------------------------------------------------------------
// Grid execution
// ---------------------------------------------------------------------------

struct Cell {
  std::string app;
  std::string fabric;  ///< fabric_key(): "mot", "mesh3d", ...
  std::size_t cores = 0;
  std::size_t banks = 0;
  std::string state;
  std::uint64_t cycles = 0;        ///< modeled; exact-match against baseline
  std::uint64_t instructions = 0;  ///< modeled; exact-match against baseline
  std::uint64_t core_ticks = 0;    ///< host work; exact-match when recorded
  double wall_seconds = 0.0;
  double cycles_per_second = 0.0;
  /// Host-side wall seconds attributed per simulator phase (sampled, see
  /// obs::PhaseTimer).  Telemetry only: never compared against a baseline.
  mot3d::obs::PhaseSeconds phases;
  std::string error;  ///< non-empty if the simulation failed
};

/// Baseline key: `app@cores`, plus `@fabric` for a packet-switched cell, so
/// MoT baselines recorded before the fabric axis existed still match.
std::string cell_key(const std::string& app, std::size_t cores,
                     const std::string& fabric) {
  std::string key = app + "@" + std::to_string(cores);
  if (fabric != "mot") key += "@" + fabric;
  return key;
}

std::string state_name_for(std::size_t cores) {
  // The paper's native shape is 16x32 ("Full"); scale-out shapes keep the
  // 2 banks/core ratio the MoT geometry assumes.
  if (cores == 16) return "Full";
  return "Full" + std::to_string(cores) + "x" + std::to_string(2 * cores);
}

Cell run_cell(const Options& opt, const std::string& app, std::size_t cores,
              mot3d::cluster::Fabric fabric) {
  Cell cell;
  cell.app = app;
  cell.fabric = mot3d::sim::fabric_key(fabric);
  cell.cores = cores;
  cell.banks = 2 * cores;
  cell.state = state_name_for(cores);

  mot3d::sim::ScenarioSpec spec;
  spec.name = "bench_scale";
  spec.description = "scale-out throughput cell";
  spec.kind = mot3d::sim::ScenarioSpec::Kind::kSweep;
  spec.apps = {app};
  spec.fabrics = {fabric};
  spec.dram_presets = {mot3d::mem::DramPreset::kDdr3_200ns};
  spec.has_golden = false;
  try {
    spec.power_states = {mot3d::sim::power_state_by_name(cell.state)};
  } catch (const std::exception& e) {
    cell.error = e.what();
    return cell;
  }

  mot3d::sim::ScenarioOptions sopt;
  sopt.scale = opt.scale;
  sopt.seed = opt.seed;
  sopt.threads = 1;  // one run per cell: thread pool would only add noise
  sopt.scheduler = opt.scheduler;
  sopt.timeout_seconds = opt.timeout_seconds;
  sopt.phase_timing = true;  // host-side clock reads; modeled metrics untouched

  try {
    const mot3d::sim::ScenarioOutcome outcome =
        mot3d::sim::run_scenario(spec, sopt);
    if (outcome.results.empty()) {
      cell.error = "grid expanded to zero runs";
      return cell;
    }
    if (!outcome.run_ok(0)) {
      cell.error = outcome.errors[0];
      return cell;
    }
    cell.cycles = outcome.results[0].cycles;
    cell.instructions = outcome.results[0].instructions;
    cell.core_ticks = outcome.results[0].core_ticks;
    cell.wall_seconds = outcome.telemetry.wall_seconds;
    cell.cycles_per_second = outcome.telemetry.cycles_per_second();
    cell.phases = outcome.results[0].phase_seconds;
  } catch (const std::exception& e) {
    cell.error = e.what();
  }
  return cell;
}

JsonObject cell_to_json(const Cell& c) {
  JsonObject o;
  o.set("app", c.app)
      .set("fabric", c.fabric)
      .set("cores", static_cast<std::uint64_t>(c.cores))
      .set("banks", static_cast<std::uint64_t>(c.banks))
      .set("state", c.state)
      .set("cycles", c.cycles)
      .set("instructions", c.instructions)
      .set("core_ticks", c.core_ticks)
      .set("wall_seconds", c.wall_seconds)
      .set("cycles_per_second", c.cycles_per_second);
  // Telemetry-only extension: compare_against_baseline reads known keys
  // only, so old baselines stay compatible.
  if (c.phases.valid) {
    JsonObject p;
    p.set("workload", c.phases.workload)
        .set("coherence", c.phases.coherence)
        .set("fabric", c.phases.fabric)
        .set("l2", c.phases.l2)
        .set("dram", c.phases.dram);
    o.set_raw("phase_seconds", p.str());
  }
  return o;
}

std::string report_json(const Options& opt, const std::vector<Cell>& cells) {
  double total_wall = 0.0;
  std::uint64_t total_cycles = 0;
  JsonArray arr;
  for (const Cell& c : cells) {
    arr.push(cell_to_json(c));
    total_wall += c.wall_seconds;
    total_cycles += c.cycles;
  }
  JsonObject out;
  out.set("bench", "bench_scale")
      .set("scheduler", opt.scheduler ==
                                mot3d::cluster::SchedulerMode::kEventDriven
                            ? "event"
                            : "dense")
      .set("scale", opt.scale)
      .set("seed", opt.seed)
      .set_raw("cells", arr.str(2))
      .set("total_wall_seconds", total_wall)
      .set("total_simulated_cycles", total_cycles)
      .set("cycles_per_second",
           total_wall > 0.0 ? static_cast<double>(total_cycles) / total_wall
                            : 0.0);
  return out.str();
}

// ---------------------------------------------------------------------------
// Baseline comparison
// ---------------------------------------------------------------------------

struct BaselineCell {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::optional<std::uint64_t> core_ticks;  ///< absent in older baselines
  double cycles_per_second = 0.0;
};

/// Exit code 3 helper: the baseline cannot be used at all.
[[noreturn]] void baseline_error(const std::string& msg) {
  std::cerr << "baseline error: " << msg << "\n"
            << "refresh with: bench_scale --baseline=<path> --update-baseline\n";
  std::exit(3);
}

int compare_against_baseline(const Options& opt, const std::vector<Cell>& cells) {
  std::ifstream in(opt.baseline_path);
  if (!in) baseline_error("cannot open '" + opt.baseline_path + "'");
  std::stringstream buf;
  buf << in.rdbuf();
  const std::optional<JsonValue> doc = JsonReader(buf.str()).parse();
  if (!doc || doc->type != JsonValue::Type::kObject) {
    baseline_error("'" + opt.baseline_path + "' is not a JSON object");
  }

  // The baseline is only meaningful for the knobs it was recorded with.
  const JsonValue* sched = doc->find("scheduler");
  const JsonValue* scale = doc->find("scale");
  const JsonValue* seed = doc->find("seed");
  const JsonValue* cells_v = doc->find("cells");
  if (!sched || sched->type != JsonValue::Type::kString || !scale ||
      scale->type != JsonValue::Type::kNumber || !seed ||
      seed->type != JsonValue::Type::kNumber || !cells_v ||
      cells_v->type != JsonValue::Type::kArray) {
    baseline_error("'" + opt.baseline_path + "' is missing required fields");
  }
  const std::string want_sched =
      opt.scheduler == mot3d::cluster::SchedulerMode::kEventDriven ? "event"
                                                                   : "dense";
  if (sched->string != want_sched || scale->number != opt.scale ||
      static_cast<std::uint64_t>(seed->number) != opt.seed) {
    baseline_error("baseline was recorded with --scheduler=" + sched->string +
                   " --scale=" + mot3d::sim::json_number(scale->number) +
                   " --seed=" +
                   std::to_string(static_cast<std::uint64_t>(seed->number)) +
                   "; rerun with matching flags or refresh it");
  }

  // Index baseline cells by cell_key(); a cell without "fabric" is a MoT
  // cell.  Modeled u64s round-trip exactly through double for any value
  // < 2^53 — far above any cell's budget.
  std::vector<std::pair<std::string, BaselineCell>> base;
  for (const JsonValue& c : cells_v->array) {
    const JsonValue* app = c.find("app");
    const JsonValue* fabric = c.find("fabric");
    const JsonValue* cores = c.find("cores");
    const JsonValue* cycles = c.find("cycles");
    const JsonValue* instrs = c.find("instructions");
    const JsonValue* ticks = c.find("core_ticks");
    const JsonValue* cps = c.find("cycles_per_second");
    if (!app || app->type != JsonValue::Type::kString || !cores || !cycles ||
        !instrs || !cps ||
        (fabric && fabric->type != JsonValue::Type::kString) ||
        (ticks && ticks->type != JsonValue::Type::kNumber)) {
      baseline_error("malformed cell in '" + opt.baseline_path + "'");
    }
    const std::string key =
        cell_key(app->string, static_cast<std::size_t>(cores->number),
                 fabric ? fabric->string : "mot");
    BaselineCell cell{static_cast<std::uint64_t>(cycles->number),
                      static_cast<std::uint64_t>(instrs->number),
                      std::nullopt, cps->number};
    if (ticks) cell.core_ticks = static_cast<std::uint64_t>(ticks->number);
    base.emplace_back(key, cell);
  }

  int regressions = 0;
  for (const Cell& c : cells) {
    const std::string key = cell_key(c.app, c.cores, c.fabric);
    const BaselineCell* b = nullptr;
    for (const auto& [k, v] : base) {
      if (k == key) { b = &v; break; }
    }
    if (b == nullptr) {
      baseline_error("cell " + key + " missing from '" + opt.baseline_path +
                     "' (grid changed?)");
    }
    if (c.cycles != b->cycles || c.instructions != b->instructions) {
      std::cerr << "REGRESSION " << key << ": modeled drift — cycles "
                << c.cycles << " vs baseline " << b->cycles << ", instructions "
                << c.instructions << " vs " << b->instructions
                << " (simulator behaviour changed; refresh deliberately)\n";
      ++regressions;
      continue;
    }
    if (b->core_ticks.has_value() && c.core_ticks != *b->core_ticks) {
      std::cerr << "REGRESSION " << key << ": work drift — core_ticks "
                << c.core_ticks << " vs baseline " << *b->core_ticks
                << " (the scheduler changed how many cores it ticks; "
                   "refresh deliberately)\n";
      ++regressions;
      continue;
    }
    const double floor = b->cycles_per_second * (1.0 - opt.tolerance);
    if (c.cycles_per_second < floor) {
      std::cerr << "REGRESSION " << key << ": throughput "
                << mot3d::sim::json_number(c.cycles_per_second)
                << " cycles/s below tolerance floor "
                << mot3d::sim::json_number(floor) << " (baseline "
                << mot3d::sim::json_number(b->cycles_per_second)
                << ", tolerance " << opt.tolerance << ")\n";
      ++regressions;
    }
  }
  if (regressions > 0) {
    std::cerr << regressions << " cell(s) regressed against '"
              << opt.baseline_path << "'\n";
    return 1;
  }
  std::cout << "baseline OK: " << cells.size() << " cell(s) within tolerance "
            << opt.tolerance << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);

  std::vector<Cell> cells;
  int failed = 0;
  std::cout << "bench_scale: " << opt.cores.size() << " core count(s) x "
            << opt.patterns.size() << " pattern(s) x " << opt.fabrics.size()
            << " fabric(s), scale=" << opt.scale
            << ", scheduler="
            << (opt.scheduler == mot3d::cluster::SchedulerMode::kEventDriven
                    ? "event"
                    : "dense")
            << "\n";
  std::cout << "  app                fabric    cores   banks        cycles  "
            << "  core_ticks     wall_s      cycles/s\n";
  for (const std::string& app : opt.patterns) {
    for (const std::size_t cores : opt.cores) {
      for (const mot3d::cluster::Fabric fabric : opt.fabrics) {
        Cell cell = run_cell(opt, app, cores, fabric);
        if (!cell.error.empty()) {
          std::cerr << "FAILED " << cell_key(app, cores, cell.fabric) << ": "
                    << cell.error << "\n";
          ++failed;
        } else {
          std::printf("  %-18s %-8s %6zu  %6zu  %12llu  %12llu  %9.3f  %12.0f\n",
                      cell.app.c_str(), cell.fabric.c_str(), cell.cores,
                      cell.banks,
                      static_cast<unsigned long long>(cell.cycles),
                      static_cast<unsigned long long>(cell.core_ticks),
                      cell.wall_seconds, cell.cycles_per_second);
        }
        cells.push_back(std::move(cell));
      }
    }
  }
  if (failed > 0) {
    std::cerr << failed << " cell(s) failed\n";
    return 1;
  }

  const std::string doc = report_json(opt, cells);
  if (!opt.json_path.empty()) {
    std::ofstream out(opt.json_path);
    if (!out) {
      std::cerr << "error: cannot write '" << opt.json_path << "'\n";
      return 1;
    }
    out << doc << "\n";
  }

  if (!opt.baseline_path.empty()) {
    if (opt.update_baseline) {
      std::ofstream out(opt.baseline_path);
      if (!out) {
        std::cerr << "error: cannot write '" << opt.baseline_path << "'\n";
        return 1;
      }
      out << doc << "\n";
      std::cout << "baseline updated: " << opt.baseline_path << "\n";
      return 0;
    }
    return compare_against_baseline(opt, cells);
  }
  return 0;
}
