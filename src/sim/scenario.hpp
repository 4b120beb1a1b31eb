// Declarative scenario engine: experiments are data, not code.
//
// A ScenarioSpec describes one paper experiment as a grid over the
// evaluation axes (SPLASH-2 app x fabric x power state x DRAM preset) plus
// run knobs (scale, seed, scheduler).  The engine expands the grid into
// independent cluster simulations, executes them across the SweepRunner
// thread pool, and serialises the modeled metrics of every run to one
// canonical JSON document — byte-identical for a given (spec, options)
// regardless of thread count or scheduler mode, which is what the golden
// regression suite (tests/golden/, tests/test_golden_figures.cpp) pins.
//
// Three kinds of scenario exist:
//  * kSweep  — a cluster-simulation grid (Figs. 6-8);
//  * kTiming — analytic geometry/timing tables (Fig. 5, Table I), no
//              simulation, still golden-checked;
//  * kCustom — self-driving bodies (the ablations) that are listed and
//              runnable but produce no golden baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/mot_timing.hpp"
#include "sim/perf_report.hpp"
#include "sim/sweep_runner.hpp"

namespace mot3d::sim {

struct ScenarioOutcome;
struct ScenarioSpec;

/// DRAM backend axis: the constant-latency controller the paper evaluates
/// (kConstant, the default — every legacy scenario), the 3-D stacked
/// vault-parallel backend (kStacked), and the same with thermal vault
/// remapping engaged (kStackedRemap).
enum class DramBackendMode : std::uint8_t {
  kConstant,
  kStacked,
  kStackedRemap,
};

/// Run-time knobs resolved from the command line (or golden defaults).
struct ScenarioOptions {
  double scale = 0.5;
  std::uint64_t seed = 42;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  cluster::SchedulerMode scheduler = cluster::SchedulerMode::kEventDriven;
  std::string json_path;  ///< perf + metrics report destination ("" = none)
  /// Per-run wall-clock budget in seconds (0 = none).  Engages the cluster
  /// watchdog: a run over budget dies with a WatchdogError that the sweep
  /// records as that run's error instead of wedging the whole process.
  double timeout_seconds = 0.0;
  /// Chrome-trace-event JSON destination ("" = tracing off).  One process
  /// per grid run, one thread track per core / L2 bank / fabric / governor,
  /// timestamps in simulated cycles.  Openable in Perfetto.
  std::string trace_path;
  /// Interval-metrics time series destination ("" = off).  JSON by
  /// default; a path ending in ".csv" selects long-format CSV rows.
  std::string metrics_path;
  /// Attribute host wall seconds to simulator phases (`bench --json`).
  bool phase_timing = false;
};

/// One experiment, described declaratively.
struct ScenarioSpec {
  enum class Kind { kSweep, kTiming, kCustom };

  std::string name;         ///< registry key, e.g. "fig6b_exec_time"
  std::string figure;       ///< paper anchor, e.g. "Fig. 6(b)"
  std::string description;  ///< one line for `mot3d_experiments --list`
  Kind kind = Kind::kSweep;

  // -- sweep grid (kSweep; expansion order: apps > fabrics > states > dram
  //    > thermal envelopes > fault envelopes > dram backends) --
  std::vector<std::string> apps;
  std::vector<cluster::Fabric> fabrics;
  std::vector<core::PowerState> power_states;
  std::vector<mem::DramPreset> dram_presets;
  /// Thermal axis: ambient x ceiling cells (src/thermal/).  Empty means
  /// one implicit disabled cell — non-thermal sweeps are unaffected.
  std::vector<thermal::ThermalEnvelope> thermal_envelopes;
  /// Fault axis: rate x seed cells (src/fault/).  Empty means one implicit
  /// disabled cell — fault-free sweeps keep byte-identical goldens.
  std::vector<fault::FaultEnvelope> fault_envelopes;
  /// DRAM backend axis (src/dram3d/).  Empty means one implicit kConstant
  /// cell — every legacy scenario keeps its exact grid and field set.
  std::vector<DramBackendMode> dram_backends;

  // -- run knobs --
  double default_scale = 0.5;  ///< CLI default (--scale overrides)
  double golden_scale = 0.02;  ///< reduced scale pinned by the golden suite
  std::uint64_t seed = 42;

  /// Timing and sweep scenarios pin a baseline under tests/golden/.
  bool has_golden = true;

  /// Figure-specific tables / paper-claim comparison.  Null => generic table.
  std::function<void(const ScenarioOutcome&, std::ostream&)> present;

  /// kCustom only: the whole body (returns the process exit code).
  std::function<int(const ScenarioSpec&, const ScenarioOptions&, std::ostream&)>
      run_custom;

  std::size_t grid_size() const;
};

/// One cell of an expanded sweep grid.
struct ScenarioRun {
  std::string app;
  cluster::Fabric fabric = cluster::Fabric::kMot;
  core::PowerState state = core::PowerState::full();
  mem::DramPreset dram = mem::DramPreset::kDdr3_200ns;
  thermal::ThermalEnvelope thermal;  ///< disabled unless the spec has an axis
  fault::FaultEnvelope fault;        ///< disabled unless the spec has an axis
  DramBackendMode dram_backend = DramBackendMode::kConstant;
};

/// Analytic payload of a kTiming scenario, one row per power state.
struct TimingRow {
  std::string state;
  std::size_t cores = 0;
  std::size_t banks = 0;
  double bank_field_mm = 0.0;
  double core_field_mm = 0.0;
  double longest_link_mm = 0.0;
  double request_path_mm = 0.0;
  core::MotStateTiming timing;
  std::size_t powered_repeaters = 0;
  std::size_t powered_switches = 0;
};

/// CACTI-lite L2 bank summary (kTiming payload, Table I).
struct SramSummary {
  double access_ns = 0.0;
  double read_energy_pj = 0.0;
  double write_energy_pj = 0.0;
  double leakage_mw = 0.0;
  double area_mm2 = 0.0;
};

/// Everything a presenter / serialiser needs from one scenario execution.
struct ScenarioOutcome {
  const ScenarioSpec* spec = nullptr;
  ScenarioOptions options;

  // kSweep: runs[i] produced results[i] (grid order).
  std::vector<ScenarioRun> runs;
  std::vector<cluster::SimResult> results;
  /// errors[i] is the exception message of the run that died (watchdog
  /// timeout, wedge, config error); "" for runs that completed.  Sized
  /// like `runs` for sweeps, empty for timing scenarios.
  std::vector<std::string> errors;
  std::size_t skipped_invalid = 0;  ///< gated states on packet-switched fabrics

  bool run_ok(std::size_t i) const { return i >= errors.size() || errors[i].empty(); }
  std::size_t error_count() const;

  // kTiming payload.
  std::vector<TimingRow> timing_rows;
  SramSummary sram;

  PerfTelemetry telemetry;

  /// Result lookup by axes; throws std::out_of_range when absent.
  const cluster::SimResult& result(const std::string& app, cluster::Fabric fabric,
                                   const std::string& state_name,
                                   mem::DramPreset dram) const;
};

/// Expand the spec's grid in canonical order, dropping invalid combinations
/// (the packet-switched baselines only run ungated); `skipped` (optional)
/// reports how many cells were dropped.
std::vector<ScenarioRun> expand_grid(const ScenarioSpec& spec,
                                     std::size_t* skipped = nullptr);

/// The one reason expand_grid drops cells — single source of truth for
/// every surface (run note, describe) that explains a nonzero skip count.
const char* invalid_cell_reason();

/// Execute a kSweep or kTiming scenario (kCustom scenarios run through
/// run_and_present, which dispatches to their body).
ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioOptions& opt);

/// The ClusterConfig for one grid cell under the given options — the single
/// translation the scenario engine and the sweep service both run jobs
/// through, so a memoized run is configured exactly like a swept one.
cluster::ClusterConfig make_run_config(const ScenarioRun& run,
                                       const ScenarioOptions& opt);

/// Canonical modeled-metrics JSON for ONE run — one element of the "runs"
/// array in scenario_metrics_json, and the byte-stable payload the sweep
/// service caches (a cache hit must be bit-identical to recomputation).
std::string run_metrics_json(const ScenarioRun& run, const cluster::SimResult& r);

/// Canonical modeled-metrics JSON — the golden-baseline format.  Contains
/// only deterministic modeled quantities (no wall-clock telemetry); equal
/// for kEventDriven and kDenseTick by the scheduler-equivalence contract.
std::string scenario_metrics_json(const ScenarioOutcome& outcome);

/// Full --json report: perf telemetry + options + the metrics document.
bool write_scenario_report(const std::string& path, const ScenarioOutcome& outcome);

/// Run a scenario of any kind, print its tables (spec.present or a generic
/// table), emit the [perf] line and the --json report.  Returns an exit code.
int run_and_present(const ScenarioSpec& spec, const ScenarioOptions& opt,
                    std::ostream& os);

/// Golden-baseline options for a spec: golden_scale, the spec's seed, the
/// default scheduler.  The golden suite runs these under both schedulers.
ScenarioOptions golden_options(const ScenarioSpec& spec);

/// The ad-hoc sweep behind `grid`, `bench` and the sweep service's axis
/// requests, built from axis names.  An empty list selects that axis's
/// default: the eight SPLASH-2 programs, the MoT, Full, 200 ns DDR3, the
/// constant-latency backend.  Throws std::invalid_argument on the first
/// unknown value.  `apps` is taken by value: it becomes the spec's axis.
ScenarioSpec adhoc_grid(std::vector<std::string> apps,
                        const std::vector<std::string>& fabrics,
                        const std::vector<std::string>& states,
                        const std::vector<std::string>& dram,
                        const std::vector<std::string>& dram_backends);

// -- axis parsing/naming helpers (shared by the CLI and the registry) --------

/// Short stable keys for the CLI: "mot", "mesh3d", "busmesh", "bustree".
const char* fabric_key(cluster::Fabric f);
cluster::Fabric fabric_by_key(const std::string& key);  ///< throws on unknown

/// "Full" / "PC16-MB8" / ... plus generic "PC<cores>-MB<banks>" (powers of
/// two, on a 16-core 32-bank cluster).  Throws std::invalid_argument.
core::PowerState power_state_by_name(const std::string& name);

/// "200"/"ddr3", "63"/"wideio", "42"/"weis3d".  Throws on unknown.
mem::DramPreset dram_preset_by_key(const std::string& key);

/// Short stable keys for the backend axis: "constant", "stacked",
/// "stacked_remap".
const char* dram_backend_key(DramBackendMode m);
DramBackendMode dram_backend_by_key(const std::string& key);  ///< throws

}  // namespace mot3d::sim
