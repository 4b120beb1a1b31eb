// One benchmark pass, in a fresh process, against the mot3d library.
//
//   perfbench_driver --workload=<fig6_fabrics|mot_stack|service_replay>
//                    --seed=<n> --cache-dir=<dir> [--traced]
//                    [--trace-out=<file>]
//
// Prints one JSON line of measurements; perfbench/run.py aggregates
// several passes into the benchmark's metrics.  The pass only times
// calls into public library functions:
//
//  * sweeps: make_run_config, the Cluster constructor, Cluster::run and
//    run_metrics_json per cell, single-threaded, with the modelled L2
//    starting empty and L1I pre-warmed (the library defaults) and no
//    untimed warm-up: a CLI user pays first-touch costs on every run;
//  * every workload then serves cells through the sweep service
//    (service_loop in batch mode, one closed-loop client, threads=1),
//    classifying each request by the cache_hit it got.
//
// Every time reported is scaled to a reference host speed: a SpeedProbe
// sample runs (outside every timed unit) between two sweep cells and
// after every kProbeEveryS of service requests, and each unit is scaled
// by the samples around it.  "raw_wall_s" and "probe_us" keep the
// unscaled side.
//
// --traced adds the per-layer view: spans around each timed call (kept
// in memory, written at exit as Chrome-trace JSON), ObsConfig::phase_timing
// on the sweep cells, and standalone probes (ThermalModel::advance,
// parse_service_request, job_hash, run_batch, cache_stats) that run after
// the timed part, so they never count toward its wall time.
//
// Checks: no job error, protocol error or corrupt cache entry, and every
// served payload byte-equal to the payload first computed for its spec
// (on the sweeps also to the direct run's canonical JSON).  Failed checks
// go to the pass's "errors" list; a pass that cannot run exits non-zero.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_lib.hpp"
#include "cluster/cluster.hpp"
#include "common/sha256.hpp"
#include "sim/perf_report.hpp"
#include "sim/scenario.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/sweep_service.hpp"
#include "thermal/thermal_model.hpp"

namespace fs = std::filesystem;
using namespace mot3d;
using perfbench::Clock;
using perfbench::JobLine;
using perfbench::ScaledTimer;
using perfbench::SpanLog;
using perfbench::SpeedProbe;
using perfbench::seconds;
using sim::JsonObject;

namespace {

/// Requests in one service_replay pass (about 1.5 s of replay on one core).
constexpr std::size_t kReplayRequests = 10'000;
/// After a sweep: seeds of its representative cell requested cold, then
/// warm re-requests of them.
constexpr std::size_t kServeSeeds = 8;
constexpr std::size_t kSweepHits = 10'000;
/// Standalone probes of the traced run.
constexpr std::size_t kHitProbes = 200;
constexpr std::size_t kMissProbes = 10;
constexpr std::size_t kScanProbes = 10;
/// Raw seconds of service requests between two host-speed probe samples
/// (sweep cells get one sample between every two cells).
constexpr double kProbeEveryS = 10e-3;

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  std::string cache_dir;
  bool traced = false;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      const std::size_t n = std::strlen(flag);
      return arg.compare(0, n, flag) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      a.workload = v;
    } else if (const char* v = value("--seed=")) {
      a.seed = std::stoull(v);
      have_seed = true;
    } else if (const char* v = value("--cache-dir=")) {
      a.cache_dir = v;
    } else if (const char* v = value("--trace-out=")) {
      a.trace_out = v;
    } else if (arg == "--traced") {
      a.traced = true;
    } else {
      throw std::invalid_argument("unknown argument '" + arg + "'");
    }
  }
  if (a.workload.empty() || !have_seed || a.cache_dir.empty()) {
    throw std::invalid_argument("need --workload=, --seed= and --cache-dir=");
  }
  return a;
}

/// Peak resident set of this process image.  VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across exec, so it would include
/// the launching process.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Where a pass's request probe keeps its file: beside the cache
/// directory (inside it, evict_over_cap would count it), whose parent
/// this creates.
std::string probe_file(const fs::path& cache_dir) {
  if (cache_dir.has_parent_path()) fs::create_directories(cache_dir.parent_path());
  return cache_dir.string() + ".probe";
}

/// Host-speed scale for work timed outside the bracketed units (the
/// traced run's standalone probes): nominal over the pass's median sample.
double pass_scale(const SpeedProbe& probe) {
  return probe.nominal() / median(probe.samples());
}

std::string json_list(const std::vector<double>& v) {
  sim::JsonArray a;
  for (double x : v) a.push_raw(sim::json_number(x));
  return a.str();
}

/// Errors and attempt counts of one pass.
struct Checks {
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

/// The cache-hit == recompute oracle: every payload served for a spec
/// must be byte-equal to the first payload computed for it.
class PayloadOracle {
 public:
  /// Returns "" when `job` agrees with every earlier payload of its spec.
  std::string check(const JobLine& job) {
    auto [it, fresh] = by_hash_.emplace(job.spec_hash, job.payload);
    if (fresh && job.cache_hit) {
      return "cache hit for spec " + job.spec_hash + " that was never computed";
    }
    if (!fresh && it->second != job.payload) {
      return std::string(job.cache_hit ? "cache hit" : "recomputation") +
             " for spec " + job.spec_hash + " differs from its first payload";
    }
    return "";
  }

 private:
  std::map<std::string, std::string> by_hash_;
};

struct ServeStats {
  std::vector<double> hit_us;   ///< scaled, per cache hit
  std::vector<double> miss_ms;  ///< scaled, per miss
  std::uint64_t cycles = 0;     ///< simulated cycles of every result served
  double wall_s = 0.0;          ///< scaled service_loop time of every request
  double raw_wall_s = 0.0;      ///< the same, unscaled
};

/// One closed-loop client: each line is its own service_loop batch, the
/// next sent only after the previous response is complete.  Between
/// requests it samples the host-speed probe after every kProbeEveryS of
/// request time (untimed) and scales each request's time by the samples
/// around it.  `jobs`, when given, receives every parsed job line.
ServeStats serve(sim::SweepService& svc, const std::vector<std::string>& lines,
                 const char* phase, PayloadOracle& oracle, Checks& checks,
                 SpanLog& spans, SpeedProbe& probe,
                 std::vector<JobLine>* jobs = nullptr) {
  enum Kind : char { kFailed, kHit, kMiss };
  ServeStats st;
  std::istringstream in;
  std::ostringstream out;
  std::vector<std::pair<Clock::time_point, Clock::time_point>> times;
  times.reserve(spans.enabled() ? lines.size() : 0);
  std::vector<Kind> kinds;
  kinds.reserve(lines.size());
  ScaledTimer timer(probe, kProbeEveryS);
  const Clock::time_point begin = Clock::now();
  for (const std::string& line : lines) {
    in.clear();
    in.str(line);
    out.str("");
    const Clock::time_point t0 = Clock::now();
    const int rc = sim::service_loop(in, out, svc, sim::ServiceLoopMode::kBatch);
    const Clock::time_point t1 = Clock::now();
    if (spans.enabled()) times.emplace_back(t0, t1);
    st.raw_wall_s += seconds(t0, t1);
    ++checks.attempted;
    JobLine job;
    if (!perfbench::parse_job_line(out.str(), &job)) {
      checks.fail("no job line for request " + line);
    } else if (rc != 0 || !job.ok) {
      checks.fail("request " + line + " failed: " + job.error);
    }
    if (jobs != nullptr) jobs->push_back(job);
    kinds.push_back(!job.ok ? kFailed : job.cache_hit ? kHit : kMiss);
    // The probe runs after the request's checks, outside its timing.
    timer.add(seconds(t0, t1));
    if (!job.ok) continue;
    if (const std::string e = oracle.check(job); !e.empty()) checks.fail(e);
    st.cycles += perfbench::payload_u64(job.payload, "cycles");
  }
  const std::vector<double>& scaled = timer.finish();
  const Clock::time_point end = Clock::now();
  for (std::size_t i = 0; i < scaled.size(); ++i) {
    st.wall_s += scaled[i];
    if (kinds[i] == kHit) st.hit_us.push_back(scaled[i] * 1e6);
    if (kinds[i] == kMiss) st.miss_ms.push_back(scaled[i] * 1e3);
  }
  const int root = spans.add(phase, 0, -1, begin, end);
  for (std::size_t i = 0; i < times.size(); ++i) {
    spans.add("service_loop", i, root, times[i].first, times[i].second);
  }
  return st;
}

void check_counters(const sim::SweepService& svc, Checks& checks) {
  const obs::ServiceSnapshot s = svc.counters().snapshot();
  if (s.corrupt_entries > 0) checks.fail("corrupt cache entries detected");
  if (s.job_errors > 0) checks.fail("service reported job errors");
  if (s.protocol_errors > 0) checks.fail("service reported protocol errors");
}

/// Standalone per-stage probes (traced runs only, after the timed part):
/// the three calls service_loop makes per request, timed one by one, a
/// standalone recompute of each miss, and the directory scan that
/// evict_over_cap repeats after every store.  Medians are scaled by `k`,
/// the pass's host-speed scale.
JsonObject probe_service(sim::SweepService& svc,
                         const std::vector<std::string>& lines, Checks& checks,
                         SpanLog& spans, double k) {
  std::vector<double> parse_us, hash_us, hit_us, miss_ms, compute_ms, scan_ms;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    const sim::ServiceRequest req = sim::parse_service_request(lines[i]);
    const Clock::time_point t1 = Clock::now();
    const std::string hash = sim::job_hash(req.jobs.at(0));
    const Clock::time_point t2 = Clock::now();
    const std::vector<sim::JobOutcome> out = svc.run_batch(req.jobs);
    const Clock::time_point t3 = Clock::now();
    const int root = spans.add("probe", i, -1, t0, t3);
    spans.add("parse_service_request", i, root, t0, t1);
    spans.add("job_hash", i, root, t1, t2);
    spans.add("run_batch", i, root, t2, t3);
    parse_us.push_back(seconds(t0, t1) * 1e6);
    hash_us.push_back(seconds(t1, t2) * 1e6);
    if (!out.at(0).ok() || out[0].spec_hash != hash) {
      checks.fail("probe request " + lines[i] + " failed: " + out[0].error);
      continue;
    }
    if (out[0].cache_hit) {
      hit_us.push_back(seconds(t2, t3) * 1e6);
      continue;
    }
    miss_ms.push_back(seconds(t2, t3) * 1e3);
    const sim::SweepJob& job = req.jobs[0];
    sim::ScenarioOptions opt;
    opt.scale = job.scale;
    opt.seed = job.seed;
    opt.threads = 1;
    const Clock::time_point c0 = Clock::now();
    cluster::Cluster(sim::make_run_config(job.run, opt)).run();
    const Clock::time_point c1 = Clock::now();
    spans.add("compute", i, root, c0, c1);
    compute_ms.push_back(seconds(c0, c1) * 1e3);
  }
  for (std::size_t k = 0; k < kScanProbes; ++k) {
    const Clock::time_point t0 = Clock::now();
    (void)svc.cache_stats();
    const Clock::time_point t1 = Clock::now();
    spans.add("cache_stats", k, -1, t0, t1);
    scan_ms.push_back(seconds(t0, t1) * 1e3);
  }
  JsonObject o;
  o.set("parse_us", k * median(parse_us))
      .set("hash_us", k * median(hash_us))
      .set("hit_batch_us", k * median(hit_us))
      .set("miss_batch_ms", k * median(miss_ms))
      .set("compute_ms", k * median(compute_ms))
      .set("dir_scan_ms", k * median(scan_ms));
  return o;
}

JsonObject service_counts(const obs::ServiceSnapshot& before,
                          const obs::ServiceSnapshot& after) {
  JsonObject o;
  o.set("service.hits", after.hits - before.hits)
      .set("service.misses", after.misses - before.misses)
      .set("service.evictions", after.evictions - before.evictions);
  return o;
}

// ---- sweep workloads -------------------------------------------------------

/// A thermal cell kept for the standalone ThermalModel probe.
struct ThermalCell {
  cluster::ClusterConfig cfg;
  double avg_power_w = 0.0;
  std::uint64_t samples = 0;
};

/// Drive a standalone ThermalModel built from the cell's config for the
/// cell's sample count at its average power: the first advance carries
/// the warm-start steady-state solve, the rest are plain intervals.
void probe_thermal(const ThermalCell& cell, std::vector<double>& warm_ms,
                   std::vector<double>& advance_us, SpanLog& spans,
                   std::uint64_t id) {
  thermal::ThermalModel model(cell.cfg.thermal, cell.cfg.floorplan, cell.cfg.tech);
  thermal::ThermalSources src = model.make_sources();
  const thermal::ThermalFloorplan& flp = model.floorplan();
  double leak_w = 0.0;
  for (std::size_t c = 0; c < cell.cfg.total_cores; ++c) {
    src.core_leak_ref_w[flp.core_tile(c)] += cell.cfg.core_power.leakage_mw * 1e-3;
    leak_w += cell.cfg.core_power.leakage_mw * 1e-3;
  }
  for (std::size_t b = 0; b < cell.cfg.total_banks; ++b) {
    src.l2_leak_ref_w[flp.bank_tile(b)] += cell.cfg.l2.leakage_mw_per_bank * 1e-3;
    leak_w += cell.cfg.l2.leakage_mw_per_bank * 1e-3;
  }
  const double dyn_w = std::max(0.0, cell.avg_power_w - leak_w) /
                       static_cast<double>(cell.cfg.total_cores);
  for (std::size_t c = 0; c < cell.cfg.total_cores; ++c) {
    src.dynamic_w[flp.core_tile(c)] += dyn_w;
  }
  const Cycle interval = cell.cfg.thermal.sample_interval_cycles;
  const Clock::time_point t0 = Clock::now();
  model.advance(src, interval);
  const Clock::time_point t1 = Clock::now();
  for (std::uint64_t k = 1; k < cell.samples; ++k) model.advance(src, interval);
  const Clock::time_point t2 = Clock::now();
  const int root = spans.add("thermal_probe", id, -1, t0, t2);
  spans.add("ThermalModel::advance (warm start)", id, root, t0, t1);
  spans.add("ThermalModel::advance", id, root, t1, t2);
  warm_ms.push_back(seconds(t0, t1) * 1e3);
  if (cell.samples > 1) {
    advance_us.push_back(seconds(t1, t2) * 1e6 /
                         static_cast<double>(cell.samples - 1));
  }
}

/// The cell a sweep workload re-requests through the sweep service: one
/// representative cell, so its misses are alike and their median steady
/// (a packet-fabric cell on fig6_fabrics, a power-state cell on mot_stack).
std::size_t serve_cell(const std::string& workload,
                       const std::vector<perfbench::SweepCell>& cells) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::ScenarioRun& run = cells[i].run;
    const bool pick =
        workload == "fig6_fabrics"
            ? run.app == "volrend" && run.fabric == cluster::Fabric::kHybridBusTree
            : cells[i].source == "fig7a_edp_200ns" && run.app == "fft" &&
                  run.state.name() == "PC16-MB8";
    if (pick) return i;
  }
  throw std::logic_error("no cell to serve for " + workload);
}

perfbench::ServiceCell service_cell(const sim::ScenarioRun& run,
                                    std::uint64_t seed) {
  return perfbench::ServiceCell{
      run.app, run.state.name(),
      std::to_string(static_cast<int>(mem::dram_latency_ns(run.dram))), seed,
      sim::fabric_key(run.fabric)};
}

JsonObject sweep_pass(const Args& a, Checks& checks, SpanLog& spans) {
  const std::vector<perfbench::SweepCell> cells = perfbench::sweep_cells(a.workload);
  sim::ScenarioOptions opt;
  opt.scale = perfbench::sweep_scale(a.workload);
  opt.seed = a.seed;
  opt.threads = 1;
  opt.phase_timing = a.traced;

  double setup_s = 0.0, build_s = 0.0, run_s = 0.0, serialise_s = 0.0;
  std::uint64_t cycles = 0, instructions = 0;
  std::map<std::string, double> run_by;  // fabric key or source sweep -> s
  std::map<std::string, std::uint64_t> counts;
  obs::PhaseSeconds phase;
  std::vector<std::string> payloads(cells.size());
  std::vector<ThermalCell> thermal_cells;
  std::vector<std::pair<std::size_t, std::array<Clock::time_point, 5>>> cell_times;
  // The Fig. 6(b) presenter's input (fig6_fabrics only): its table holds
  // the paper's average MoT execution-time reductions.
  const sim::ScenarioSpec* fig6b = a.workload == "fig6_fabrics"
                                       ? sim::find_scenario("fig6b_exec_time")
                                       : nullptr;
  sim::ScenarioOutcome fig6_outcome;

  // Host-speed probe samples bracket every cell (untimed); each cell's
  // times are scaled by the mean of the samples before and after it.
  SpeedProbe probe;
  double before_cell = probe.sample();
  double wall_s = 0.0, raw_wall_s = 0.0;
  const Clock::time_point first = Clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const sim::ScenarioRun& run = cells[i].run;
    ++checks.attempted;
    const Clock::time_point t0 = Clock::now();
    try {
      const cluster::ClusterConfig cfg = sim::make_run_config(run, opt);
      const Clock::time_point t1 = Clock::now();
      cluster::Cluster cluster(cfg);
      const Clock::time_point t2 = Clock::now();
      const cluster::SimResult r = cluster.run();
      const Clock::time_point t3 = Clock::now();
      payloads[i] = sim::run_metrics_json(run, r);
      const Clock::time_point t4 = Clock::now();
      const double after_cell = probe.sample();
      const double k = probe.scale(before_cell, after_cell);
      before_cell = after_cell;

      if (spans.enabled()) cell_times.push_back({i, {t0, t1, t2, t3, t4}});

      wall_s += k * seconds(t0, t4);
      raw_wall_s += seconds(t0, t4);
      setup_s += k * seconds(t0, t2);
      build_s += k * seconds(t1, t2);
      run_s += k * seconds(t2, t3);
      serialise_s += k * seconds(t3, t4);
      run_by[sim::fabric_key(run.fabric)] += k * seconds(t2, t3);
      run_by[cells[i].source] += k * seconds(t2, t3);

      cycles += r.cycles;
      instructions += r.instructions;
      const bool packet = run.fabric != cluster::Fabric::kMot;
      counts["noc.messages"] +=
          packet ? r.interconnect.requests_delivered +
                       r.interconnect.responses_delivered
                 : 0;
      counts["mot.arb_wait_cycles"] +=
          packet ? 0 : r.interconnect.arbitration_wait_cycles;
      for (const cpu::CoreStats& c : r.cores) {
        counts["cpu.stall_cycles"] += c.stall_cycles;
      }
      counts["l2.accesses"] += r.l2.accesses();
      counts["l2.misses"] += r.l2.misses;
      counts["l2.bank_conflict_cycles"] += r.l2.bank_conflict_cycles;
      counts["coh.invalidations"] += r.coherence.invalidations;
      counts["coh.dir_accesses"] += r.coherence.dir_accesses;
      counts["thermal.samples"] += r.thermal.samples;
      counts["dram3d.row_hits"] += r.dram3d.row_hits;
      counts["dram3d.row_misses"] += r.dram3d.row_misses;
      counts["dram3d.refreshes"] += r.dram3d.refreshes;
      counts["dram3d.remaps"] += r.dram3d.remaps;
      counts["fault.injected"] += r.fault.injected;
      if (r.phase_seconds.valid) {
        phase.workload += k * r.phase_seconds.workload;
        phase.coherence += k * r.phase_seconds.coherence;
        phase.fabric += k * r.phase_seconds.fabric;
        phase.l2 += k * r.phase_seconds.l2;
        phase.dram += k * r.phase_seconds.dram;
      }
      if (a.traced && run.thermal.enabled) {
        thermal_cells.push_back(ThermalCell{cfg, r.avg_power_w, r.thermal.samples});
      }
      if (fig6b != nullptr) {
        // The presenter reads only the modelled cycles of each cell.
        cluster::SimResult cycles_only;
        cycles_only.cycles = r.cycles;
        fig6_outcome.runs.push_back(run);
        fig6_outcome.results.push_back(std::move(cycles_only));
      }
    } catch (const std::exception& e) {
      // Errors are failures; a modelled fault_outcome is output.
      checks.fail(cells[i].source + " cell " + run.app + "/" +
                  sim::fabric_key(run.fabric) + "/" + run.state.name() +
                  " failed: " + e.what());
      const double failed_s = seconds(t0, Clock::now());
      const double after_cell = probe.sample();
      wall_s += probe.scale(before_cell, after_cell) * failed_s;
      raw_wall_s += failed_s;
      before_cell = after_cell;
    }
  }
  const int sweep = spans.add("sweep", 0, -1, first, Clock::now());
  for (const auto& [i, t] : cell_times) {
    const int job = spans.add("job", i, sweep, t[0], t[4]);
    spans.add("make_run_config", i, job, t[0], t[1]);
    spans.add("Cluster", i, job, t[1], t[2]);
    spans.add("Cluster::run", i, job, t[2], t[3]);
    spans.add("run_metrics_json", i, job, t[3], t[4]);
  }

  std::string joined;
  for (const std::string& p : payloads) joined += p + "\n";
  std::ostringstream report;
  if (fig6b != nullptr && checks.errors.empty()) {
    fig6_outcome.spec = fig6b;
    fig6_outcome.options = opt;
    fig6b->present(fig6_outcome, report);
  }

  // Serve view: the workload's representative cell under kServeSeeds
  // seeds, cold (misses; the run seed's payload must equal the direct
  // run's), then warm re-requests of them (hits).
  const fs::path dir(a.cache_dir);
  fs::remove_all(dir);
  sim::SweepService svc(sim::ServiceConfig{dir.string(), 1,
                                           cluster::SchedulerMode::kEventDriven, 0});
  SpeedProbe service_probe(probe_file(dir));
  const std::size_t served = serve_cell(a.workload, cells);
  auto serve_line = [&](std::uint64_t id, std::uint64_t seed) {
    return perfbench::request_line(id, service_cell(cells[served].run, seed),
                                   opt.scale);
  };
  std::vector<std::string> cold;
  for (std::size_t k = 0; k < kServeSeeds; ++k) {
    cold.push_back(serve_line(k, a.seed + k));
  }
  std::vector<std::string> warm;
  for (std::size_t k = 0; k < kSweepHits; ++k) {
    warm.push_back(cold[k % cold.size()]);
  }

  PayloadOracle oracle;
  const obs::ServiceSnapshot before = svc.counters().snapshot();
  std::vector<JobLine> cold_jobs;
  const ServeStats cold_st =
      serve(svc, cold, "serve_cold", oracle, checks, spans, service_probe,
            &cold_jobs);
  if (!cold_st.hit_us.empty()) checks.fail("cold request was a cache hit");
  if (cold_jobs.at(0).ok && cold_jobs[0].payload != payloads[served]) {
    checks.fail("service payload for " + cold[0] + " differs from the direct run");
  }
  const ServeStats warm_st =
      serve(svc, warm, "serve_warm", oracle, checks, spans, service_probe);
  const obs::ServiceSnapshot after = svc.counters().snapshot();
  check_counters(svc, checks);

  JsonObject out;
  out.set("cells", static_cast<std::uint64_t>(cells.size()))
      .set("setup_s", setup_s)
      .set("wall_s", wall_s)
      .set("raw_wall_s", raw_wall_s)
      .set("build_s", build_s)
      .set("run_s", run_s)
      .set("serialise_s", serialise_s)
      .set("cycles", cycles)
      .set("instructions", instructions)
      .set("digest", sha256_hex(joined))
      .set("report", report.str())
      .set_raw("miss_ms", json_list(cold_st.miss_ms))
      .set_raw("hit_us", json_list(warm_st.hit_us));
  JsonObject by;
  for (const auto& [k, v] : run_by) by.set(k, v);
  out.set_raw("run_by", by.str());
  JsonObject cnt;
  for (const auto& [k, v] : counts) cnt.set(k, v);
  cnt.merge(service_counts(before, after));
  out.set_raw("counts", cnt.str());

  if (a.traced) {
    JsonObject ph;
    ph.set("workload", phase.workload)
        .set("coherence", phase.coherence)
        .set("fabric", phase.fabric)
        .set("l2", phase.l2)
        .set("dram", phase.dram);
    out.set_raw("phase", ph.str());
    std::vector<double> warm_ms, advance_us;
    for (std::size_t k = 0; k < thermal_cells.size(); ++k) {
      probe_thermal(thermal_cells[k], warm_ms, advance_us, spans, k);
    }
    const double pass_k = pass_scale(probe);
    JsonObject th;
    th.set("warm_start_ms", pass_k * median(warm_ms))
        .set("advance_us", pass_k * median(advance_us));
    out.set_raw("thermal", th.str());
    // Probe lines: the served cell (hits), then under fresh seeds (misses).
    std::vector<std::string> probes;
    for (std::size_t k = 0; k < kHitProbes; ++k) {
      probes.push_back(cold[k % cold.size()]);
    }
    for (std::size_t k = 0; k < 2; ++k) {
      probes.push_back(serve_line(k, a.seed + kServeSeeds + k));
    }
    out.set_raw("probes", probe_service(svc, probes, checks, spans,
                                        pass_scale(service_probe))
                              .str());
    check_counters(svc, checks);
  }
  out.set("probe_us", median(probe.samples()) * 1e6);
  fs::remove_all(dir);
  return out;
}

// ---- service_replay --------------------------------------------------------

JsonObject service_pass(const Args& a, Checks& checks, SpanLog& spans) {
  const fs::path dir(a.cache_dir);
  fs::remove_all(dir);
  const std::vector<perfbench::ServiceCell> warm = perfbench::warm_set(a.seed);
  std::vector<std::string> fill_lines, touch_lines;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    fill_lines.push_back(perfbench::request_line(i, warm[i], perfbench::kServiceScale));
    touch_lines.push_back(perfbench::request_line(warm.size() + i, warm[i],
                                                  perfbench::kServiceScale));
  }
  PayloadOracle oracle;

  // Set-up: fill the cache with the warm set, cap it just above the warm
  // set's bytes, then touch every entry once in a fixed order so the LRU
  // order (file times) is the same on every run.  Its time is that of the
  // fill and touch requests, scaled like every request.
  SpeedProbe probe(probe_file(dir));
  sim::CacheStats filled;
  double setup_s = 0.0;
  {
    sim::SweepService fill(sim::ServiceConfig{
        dir.string(), 1, cluster::SchedulerMode::kEventDriven, 0});
    const ServeStats st =
        serve(fill, fill_lines, "fill", oracle, checks, spans, probe);
    if (!st.hit_us.empty()) checks.fail("fill of a fresh cache directory hit");
    check_counters(fill, checks);
    filled = fill.cache_stats();
    setup_s += st.wall_s;
  }
  if (filled.entries != warm.size()) {
    throw std::runtime_error("cache fill stored " + std::to_string(filled.entries) +
                             " entries, want " + std::to_string(warm.size()));
  }
  const std::uint64_t cap = filled.bytes + filled.bytes / (2 * filled.entries);
  sim::SweepService svc(sim::ServiceConfig{
      dir.string(), 1, cluster::SchedulerMode::kEventDriven, cap});
  const ServeStats touch =
      serve(svc, touch_lines, "touch", oracle, checks, spans, probe);
  if (!touch.miss_ms.empty()) checks.fail("warm-set touch pass missed");
  setup_s += touch.wall_s;

  const std::vector<std::string> stream =
      perfbench::replay_stream(a.seed, kReplayRequests, 2 * warm.size());
  const obs::ServiceSnapshot before = svc.counters().snapshot();
  const ServeStats st = serve(svc, stream, "replay", oracle, checks, spans, probe);
  const obs::ServiceSnapshot after = svc.counters().snapshot();
  check_counters(svc, checks);

  JsonObject out;
  out.set("requests", static_cast<std::uint64_t>(stream.size()))
      .set("setup_s", setup_s)
      .set("wall_s", st.wall_s)
      .set("raw_wall_s", st.raw_wall_s)
      .set("cycles", st.cycles)
      .set_raw("hit_us", json_list(st.hit_us))
      .set_raw("miss_ms", json_list(st.miss_ms))
      .set_raw("counts", service_counts(before, after).str());
  if (a.traced) {
    std::vector<std::string> probes;
    for (std::size_t k = 0; k < kHitProbes; ++k) {
      probes.push_back(touch_lines[k % touch_lines.size()]);
    }
    for (std::size_t k = 0; k < kMissProbes; ++k) {
      perfbench::ServiceCell cell = warm[k];
      cell.seed = a.seed + 1'000'000 + k;  // never requested by the replay
      probes.push_back(perfbench::request_line(k, cell, perfbench::kServiceScale));
    }
    out.set_raw("probes",
                probe_service(svc, probes, checks, spans, pass_scale(probe)).str());
    check_counters(svc, checks);
  }
  out.set("probe_us", median(probe.samples()) * 1e6);
  fs::remove_all(dir);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 2;
  }
  try {
    Checks checks;
    SpanLog spans(args.traced);
    JsonObject out = args.workload == "service_replay"
                         ? service_pass(args, checks, spans)
                         : sweep_pass(args, checks, spans);
    sim::JsonArray errors;
    for (const std::string& e : checks.errors) errors.push_raw(sim::json_string(e));
    JsonObject head;
    head.set("workload", args.workload)
        .set("seed", args.seed)
        .set("traced", args.traced)
        .set("attempted", checks.attempted)
        .set("failed", checks.failed)
        .set_raw("errors", errors.str())
        .set("peak_rss_mb", peak_rss_mb());
    head.merge(out);
    if (args.traced && !args.trace_out.empty()) {
      std::ofstream f(args.trace_out);
      spans.write_chrome_trace(f, args.workload + " seed " + std::to_string(args.seed));
      if (!f) throw std::runtime_error("cannot write trace '" + args.trace_out + "'");
    }
    std::cout << head.str() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
}
