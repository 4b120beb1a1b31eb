#include "sim/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <ostream>
#include <span>
#include <stdexcept>

#include "common/table.hpp"
#include "obs/trace.hpp"
#include "workload/app_profile.hpp"

namespace mot3d::sim {

namespace {

bool run_is_valid(const ScenarioRun& r) {
  // Packet-switched baselines only run the full (ungated) configuration —
  // the same invariant Cluster's constructor enforces.  Keep
  // invalid_cell_reason() below in step with any rule added here.
  if (r.fabric == cluster::Fabric::kMot) return true;
  return r.state.active_cores() == r.state.total_cores() &&
         r.state.active_banks() == r.state.total_banks();
}

/// Serialise one latency digest under `key`.  An empty digest exports as
/// an explicit JSON null, never as the all-zero digest of no samples.
void set_obs_digest(JsonObject& o, const std::string& key,
                    const obs::LatencyDigest& d) {
  if (d.empty()) {
    o.set_raw(key, "null");
    return;
  }
  o.set(key + "_count", d.count)
      .set(key + "_min", static_cast<std::uint64_t>(d.min))
      .set(key + "_max", static_cast<std::uint64_t>(d.max))
      .set(key + "_p50", static_cast<std::uint64_t>(d.p50))
      .set(key + "_p95", static_cast<std::uint64_t>(d.p95))
      .set(key + "_p99", static_cast<std::uint64_t>(d.p99));
}

JsonObject run_metrics(const ScenarioRun& run, const cluster::SimResult& r) {
  JsonObject o;
  o.set("app", run.app)
      .set("fabric", cluster::fabric_name(run.fabric))
      .set("state", run.state.name())
      .set("dram_ns", mem::dram_latency_ns(run.dram))
      .set("cycles", static_cast<std::uint64_t>(r.cycles))
      .set("instructions", r.instructions)
      .set("ipc", r.ipc())
      .set("l2_hits", r.l2.hits)
      .set("l2_misses", r.l2.misses)
      .set("l2_writebacks", r.l2.writebacks)
      .set("l2_bank_conflict_cycles", r.l2.bank_conflict_cycles)
      .set("l2_bank_hit_rate_min", r.l2_bank_hit_rate_min)
      .set("l2_bank_hit_rate_max", r.l2_bank_hit_rate_max)
      .set("l2_bank_hit_rate_spread", r.l2_bank_hit_rate_spread)
      .set("l2_resident_lines", static_cast<std::uint64_t>(r.l2_resident_lines))
      .set("l2_hit_latency_mean", r.l2_hit_latency.mean())
      .set("l2_latency_mean", r.l2_latency.mean())
      .set("l2_latency_p95", l2_latency_p95(r))
      .set("dram_reads", r.dram.reads)
      .set("dram_writes", r.dram.writes)
      .set("dram_wait_cycles", r.dram.total_wait_cycles)
      .set("icn_requests_injected", r.interconnect.requests_injected)
      .set("icn_requests_delivered", r.interconnect.requests_delivered)
      .set("icn_responses_delivered", r.interconnect.responses_delivered)
      .set("icn_arbitration_wait_cycles", r.interconnect.arbitration_wait_cycles)
      .set("l1d_miss_rate", r.l1d_miss_rate)
      .set("l1i_miss_rate", r.l1i_miss_rate)
      .set("energy_core_pj", r.energy.component_pj(power::Component::kCore))
      .set("energy_l1_pj", r.energy.component_pj(power::Component::kL1))
      .set("energy_l2_pj", r.energy.component_pj(power::Component::kL2))
      .set("energy_icn_pj", r.energy.component_pj(power::Component::kInterconnect))
      .set("energy_dram_pj", r.energy.component_pj(power::Component::kDram))
      .set("edp_energy_pj", r.energy.edp_energy_pj())
      .set("edp_pj_s", r.edp_pj_s)
      .set("avg_power_w", r.avg_power_w);
  // Thermal runs append their trajectory; non-thermal runs keep the exact
  // field set the pre-thermal golden baselines pinned.
  if (run.thermal.enabled) {
    const thermal::ThermalSummary& t = r.thermal;
    o.set("thermal_ambient_c", t.ambient_c)
        .set("thermal_ceiling_c", t.ceiling_c)
        .set("thermal_peak_c", t.peak_c)
        .set("thermal_peak_core_die_c", t.peak_layer_c.size() > 0 ? t.peak_layer_c[0] : 0.0)
        .set("thermal_peak_l2_tier_a_c", t.peak_layer_c.size() > 1 ? t.peak_layer_c[1] : 0.0)
        .set("thermal_peak_l2_tier_b_c", t.peak_layer_c.size() > 2 ? t.peak_layer_c[2] : 0.0)
        .set("thermal_final_peak_c", t.final_peak_c)
        .set("thermal_steady_peak_c", t.steady_peak_c)
        .set("thermal_samples", t.samples)
        .set("thermal_throttle_events", t.throttle_events)
        .set("thermal_bank_gate_events", t.bank_gate_events)
        .set("thermal_core_hold_events", t.core_hold_events)
        .set("thermal_throttled_cycles", t.throttled_cycles)
        .set("thermal_leakage_pj", t.leakage_pj)
        .set("thermal_leakage_ref_pj", t.leakage_ref_pj)
        .set("thermal_leakage_delta_pj", t.leakage_delta_pj());
    // Only a run whose solver hit the sweep cap carries the count, so
    // every converged run keeps the field set its golden pins.
    if (t.unconverged_solves > 0) {
      o.set("thermal_unconverged_solves", t.unconverged_solves);
    }
  }
  // Stacked-DRAM fields appear only for stacked-backend runs — every
  // constant-backend run (all legacy goldens) keeps its exact field set.
  if (r.dram3d.enabled) {
    o.set("dram_backend", dram_backend_key(run.dram_backend))
        .set("dram3d_vaults", static_cast<std::uint64_t>(r.dram3d.vaults))
        .set("dram3d_alive_vaults",
             static_cast<std::uint64_t>(r.dram3d.alive_vaults))
        .set("dram3d_row_hits", r.dram3d.row_hits)
        .set("dram3d_row_misses", r.dram3d.row_misses)
        .set("dram3d_refreshes", r.dram3d.refreshes)
        .set("dram3d_remaps", r.dram3d.remaps)
        .set("dram3d_vault_faults", r.dram3d.vault_faults)
        .set("dram3d_remap_enabled", r.dram3d.remap_enabled)
        .set("dram3d_peak_vault_c", r.dram3d.peak_vault_c)
        .set("dram3d_peak_vault",
             static_cast<std::uint64_t>(r.dram3d.peak_vault));
  }
  // Coherence counters appear only for sharing workloads, so every
  // non-coherent scenario keeps its exact field set.
  if (r.coherence_enabled) {
    const coherence::CoherenceStats& c = r.coherence;
    o.set("coh_invalidations", c.invalidations)
        .set("coh_inv_acks", c.inv_acks)
        .set("coh_data_forwards", c.data_forwards)
        .set("coh_upgrades", c.upgrades)
        .set("coh_sharing_misses", c.sharing_misses)
        .set("coh_dir_accesses", c.dir_accesses)
        .set("coh_dir_entries", static_cast<std::uint64_t>(r.coh_dir_entries))
        .set("coh_dir_peak_entries", c.dir_peak_entries)
        .set("coh_dir_migrations", c.dir_migrations);
  }
  // Fault counters appear only for fault-injected runs — fault-free
  // scenarios (every legacy golden) keep their exact field set.
  if (run.fault.enabled) {
    const fault::FaultSummary& f = r.fault;
    o.set("fault_outcome", f.outcome)
        .set("fault_injected", f.injected)
        .set("fault_recovered", f.recovered)
        .set("fault_unrecoverable", f.unrecoverable)
        .set("fault_bank_gate_events", f.bank_gate_events)
        .set("fault_degraded_cycles", f.degraded_cycles)
        .set("fault_repair_pj", f.repair_energy_pj);
    if (!f.fail_reason.empty()) o.set("fault_fail_reason", f.fail_reason);
  }
  // Latency digests appear only when observability ran — every obs-off run
  // (all goldens) keeps its exact field set.
  if (r.obs.enabled) {
    set_obs_digest(o, "obs_l2_rt", r.obs.l2_rt);
    set_obs_digest(o, "obs_inv_rt", r.obs.inv_rt);
    set_obs_digest(o, "obs_dram_service", r.obs.dram_service);
    for (std::size_t v = 0; v < r.obs.dram_vault_service.size(); ++v) {
      set_obs_digest(o, "obs_dram_vault" + std::to_string(v) + "_service",
                     r.obs.dram_vault_service[v]);
    }
  }
  return o;
}

/// Stable per-run label for trace processes and metrics rows.
std::string run_label(const ScenarioRun& run) {
  std::string label = run.app + "/" + fabric_key(run.fabric) + "/" +
                      run.state.name() + "/" +
                      std::to_string(static_cast<int>(mem::dram_latency_ns(run.dram))) +
                      "ns";
  if (run.dram_backend != DramBackendMode::kConstant) {
    label += "/";
    label += dram_backend_key(run.dram_backend);
  }
  return label;
}

bool write_trace_file(const std::string& path, const ScenarioOutcome& out) {
  std::ofstream f(path);
  if (!f) return false;
  std::vector<std::pair<std::string, const obs::TraceBuffer*>> traced;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    // Errored runs have no trace to merge; their error is reported anyway.
    if (!out.run_ok(i) || out.results[i].trace == nullptr) continue;
    traced.emplace_back(run_label(out.runs[i]), out.results[i].trace.get());
  }
  obs::write_chrome_trace(f, traced);
  return static_cast<bool>(f);
}

bool write_metrics_file(const std::string& path, const ScenarioOutcome& out) {
  std::ofstream f(path);
  if (!f) return false;
  const bool csv =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".csv") == 0;
  if (csv) {
    f << "run,cycle,counter,value\n";
    for (std::size_t i = 0; i < out.results.size(); ++i) {
      if (!out.run_ok(i) || out.results[i].metrics == nullptr) continue;
      out.results[i].metrics->write_csv_rows(f, run_label(out.runs[i]));
    }
  } else {
    f << "{\"runs\":[";
    bool first = true;
    for (std::size_t i = 0; i < out.results.size(); ++i) {
      if (!out.run_ok(i) || out.results[i].metrics == nullptr) continue;
      f << (first ? "\n" : ",\n");
      first = false;
      f << "{\"run\":" << json_string(run_label(out.runs[i]))
        << ",\"epoch_cycles\":" << out.results[i].metrics->epoch_cycles()
        << ",\"series\":";
      out.results[i].metrics->write_json(f);
      f << "}";
    }
    f << "\n]}\n";
  }
  return static_cast<bool>(f);
}

/// An errored run serialises its axes plus the error message — no modeled
/// metrics exist for it.
JsonObject run_error_metrics(const ScenarioRun& run, const std::string& error) {
  JsonObject o;
  o.set("app", run.app)
      .set("fabric", cluster::fabric_name(run.fabric))
      .set("state", run.state.name())
      .set("dram_ns", mem::dram_latency_ns(run.dram))
      .set("error", error);
  return o;
}

JsonObject timing_metrics(const TimingRow& t) {
  JsonObject o;
  o.set("state", t.state)
      .set("cores", static_cast<std::uint64_t>(t.cores))
      .set("banks", static_cast<std::uint64_t>(t.banks))
      .set("bank_field_mm", t.bank_field_mm)
      .set("core_field_mm", t.core_field_mm)
      .set("longest_link_mm", t.longest_link_mm)
      .set("request_path_mm", t.request_path_mm)
      .set("request_delay_ns", t.timing.request_delay_ns)
      .set("response_delay_ns", t.timing.response_delay_ns)
      .set("request_cycles", t.timing.request_cycles)
      .set("bank_cycles", t.timing.bank_cycles)
      .set("response_cycles", t.timing.response_cycles)
      .set("l2_round_trip", t.timing.l2_round_trip())
      .set("powered_repeaters", static_cast<std::uint64_t>(t.powered_repeaters))
      .set("powered_switches", static_cast<std::uint64_t>(t.powered_switches));
  return o;
}

void present_generic(const ScenarioOutcome& out, std::ostream& os) {
  const ScenarioSpec& spec = *out.spec;
  if (spec.kind == ScenarioSpec::Kind::kTiming) {
    TextTable tbl(spec.name + " — per-state timing/geometry");
    tbl.set_header({"state", "cores", "banks", "longest link (mm)",
                    "request delay (ns)", "L2 round trip (cy)"});
    for (const TimingRow& t : out.timing_rows) {
      tbl.add_row({t.state, std::to_string(t.cores), std::to_string(t.banks),
                   fmt_fixed(t.longest_link_mm, 2),
                   fmt_fixed(t.timing.request_delay_ns, 2),
                   std::to_string(t.timing.l2_round_trip())});
    }
    tbl.print(os);
    return;
  }
  TextTable tbl(spec.name + " — " + std::to_string(out.results.size()) + " runs");
  tbl.set_header({"app", "fabric", "state", "DRAM (ns)", "kcycles", "IPC",
                  "L2 hit rate", "EDP (pJ s)"});
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const ScenarioRun& run = out.runs[i];
    if (!out.run_ok(i)) {
      tbl.add_row({run.app, cluster::fabric_name(run.fabric), run.state.name(),
                   fmt_fixed(mem::dram_latency_ns(run.dram), 0), "error", "-",
                   "-", "-"});
      continue;
    }
    const cluster::SimResult& r = out.results[i];
    tbl.add_row({run.app, cluster::fabric_name(run.fabric), run.state.name(),
                 fmt_fixed(mem::dram_latency_ns(run.dram), 0),
                 fmt_fixed(static_cast<double>(r.cycles) / 1000.0, 0),
                 fmt_fixed(r.ipc(), 2), fmt_fixed(r.l2.hit_rate(), 2),
                 fmt_fixed(r.edp_pj_s, 3)});
  }
  tbl.print(os);
}

}  // namespace

std::size_t ScenarioSpec::grid_size() const {
  if (kind != Kind::kSweep) return power_states.size();
  return apps.size() * fabrics.size() * power_states.size() * dram_presets.size() *
         std::max<std::size_t>(1, thermal_envelopes.size()) *
         std::max<std::size_t>(1, fault_envelopes.size()) *
         std::max<std::size_t>(1, dram_backends.size());
}

std::vector<ScenarioRun> expand_grid(const ScenarioSpec& spec, std::size_t* skipped) {
  // An empty thermal axis is one implicit disabled cell, so non-thermal
  // specs expand to exactly the grids they always did.
  static const thermal::ThermalEnvelope kNoThermal{};
  const std::span<const thermal::ThermalEnvelope> envelopes =
      spec.thermal_envelopes.empty()
          ? std::span(&kNoThermal, 1)
          : std::span(spec.thermal_envelopes);
  // Same trick for the fault axis: absent means one disabled cell.
  static const fault::FaultEnvelope kNoFault{};
  const std::span<const fault::FaultEnvelope> fault_envs =
      spec.fault_envelopes.empty() ? std::span(&kNoFault, 1)
                                   : std::span(spec.fault_envelopes);
  // And the backend axis: absent means one constant-latency cell.
  static constexpr DramBackendMode kConstant = DramBackendMode::kConstant;
  const std::span<const DramBackendMode> backends =
      spec.dram_backends.empty() ? std::span(&kConstant, 1)
                                 : std::span(spec.dram_backends);
  std::vector<ScenarioRun> runs;
  runs.reserve(spec.grid_size());
  std::size_t dropped = 0;
  for (const std::string& app : spec.apps) {
    for (cluster::Fabric fabric : spec.fabrics) {
      for (const core::PowerState& state : spec.power_states) {
        for (mem::DramPreset dram : spec.dram_presets) {
          for (const thermal::ThermalEnvelope& env : envelopes) {
            for (const fault::FaultEnvelope& fenv : fault_envs) {
              for (DramBackendMode backend : backends) {
                const ScenarioRun run{app, fabric, state, dram, env, fenv,
                                      backend};
                if (run_is_valid(run)) {
                  runs.push_back(run);
                } else {
                  ++dropped;
                }
              }
            }
          }
        }
      }
    }
  }
  if (skipped != nullptr) *skipped = dropped;
  return runs;
}

const char* invalid_cell_reason() {
  return "packet-switched fabrics only run ungated";
}

std::size_t ScenarioOutcome::error_count() const {
  std::size_t n = 0;
  for (const std::string& e : errors) {
    if (!e.empty()) ++n;
  }
  return n;
}

const cluster::SimResult& ScenarioOutcome::result(const std::string& app,
                                                  cluster::Fabric fabric,
                                                  const std::string& state_name,
                                                  mem::DramPreset dram) const {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].app == app && runs[i].fabric == fabric &&
        runs[i].state.name() == state_name && runs[i].dram == dram) {
      return results[i];
    }
  }
  throw std::out_of_range("no result for " + app + "/" +
                          cluster::fabric_name(fabric) + "/" + state_name);
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec, const ScenarioOptions& opt) {
  if (spec.kind == ScenarioSpec::Kind::kCustom) {
    throw std::logic_error("custom scenario '" + spec.name +
                           "' runs through run_and_present");
  }
  ScenarioOutcome out;
  out.spec = &spec;
  out.options = opt;

  if (spec.kind == ScenarioSpec::Kind::kTiming) {
    const phys::TechnologyParams tech = phys::default_technology();
    const phys::FloorplanParams fp;
    const phys::ClusterGeometry geo(fp, tech);
    const cacti::SramBankConfig bank_cfg;
    const core::MotTimingModel model(tech, fp, bank_cfg);
    for (const core::PowerState& s : spec.power_states) {
      TimingRow t;
      t.state = s.name();
      t.cores = s.active_cores();
      t.banks = s.active_banks();
      t.bank_field_mm = geo.bank_field_span_mm(s.active_banks());
      t.core_field_mm = geo.core_field_span_mm(s.active_cores());
      t.longest_link_mm = geo.longest_link_mm(s.active_cores(), s.active_banks());
      t.request_path_mm = geo.request_path_mm(s.active_cores(), s.active_banks());
      t.timing = model.timing(s);
      t.powered_repeaters = model.powered_repeaters(s);
      t.powered_switches = model.powered_switches(s);
      out.timing_rows.push_back(t);
    }
    const cacti::SramBankResult r = cacti::evaluate(bank_cfg);
    out.sram = {r.access_ns, r.read_energy_pj, r.write_energy_pj, r.leakage_mw,
                r.area_mm2};
    return out;
  }

  out.runs = expand_grid(spec, &out.skipped_invalid);
  SweepRunner runner(opt.threads);
  std::vector<SweepRunner::Task> tasks;
  tasks.reserve(out.runs.size());
  for (const ScenarioRun& run : out.runs) {
    const cluster::ClusterConfig cfg = make_run_config(run, opt);
    tasks.push_back([cfg] { return cluster::Cluster(cfg).run(); });
  }
  // Isolated execution: one wedged or timed-out run becomes that run's
  // error string; every other cell still completes and serialises.
  std::vector<IsolatedResult> isolated = runner.run_isolated(tasks);
  out.results.reserve(isolated.size());
  out.errors.reserve(isolated.size());
  for (IsolatedResult& r : isolated) {
    out.results.push_back(std::move(r.result));
    out.errors.push_back(std::move(r.error));
  }
  out.telemetry = runner.telemetry();
  return out;
}

cluster::ClusterConfig make_run_config(const ScenarioRun& run,
                                       const ScenarioOptions& opt) {
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name(run.app), run.fabric, run.state, run.dram,
      opt.scale, opt.seed);
  cfg.scheduler = opt.scheduler;
  cfg.thermal = thermal::ThermalConfig::from_envelope(run.thermal);
  cfg.fault = fault::FaultConfig::from_envelope(run.fault);
  if (run.dram_backend != DramBackendMode::kConstant) {
    cfg.stacked_dram = true;
    cfg.vault_remap.enabled = run.dram_backend == DramBackendMode::kStackedRemap;
  }
  if (opt.timeout_seconds > 0.0) {
    cfg.watchdog.enabled = true;
    cfg.watchdog.wall_deadline_seconds = opt.timeout_seconds;
  }
  cfg.obs.trace = !opt.trace_path.empty();
  cfg.obs.metrics = !opt.metrics_path.empty();
  cfg.obs.phase_timing = opt.phase_timing;
  return cfg;
}

Cycle l2_latency_p95(const cluster::SimResult& r) {
  constexpr Cycle kPinnedBuckets = 256;
  const obs::LatencyDigest d = r.l2_latency.digest();
  return d.p95 < kPinnedBuckets ? d.p95 : d.max;
}

std::string run_metrics_json(const ScenarioRun& run, const cluster::SimResult& r) {
  // A copy sized to fit: the payload outlives the JsonObject (served,
  // stored, kept by callers), whose buffer carries its growth slack.
  const JsonObject metrics = run_metrics(run, r);
  return metrics.str();
}

std::string scenario_metrics_json(const ScenarioOutcome& outcome) {
  const ScenarioSpec& spec = *outcome.spec;
  JsonObject head;
  head.set("scenario", spec.name)
      .set("figure", spec.figure)
      .set("kind", spec.kind == ScenarioSpec::Kind::kTiming ? "timing" : "sweep")
      .set("scale", outcome.options.scale)
      .set("seed", outcome.options.seed);

  JsonArray runs;
  if (spec.kind == ScenarioSpec::Kind::kTiming) {
    for (const TimingRow& t : outcome.timing_rows) runs.push(timing_metrics(t));
    JsonObject sram;
    sram.set("access_ns", outcome.sram.access_ns)
        .set("read_energy_pj", outcome.sram.read_energy_pj)
        .set("write_energy_pj", outcome.sram.write_energy_pj)
        .set("leakage_mw", outcome.sram.leakage_mw)
        .set("area_mm2", outcome.sram.area_mm2);
    head.set_raw("l2_bank_sram", sram.str());
  } else {
    for (std::size_t i = 0; i < outcome.results.size(); ++i) {
      if (outcome.run_ok(i)) {
        runs.push(run_metrics(outcome.runs[i], outcome.results[i]));
      } else {
        runs.push(run_error_metrics(outcome.runs[i], outcome.errors[i]));
      }
    }
  }

  // Assembled by hand so each run lands on its own line: golden-file diffs
  // stay reviewable run-by-run.
  std::string out = "{\n";
  out += "  \"meta\": " + head.str() + ",\n";
  out += "  \"runs\": " + runs.str(2) + "\n";
  out += "}\n";
  return out;
}

bool write_scenario_report(const std::string& path, const ScenarioOutcome& outcome) {
  JsonObject extra;
  extra.set("scale", outcome.options.scale)
      .set("seed", outcome.options.seed)
      .set("scheduler", cluster::scheduler_name(outcome.options.scheduler))
      .set_raw("metrics", scenario_metrics_json(outcome));
  return write_perf_report(path, outcome.spec->name, outcome.telemetry, extra);
}

int run_and_present(const ScenarioSpec& spec, const ScenarioOptions& opt,
                    std::ostream& os) {
  // Tracing and metrics capture cluster simulations; analytic (timing)
  // tables and self-driving custom bodies have none to instrument.
  if ((!opt.trace_path.empty() || !opt.metrics_path.empty()) &&
      spec.kind != ScenarioSpec::Kind::kSweep) {
    os << "error: --trace/--metrics require a sweep scenario ('" << spec.name
       << "' is "
       << (spec.kind == ScenarioSpec::Kind::kTiming ? "analytic" : "custom")
       << ")\n";
    return 1;
  }
  if (spec.kind == ScenarioSpec::Kind::kCustom) {
    return spec.run_custom ? spec.run_custom(spec, opt, os) : 2;
  }
  const ScenarioOutcome out = run_scenario(spec, opt);
  if (spec.present) {
    spec.present(out, os);
  } else {
    present_generic(out, os);
  }
  if (out.skipped_invalid > 0) {
    os << "note: skipped " << out.skipped_invalid << " invalid grid cells ("
       << invalid_cell_reason() << ")\n";
  }
  // Per-run failures (watchdog timeouts, wedges) were isolated: the other
  // cells completed, but the scenario as a whole did not — report each one
  // and exit non-zero below.
  for (std::size_t i = 0; i < out.errors.size(); ++i) {
    if (out.run_ok(i)) continue;
    const ScenarioRun& run = out.runs[i];
    os << "error: run " << run.app << "/" << fabric_key(run.fabric) << "/"
       << run.state.name() << " failed: " << out.errors[i] << "\n";
  }
  if (spec.kind == ScenarioSpec::Kind::kSweep) {
    const PerfTelemetry& t = out.telemetry;
    os << "[perf] " << t.runs << " runs, " << fmt_fixed(t.wall_seconds, 2)
       << " s wall, " << fmt_fixed(t.cycles_per_second() / 1e6, 2)
       << " M simulated cycles/s, threads=" << t.threads
       << ", scheduler=" << cluster::scheduler_name(opt.scheduler) << "\n";
  }
  if (!opt.json_path.empty()) {
    if (write_scenario_report(opt.json_path, out)) {
      os << "[perf] report written to " << opt.json_path << "\n";
    } else {
      std::cerr << "warning: could not write " << opt.json_path << "\n";
    }
  }
  if (!opt.trace_path.empty()) {
    if (!write_trace_file(opt.trace_path, out)) {
      os << "error: cannot write trace file '" << opt.trace_path << "'\n";
      return 1;
    }
    os << "[obs] trace written to " << opt.trace_path << "\n";
  }
  if (!opt.metrics_path.empty()) {
    if (!write_metrics_file(opt.metrics_path, out)) {
      os << "error: cannot write metrics file '" << opt.metrics_path << "'\n";
      return 1;
    }
    os << "[obs] metrics written to " << opt.metrics_path << "\n";
  }
  return out.error_count() > 0 ? 1 : 0;
}

ScenarioOptions golden_options(const ScenarioSpec& spec) {
  ScenarioOptions opt;
  opt.scale = spec.golden_scale;
  opt.seed = spec.seed;
  opt.threads = 0;
  opt.scheduler = cluster::SchedulerMode::kEventDriven;
  return opt;
}

ScenarioSpec adhoc_grid(std::vector<std::string> apps,
                        const std::vector<std::string>& fabrics,
                        const std::vector<std::string>& states,
                        const std::vector<std::string>& dram,
                        const std::vector<std::string>& dram_backends) {
  ScenarioSpec spec;
  spec.name = "adhoc_grid";
  spec.figure = "-";
  spec.description = "ad-hoc grid";
  spec.has_golden = false;
  spec.apps = apps.empty() ? workload::splash2_names() : std::move(apps);
  for (const std::string& a : spec.apps) {
    try {
      (void)workload::profile_by_name(a);
    } catch (const std::out_of_range&) {
      std::string want;
      for (const std::string& n : workload::splash2_names()) want += " " + n;
      for (const std::string& n : workload::sharing_profile_names()) {
        want += " " + n;
      }
      throw std::invalid_argument("unknown app '" + a + "' (want:" + want + ")");
    }
  }
  const auto axis = [](const std::vector<std::string>& names, auto fallback,
                       auto parse) {
    std::vector<decltype(fallback)> out;
    for (const std::string& n : names) out.push_back(parse(n));
    if (out.empty()) out.push_back(fallback);
    return out;
  };
  spec.fabrics = axis(fabrics, cluster::Fabric::kMot, fabric_by_key);
  spec.power_states = axis(states, core::PowerState::full(), power_state_by_name);
  spec.dram_presets = axis(dram, mem::DramPreset::kDdr3_200ns, dram_preset_by_key);
  // An empty backend axis is already one implicit constant-latency cell.
  for (const std::string& b : dram_backends) {
    spec.dram_backends.push_back(dram_backend_by_key(b));
  }
  return spec;
}

const char* fabric_key(cluster::Fabric f) {
  switch (f) {
    case cluster::Fabric::kMot: return "mot";
    case cluster::Fabric::kTrueMesh3d: return "mesh3d";
    case cluster::Fabric::kHybridBusMesh: return "busmesh";
    case cluster::Fabric::kHybridBusTree: return "bustree";
  }
  return "?";
}

cluster::Fabric fabric_by_key(const std::string& key) {
  if (key == "mot") return cluster::Fabric::kMot;
  if (key == "mesh3d" || key == "mesh") return cluster::Fabric::kTrueMesh3d;
  if (key == "busmesh") return cluster::Fabric::kHybridBusMesh;
  if (key == "bustree") return cluster::Fabric::kHybridBusTree;
  throw std::invalid_argument("unknown fabric '" + key +
                              "' (want mot|mesh3d|busmesh|bustree)");
}

core::PowerState power_state_by_name(const std::string& name) {
  // The largest scale-out shape a name may ask for, Full1024x2048: the
  // largest any test, golden or BENCH cell runs.  A MoT cluster holds one
  // arbitration tree of cores - 1 switches per bank, so a bigger name
  // could ask for terabytes before anything else rejects it.
  constexpr std::size_t kMaxCores = 1024;
  constexpr std::size_t kMaxBanks = 2048;
  for (const core::PowerState& s : core::PowerState::paper_states()) {
    if (s.name() == name) return s;
  }
  // Generic "PC<cores>-MB<banks>" on the Table I cluster shape.  %n pins
  // the match to the whole string: "PC4-MB8x" must throw, not parse.
  std::size_t cores = 0, banks = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "PC%zu-MB%zu%n", &cores, &banks, &consumed) == 2 &&
      static_cast<std::size_t>(consumed) == name.size()) {
    return core::PowerState(name, 16, cores, 32, banks);
  }
  // Scale-out shapes: "Full<cores>x<banks>" is a fully powered cluster of
  // that physical shape (e.g. Full256x512) — the BENCH_scale.json grid and
  // the scale_smoke scenario run these on the MoT fabric.
  if (std::sscanf(name.c_str(), "Full%zux%zu%n", &cores, &banks, &consumed) == 2 &&
      static_cast<std::size_t>(consumed) == name.size()) {
    if (cores > kMaxCores || banks > kMaxBanks) {
      throw std::invalid_argument("power state '" + name +
                                  "' is larger than Full1024x2048 (at most " +
                                  std::to_string(kMaxCores) + " cores and " +
                                  std::to_string(kMaxBanks) + " banks)");
    }
    return core::PowerState(name, cores, cores, banks, banks);
  }
  throw std::invalid_argument(
      "unknown power state '" + name +
      "' (want Full, PC<cores>-MB<banks>, or Full<cores>x<banks>)");
}

mem::DramPreset dram_preset_by_key(const std::string& key) {
  if (key == "200" || key == "ddr3") return mem::DramPreset::kDdr3_200ns;
  if (key == "63" || key == "wideio") return mem::DramPreset::kWideIo_63ns;
  if (key == "42" || key == "weis3d") return mem::DramPreset::kWeis3d_42ns;
  throw std::invalid_argument("unknown DRAM preset '" + key +
                              "' (want 200|63|42 or ddr3|wideio|weis3d)");
}

const char* dram_backend_key(DramBackendMode m) {
  switch (m) {
    case DramBackendMode::kConstant: return "constant";
    case DramBackendMode::kStacked: return "stacked";
    case DramBackendMode::kStackedRemap: return "stacked_remap";
  }
  return "?";
}

DramBackendMode dram_backend_by_key(const std::string& key) {
  if (key == "constant") return DramBackendMode::kConstant;
  if (key == "stacked") return DramBackendMode::kStacked;
  if (key == "stacked_remap" || key == "remap") {
    return DramBackendMode::kStackedRemap;
  }
  throw std::invalid_argument("unknown DRAM backend '" + key +
                              "' (want constant|stacked|stacked_remap)");
}

}  // namespace mot3d::sim
