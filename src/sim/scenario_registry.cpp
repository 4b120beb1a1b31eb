#include "sim/scenario_registry.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "common/table.hpp"
#include "sim/scenario_custom.hpp"
#include "workload/app_profile.hpp"

namespace mot3d::sim {

namespace {

double average(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  double m = v.empty() ? 0.0 : v[0];
  for (double x : v) m = std::max(m, x);
  return m;
}

/// "reduction" convention used throughout the paper: 1 - new/old.
double reduction(double baseline, double value) {
  return baseline == 0.0 ? 0.0 : 1.0 - value / baseline;
}

void print_header(const ScenarioOutcome& out, const std::string& what,
                  std::ostream& os) {
  os << "\n### " << what << "  (scale=" << out.options.scale
     << ", seed=" << out.options.seed << ")\n";
}

const std::vector<cluster::Fabric> kFig6Fabrics = {
    cluster::Fabric::kTrueMesh3d, cluster::Fabric::kHybridBusMesh,
    cluster::Fabric::kHybridBusTree, cluster::Fabric::kMot};

// ---- Fig. 5 / Table I presenters (timing scenarios) ------------------------

void present_fig5(const ScenarioOutcome& out, std::ostream& os) {
  const phys::FloorplanParams fp;
  os << "### Fig. 5: wire lengths per power state (die " << fp.die_x_mm << " x "
     << fp.die_y_mm << " mm, tier gap " << fp.tier_gap_mm * 1000.0 << " um)\n";

  TextTable tbl("active spans, worst-case link and path delay per state");
  tbl.set_header({"state", "bank field (mm)", "core field (mm)",
                  "longest link (mm)", "request path (mm)", "request delay (ns)",
                  "powered repeaters", "powered switches"});
  for (const TimingRow& t : out.timing_rows) {
    tbl.add_row({t.state, fmt_fixed(t.bank_field_mm, 2),
                 fmt_fixed(t.core_field_mm, 2), fmt_fixed(t.longest_link_mm, 2),
                 fmt_fixed(t.request_path_mm, 2),
                 fmt_fixed(t.timing.request_delay_ns, 2),
                 std::to_string(t.powered_repeaters),
                 std::to_string(t.powered_switches)});
  }
  tbl.print(os);

  const TimingRow* full = nullptr;
  const TimingRow* gated = nullptr;
  for (const TimingRow& t : out.timing_rows) {
    if (t.state == "Full") full = &t;
    if (t.state == "PC4-MB8") gated = &t;
  }
  if (full != nullptr && gated != nullptr && gated->longest_link_mm > 0.0) {
    os << "worst-case wire shrink Full -> PC4-MB8: "
       << fmt_fixed(full->longest_link_mm, 2) << " mm -> "
       << fmt_fixed(gated->longest_link_mm, 2) << " mm ("
       << fmt_fixed(full->longest_link_mm / gated->longest_link_mm, 1) << "x)\n";
  }
}

void present_table1(const ScenarioOutcome& out, std::ostream& os) {
  os << "### Table I — architecture configurations\n";

  TextTable core_tbl("Core / L1 / DRAM");
  core_tbl.set_header({"Feature", "Description"});
  core_tbl.add_row({"Core", "1GHz, 4 - 16 cores, in-order execution (trace-driven)"});
  core_tbl.add_row({"L1 I/D cache",
                    "Private, 4KB per core, 32B line, 4-way, LRU, 1 cycle"});
  core_tbl.add_row({"L2 cache", "Shared, 32B line, 8-way, 64KB per bank"});
  for (auto preset : {mem::DramPreset::kDdr3_200ns, mem::DramPreset::kWideIo_63ns,
                      mem::DramPreset::kWeis3d_42ns}) {
    core_tbl.add_row({"DRAM", std::string(mem::dram_preset_name(preset)) +
                                  ", one controller, 2Gb, 4KB page"});
  }
  core_tbl.print(os);

  TextTable l2_tbl("L2 latency per power state (derived from the MoT timing model)");
  l2_tbl.set_header({"Power state", "Cores", "Banks", "L2 latency (cycles)",
                     "Paper (cycles)", "req+bank+resp"});
  const char* paper[] = {"12", "9", "9", "7"};
  std::size_t i = 0;
  for (const TimingRow& t : out.timing_rows) {
    l2_tbl.add_row({t.state, std::to_string(t.cores), std::to_string(t.banks),
                    std::to_string(t.timing.l2_round_trip()),
                    i < 4 ? paper[i] : "-",
                    std::to_string(t.timing.request_cycles) + "+" +
                        std::to_string(t.timing.bank_cycles) + "+" +
                        std::to_string(t.timing.response_cycles)});
    ++i;
  }
  l2_tbl.print(os);

  TextTable bank_tbl("L2 bank (CACTI-lite, 45nm)");
  bank_tbl.set_header({"Metric", "Value"});
  bank_tbl.add_row({"access time", fmt_fixed(out.sram.access_ns, 3) + " ns"});
  bank_tbl.add_row({"read energy", fmt_fixed(out.sram.read_energy_pj, 1) + " pJ"});
  bank_tbl.add_row({"write energy", fmt_fixed(out.sram.write_energy_pj, 1) + " pJ"});
  bank_tbl.add_row({"leakage", fmt_fixed(out.sram.leakage_mw, 2) + " mW"});
  bank_tbl.add_row({"area", fmt_fixed(out.sram.area_mm2, 3) + " mm^2"});
  bank_tbl.print(os);
}

// ---- Fig. 6 presenters -----------------------------------------------------

void present_fig6a(const ScenarioOutcome& out, std::ostream& os) {
  print_header(out, "Fig. 6(a): L2 cache access latency per interconnect", os);
  TextTable tbl("L2 access latency in cycles (L2-hit mean / overall mean / p95)");
  std::vector<std::string> header = {"benchmark"};
  for (auto f : kFig6Fabrics) header.push_back(cluster::fabric_name(f));
  tbl.set_header(header);

  std::vector<std::vector<double>> hit_means(kFig6Fabrics.size());
  for (const std::string& app : out.spec->apps) {
    std::vector<std::string> row = {app};
    for (std::size_t fi = 0; fi < kFig6Fabrics.size(); ++fi) {
      const cluster::SimResult& r = out.result(
          app, kFig6Fabrics[fi], "Full", mem::DramPreset::kDdr3_200ns);
      hit_means[fi].push_back(r.l2_hit_latency.mean());
      row.push_back(fmt_fixed(r.l2_hit_latency.mean(), 1) + " / " +
                    fmt_fixed(r.l2_latency.mean(), 1) + " / " +
                    std::to_string(r.l2_latency.quantile(0.95)));
    }
    tbl.add_row(row);
  }
  std::vector<std::string> avg_row = {"AVERAGE (hit)"};
  for (auto& v : hit_means) avg_row.push_back(fmt_fixed(average(v), 1));
  tbl.add_row(avg_row);
  tbl.print(os);

  os << "shape check: MoT < Bus-Mesh < True Mesh < Bus-Tree on average: "
     << (average(hit_means[3]) < average(hit_means[1]) &&
                 average(hit_means[1]) < average(hit_means[0]) &&
                 average(hit_means[0]) < average(hit_means[2])
             ? "PASS"
             : "CHECK")
     << "\n";
}

void present_fig6b(const ScenarioOutcome& out, std::ostream& os) {
  print_header(out, "Fig. 6(b): execution time per interconnect (DRAM 200 ns)", os);
  TextTable tbl("execution time in kilo-cycles (normalised to True 3-D Mesh)");
  std::vector<std::string> header = {"benchmark"};
  for (auto f : kFig6Fabrics) header.push_back(cluster::fabric_name(f));
  tbl.set_header(header);

  // reductions[i] = per-app reduction of MoT vs fabric i (i in 0..2).
  std::vector<std::vector<double>> reductions(3);
  for (const std::string& app : out.spec->apps) {
    std::vector<double> cycles;
    for (cluster::Fabric f : kFig6Fabrics) {
      cycles.push_back(static_cast<double>(
          out.result(app, f, "Full", mem::DramPreset::kDdr3_200ns).cycles));
    }
    std::vector<std::string> row = {app};
    for (double c : cycles) {
      row.push_back(fmt_fixed(c / 1000.0, 0) + " (" + fmt_fixed(c / cycles[0], 2) +
                    "x)");
    }
    tbl.add_row(row);
    for (int i = 0; i < 3; ++i) reductions[i].push_back(reduction(cycles[i], cycles[3]));
  }
  tbl.print(os);

  const char* base_names[] = {"True 3-D Mesh", "3-D Hybrid Bus-Mesh",
                              "3-D Hybrid Bus-Tree"};
  const double paper[] = {0.1301, 0.1116, 0.1334};
  TextTable s("MoT execution-time reduction vs packet-switched baselines");
  s.set_header({"baseline", "measured avg", "paper avg"});
  for (int i = 0; i < 3; ++i) {
    s.add_row({base_names[i], fmt_percent(average(reductions[i])),
               fmt_percent(paper[i])});
  }
  s.print(os);
}

// ---- Fig. 7 / Fig. 8 presenters --------------------------------------------

/// Shared EDP table for Fig. 7(a) / Fig. 8(a,b): 8 apps x 4 power states on
/// the MoT cluster at one DRAM preset, normalised to Full.
struct EdpSeries {
  std::map<std::string, std::map<std::string, double>> norm_edp;  ///< [state][app]
  std::map<std::string, std::map<std::string, double>> norm_time;
};

EdpSeries present_edp_table(const ScenarioOutcome& out, std::ostream& os) {
  const ScenarioSpec& spec = *out.spec;
  const mem::DramPreset preset = spec.dram_presets.at(0);
  print_header(out,
               spec.figure + ": EDP per power state, DRAM " +
                   std::to_string(static_cast<int>(mem::dram_latency_ns(preset))) +
                   " ns",
               os);

  EdpSeries series;
  TextTable tbl("EDP normalised to Full connection (exec time normalised in parens)");
  std::vector<std::string> header = {"benchmark"};
  for (const auto& s : spec.power_states) header.push_back(s.name());
  tbl.set_header(header);

  for (const std::string& app : spec.apps) {
    double base_edp = 0.0, base_cycles = 0.0;
    std::vector<std::string> row = {app};
    for (const core::PowerState& s : spec.power_states) {
      const cluster::SimResult& r =
          out.result(app, cluster::Fabric::kMot, s.name(), preset);
      if (s.name() == "Full") {
        base_edp = r.edp_pj_s;
        base_cycles = static_cast<double>(r.cycles);
      }
      const double ne = r.edp_pj_s / base_edp;
      const double nt = static_cast<double>(r.cycles) / base_cycles;
      series.norm_edp[s.name()][app] = ne;
      series.norm_time[s.name()][app] = nt;
      row.push_back(fmt_fixed(ne, 2) + " (" + fmt_fixed(nt, 2) + ")");
    }
    tbl.add_row(row);
  }
  tbl.print(os);

  // Which apps gain EDP from bank gating at this DRAM speed? (Fig. 8's
  // question: the list must grow as DRAM gets faster.)
  os << "apps with EDP reduced by PC16-MB8:";
  int winners = 0;
  for (const std::string& app : spec.apps) {
    if (series.norm_edp["PC16-MB8"][app] < 1.0) {
      os << " " << app;
      ++winners;
    }
  }
  os << "  (" << winners << "/" << spec.apps.size() << ")\n";
  return series;
}

void present_fig7a(const ScenarioOutcome& out, std::ostream& os) {
  const EdpSeries s = present_edp_table(out, os);

  const std::vector<std::string> limited = {"cholesky", "fft", "volrend", "raytrace"};
  const std::vector<std::string> small_ws = {"fft", "fmm", "volrend", "raytrace",
                                             "water_nsquared"};
  auto redux = [&](const char* state, const std::vector<std::string>& apps) {
    std::vector<double> r;
    for (const auto& a : apps) r.push_back(1.0 - s.norm_edp.at(state).at(a));
    return r;
  };
  const auto pc4mb32 = redux("PC4-MB32", limited);
  const auto pc4mb8 = redux("PC4-MB8", limited);
  const auto pc16mb8 = redux("PC16-MB8", small_ws);

  TextTable t("Fig. 7(a) paper-claim comparison (EDP reduction vs Full)");
  t.set_header({"claim", "measured avg", "measured max", "paper avg", "paper max"});
  t.add_row({"PC4-MB32 on cholesky/fft/volrend/raytrace",
             fmt_percent(average(pc4mb32)), fmt_percent(max_of(pc4mb32)), "44%",
             "66%"});
  t.add_row({"PC4-MB8 on cholesky/fft/volrend/raytrace",
             fmt_percent(average(pc4mb8)), fmt_percent(max_of(pc4mb8)), "52%",
             "77%"});
  t.add_row({"PC16-MB8 on fft/fmm/volrend/raytrace/water",
             fmt_percent(average(pc16mb8)), fmt_percent(max_of(pc16mb8)), "13%",
             "18%"});
  t.print(os);
}

void present_fig7b(const ScenarioOutcome& out, std::ostream& os) {
  const ScenarioSpec& spec = *out.spec;
  print_header(out, "Fig. 7(b): execution time per power state (DRAM 200 ns)", os);
  TextTable tbl("execution time in kilo-cycles (normalised to Full in parens)");
  std::vector<std::string> header = {"benchmark"};
  for (const auto& s : spec.power_states) header.push_back(s.name());
  tbl.set_header(header);

  std::map<std::string, std::map<std::string, double>> cycles;  ///< [state][app]
  for (const std::string& app : spec.apps) {
    std::vector<std::string> row = {app};
    double base = 0.0;
    for (const core::PowerState& s : spec.power_states) {
      const cluster::SimResult& r = out.result(app, cluster::Fabric::kMot,
                                               s.name(), spec.dram_presets[0]);
      cycles[s.name()][app] = static_cast<double>(r.cycles);
      if (s.name() == "Full") base = static_cast<double>(r.cycles);
      row.push_back(fmt_fixed(static_cast<double>(r.cycles) / 1000.0, 0) + " (" +
                    fmt_fixed(static_cast<double>(r.cycles) / base, 2) + ")");
    }
    tbl.add_row(row);
  }
  tbl.print(os);

  const std::vector<std::string> limited = {"cholesky", "fft", "volrend", "raytrace"};
  const std::vector<std::string> scalable = {"fmm", "radix", "ocean_contiguous",
                                             "water_nsquared"};
  const std::vector<std::string> small_ws = {"fft", "fmm", "volrend", "raytrace",
                                             "water_nsquared"};
  const std::vector<std::string> large_ws = {"cholesky", "radix", "ocean_contiguous"};

  // 4 -> 16 core speedup: compare PC4-MB32 (4 cores) against Full (16).
  auto core_gain = [&](const std::vector<std::string>& apps) {
    std::vector<double> g;
    for (const auto& a : apps) {
      g.push_back(reduction(cycles["PC4-MB32"][a], cycles["Full"][a]));
    }
    return g;
  };
  // PC16-MB8 execution-time increase vs Full.
  auto mb8_cost = [&](const std::vector<std::string>& apps) {
    std::vector<double> g;
    for (const auto& a : apps) {
      g.push_back(cycles["PC16-MB8"][a] / cycles["Full"][a] - 1.0);
    }
    return g;
  };

  const auto lim = core_gain(limited);
  const auto sca = core_gain(scalable);
  const auto cost_small = mb8_cost(small_ws);
  const auto cost_large = mb8_cost(large_ws);

  TextTable s("Fig. 7(b) paper-claim comparison");
  s.set_header({"claim", "measured avg", "measured max", "paper avg", "paper max"});
  s.add_row({"4->16 cores gain, limited apps", fmt_percent(average(lim)),
             fmt_percent(max_of(lim)), "19%", "33%"});
  s.add_row({"4->16 cores gain, scalable apps", fmt_percent(average(sca)),
             fmt_percent(max_of(sca)), "64%", "69%"});
  s.add_row({"PC16-MB8 exec increase, small-WS apps", fmt_percent(average(cost_small)),
             fmt_percent(max_of(cost_small)), "4.7%", "8.6%"});
  s.add_row({"PC16-MB8 exec increase, cholesky/radix/ocean",
             fmt_percent(average(cost_large)), fmt_percent(max_of(cost_large)), "24%",
             "31%"});
  s.print(os);
}

// ---- thermal envelope presenter --------------------------------------------

void present_thermal(const ScenarioOutcome& out, std::ostream& os) {
  print_header(out, "Thermal envelopes: 3-D stack temperature, throttling, "
                    "leakage feedback", os);
  TextTable tbl("per-run thermal trajectory (temperatures in °C)");
  tbl.set_header({"app", "fabric", "amb", "ceil", "peak core/L2a/L2b", "steady",
                  "throttles (bank+hold)", "held kcyc", "leak delta", "kcycles"});
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const ScenarioRun& run = out.runs[i];
    const cluster::SimResult& r = out.results[i];
    const thermal::ThermalSummary& t = r.thermal;
    const double leak_delta_pct =
        t.leakage_ref_pj == 0.0 ? 0.0
                                : 100.0 * t.leakage_delta_pj() / t.leakage_ref_pj;
    tbl.add_row({run.app, cluster::fabric_name(run.fabric),
                 fmt_fixed(t.ambient_c, 0), fmt_fixed(t.ceiling_c, 0),
                 fmt_fixed(t.peak_layer_c.size() > 0 ? t.peak_layer_c[0] : 0.0, 1) +
                     " / " +
                     fmt_fixed(t.peak_layer_c.size() > 1 ? t.peak_layer_c[1] : 0.0, 1) +
                     " / " +
                     fmt_fixed(t.peak_layer_c.size() > 2 ? t.peak_layer_c[2] : 0.0, 1),
                 fmt_fixed(t.steady_peak_c, 1),
                 std::to_string(t.throttle_events) + " (" +
                     std::to_string(t.bank_gate_events) + "+" +
                     std::to_string(t.core_hold_events) + ")",
                 fmt_fixed(static_cast<double>(t.throttled_cycles) / 1000.0, 0),
                 fmt_fixed(leak_delta_pct, 1) + "%",
                 fmt_fixed(static_cast<double>(r.cycles) / 1000.0, 0)});
  }
  tbl.print(os);

  // The stacked-cache signature: upper tiers cool through the core die,
  // so the hottest layer must be a stacked tier, not the logic die.
  bool stacked_hotter = true;
  std::uint64_t total_throttles = 0;
  for (const cluster::SimResult& r : out.results) {
    const thermal::ThermalSummary& t = r.thermal;
    if (t.peak_layer_c.size() == 3 &&
        std::max(t.peak_layer_c[1], t.peak_layer_c[2]) + 1e-9 < t.peak_layer_c[0]) {
      stacked_hotter = false;
    }
    total_throttles += t.throttle_events;
  }
  os << "shape check: stacked L2 tiers run at/above the core die: "
     << (stacked_hotter ? "PASS" : "CHECK") << "\n";
  os << "governor: " << total_throttles
     << " throttle events across the envelope grid (hotter ambient / lower "
        "ceiling must throttle more)\n";
}

// ---- coherence sharing presenter -------------------------------------------

void present_coherence(const ScenarioOutcome& out, std::ostream& os) {
  print_header(out, "Coherence: sharing pattern x fabric x power state", os);
  TextTable tbl("directory-MESI traffic per run");
  tbl.set_header({"workload", "pattern", "fabric", "state", "invalidations",
                  "upgrades", "forwards", "sharing misses", "dir peak", "L2 lat",
                  "kcycles"});
  std::uint64_t pc_invals = 0, rm_invals = 0;
  std::uint64_t pc_runs = 0, rm_runs = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const ScenarioRun& run = out.runs[i];
    const cluster::SimResult& r = out.results[i];
    const coherence::CoherenceStats& c = r.coherence;
    tbl.add_row({run.app,
                 workload::sharing_pattern_name(
                     workload::profile_by_name(run.app).sharing),
                 cluster::fabric_name(run.fabric), run.state.name(),
                 std::to_string(c.invalidations), std::to_string(c.upgrades),
                 std::to_string(c.data_forwards),
                 std::to_string(c.sharing_misses),
                 std::to_string(c.dir_peak_entries),
                 fmt_fixed(r.l2_latency.mean(), 1),
                 fmt_fixed(static_cast<double>(r.cycles) / 1000.0, 0)});
    if (run.app == "producer_consumer") {
      pc_invals += c.invalidations;
      ++pc_runs;
    }
    if (run.app == "read_mostly") {
      rm_invals += c.invalidations;
      ++rm_runs;
    }
  }
  tbl.print(os);

  // Shape checks: communication-heavy patterns must invalidate; the
  // read-mostly table must invalidate less than the producer-consumer
  // ping-pong on the same grid.
  os << "shape check: producer-consumer generates invalidations: "
     << (pc_runs > 0 && pc_invals > 0 ? "PASS" : "CHECK") << "\n";
  os << "shape check: read-mostly invalidates less than producer-consumer: "
     << (pc_runs > 0 && rm_runs > 0 &&
                 rm_invals * pc_runs < pc_invals * rm_runs
             ? "PASS"
             : "CHECK")
     << "\n";
}

// ---- fault-resilience presenter --------------------------------------------

void present_fault(const ScenarioOutcome& out, std::ostream& os) {
  print_header(out, "Fault resilience: graceful degradation vs hard failure", os);
  TextTable tbl("per-run fault trajectory");
  tbl.set_header({"app", "fabric", "state", "degr/hard rate", "seed", "outcome",
                  "inj", "recov", "unrec", "gates", "degr kcyc", "repair pJ",
                  "kcycles"});
  bool mot_full_never_fails = true;
  bool mesh_hard_always_fails = true;
  bool any_mot_gate = false;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const ScenarioRun& run = out.runs[i];
    if (!out.run_ok(i)) {
      tbl.add_row({run.app, cluster::fabric_name(run.fabric), run.state.name(),
                   fmt_fixed(run.fault.tsv_fault_rate, 1) + "/" +
                       fmt_fixed(run.fault.bank_fault_rate, 1),
                   std::to_string(run.fault.seed), "ERROR", "-", "-", "-", "-",
                   "-", "-", "-"});
      continue;
    }
    const cluster::SimResult& r = out.results[i];
    const fault::FaultSummary& f = r.fault;
    tbl.add_row({run.app, cluster::fabric_name(run.fabric), run.state.name(),
                 fmt_fixed(run.fault.tsv_fault_rate, 1) + "/" +
                     fmt_fixed(run.fault.bank_fault_rate, 1),
                 std::to_string(run.fault.seed), f.outcome,
                 std::to_string(f.injected), std::to_string(f.recovered),
                 std::to_string(f.unrecoverable),
                 std::to_string(f.bank_gate_events),
                 fmt_fixed(static_cast<double>(f.degraded_cycles) / 1000.0, 1),
                 fmt_fixed(f.repair_energy_pj, 1),
                 fmt_fixed(static_cast<double>(r.cycles) / 1000.0, 0)});
    const bool is_mot = run.fabric == cluster::Fabric::kMot;
    if (is_mot && run.state.name() == "Full" && f.outcome == "failed") {
      mot_full_never_fails = false;
    }
    if (!is_mot && run.fault.bank_fault_rate > 0.0 && f.outcome != "failed") {
      mesh_hard_always_fails = false;
    }
    if (is_mot && f.bank_gate_events > 0) any_mot_gate = true;
  }
  tbl.print(os);

  // The research point: the MoT's reconfigurable routing absorbs hard bank
  // faults by gating around them; static dimension-order packet fabrics
  // cannot and must fail — structurally, not by wedging.
  os << "shape check: MoT (Full) absorbs every hard fault: "
     << (mot_full_never_fails ? "PASS" : "CHECK") << "\n";
  os << "shape check: packet mesh fails on hard faults: "
     << (mesh_hard_always_fails ? "PASS" : "CHECK") << "\n";
  os << "shape check: fault-triggered bank gating occurred on the MoT: "
     << (any_mot_gate ? "PASS" : "CHECK") << "\n";
}

// ---- stacked-DRAM presenter ------------------------------------------------

void present_stacked(const ScenarioOutcome& out, std::ostream& os) {
  print_header(out, "Stacked DRAM: vault-parallel 3-D backend vs the "
                    "constant-latency controller", os);
  TextTable tbl("per-run DRAM backend trajectory");
  tbl.set_header({"app", "backend", "row hit rate", "refreshes", "remaps",
                  "peak vault °C", "dram waits kcyc", "kcycles", "EDP (pJ s)"});
  bool any_row_hits = false;
  bool any_refresh = false;
  bool remap_cooler = true;
  // peak vault temperature per (app): remap-on vs remap-off stacked runs.
  std::uint64_t stacked_runs = 0;
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    const ScenarioRun& run = out.runs[i];
    if (!out.run_ok(i)) {
      tbl.add_row({run.app, dram_backend_key(run.dram_backend), "ERROR", "-",
                   "-", "-", "-", "-", "-"});
      continue;
    }
    const cluster::SimResult& r = out.results[i];
    const bool stacked = r.dram3d.enabled;
    const std::uint64_t accesses = r.dram3d.row_hits + r.dram3d.row_misses;
    tbl.add_row(
        {run.app, dram_backend_key(run.dram_backend),
         stacked && accesses > 0
             ? fmt_fixed(static_cast<double>(r.dram3d.row_hits) /
                             static_cast<double>(accesses),
                         2)
             : "-",
         stacked ? std::to_string(r.dram3d.refreshes) : "-",
         stacked ? std::to_string(r.dram3d.remaps) : "-",
         stacked && r.dram3d.peak_vault_c > 0.0
             ? fmt_fixed(r.dram3d.peak_vault_c, 1)
             : "-",
         fmt_fixed(static_cast<double>(r.dram.total_wait_cycles) / 1000.0, 0),
         fmt_fixed(static_cast<double>(r.cycles) / 1000.0, 0),
         fmt_fixed(r.edp_pj_s, 3)});
    if (stacked) {
      ++stacked_runs;
      if (r.dram3d.row_hits > 0) any_row_hits = true;
      if (r.dram3d.refreshes > 0) any_refresh = true;
    }
  }
  // Remap must never leave the stack hotter than remap-off on the same
  // app (equal is fine: below threshold the policy does nothing).
  for (std::size_t i = 0; i < out.results.size(); ++i) {
    if (!out.run_ok(i) ||
        out.runs[i].dram_backend != DramBackendMode::kStackedRemap) {
      continue;
    }
    for (std::size_t j = 0; j < out.results.size(); ++j) {
      if (out.run_ok(j) && out.runs[j].app == out.runs[i].app &&
          out.runs[j].dram_backend == DramBackendMode::kStacked &&
          out.results[i].dram3d.peak_vault_c >
              out.results[j].dram3d.peak_vault_c + 1e-9) {
        remap_cooler = false;
      }
    }
  }
  tbl.print(os);

  os << "shape check: stacked runs exploit open-row locality: "
     << (stacked_runs > 0 && any_row_hits ? "PASS" : "CHECK") << "\n";
  os << "shape check: refresh interference occurred in every stacked run: "
     << (stacked_runs > 0 && any_refresh ? "PASS" : "CHECK") << "\n";
  os << "shape check: vault remap never raises the peak vault temperature: "
     << (remap_cooler ? "PASS" : "CHECK") << "\n";
}

// ---- registry construction -------------------------------------------------

ScenarioSpec timing_spec(std::string name, std::string figure,
                         std::string description,
                         void (*presenter)(const ScenarioOutcome&, std::ostream&)) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.figure = std::move(figure);
  s.description = std::move(description);
  s.kind = ScenarioSpec::Kind::kTiming;
  s.power_states = core::PowerState::paper_states();
  s.default_scale = 0.5;  // parsed for flag hygiene; analytic scenarios ignore it
  s.golden_scale = 0.5;
  s.present = presenter;
  return s;
}

ScenarioSpec fig6_spec(std::string name, std::string figure,
                       std::string description,
                       void (*presenter)(const ScenarioOutcome&, std::ostream&)) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.figure = std::move(figure);
  s.description = std::move(description);
  s.apps = workload::splash2_names();
  s.fabrics = kFig6Fabrics;
  s.power_states = {core::PowerState::full()};
  s.dram_presets = {mem::DramPreset::kDdr3_200ns};
  // The Fig. 6 interconnect comparison has no capacity story; 0.25 keeps
  // the 32 packet-switched runs quick.  Golden runs shrink further for CI.
  s.default_scale = 0.25;
  s.golden_scale = 0.005;
  s.present = presenter;
  return s;
}

ScenarioSpec states_spec(std::string name, std::string figure,
                         std::string description, mem::DramPreset preset,
                         void (*presenter)(const ScenarioOutcome&, std::ostream&)) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.figure = std::move(figure);
  s.description = std::move(description);
  s.apps = workload::splash2_names();
  s.fabrics = {cluster::Fabric::kMot};
  s.power_states = core::PowerState::paper_states();
  s.dram_presets = {preset};
  // The EDP experiments need working-set *reuse*: scale 0.5 by default.
  s.default_scale = 0.5;
  s.golden_scale = 0.02;
  s.present = presenter;
  return s;
}

ScenarioSpec thermal_spec() {
  ScenarioSpec s;
  s.name = "thermal_envelope";
  s.figure = "§III (thermal)";
  s.description = "3-D stack thermal envelopes: ambient x ceiling x fabric";
  // One cache-light and one capacity/miss-heavy program, the MoT against
  // the packet-switched mesh (only the MoT can gate banks to cool down),
  // over ambient x ceiling envelopes.
  s.apps = {"fft", "ocean_contiguous"};
  s.fabrics = {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d};
  s.power_states = {core::PowerState::full()};
  s.dram_presets = {mem::DramPreset::kDdr3_200ns};
  s.thermal_envelopes = {
      thermal::ThermalEnvelope{true, 45.0, 85.0},
      thermal::ThermalEnvelope{true, 45.0, 70.0},
      thermal::ThermalEnvelope{true, 60.0, 85.0},
      thermal::ThermalEnvelope{true, 60.0, 70.0},
  };
  s.default_scale = 0.5;
  s.golden_scale = 0.02;
  s.present = present_thermal;
  return s;
}

ScenarioSpec coherence_spec() {
  ScenarioSpec s;
  s.name = "coherence_sharing";
  s.figure = "§II (coherence)";
  s.description =
      "directory-MESI sharing patterns: invalidation traffic on the fabrics";
  // The four sharing patterns against the MoT and the packet-switched
  // mesh, Full and bank-gated (only the MoT runs gated): invalidations,
  // upgrades and data forwards all ride the regular fabrics, so the
  // interconnect comparison extends to coherence traffic.
  s.apps = workload::sharing_profile_names();
  s.fabrics = {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d};
  s.power_states = {core::PowerState::full(), core::PowerState::pc16_mb8()};
  s.dram_presets = {mem::DramPreset::kDdr3_200ns};
  s.default_scale = 0.5;
  s.golden_scale = 0.02;
  s.present = present_coherence;
  return s;
}

ScenarioSpec fault_spec() {
  ScenarioSpec s;
  s.name = "fault_resilience";
  s.figure = "§III (resilience)";
  s.description =
      "TSV/link/bank fault injection: graceful degradation vs hard failure";
  // One representative app; the MoT against the packet-switched mesh (only
  // the MoT can gate around a dead bank), Full and the MB8 floor, over
  // three fault envelopes: degrades only, degrades + some hard faults,
  // and a harsher mix with a different seed.  The seeds are chosen so the
  // hard faults land on *gateable* banks (outside the MB8 centre group
  // 12..19): the scenario demonstrates graceful degradation vs structural
  // failure across fabrics, while tests/test_fault.cpp covers the
  // centre-group fault that is unrecoverable even on the MoT.
  s.apps = {"fft"};
  s.fabrics = {cluster::Fabric::kMot, cluster::Fabric::kTrueMesh3d};
  s.power_states = {core::PowerState::full(), core::PowerState::pc16_mb8()};
  s.dram_presets = {mem::DramPreset::kDdr3_200ns};
  s.fault_envelopes = {
      fault::FaultEnvelope{true, 1.0, 0.0, 101},
      fault::FaultEnvelope{true, 1.0, 0.5, 103},
      fault::FaultEnvelope{true, 2.0, 1.0, 202},
  };
  s.default_scale = 0.5;
  s.golden_scale = 0.02;
  s.present = present_fault;
  return s;
}

ScenarioSpec scale_smoke_spec() {
  ScenarioSpec s;
  s.name = "scale_smoke";
  s.figure = "-";
  s.description =
      "256-core scale-out smoke: heavy-sharing patterns on the MoT, golden-pinned";
  // The hot-path data layout (arena-backed directory slices, multi-word
  // sharer bitvectors, batched fabric delivery, sparse arbitration) must
  // stay bit-identical at shapes past the 64-core sharer-word boundary.
  // A reduced-scale 256-core x 512-bank sweep over the two heaviest
  // sharing patterns pins that behaviour: the golden suite runs it under
  // both schedulers and diffs the serialised metrics byte-for-byte.
  s.apps = {"all_to_all", "producer_consumer"};
  s.fabrics = {cluster::Fabric::kMot};
  s.power_states = {power_state_by_name("Full256x512")};
  s.dram_presets = {mem::DramPreset::kDdr3_200ns};
  s.default_scale = 0.1;
  s.golden_scale = 0.02;
  return s;
}

ScenarioSpec stacked_dram_spec() {
  ScenarioSpec s;
  s.name = "stacked_dram";
  s.figure = "§II (3-D DRAM)";
  s.description =
      "3-D stacked-DRAM backend: vaults, refresh, thermal vault remap";
  // One cache-light and one miss-heavy program under a thermal envelope,
  // crossing the backend axis: the constant-latency controller the paper
  // evaluates, the vault-parallel stack, and the stack with thermal vault
  // remapping engaged.  Golden-pinned under both schedulers: FR-FCFS
  // grants, refresh timing and remap decisions are all deterministic.
  s.apps = {"fft", "ocean_contiguous"};
  s.fabrics = {cluster::Fabric::kMot};
  s.power_states = {core::PowerState::full()};
  s.dram_presets = {mem::DramPreset::kDdr3_200ns};
  s.thermal_envelopes = {thermal::ThermalEnvelope{true, 45.0, 85.0}};
  s.dram_backends = {DramBackendMode::kConstant, DramBackendMode::kStacked,
                     DramBackendMode::kStackedRemap};
  s.default_scale = 0.5;
  s.golden_scale = 0.02;
  s.present = present_stacked;
  return s;
}

ScenarioSpec custom_spec(std::string name, std::string description,
                         int (*body)(const ScenarioSpec&, const ScenarioOptions&,
                                     std::ostream&),
                         double default_scale) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.figure = "-";
  s.description = std::move(description);
  s.kind = ScenarioSpec::Kind::kCustom;
  s.default_scale = default_scale;
  s.golden_scale = default_scale;
  s.has_golden = false;
  s.run_custom = body;
  return s;
}

std::vector<ScenarioSpec> build_registry() {
  std::vector<ScenarioSpec> r;
  r.push_back(timing_spec("table1_config", "Table I",
                          "architecture configuration + derived L2 latencies",
                          present_table1));
  r.push_back(timing_spec("fig5_wire_lengths", "Fig. 5",
                          "wire lengths and link delays per power state",
                          present_fig5));
  r.push_back(fig6_spec("fig6a_l2_latency", "Fig. 6(a)",
                        "L2 access latency of the four 3-D interconnects",
                        present_fig6a));
  r.push_back(fig6_spec("fig6b_exec_time", "Fig. 6(b)",
                        "execution time per interconnect (DRAM 200 ns)",
                        present_fig6b));
  r.push_back(states_spec("fig7a_edp_200ns", "Fig. 7(a)",
                          "EDP per power state, DRAM 200 ns",
                          mem::DramPreset::kDdr3_200ns, present_fig7a));
  r.push_back(states_spec("fig7b_exec_time_states", "Fig. 7(b)",
                          "execution time per power state, DRAM 200 ns",
                          mem::DramPreset::kDdr3_200ns, present_fig7b));
  r.push_back(states_spec("fig8a_edp_63ns", "Fig. 8(a)",
                          "EDP per power state, Wide I/O DRAM 63 ns",
                          mem::DramPreset::kWideIo_63ns,
                          [](const ScenarioOutcome& out, std::ostream& os) {
                            (void)present_edp_table(out, os);
                          }));
  r.push_back(states_spec("fig8b_edp_42ns", "Fig. 8(b)",
                          "EDP per power state, Weis 3-D DRAM 42 ns",
                          mem::DramPreset::kWeis3d_42ns,
                          [](const ScenarioOutcome& out, std::ostream& os) {
                            (void)present_edp_table(out, os);
                          }));
  r.push_back(thermal_spec());
  r.push_back(coherence_spec());
  r.push_back(fault_spec());
  r.push_back(scale_smoke_spec());
  r.push_back(stacked_dram_spec());
  r.push_back(custom_spec("ablation_wire",
                          "repeater insertion vs Elmore wire delay",
                          run_ablation_wire, 0.5));
  r.push_back(custom_spec("ablation_pipeline",
                          "MoT latency vs offered load across power states",
                          run_ablation_pipeline, 0.5));
  return r;
}

}  // namespace

const std::vector<ScenarioSpec>& all_scenarios() {
  static const std::vector<ScenarioSpec> registry = build_registry();
  return registry;
}

const ScenarioSpec* find_scenario(const std::string& name) {
  for (const ScenarioSpec& s : all_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> golden_scenario_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& s : all_scenarios()) {
    if (s.has_golden) names.push_back(s.name);
  }
  return names;
}

}  // namespace mot3d::sim
