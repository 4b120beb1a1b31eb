// Runtime power-gating demonstration (paper Section III).
//
// Runs a workload on the Full connection, then — mid-execution — quiesces
// the interconnect, writes the dirty lines of the to-be-gated banks back
// to DRAM over the Miss bus, reprograms the routing switches' ctr signals
// into user-defined mode, and continues in PC16-MB8.  Shows the remap in
// action (logical -> physical banks) and the cost of the transition.
//
//   $ ./examples/power_gating [scale]
#include <iostream>

#include "cluster/cluster.hpp"
#include "common/table.hpp"
#include "core/reconfig.hpp"

int main(int argc, char** argv) {
  using namespace mot3d;
  const double scale = argc > 1 ? std::stod(argv[1]) : 0.05;

  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name("fft"), cluster::Fabric::kMot,
      core::PowerState::full(), mem::DramPreset::kDdr3_200ns, scale);
  cluster::Cluster cluster(cfg);

  // Phase 1: run a while at Full connection to dirty the L2.
  cluster.step(30000);
  core::MotInterconnect* mot = cluster.mot();
  std::cout << "t=" << cluster.now() << "  state=" << mot->state().name()
            << "  L2 hits so far=" << cluster.l2().stats().hits << "\n";

  // Phase 2: quiesce — let in-flight transactions drain (cores stall on
  // their own; we simply stop issuing by stepping until the fabric idles).
  Cycle drain = 0;
  while (!cluster.interconnect().idle() && drain < 10000) {
    cluster.step(1);
    ++drain;
  }
  std::cout << "quiesced after " << drain << " cycles\n";

  // Phase 3: reconfigure to PC16-MB8.
  std::size_t dirty_before = 0;
  for (BankId b = 0; b < 32; ++b) dirty_before += cluster.l2().dirty_lines(b);
  const core::ReconfigCost cost =
      core::reconfigure(*mot, cluster.l2(), cluster.dram(), nullptr,
                        core::PowerState::pc16_mb8(), cluster.now());

  TextTable t("reconfiguration Full -> PC16-MB8");
  t.set_header({"metric", "value"});
  t.add_row({"dirty lines in cluster before", std::to_string(dirty_before)});
  t.add_row({"dirty lines flushed (gated banks)",
             std::to_string(cost.dirty_lines_flushed)});
  t.add_row({"flush serialisation", std::to_string(cost.flush_cycles) + " cycles"});
  t.add_row({"ctr reprogramming", std::to_string(cost.reprogram_cycles) + " cycles"});
  t.add_row({"flush energy", fmt_fixed(cost.flush_energy_pj / 1000.0, 1) + " nJ"});
  t.add_row({"L2 latency now",
             std::to_string(mot->state_timing().l2_round_trip()) + " cycles (was 12)"});
  t.print(std::cout);

  // The user-defined routing switches in action: logical banks fold onto
  // the powered centre group exactly as in the paper's Fig. 4.
  TextTable remap("bank remap under PC16-MB8 (centre fold)");
  remap.set_header({"logical", "physical", "logical", "physical"});
  for (BankId b = 0; b < 16; ++b) {
    remap.add_row({"M" + std::to_string(b), "M" + std::to_string(mot->route(b)),
                   "M" + std::to_string(b + 16),
                   "M" + std::to_string(mot->route(b + 16))});
  }
  remap.print(std::cout);

  // Phase 4: continue to completion in the gated state.
  const cluster::SimResult r = cluster.run();
  std::cout << "\nfinished at t=" << r.cycles << "  (state " << mot->state().name()
            << ", " << cluster.l2().num_active_banks() << " banks, "
            << "interconnect leakage " << fmt_fixed(mot->leakage_mw(), 1)
            << " mW vs " << fmt_fixed(core::MotTimingModel(cfg.tech, cfg.floorplan,
                                                           cfg.l2_bank_sram)
                                          .leakage_mw(core::PowerState::full()),
                                      1)
            << " mW at Full)\n";
  return 0;
}
