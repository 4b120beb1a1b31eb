// Quickstart: build the paper's 3-D multi-core cluster (16 ARM-class cores,
// 32 stacked L2 banks, circuit-switched 3-D MoT interconnect), run one
// SPLASH-2-style workload, and print the headline metrics.
//
//   $ ./examples/quickstart [app] [scale]
//
// Apps: cholesky fft volrend raytrace fmm radix ocean_contiguous
//       water_nsquared            (default: fft at scale 0.1)
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace mot3d;

  const std::string app = argc > 1 ? argv[1] : "fft";
  const double scale = argc > 2 ? std::stod(argv[2]) : 0.1;

  // 1. Describe the system: Table I architecture + the 3-D MoT fabric in
  //    its Full-connection power state, off-chip DDR3 at 200 ns.
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name(app), cluster::Fabric::kMot,
      core::PowerState::full(), mem::DramPreset::kDdr3_200ns, scale);

  // 2. Build and run to completion.
  cluster::Cluster cluster(cfg);
  const cluster::SimResult r = cluster.run();

  // 3. Report.
  std::cout << "app=" << r.app << "  fabric=" << r.fabric
            << "  state=" << r.power_state << "  dram=" << r.dram_latency_ns
            << "ns\n\n";

  TextTable t("run summary");
  t.set_header({"metric", "value"});
  t.add_row({"execution time", std::to_string(r.cycles) + " cycles (" +
                                   fmt_fixed(r.cycles / 1e6, 3) + " ms @1GHz)"});
  t.add_row({"instructions", std::to_string(r.instructions)});
  t.add_row({"IPC (all cores)", fmt_fixed(r.ipc(), 2)});
  t.add_row({"L1D miss rate", fmt_percent(r.l1d_miss_rate)});
  t.add_row({"L2 accesses", std::to_string(r.l2.accesses())});
  t.add_row({"L2 hit rate", fmt_percent(r.l2.hit_rate())});
  t.add_row({"L2 access latency (hits)", fmt_fixed(r.l2_hit_latency.mean(), 1) +
                                             " cycles (min " +
                                             std::to_string(r.l2_hit_latency.digest().min) +
                                             ")"});
  t.add_row({"DRAM reads", std::to_string(r.dram.reads)});
  t.add_row({"energy (core+L1+L2+icn)",
             fmt_fixed(r.energy.edp_energy_pj() * 1e-9, 3) + " mJ"});
  t.add_row({"average power", fmt_fixed(r.avg_power_w, 3) + " W"});
  t.add_row({"EDP", fmt_fixed(r.edp_pj_s * 1e-9, 6) + " mJ*s"});
  t.print(std::cout);

  std::cout << "\nTip: `mot3d_experiments grid --apps=" << app
            << " --fabrics=mesh3d,busmesh,bustree,mot`\n"
               "runs this app on all four fabrics; --states= and --dram= sweep\n"
               "power states and DRAM latencies.  examples/power_gating shows\n"
               "runtime reconfiguration; examples/state_advisor picks a power\n"
               "state per app.\n";
  return 0;
}
