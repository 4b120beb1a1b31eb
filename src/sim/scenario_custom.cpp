#include "sim/scenario_custom.hpp"

#include <algorithm>
#include <ostream>
#include <string>
#include <vector>

#include "cacti/sram_model.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/mot_interconnect.hpp"
#include "phys/wire.hpp"
#include "sim/scenario.hpp"

namespace mot3d::sim {

// ---- Ablation: repeater insertion vs Elmore wire delay ---------------------

int run_ablation_wire(const ScenarioSpec&, const ScenarioOptions&,
                      std::ostream& os) {
  phys::TechnologyParams tech = phys::default_technology();
  os << "### Ablation: repeater insertion on the MoT channel wires\n";

  TextTable tbl("delay of 1/2/4 mm wires vs repeater spacing");
  tbl.set_header({"spacing (mm)", "1mm (ns)", "2mm (ns)", "4mm (ns)",
                  "repeaters on 4mm", "leak/bit on 4mm (uW)"});
  for (double spacing : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    tech.repeater_spacing_mm = spacing;
    const phys::WireModel w(tech);
    tbl.add_row({fmt_fixed(spacing, 2), fmt_fixed(w.repeated_delay_ns(1.0), 3),
                 fmt_fixed(w.repeated_delay_ns(2.0), 3),
                 fmt_fixed(w.repeated_delay_ns(4.0), 3),
                 std::to_string(w.repeater_count(4.0)),
                 fmt_fixed(w.leakage_uw_per_bit(4.0), 2)});
  }
  tbl.print(os);

  tech = phys::default_technology();
  const phys::WireModel w(tech);
  os << "unrepeated 4mm Elmore delay: " << fmt_fixed(w.unrepeated_delay_ns(4.0), 3)
     << " ns; design point (1mm spacing): " << fmt_fixed(w.repeated_delay_ns(4.0), 3)
     << " ns; delay-optimal spacing: " << fmt_fixed(w.optimal_spacing_mm(), 3)
     << " mm\n";
  return 0;
}

// ---- Ablation: MoT contention vs offered load ------------------------------

int run_ablation_pipeline(const ScenarioSpec&, const ScenarioOptions& opt,
                          std::ostream& os) {
  const phys::TechnologyParams tech = phys::default_technology();
  const phys::FloorplanParams fp;
  const cacti::SramBankConfig bank;
  const core::MotTimingModel model(tech, fp, bank);

  os << "### Ablation: MoT latency vs offered load (uniform traffic)\n";

  TextTable tbl("request latency (inject -> bank) vs per-core injection rate");
  tbl.set_header({"state", "rate", "mean (cy)", "p95 (cy)", "arb wait/req (cy)"});

  // Each (state, rate) combination drives its own MotInterconnect instance;
  // the combinations share only the immutable timing model, so they fan out
  // across the --threads pool with per-index result rows.
  struct Combo {
    const core::PowerState* state;
    double rate;
  };
  std::vector<Combo> combos;
  for (const core::PowerState& s : core::PowerState::paper_states()) {
    for (double rate : {0.02, 0.05, 0.10, 0.20}) combos.push_back({&s, rate});
  }
  std::vector<std::vector<std::string>> rows(combos.size());

  SweepRunner runner(opt.threads);
  runner.parallel_for(combos.size(), [&](std::size_t i) {
    const core::PowerState& s = *combos[i].state;
    const double rate = combos[i].rate;
    core::MotInterconnect icn(model, s);
    Histogram lat(1, 128);
    // Cores re-inject after delivery with probability `rate` per cycle.
    Rng rng(7);
    const Cycle horizon = 20000;
    std::uint64_t seq = 1;
    for (Cycle t = 0; t < horizon; ++t) {
      for (std::size_t th = 0; th < s.active_cores(); ++th) {
        const CoreId c = s.core_of_thread(th);
        if (rng.next_double() < rate) {
          MemRequest r{.id = seq++, .core = c,
                       .bank = static_cast<BankId>(rng.next_below(s.total_banks())),
                       .addr = 0, .is_write = false, .issue_cycle = t};
          (void)icn.try_inject_request(r, t);  // dropped if core busy
        }
      }
      icn.tick(t);
      for (const MemRequest& r : icn.delivered_requests()) {
        lat.add(t - r.issue_cycle);
      }
      icn.clear_deliveries();
    }
    const double waits =
        static_cast<double>(icn.stats().arbitration_wait_cycles) /
        static_cast<double>(std::max<std::uint64_t>(1, icn.stats().requests_delivered));
    rows[i] = {s.name(), fmt_fixed(rate, 2), fmt_fixed(lat.mean(), 1),
               std::to_string(lat.quantile(0.95)), fmt_fixed(waits, 2)};
  });
  for (const auto& row : rows) tbl.add_row(row);
  tbl.print(os);
  return 0;
}

}  // namespace mot3d::sim
