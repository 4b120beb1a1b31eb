// Technology parameters for the 45 nm-class process assumed by the paper's
// physical models (Elmore RC wires [15][20], TSV electrical model [15],
// micro-bump bonding [14]).
//
// All lengths are millimetres, times nanoseconds, capacitances femtofarads,
// resistances ohms, unless a suffix says otherwise.  The cluster clock is
// 1 GHz, so 1 ns == 1 cycle.
#pragma once

namespace mot3d::phys {

/// Process/circuit constants shared by the wire, TSV and switch models.
struct TechnologyParams {
  // -- global --
  double vdd_v = 1.0;             ///< supply voltage
  double clock_period_ns = 1.0;   ///< 1 GHz cluster clock (Table I)

  // -- minimum-pitch channel wire (per mm), 45 nm ITRS-range RC for the
  //    dense MoT routing channel --
  double wire_res_ohm_per_mm = 2000.0;
  double wire_cap_ff_per_mm = 400.0;

  // -- repeater (inverter) inserted along on-chip wires; the paper
  //    power-gates exactly these inverters --
  double repeater_res_ohm = 500.0;    ///< effective drive resistance
  double repeater_cap_ff = 2.0;       ///< input gate capacitance
  double repeater_spacing_mm = 1.0;   ///< area/power-constrained spacing
  double repeater_leak_uw = 1.2;      ///< leakage per repeater, µW

  // -- MoT switch combinational delays (from the synthesizable designs in
  //    refs [8][9][10]; the request-side routing switch carries the address
  //    decode, the arbitration grant is precomputed round-robin, and the
  //    response-side collectors are plain 2:1 muxes) --
  double routing_switch_delay_ns = 0.10;
  double arbitration_switch_delay_ns = 0.075;
  double response_switch_delay_ns = 0.04;
  double interface_delay_ns = 0.25;  ///< core/bank network-interface flop+drv

  // -- switch energy/leakage (logic path, per traversal / per instance) --
  double switch_energy_fj_per_bit = 4.0;  ///< mux+demux toggle per data bit
  double switch_leak_uw = 6.0;            ///< per bus-wide switch instance

  // -- TSV / micro-bump (Katti [15]; IMEC bump pitch 40x50 µm [14]) --
  double tsv_res_ohm = 0.25;
  double tsv_cap_ff = 35.0;
  double tsv_height_um = 40.0;
  double bump_pitch_x_um = 40.0;
  double tsv_energy_fj_per_bit = 17.5;  ///< 0.5 * C_tsv * Vdd^2
};

/// Default technology: 45 nm-class, 1 V, 1 GHz.
inline constexpr TechnologyParams default_technology() { return TechnologyParams{}; }

}  // namespace mot3d::phys
