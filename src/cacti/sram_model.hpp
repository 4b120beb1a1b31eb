// CACTI-lite: analytical SRAM bank timing / energy / area model.
//
// The paper estimates "the size of a cache bank and the propagation delay
// from bank I/Os to memory core cells" with CACTI 4.0 [13].  We reimplement
// the role CACTI plays — capacity/organisation in, access time + energy +
// leakage + area out — with compact analytical fits whose constants are
// anchored to published CACTI 45 nm data points (a 64 KB bank lands at
// ~0.94 ns access / ~40 pJ per read / ~1.3 mW leakage).
//
// The fits follow CACTI's structural scaling: decoder + wordline + bitline
// delay grows with the square root of the array's bit count; energy per
// access likewise (bitline swing dominates); leakage is linear in bits.
#pragma once

#include <cstddef>

namespace mot3d::cacti {

/// Organisation of one SRAM cache bank.
struct SramBankConfig {
  std::size_t capacity_bytes = 64 * 1024;
  std::size_t line_bytes = 32;
  std::size_t associativity = 8;
  double tech_nm = 45.0;  ///< feature size; fits are anchored at 45 nm
};

/// Derived timing / power / area for one bank.
struct SramBankResult {
  double access_ns = 0.0;      ///< I/O-to-cell-and-back propagation delay
  double cycle_ns = 0.0;       ///< bank busy time between accesses
  double read_energy_pj = 0.0; ///< per read access
  double write_energy_pj = 0.0;///< per write access
  double leakage_mw = 0.0;     ///< static power while powered
  double area_mm2 = 0.0;       ///< silicon footprint
};

/// Evaluate the model.  Associativity adds tag-compare/way-select overhead
/// on both delay and energy (a few percent per doubling, as in CACTI).
SramBankResult evaluate(const SramBankConfig& cfg);

/// Access latency in whole 1 GHz cycles, incl. bank-side interface flops
/// (decode-in + array + data-out pipeline as in the paper's 3-cycle bank).
unsigned access_cycles(const SramBankConfig& cfg, double clock_period_ns);

}  // namespace mot3d::cacti
