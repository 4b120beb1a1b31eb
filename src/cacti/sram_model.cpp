#include "cacti/sram_model.hpp"

#include <cmath>

namespace mot3d::cacti {

namespace {
// Anchored at 45 nm; other nodes scale delay ~linearly and energy
// ~quadratically with feature size (constant-field scaling).
constexpr double kBaseNm = 45.0;

double tech_delay_scale(double nm) { return nm / kBaseNm; }
double tech_energy_scale(double nm) { return (nm / kBaseNm) * (nm / kBaseNm); }

double assoc_penalty(std::size_t assoc) {
  // Way-select mux + tag compare: ~3% per doubling beyond direct-mapped.
  double p = 1.0;
  for (std::size_t a = 1; a < assoc; a <<= 1) p *= 1.03;
  return p;
}
}  // namespace

SramBankResult evaluate(const SramBankConfig& cfg) {
  SramBankResult r;
  const double kb = static_cast<double>(cfg.capacity_bytes) / 1024.0;
  const double sqrt_kb = std::sqrt(kb);
  const double ds = tech_delay_scale(cfg.tech_nm);
  const double es = tech_energy_scale(cfg.tech_nm);
  const double ap = assoc_penalty(cfg.associativity);

  // Decoder + wordline + bitline + senseamp + output driver.
  r.access_ns = (0.30 + 0.08 * sqrt_kb) * ds * ap;
  // Banks are internally pipelined (decode / array / output).
  r.cycle_ns = r.access_ns * 0.60;

  // Bitline + senseamp + output energy; reads and writes within ~10%.
  const double line_scale =
      static_cast<double>(cfg.line_bytes) / 32.0;  // wider line -> more I/O energy
  r.read_energy_pj = (2.0 + 4.75 * sqrt_kb) * es * ap * (0.7 + 0.3 * line_scale);
  r.write_energy_pj = r.read_energy_pj * 1.10;

  // Leakage: linear in capacity; 6T cell + peripheral share.
  r.leakage_mw = 0.020 * kb * es;

  // Area: slightly sub-linear in capacity (peripheral amortisation).
  r.area_mm2 = 0.009 * std::pow(kb, 0.92) * (cfg.tech_nm / kBaseNm) * (cfg.tech_nm / kBaseNm);
  return r;
}

unsigned access_cycles(const SramBankConfig& cfg, double clock_period_ns) {
  const SramBankResult r = evaluate(cfg);
  // The array access takes ceil(access/clock) cycles, plus one TSV-bus
  // interface stage (the bank-side flops shown in Fig. 1).
  const auto array_cycles =
      static_cast<unsigned>(std::ceil(r.access_ns / clock_period_ns - 1e-9));
  return array_cycles + 1;
}

}  // namespace mot3d::cacti
