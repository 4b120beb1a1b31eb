// Custom scenario bodies: experiments that are not a declarative grid —
// the two modeling ablations.  They are registered in the scenario
// registry as Kind::kCustom so that `mot3d_experiments` can list and run
// them, but they pin no golden baseline (their outputs are design-space
// tables rather than figure metrics).
#pragma once

#include <iosfwd>

namespace mot3d::sim {

struct ScenarioOptions;
struct ScenarioSpec;

/// Repeater insertion vs Elmore wire delay
/// (`mot3d_experiments run ablation_wire`).
int run_ablation_wire(const ScenarioSpec& spec, const ScenarioOptions& opt,
                      std::ostream& os);

/// MoT contention vs offered load across power states
/// (`mot3d_experiments run ablation_pipeline`).
int run_ablation_pipeline(const ScenarioSpec& spec, const ScenarioOptions& opt,
                          std::ostream& os);

}  // namespace mot3d::sim
