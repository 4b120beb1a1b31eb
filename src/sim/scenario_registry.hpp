// Registry of the paper's experiments as declarative ScenarioSpecs: one
// entry per figure/table (plus the two custom ablation bodies).
// The `mot3d_experiments` CLI lists/runs them by name, and the golden suite
// (tests/test_golden_figures.cpp) pins the metrics JSON of every entry
// with `has_golden`.
#pragma once

#include <string>
#include <vector>

#include "sim/scenario.hpp"

namespace mot3d::sim {

/// All registered scenarios, in presentation order (Table I first, then
/// the figures, then the ablations).
const std::vector<ScenarioSpec>& all_scenarios();

/// Lookup by registry name; nullptr when unknown.
const ScenarioSpec* find_scenario(const std::string& name);

/// Names of every scenario that pins a golden baseline.
std::vector<std::string> golden_scenario_names();

}  // namespace mot3d::sim
