// Interval metrics registry: a named table of counter samples taken on
// deterministic epoch boundaries.
//
// It has one producer: Cluster::sample_metrics() opens a row when the
// simulated clock crosses an epoch boundary, and once more at the
// run-end flush, then puts every counter (cluster.*, fabric.*, l2.*,
// dram.*, coherence.*, thermal.*, energy.*) read from the components'
// public stats.  The boundary is folded into the cluster's next_event
// computation — the same pattern as thermal sampling — so the
// event-driven scheduler lands on exactly the cycles the dense
// scheduler walks through, and the exported time series is
// bit-identical between the two (pinned by tests/test_obs.cpp).
//
// NaN is the explicit null.  A statistic with no samples yet (RunningStat
// and friends return 0.0 for min()/max() when empty, indistinguishable
// from a real zero) is put as kNull and serialised as JSON null / an
// empty CSV cell.
#pragma once

#include <cstddef>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace mot3d::obs {

class MetricsRegistry {
 public:
  /// The explicit null sample.
  static constexpr double kNull = std::numeric_limits<double>::quiet_NaN();

  explicit MetricsRegistry(Cycle epoch_cycles) : epoch_(epoch_cycles) {}

  Cycle epoch_cycles() const { return epoch_; }

  /// Opens the row of simulated cycle `now`; put() fills it.
  void start_row(Cycle now);

  /// Puts the open row's next counter under its dotted `name`; an
  /// integer count converts exactly below 2^53.  The first row names the
  /// columns; every later row must put the same names in the same order.
  void put(std::string_view name, double value);

  std::size_t counter_count() const { return counters_.size(); }
  const std::string& counter_name(std::size_t i) const {
    return counters_[i].name;
  }
  std::size_t sample_count() const { return cycles_.size(); }
  Cycle sample_cycle(std::size_t s) const { return cycles_[s]; }
  /// NaN encodes an explicit null sample.
  double value(std::size_t counter, std::size_t s) const {
    return counters_[counter].series[s];
  }
  Cycle last_sample_cycle() const {
    return cycles_.empty() ? kNeverCycle : cycles_.back();
  }

  /// One run object: {"cycles":[...],"counters":{"name":[...],...}}.
  void write_json(std::ostream& os) const;
  /// Long-format CSV rows "run,cycle,counter,value" (header is the
  /// caller's; null samples leave the value cell empty).
  void write_csv_rows(std::ostream& os, const std::string& run) const;

 private:
  struct Counter {
    std::string name;
    std::vector<double> series;
  };

  Cycle epoch_;
  std::vector<Cycle> cycles_;
  std::vector<Counter> counters_;
  std::size_t next_ = 0;  ///< the column the open row's next put() fills
};

}  // namespace mot3d::obs
