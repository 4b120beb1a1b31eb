// Parallel experiment runner: executes independent cluster simulations
// across a worker-thread pool with deterministic result ordering.
//
// Every paper figure is a sweep over (app x fabric x power state x DRAM
// preset) configurations whose runs share no mutable state — each task
// builds and owns its Cluster.  The runner hands tasks to workers through
// an atomic cursor and stores each result at the task's own index, so the
// returned vector (and every table or JSON byte derived from it) is
// byte-identical at any thread count, including 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"

namespace mot3d::sim {

/// Wall-clock and simulated-throughput telemetry accumulated across every
/// run_isolated() call on a SweepRunner — the numbers behind the `--json`
/// perf reports and the `[perf]` line.
struct PerfTelemetry {
  unsigned threads = 1;
  std::uint64_t runs = 0;               ///< completed simulations
  std::uint64_t simulated_cycles = 0;   ///< sum of SimResult::cycles
  double wall_seconds = 0.0;

  double cycles_per_second() const {
    return wall_seconds <= 0.0
               ? 0.0
               : static_cast<double>(simulated_cycles) / wall_seconds;
  }
};

/// One task's outcome under SweepRunner::run_isolated: either a result or
/// the message of the exception that killed that task alone.
struct IsolatedResult {
  cluster::SimResult result;
  std::string error;  ///< empty on success
  bool ok() const { return error.empty(); }
};

class SweepRunner {
 public:
  using Task = std::function<cluster::SimResult()>;

  /// `threads == 0` selects std::thread::hardware_concurrency().
  explicit SweepRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Run every task, concurrently up to the thread budget, with per-task
  /// fault isolation: a throwing task records its exception message at its
  /// own index and never aborts its peers — all n tasks always execute,
  /// and the returned vector is in task order (byte-identical at any
  /// thread count), so one wedged or timed-out simulation never costs the
  /// rest of its sweep.
  std::vector<IsolatedResult> run_isolated(const std::vector<Task>& tasks);

  /// Deterministically-indexed generic parallel loop: fn(i) for i in
  /// [0, n).  fn must only write state owned by index i.  A throwing fn
  /// stops new indices from starting (in-flight ones finish) and the first
  /// exception by index is rethrown after the pool drains.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  const PerfTelemetry& telemetry() const { return telemetry_; }

  static unsigned resolve_threads(unsigned requested);

 private:
  unsigned threads_;
  PerfTelemetry telemetry_;
};

}  // namespace mot3d::sim
