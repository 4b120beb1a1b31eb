#include "sim/sweep_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <thread>

namespace mot3d::sim {

unsigned SweepRunner::resolve_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

SweepRunner::SweepRunner(unsigned threads) : threads_(resolve_threads(threads)) {
  telemetry_.threads = threads_;
}

void SweepRunner::parallel_for(std::size_t n,
                               const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(threads_, n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::vector<std::exception_ptr> errors(n);
  auto worker = [&] {
    for (;;) {
      // Stop starting new tasks once any task has failed (in-flight tasks
      // finish); matches the serial path's abort-on-first-throw behavior.
      if (failed.load(std::memory_order_relaxed)) return;
      const std::size_t i = cursor.fetch_add(1);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();

  // Rethrow the first failure by task index (deterministic choice).
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

std::vector<IsolatedResult> SweepRunner::run_isolated(
    const std::vector<Task>& tasks) {
  std::vector<IsolatedResult> results(tasks.size());
  const auto t0 = std::chrono::steady_clock::now();
  // The catch lives *inside* fn, so parallel_for never sees a failure and
  // never stops handing out tasks — isolation, not abort-on-first-throw.
  parallel_for(tasks.size(), [&](std::size_t i) {
    try {
      results[i].result = tasks[i]();
    } catch (const std::exception& e) {
      results[i].error = e.what();
    } catch (...) {
      results[i].error = "unknown exception";
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  telemetry_.wall_seconds += std::chrono::duration<double>(t1 - t0).count();
  telemetry_.runs += tasks.size();
  for (const IsolatedResult& r : results) {
    if (r.ok()) telemetry_.simulated_cycles += r.result.cycles;
  }
  return results;
}

}  // namespace mot3d::sim
