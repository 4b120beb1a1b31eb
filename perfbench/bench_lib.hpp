// Helpers shared by the benchmark driver and its self-test: the workload
// grids, the seeded service request generator, response-line parsing, the
// host-speed probe that scales every timing, and an in-memory span log
// written out as Chrome-trace JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "sim/scenario.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- sweep workloads -------------------------------------------------------

/// One cell of a sweep workload and the registered sweep it comes from.
struct SweepCell {
  std::string source;  ///< registry name, e.g. "fig7a_edp_200ns"
  mot3d::sim::ScenarioRun run;
};

/// Every cell of `workload` in registry-then-grid order: all of
/// fig6b_exec_time for "fig6_fabrics", only the MoT cells of the
/// mot_stack sources for "mot_stack".  Throws on an unknown name.
std::vector<SweepCell> sweep_cells(const std::string& workload);

/// Model scale the workload runs its cells at.
double sweep_scale(const std::string& workload);

// ---- service requests ------------------------------------------------------

/// One single-cell request of the sweep service protocol.
struct ServiceCell {
  std::string app;
  std::string state;  ///< power-state name, e.g. "PC4-MB8"
  std::string dram;   ///< DRAM preset key, e.g. "200"
  std::uint64_t seed = 0;
  std::string fabric = "mot";
};

/// Model scale of every service_replay request: tiny, so a miss costs
/// little simulation and the service's own work shows.
inline constexpr double kServiceScale = 0.002;
/// Every kNewCellPeriod-th request of the replay is a never-seen cell.
inline constexpr std::size_t kNewCellPeriod = 50;

/// NDJSON request line for one cell (`id` is echoed back by the service).
std::string request_line(std::uint64_t id, const ServiceCell& cell, double scale);

/// The warm set: every SPLASH-2 app x paper power state x {200, 42} ns
/// DRAM on the MoT, all at `seed` (64 cells).
std::vector<ServiceCell> warm_set(std::uint64_t seed);

/// The replay stream: `n` request lines, ids from `first_id`.  Request i
/// draws a warm-set cell from a Zipf(1) popularity over a fixed ranking,
/// except every kNewCellPeriod-th, which is a cell no earlier request
/// named (the warm-set shape under a fresh seed).  Same seed, same bytes.
std::vector<std::string> replay_stream(std::uint64_t seed, std::size_t n,
                                       std::uint64_t first_id);

/// One job line of a service_loop response.
struct JobLine {
  bool ok = false;         ///< a result, not an error
  bool cache_hit = false;
  std::string spec_hash;
  std::string payload;     ///< canonical run-metrics JSON, byte-exact
  std::string error;
};

/// Parse the first job line of a one-request service_loop output.
/// Returns false when the output holds no job line.
bool parse_job_line(const std::string& output, JobLine* job);

/// Integer value of a top-level numeric field of a canonical run JSON
/// (e.g. "cycles"); 0 when absent.
std::uint64_t payload_u64(const std::string& payload, const std::string& key);

// ---- host-speed probe ------------------------------------------------------

/// Host-speed probe: fixed work owned by the benchmark, not the program,
/// so no program change touches it.  On a shared host the speed one
/// process gets moves by tens of percent within seconds and drifts over
/// minutes, as neighbours contend for caches, memory and the kernel;
/// timing the probe between units of measured work and scaling each unit
/// by nominal() over the mean of the samples around it takes most of that
/// drift out, while a program change still moves the scaled times in full.
///
/// Every sample runs a data-bound kernel: a binary-heap event queue
/// driving per-entity state and table updates over about 2.5 MiB, reset
/// (and so refilled into cache) in every sample, like the simulator
/// between two cells.  A probe given a file also times kernel file calls
/// (open, read, close, stat of a small file), which are most of a sweep
/// service cache hit.
class SpeedProbe {
 public:
  /// The data-bound kernel only: for simulation.
  SpeedProbe();
  /// Also the file calls, on a 2 KiB file it creates at `file` and
  /// removes when destroyed: for sweep service requests.
  explicit SpeedProbe(std::string file);
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Run the probe once; returns the sample's seconds and records it.
  double sample();

  /// Seconds one sample takes on the reference host (one 2.1 GHz Xeon
  /// vCPU of a shared VM, when quiet).  Scaled times are seconds at the
  /// host speed at which one sample takes this long.
  double nominal() const;

  /// nominal() over the mean of samples `a` and `b` (seconds).
  double scale(double a, double b) const { return 2.0 * nominal() / (a + b); }

  /// The work the data-bound kernel does is fixed: the same checksum
  /// every sample.
  std::uint64_t checksum() const { return checksum_; }

  const std::vector<double>& samples() const { return samples_; }

 private:
  struct Entity {
    std::uint64_t a, b;
    std::uint32_t c, d;
  };
  std::vector<Entity> entities_;
  std::vector<std::uint32_t> table_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heap_;
  std::string file_;  ///< empty: no file calls
  std::vector<double> samples_;
  std::uint64_t checksum_ = 0;
};

/// Scales raw durations by the probe samples that bracket them: it takes
/// a sample on construction and whenever the units added since the last
/// sample reach `every_s` raw seconds, and scales those units by
/// probe.scale(sample before, sample after).
class ScaledTimer {
 public:
  ScaledTimer(SpeedProbe& probe, double every_s);

  /// One unit's raw seconds.
  void add(double raw_s);

  /// Sample once more if units are pending; returns every unit's scaled
  /// seconds, in the order they were added.
  const std::vector<double>& finish();

 private:
  SpeedProbe& probe_;
  double every_s_;
  double last_sample_;
  double pending_s_ = 0.0;
  std::vector<double> pending_;
  std::vector<double> scaled_;
};

// ---- spans -----------------------------------------------------------------

/// Spans kept in memory and written once, at exit, as Chrome-trace JSON
/// (one complete event per span; open it in Perfetto).  A disabled log
/// records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Record [begin, end] under `parent` (-1 for a root); returns the
  /// span's index for children to name as parent (-1 when disabled).
  int add(const std::string& name, std::uint64_t id, int parent,
          Clock::time_point begin, Clock::time_point end);

  void write_chrome_trace(std::ostream& os, const std::string& process) const;

 private:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    int parent = -1;
    double begin_us = 0.0;
    double end_us = 0.0;
  };

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
