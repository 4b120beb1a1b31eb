// Sweep service: a cache-backed experiment server over the scenario engine.
//
// The "millions of users" framing for a simulator is sweep throughput:
// most large parameter studies re-run grids that overlap earlier ones, so
// `mot3d_experiments serve` / `batch` turn the CLI into a long-running
// daemon that dedupes and memoizes runs instead of recomputing them.
//
//  * Every grid cell is canonicalised to a byte-stable spec JSON (fixed
//    field order, canonical number formatting — the same guarantees the
//    golden baselines rely on) and keyed by its SHA-256 hash.
//  * A content-addressed on-disk cache maps that hash to the run's
//    canonical metrics JSON (sim::run_metrics_json — one element of the
//    golden "runs" array).  Results are byte-stable, so a cache hit is
//    bit-identical to recomputation; the property-test suite
//    (tests/test_sweep_service.cpp) pins exactly that.
//  * Cache misses shard across the SweepRunner pool via run_isolated —
//    one wedged or failed job becomes that job's error and never kills
//    the batch.  Errors are never cached.
//  * The scheduler is deliberately NOT part of the cache key: dense-tick
//    and event-driven runs are bit-identical by the scheduler-equivalence
//    contract, so either may serve the other's cache entries (pinned by
//    test).
//
// Request protocol: newline-delimited JSON on stdin / a --requests file,
// one response line per expanded job in deterministic grid order plus a
// per-request summary line (see DESIGN.md "Sweep service").
#pragma once

#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/service_metrics.hpp"
#include "sim/scenario.hpp"

namespace mot3d::sim {

/// One memoizable unit of work: a grid cell plus the modeled inputs.
struct SweepJob {
  ScenarioRun run;
  double scale = 0.5;
  std::uint64_t seed = 42;
  /// Per-job watchdog wall budget (0 = none).  NOT part of the cache key:
  /// errors are never cached, so the budget only bounds recomputation.
  double timeout_seconds = 0.0;
};

/// Byte-stable canonical spec JSON — the cache-key preimage.  Fixed field
/// set and insertion order regardless of how the job was requested, so
/// permuting request-axis value order or request-JSON field order cannot
/// change the key; changing any modeled input (app, fabric, power state,
/// DRAM preset/backend, thermal envelope, fault rates/seed, scale, seed)
/// always does.
std::string canonical_job_json(const SweepJob& job);

/// SHA-256 hex of canonical_job_json — the content address.
std::string job_hash(const SweepJob& job);

/// One job's resolution: provenance + payload or error.
struct JobOutcome {
  std::string spec_hash;
  bool cache_hit = false;  ///< served without computing (disk or in-flight)
  std::string payload;     ///< canonical run-metrics JSON; "" on error
  std::string error;       ///< non-empty on failure (never cached)
  bool ok() const { return error.empty(); }
};

struct ServiceConfig {
  std::string cache_dir;
  unsigned threads = 0;  ///< SweepRunner budget; 0 = hardware concurrency
  cluster::SchedulerMode scheduler = cluster::SchedulerMode::kEventDriven;
  /// Cache capacity in bytes (0 = unlimited).  When a store pushes the
  /// entries this service knows (found at start-up, stored or hit) over
  /// the cap, the least recently used are evicted until back under it.
  /// The order lives in memory; file times, stamped on every store and
  /// hit from one clock, carry it to the next process.
  std::uint64_t max_cache_bytes = 0;
};

struct CacheStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
};

class SweepService {
 public:
  /// Creates the cache directory; throws std::runtime_error when it cannot
  /// be created or written (the CLI turns that into one clean error line).
  /// One scan of the directory seeds the LRU index: entries oldest file
  /// time first, ties broken by file name.
  explicit SweepService(ServiceConfig cfg);

  /// Resolve every job — cache hits from disk, misses computed across the
  /// SweepRunner pool — returning outcomes in job order (byte-identical at
  /// any thread count).  Thread-safe: concurrent run_batch calls sharing
  /// jobs compute each unique spec exactly once (later callers wait on the
  /// in-flight computation and count as hits).  Truncated or
  /// hash-mismatched cache entries are detected, logged to stderr,
  /// recomputed and rewritten — never served.
  std::vector<JobOutcome> run_batch(const std::vector<SweepJob>& jobs);

  /// Scans the cache directory, so it counts other processes' entries too.
  CacheStats cache_stats() const;
  /// Removes every entry and empties the index; returns the count removed.
  std::size_t cache_clear();

  obs::ServiceCounters& counters() { return counters_; }
  const obs::ServiceCounters& counters() const { return counters_; }
  const ServiceConfig& config() const { return cfg_; }

 private:
  enum class Probe { kHit, kMiss, kCorrupt };

  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    JobOutcome outcome;
  };

  /// One entry of the LRU index.
  struct Indexed {
    std::string hash;
    std::uint64_t bytes = 0;  ///< the entry file's size
  };
  using Lru = std::list<Indexed>;

  std::string entry_path(const std::string& hash) const;
  /// Read and verify the entry at `path` (entry_path(hash)).  A hit's file
  /// time is stamped through the descriptor it was read from, and `bytes`
  /// receives the entry file's size.
  Probe load_entry(const std::string& path, const std::string& hash,
                   std::string* payload, std::uint64_t* bytes,
                   std::string* reason) const;
  /// A verified hit: move the entry to the most-recent end, indexing it
  /// with its file size `bytes` if another process stored it.
  void touch_entry(const std::string& hash, std::uint64_t bytes);
  bool store_entry(const SweepJob& job, const std::string& hash,
                   const std::string& payload);
  /// Index `hash` as most recent with `bytes`.  Caller holds store_mutex_.
  void record(const std::string& hash, std::uint64_t bytes);
  /// Pop least-recent entries, removing their files, until the indexed
  /// bytes fit the cap.  Caller holds store_mutex_.
  void evict_over_cap();

  ServiceConfig cfg_;
  obs::ServiceCounters counters_;
  std::mutex mutex_;  ///< guards inflight_
  std::unordered_map<std::string, std::shared_ptr<InFlight>> inflight_;
  /// Serialises stores and guards the LRU index (lru_, by_hash_,
  /// indexed_bytes_), which hits update too.
  std::mutex store_mutex_;
  Lru lru_;  ///< least recently used first
  /// Keys view the hashes held in lru_'s nodes, which never move.
  std::unordered_map<std::string_view, Lru::iterator> by_hash_;
  std::uint64_t indexed_bytes_ = 0;  ///< Σ bytes over lru_
};

// ---- request protocol ------------------------------------------------------

/// One parsed request line.  `cmd` empty means "run the jobs".
struct ServiceRequest {
  std::string id = "null";  ///< request "id" re-serialised verbatim
  std::string cmd;          ///< "", "ping", "stats", "shutdown"
  std::vector<SweepJob> jobs;  ///< expanded grid, deterministic order
  std::size_t skipped_invalid = 0;
};

/// A malformed request line.  `id` is the line's "id" re-serialised, as
/// its responses would carry it, or empty when none parsed: the line was
/// not an object, had no "id", or had a non-scalar one.
struct BadRequest : std::invalid_argument {
  BadRequest(const std::string& what, std::string line_id)
      : std::invalid_argument(what), id(std::move(line_id)) {}
  std::string id;
};

/// Parse one newline-delimited request document.  Two request shapes:
///   {"id":1,"scenario":"fig6b_exec_time"}            registered sweep at
///                                                    its golden options
///   {"id":2,"apps":["fft"],"fabrics":["mot"],...}    ad-hoc grid (absent
///                                                    axes use the same
///                                                    defaults as `grid`)
/// plus commands {"cmd":"ping"|"stats"|"shutdown"}.  Optional fields:
/// "scale", "seed" (override the defaults), "timeout_seconds" (per-job
/// watchdog).  Throws BadRequest with a one-line reason on malformed
/// input — the loop answers with an error document, which echoes the id
/// when one parsed, and keeps serving.
ServiceRequest parse_service_request(const std::string& line);

enum class ServiceLoopMode {
  kServe,  ///< interactive: ready line first, flush per response, exit 0
  kBatch   ///< drain to EOF, final batch_done summary, exit 1 on any error
};

/// Drive the request/response loop over a stream pair.  Returns the
/// process exit code.
int service_loop(std::istream& in, std::ostream& out, SweepService& service,
                 ServiceLoopMode mode);

}  // namespace mot3d::sim
