#include "sim/sweep_service.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "common/sha256.hpp"
#include "sim/json_reader.hpp"
#include "sim/scenario_registry.hpp"

namespace fs = std::filesystem;

namespace mot3d::sim {

namespace {

constexpr const char* kMagic = "mot3d-cache v1";
constexpr const char* kEntryExt = ".entry";

bool is_entry_file(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == kEntryExt;
}

}  // namespace

// ---- canonical spec + hash -------------------------------------------------

std::string canonical_job_json(const SweepJob& job) {
  // Fixed field set + insertion order; every double goes through the
  // shortest-round-trip canonical formatter.  The power state serialises
  // by name, which maps 1:1 to a cluster shape for every state the CLI
  // and registry can construct ("Full", "PC<c>-MB<b>", "Full<c>x<b>").
  JsonObject o;
  o.set("format", std::uint64_t{1})
      .set("app", job.run.app)
      .set("fabric", fabric_key(job.run.fabric))
      .set("state", job.run.state.name())
      .set("dram_ns", mem::dram_latency_ns(job.run.dram))
      .set("dram_backend", dram_backend_key(job.run.dram_backend))
      .set("thermal_enabled", job.run.thermal.enabled)
      .set("thermal_ambient_c", job.run.thermal.ambient_c)
      .set("thermal_ceiling_c", job.run.thermal.ceiling_c)
      .set("fault_enabled", job.run.fault.enabled)
      .set("fault_tsv_rate", job.run.fault.tsv_fault_rate)
      .set("fault_bank_rate", job.run.fault.bank_fault_rate)
      .set("fault_seed", job.run.fault.seed)
      .set("scale", job.scale)
      .set("seed", job.seed);
  return o.str();
}

std::string job_hash(const SweepJob& job) {
  return sha256_hex(canonical_job_json(job));
}

// ---- service ---------------------------------------------------------------

SweepService::SweepService(ServiceConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.cache_dir.empty()) {
    throw std::runtime_error("sweep service needs a cache directory");
  }
  std::error_code ec;
  fs::create_directories(cfg_.cache_dir, ec);
  // Probe with a real write: create_directories succeeding (or the dir
  // already existing) does not prove the entries themselves are writable.
  const fs::path probe = fs::path(cfg_.cache_dir) / ".write_probe";
  {
    std::ofstream f(probe, std::ios::binary | std::ios::trunc);
    f << "ok";
    f.flush();
    if (!f) {
      throw std::runtime_error("cache directory '" + cfg_.cache_dir +
                               "' is not writable");
    }
  }
  fs::remove(probe, ec);

  // Seed the LRU index with one scan: oldest file time first, ties broken
  // by name, so every process starting on this directory sees one order.
  struct Found {
    fs::file_time_type time;
    std::string hash;
    std::uint64_t bytes = 0;
  };
  std::vector<Found> found;
  for (const fs::directory_entry& e : fs::directory_iterator(cfg_.cache_dir, ec)) {
    if (!is_entry_file(e)) continue;
    const fs::file_time_type time = e.last_write_time(ec);
    if (ec) continue;
    const std::uintmax_t bytes = e.file_size(ec);
    if (ec) continue;
    found.push_back(Found{time, e.path().stem().string(), bytes});
  }
  std::sort(found.begin(), found.end(), [](const Found& a, const Found& b) {
    return std::tie(a.time, a.hash) < std::tie(b.time, b.hash);
  });
  for (const Found& f : found) record(f.hash, f.bytes);
}

std::string SweepService::entry_path(const std::string& hash) const {
  return (fs::path(cfg_.cache_dir) / (hash + kEntryExt)).string();
}

SweepService::Probe SweepService::load_entry(const std::string& path,
                                             const std::string& hash,
                                             std::string* payload,
                                             std::string* reason) const {
  // Opened at the end, so the file's size is known before anything is read.
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) return Probe::kMiss;
  const std::streamoff file_bytes = f.tellg();
  f.seekg(0);

  auto corrupt = [&](const char* why) {
    *reason = why;
    return Probe::kCorrupt;
  };
  std::string line;
  if (!std::getline(f, line) || line != kMagic) return corrupt("bad magic");
  if (!std::getline(f, line) || line != "spec_sha256 " + hash) {
    return corrupt("spec hash mismatch");
  }
  std::string payload_sha;
  if (!std::getline(f, line) || line.rfind("payload_sha256 ", 0) != 0) {
    return corrupt("missing payload hash");
  }
  payload_sha = line.substr(15);
  std::size_t payload_bytes = 0;
  if (!std::getline(f, line) || line.rfind("payload_bytes ", 0) != 0) {
    return corrupt("missing payload length");
  }
  try {
    std::size_t used = 0;
    payload_bytes = std::stoull(line.substr(14), &used);
    if (used != line.size() - 14) return corrupt("malformed payload length");
  } catch (const std::exception&) {
    return corrupt("malformed payload length");
  }
  if (!std::getline(f, line)) return corrupt("missing spec document");
  // The claimed length sizes the buffer, so it must fit in the bytes the
  // file has left: a corrupt length reads as a truncated payload, never as
  // a resize to whatever the header says.
  const std::streamoff at = f.tellg();
  if (at < 0 || file_bytes < at ||
      payload_bytes > static_cast<std::uint64_t>(file_bytes - at)) {
    return corrupt("truncated payload");
  }
  payload->resize(payload_bytes);
  f.read(payload->data(), static_cast<std::streamsize>(payload_bytes));
  if (static_cast<std::size_t>(f.gcount()) != payload_bytes) {
    return corrupt("truncated payload");
  }
  if (f.peek() != std::ifstream::traits_type::eof()) {
    return corrupt("trailing bytes after payload");
  }
  if (sha256_hex(*payload) != payload_sha) {
    return corrupt("payload hash mismatch");
  }
  return Probe::kHit;
}

void SweepService::touch_entry(const std::string& path, const std::string& hash) {
  std::lock_guard<std::mutex> lock(store_mutex_);
  std::error_code ec;
  if (const auto it = by_hash_.find(hash); it != by_hash_.end()) {
    lru_.splice(lru_.end(), lru_, it->second);
  } else {
    const std::uintmax_t bytes = fs::file_size(path, ec);
    if (!ec) record(hash, bytes);
  }
  // Best effort: a read-only cache still serves hits.
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

bool SweepService::store_entry(const SweepJob& job, const std::string& hash,
                               const std::string& payload) {
  // The whole entry as one string: its size is the entry's bytes.
  std::string entry(kMagic);
  entry.append("\nspec_sha256 ")
      .append(hash)
      .append("\npayload_sha256 ")
      .append(sha256_hex(payload))
      .append("\npayload_bytes ")
      .append(std::to_string(payload.size()))
      .append("\n")
      .append(canonical_job_json(job))
      .append("\n")
      .append(payload);

  std::lock_guard<std::mutex> lock(store_mutex_);
  const std::string path = entry_path(hash);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) return false;
    f.write(entry.data(), static_cast<std::streamsize>(entry.size()));
    f.flush();
    if (!f) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  // Atomic publish: readers only ever see absent or complete entries
  // (a crash mid-write leaves a .tmp that no probe ever opens).
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return false;
  }
  // Stamp with the clock hits use: the kernel's own write stamp is coarser
  // and can sort before an earlier hit's.
  fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
  record(hash, entry.size());
  if (cfg_.max_cache_bytes > 0) evict_over_cap();
  return true;
}

void SweepService::record(const std::string& hash, std::uint64_t bytes) {
  if (const auto it = by_hash_.find(hash); it != by_hash_.end()) {
    indexed_bytes_ -= it->second->bytes;
    it->second->bytes = bytes;
    lru_.splice(lru_.end(), lru_, it->second);
  } else {
    lru_.push_back(Indexed{hash, bytes});
    by_hash_.emplace(lru_.back().hash, std::prev(lru_.end()));
  }
  indexed_bytes_ += bytes;
}

void SweepService::evict_over_cap() {
  std::uint64_t evicted = 0;
  std::error_code ec;
  while (indexed_bytes_ > cfg_.max_cache_bytes) {
    const Indexed& victim = lru_.front();
    // A file that is already gone (another process removed it) leaves the
    // index without counting as an eviction.
    if (fs::remove(entry_path(victim.hash), ec)) ++evicted;
    indexed_bytes_ -= victim.bytes;
    by_hash_.erase(victim.hash);  // before its key's string goes
    lru_.pop_front();
  }
  counters_.add_evictions(evicted);
}

CacheStats SweepService::cache_stats() const {
  CacheStats stats;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(cfg_.cache_dir, ec)) {
    if (!is_entry_file(e)) continue;
    ++stats.entries;
    stats.bytes += e.file_size(ec);
  }
  return stats;
}

std::size_t SweepService::cache_clear() {
  std::lock_guard<std::mutex> lock(store_mutex_);
  std::size_t removed = 0;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(cfg_.cache_dir, ec)) {
    if (!is_entry_file(e)) continue;
    fs::remove(e.path(), ec);
    if (!ec) ++removed;
  }
  by_hash_.clear();
  lru_.clear();
  indexed_bytes_ = 0;
  return removed;
}

std::vector<JobOutcome> SweepService::run_batch(const std::vector<SweepJob>& jobs) {
  enum class State { kUnresolved, kResolved, kCompute, kWait };
  struct Unique {
    std::string hash;
    std::size_t job = 0;  ///< first job index with this hash
    JobOutcome outcome;
    State state = State::kUnresolved;
    std::shared_ptr<InFlight> flight;
  };

  // Deduplicate within the batch, preserving first-occurrence order.
  std::vector<std::string> hashes(jobs.size());
  std::unordered_map<std::string, std::size_t> index_of;
  std::vector<Unique> uniq;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    hashes[i] = job_hash(jobs[i]);
    if (index_of.emplace(hashes[i], uniq.size()).second) {
      uniq.push_back(Unique{hashes[i], i, {}, State::kUnresolved, nullptr});
    }
  }

  // Resolve each unique spec: an in-flight computation elsewhere means
  // wait; a verified disk entry is a hit; everything else is claimed for
  // computation here.  Claims are registered BEFORE any wait happens, so
  // two concurrent batches can never deadlock on each other.
  std::vector<std::size_t> to_compute;
  for (std::size_t u = 0; u < uniq.size(); ++u) {
    Unique& q = uniq[u];
    q.outcome.spec_hash = q.hash;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = inflight_.find(q.hash);
      if (it != inflight_.end()) {
        q.flight = it->second;
        q.state = State::kWait;
        continue;
      }
    }
    std::string payload, reason;
    const std::string path = entry_path(q.hash);
    const Probe probe = load_entry(path, q.hash, &payload, &reason);
    if (probe == Probe::kHit) {
      touch_entry(path, q.hash);
      counters_.add_hit();
      q.outcome.cache_hit = true;
      q.outcome.payload = std::move(payload);
      q.state = State::kResolved;
      continue;
    }
    if (probe == Probe::kCorrupt) {
      counters_.add_corrupt();
      std::cerr << "warning: cache entry " << q.hash << " is corrupt (" << reason
                << "); recomputing\n";
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = inflight_.find(q.hash);
      if (it != inflight_.end()) {
        // Raced with another batch that claimed it between our probe and
        // now — wait on theirs instead of computing twice.
        q.flight = it->second;
        q.state = State::kWait;
        continue;
      }
      q.flight = std::make_shared<InFlight>();
      inflight_.emplace(q.hash, q.flight);
    }
    counters_.add_miss();
    counters_.enqueue();
    q.state = State::kCompute;
    to_compute.push_back(u);
  }

  // Shard the misses across the pool; run_isolated keeps one bad job from
  // killing its peers.
  if (!to_compute.empty()) {
    SweepRunner runner(cfg_.threads);
    std::vector<SweepRunner::Task> tasks;
    tasks.reserve(to_compute.size());
    for (std::size_t u : to_compute) {
      const SweepJob& job = jobs[uniq[u].job];
      ScenarioOptions opt;
      opt.scale = job.scale;
      opt.seed = job.seed;
      opt.threads = cfg_.threads;
      opt.scheduler = cfg_.scheduler;
      opt.timeout_seconds = job.timeout_seconds;
      const cluster::ClusterConfig cfg = make_run_config(job.run, opt);
      tasks.push_back([cfg] { return cluster::Cluster(cfg).run(); });
    }
    std::vector<IsolatedResult> computed = runner.run_isolated(tasks);
    for (std::size_t k = 0; k < to_compute.size(); ++k) {
      Unique& q = uniq[to_compute[k]];
      counters_.add_computed();
      if (computed[k].ok()) {
        q.outcome.payload =
            run_metrics_json(jobs[q.job].run, computed[k].result);
        if (!store_entry(jobs[q.job], q.hash, q.outcome.payload)) {
          std::cerr << "warning: could not write cache entry " << q.hash
                    << " under '" << cfg_.cache_dir << "'\n";
        }
      } else {
        // Errors (watchdog timeouts, structural failures) are never
        // cached: they may be transient and must recompute next time.
        q.outcome.error = computed[k].error;
      }
      {
        std::lock_guard<std::mutex> lock(q.flight->m);
        q.flight->outcome = q.outcome;
        q.flight->done = true;
      }
      q.flight->cv.notify_all();
      {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_.erase(q.hash);
      }
      counters_.dequeue();
      q.state = State::kResolved;
    }
  }

  // Only now wait on specs claimed by other batches — everything we
  // claimed is already published, so the wait graph has no cycles.
  for (Unique& q : uniq) {
    if (q.state != State::kWait) continue;
    std::unique_lock<std::mutex> lock(q.flight->m);
    q.flight->cv.wait(lock, [&] { return q.flight->done; });
    q.outcome = q.flight->outcome;
    if (q.outcome.ok()) {
      // Served by someone else's computation: a hit from this batch's
      // point of view (it computed nothing).
      q.outcome.cache_hit = true;
      counters_.add_hit();
    }
    q.state = State::kResolved;
  }

  std::vector<JobOutcome> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out[i] = uniq[index_of.at(hashes[i])].outcome;
    if (!out[i].ok()) counters_.add_job_error();
  }
  return out;
}

// ---- request protocol ------------------------------------------------------

namespace {

/// The ad-hoc grid's axis fields, in adhoc_grid's argument order.
constexpr const char* kGridAxes[] = {"apps", "fabrics", "states", "dram",
                                     "dram_backends"};

[[noreturn]] void bad_request(const std::string& why) {
  throw std::invalid_argument("bad request: " + why);
}

/// Re-serialise a scalar "id" verbatim (arrays/objects are rejected: the
/// id is echoed into every response line and must stay one token).
std::string id_json(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::kNull: return "null";
    case JsonValue::Type::kBool: return v.boolean ? "true" : "false";
    case JsonValue::Type::kNumber: return json_number(v.number);
    case JsonValue::Type::kString: return json_string(v.string);
    default: bad_request("'id' must be a scalar");
  }
}

std::vector<std::string> string_list(const JsonValue& v, const char* field) {
  if (v.type != JsonValue::Type::kArray || v.array.empty()) {
    bad_request(std::string("'") + field + "' must be a non-empty array");
  }
  std::vector<std::string> out;
  for (const JsonValue& e : v.array) {
    if (e.type != JsonValue::Type::kString) {
      bad_request(std::string("'") + field + "' must contain only strings");
    }
    out.push_back(e.string);
  }
  return out;
}

double number_field(const JsonValue& v, const char* field) {
  if (v.type != JsonValue::Type::kNumber) {
    bad_request(std::string("'") + field + "' must be a number");
  }
  return v.number;
}

std::uint64_t u64_field(const JsonValue& v, const char* field) {
  number_field(v, field);
  const std::optional<std::uint64_t> n = v.as_count();
  if (!n) {
    bad_request(std::string("'") + field + "' must be an integer in [0, 2^53)");
  }
  return *n;
}

}  // namespace

ServiceRequest parse_service_request(const std::string& line) {
  std::optional<JsonValue> doc = JsonReader(line).parse();
  if (!doc || doc->type != JsonValue::Type::kObject) {
    bad_request("not a JSON object");
  }

  static const char* kKnown[] = {"id",     "cmd",   "scenario",
                                 "apps",   "fabrics", "states",
                                 "dram",   "dram_backends", "scale",
                                 "seed",   "timeout_seconds"};
  for (const auto& [key, value] : doc->object) {
    (void)value;
    bool known = false;
    for (const char* k : kKnown) known = known || key == k;
    if (!known) bad_request("unknown field '" + key + "'");
  }

  ServiceRequest req;
  if (const JsonValue* id = doc->find("id")) req.id = id_json(*id);

  if (const JsonValue* cmd = doc->find("cmd")) {
    if (cmd->type != JsonValue::Type::kString) {
      bad_request("'cmd' must be a string");
    }
    if (cmd->string != "ping" && cmd->string != "stats" &&
        cmd->string != "shutdown") {
      bad_request("unknown cmd '" + cmd->string +
                  "' (want ping|stats|shutdown)");
    }
    if (doc->object.size() > (doc->find("id") ? 2u : 1u)) {
      bad_request("'cmd' requests take no other fields");
    }
    req.cmd = cmd->string;
    return req;
  }

  // Modeled-input knobs shared by both request shapes.
  double timeout_seconds = 0.0;
  if (const JsonValue* t = doc->find("timeout_seconds")) {
    timeout_seconds = number_field(*t, "timeout_seconds");
    if (!std::isfinite(timeout_seconds) || timeout_seconds < 0.0) {
      bad_request("'timeout_seconds' must be non-negative and finite");
    }
  }
  const JsonValue* scale_v = doc->find("scale");
  const JsonValue* seed_v = doc->find("seed");
  if (scale_v != nullptr) {
    const double s = number_field(*scale_v, "scale");
    if (!std::isfinite(s) || s <= 0.0) {
      bad_request("'scale' must be a positive finite number");
    }
  }

  ScenarioSpec adhoc;
  const ScenarioSpec* spec = nullptr;
  double scale = 0.0;
  std::uint64_t seed = 0;
  if (const JsonValue* scen = doc->find("scenario")) {
    for (const char* axis : kGridAxes) {
      if (doc->find(axis) != nullptr) {
        bad_request(std::string("request mixes 'scenario' with grid axis '") +
                    axis + "'");
      }
    }
    if (scen->type != JsonValue::Type::kString) {
      bad_request("'scenario' must be a string");
    }
    spec = find_scenario(scen->string);
    if (spec == nullptr) {
      bad_request("scenario '" + scen->string + "' is not registered");
    }
    if (spec->kind != ScenarioSpec::Kind::kSweep) {
      bad_request("scenario '" + scen->string +
                  "' is not a sweep (nothing to memoize)");
    }
    // Registered scenarios default to their pinned golden options — the
    // canonical configuration a memoizing server should converge on.
    scale = spec->golden_scale;
    seed = spec->seed;
  } else {
    // An absent axis is an empty list: adhoc_grid's default.
    std::array<std::vector<std::string>, std::size(kGridAxes)> axes;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      if (const JsonValue* v = doc->find(kGridAxes[i])) {
        axes[i] = string_list(*v, kGridAxes[i]);
      }
    }
    try {
      adhoc = adhoc_grid(std::move(axes[0]), axes[1], axes[2], axes[3],
                         axes[4]);
    } catch (const std::invalid_argument& e) {
      bad_request(e.what());
    }
    spec = &adhoc;
    scale = adhoc.default_scale;
    seed = adhoc.seed;
  }
  if (scale_v != nullptr) scale = scale_v->number;
  if (seed_v != nullptr) seed = u64_field(*seed_v, "seed");

  for (const ScenarioRun& run : expand_grid(*spec, &req.skipped_invalid)) {
    req.jobs.push_back(SweepJob{run, scale, seed, timeout_seconds});
  }
  return req;
}

int service_loop(std::istream& in, std::ostream& out, SweepService& service,
                 ServiceLoopMode mode) {
  const bool serve = mode == ServiceLoopMode::kServe;
  obs::ServiceCounters& counters = service.counters();
  if (serve) {
    const CacheStats stats = service.cache_stats();
    JsonObject ready;
    ready.set("ready", true)
        .set("cache_dir", service.config().cache_dir)
        .set("cache_entries", stats.entries);
    out << ready.str() << "\n" << std::flush;
  }

  bool shutdown = false;
  std::string line;
  while (!shutdown && std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ServiceRequest req;
    try {
      req = parse_service_request(line);
    } catch (const std::invalid_argument& e) {
      counters.add_protocol_error();
      JsonObject err;
      err.set("error", e.what());
      out << err.str() << "\n";
      if (serve) out.flush();
      continue;
    }
    counters.add_request();

    if (req.cmd == "ping") {
      JsonObject o;
      o.set_raw("id", req.id).set("pong", true);
      out << o.str() << "\n";
    } else if (req.cmd == "stats") {
      const obs::ServiceSnapshot s = counters.snapshot();
      const CacheStats cache = service.cache_stats();
      JsonObject stats;
      stats.set("service.hits", s.hits)
          .set("service.misses", s.misses)
          .set("service.computed", s.computed)
          .set("service.evictions", s.evictions)
          .set("service.corrupt_entries", s.corrupt_entries)
          .set("service.job_errors", s.job_errors)
          .set("service.protocol_errors", s.protocol_errors)
          .set("service.requests", s.requests)
          .set("service.queue_depth", static_cast<std::uint64_t>(
                                          s.queue_depth < 0 ? 0 : s.queue_depth))
          .set("service.cache_entries", cache.entries)
          .set("service.cache_bytes", cache.bytes);
      JsonObject o;
      o.set_raw("id", req.id).set_raw("stats", stats.str());
      out << o.str() << "\n";
    } else if (req.cmd == "shutdown") {
      JsonObject o;
      o.set_raw("id", req.id).set("bye", true);
      out << o.str() << "\n";
      shutdown = true;
    } else {
      const std::vector<JobOutcome> outcomes = service.run_batch(req.jobs);
      std::uint64_t hits = 0, misses = 0, errors = 0;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepJob& job = req.jobs[i];
        const JobOutcome& r = outcomes[i];
        JsonObject o;
        o.set_raw("id", req.id)
            .set("job", static_cast<std::uint64_t>(i))
            .set("app", job.run.app)
            .set("fabric", fabric_key(job.run.fabric))
            .set("state", job.run.state.name())
            .set("spec_hash", r.spec_hash)
            .set("cache_hit", r.cache_hit);
        if (r.ok()) {
          (r.cache_hit ? hits : misses) += 1;
          o.set_raw("result", r.payload);
        } else {
          ++errors;
          o.set("error", r.error);
        }
        out << o.str() << "\n";
      }
      JsonObject done;
      done.set_raw("id", req.id)
          .set("done", true)
          .set("jobs", static_cast<std::uint64_t>(outcomes.size()))
          .set("skipped_invalid", static_cast<std::uint64_t>(req.skipped_invalid))
          .set("cache_hits", hits)
          .set("cache_misses", misses)
          .set("errors", errors);
      out << done.str() << "\n";
    }
    if (serve) out.flush();
  }

  if (mode == ServiceLoopMode::kBatch) {
    const obs::ServiceSnapshot s = counters.snapshot();
    JsonObject o;
    o.set("batch_done", true)
        .set("requests", s.requests)
        .set("cache_hits", s.hits)
        .set("cache_misses", s.misses)
        .set("computed", s.computed)
        .set("errors", s.job_errors)
        .set("protocol_errors", s.protocol_errors)
        .set("evictions", s.evictions)
        .set("corrupt_entries", s.corrupt_entries);
    out << o.str() << "\n";
    return (s.job_errors > 0 || s.protocol_errors > 0) ? 1 : 0;
  }
  return 0;
}

}  // namespace mot3d::sim
