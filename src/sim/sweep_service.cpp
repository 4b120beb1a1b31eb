#include "sim/sweep_service.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <ctime>
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

constexpr std::string_view kMagic = "mot3d-cache v1";
constexpr std::string_view kEntryExt = ".entry";
/// The largest entry file a probe reads; a larger one is corrupt before
/// any of it is read.  The largest run document in the goldens is 1 911 B.
constexpr std::uint64_t kMaxEntryBytes = std::uint64_t{1} << 20;
/// The canonical spec JSON is about 300 B; room for it, so it is written
/// into one buffer.
constexpr std::size_t kSpecBytes = 384;

bool is_entry_file(const fs::directory_entry& e) {
  return e.is_regular_file() && e.path().extension() == kEntryExt;
}

/// Owns a file descriptor and closes it on every path out of its scope.
class FileDescriptor {
 public:
  explicit FileDescriptor(int fd) : fd_(fd) {}
  FileDescriptor(const FileDescriptor&) = delete;
  FileDescriptor& operator=(const FileDescriptor&) = delete;
  ~FileDescriptor() {
    if (fd_ >= 0) ::close(fd_);
  }
  int get() const { return fd_; }

 private:
  int fd_;
};

/// Reads up to `bytes` into `out` (one read for a regular file); returns
/// how many arrived before end of file or an error.
std::size_t read_up_to(int fd, char* out, std::size_t bytes) {
  std::size_t got = 0;
  while (got < bytes) {
    const ssize_t n = ::read(fd, out + got, bytes - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  return got;
}

/// File times that leave the access time alone and set the modification
/// time to CLOCK_REALTIME now, the one clock hits and stores both order
/// the cache by (the kernel's own write stamp is coarser).  Stamping is
/// best effort: a read-only cache still serves.
struct StampNow {
  StampNow() { ::clock_gettime(CLOCK_REALTIME, &times[1]); }
  struct timespec times[2] = {{0, UTIME_OMIT}, {}};
};

/// std::getline over a buffer: the next line without its '\n' (or the
/// unterminated rest), false once nothing is left.
bool next_line(std::string_view& rest, std::string_view* line) {
  if (rest.empty()) return false;
  const std::size_t end = std::min(rest.find('\n'), rest.size());
  *line = rest.substr(0, end);
  rest.remove_prefix(std::min(end + 1, rest.size()));
  return true;
}

}  // namespace

// ---- canonical spec + hash -------------------------------------------------

std::string canonical_job_json(const SweepJob& job) {
  // Fixed field set + insertion order; every double goes through the
  // shortest-round-trip canonical formatter.  The power state serialises
  // by name, which maps 1:1 to a cluster shape for every state the CLI
  // and registry can construct ("Full", "PC<c>-MB<b>", "Full<c>x<b>").
  JsonObject o;
  o.reserve(kSpecBytes)
      .set("format", std::uint64_t{1})
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
  return std::move(o).str();
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
  std::string path;
  path.reserve(cfg_.cache_dir.size() + 1 + hash.size() + kEntryExt.size());
  path.append(cfg_.cache_dir).append("/").append(hash).append(kEntryExt);
  return path;
}

SweepService::Probe SweepService::load_entry(const std::string& path,
                                             const std::string& hash,
                                             std::string* payload,
                                             std::uint64_t* bytes,
                                             std::string* reason) const {
  // One open, fstat and read bring the whole entry into `payload`; the
  // header is parsed in place and cut off the front of a hit.  O_NONBLOCK:
  // opening a FIFO waits for no writer, and fstat then rejects it.
  const FileDescriptor fd(
      ::open(path.c_str(), O_RDONLY | O_CLOEXEC | O_NONBLOCK));
  struct stat st;
  if (fd.get() < 0 || ::fstat(fd.get(), &st) != 0) return Probe::kMiss;
  auto corrupt = [&](const char* why) {
    *reason = why;
    return Probe::kCorrupt;
  };
  if (!S_ISREG(st.st_mode)) return corrupt("not a regular file");
  *bytes = static_cast<std::uint64_t>(st.st_size);
  if (*bytes > kMaxEntryBytes) return corrupt("oversized entry");
  payload->resize(*bytes);
  payload->resize(read_up_to(fd.get(), payload->data(), payload->size()));

  constexpr std::string_view kSpecKey = "spec_sha256 ";
  constexpr std::string_view kPayloadShaKey = "payload_sha256 ";
  constexpr std::string_view kPayloadBytesKey = "payload_bytes ";
  std::string_view rest(*payload);
  std::string_view line;
  if (!next_line(rest, &line) || line != kMagic) return corrupt("bad magic");
  if (!next_line(rest, &line) || !line.starts_with(kSpecKey) ||
      line.substr(kSpecKey.size()) != hash) {
    return corrupt("spec hash mismatch");
  }
  if (!next_line(rest, &line) || !line.starts_with(kPayloadShaKey)) {
    return corrupt("missing payload hash");
  }
  const std::string_view payload_sha = line.substr(kPayloadShaKey.size());
  if (!next_line(rest, &line) || !line.starts_with(kPayloadBytesKey)) {
    return corrupt("missing payload length");
  }
  line.remove_prefix(kPayloadBytesKey.size());
  std::uint64_t payload_bytes = 0;
  const auto [end, ec] =
      std::from_chars(line.data(), line.data() + line.size(), payload_bytes);
  if (ec != std::errc() || end != line.data() + line.size()) {
    return corrupt("malformed payload length");
  }
  if (!next_line(rest, &line)) return corrupt("missing spec document");
  // What is left is the payload: a corrupt length reads as a truncated
  // payload, never as a buffer of whatever size the header says.
  if (payload_bytes > rest.size()) return corrupt("truncated payload");
  if (payload_bytes < rest.size()) {
    return corrupt("trailing bytes after payload");
  }
  if (sha256_hex(rest) != payload_sha) return corrupt("payload hash mismatch");
  // Stamp the file that was verified: a stamp by path could land on an
  // entry another process renamed into place since.
  ::futimens(fd.get(), StampNow().times);
  payload->erase(0, payload->size() - rest.size());
  return Probe::kHit;
}

void SweepService::touch_entry(const std::string& hash, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(store_mutex_);
  if (const auto it = by_hash_.find(hash); it != by_hash_.end()) {
    lru_.splice(lru_.end(), lru_, it->second);
  } else {
    record(hash, bytes);
  }
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
  ::utimensat(AT_FDCWD, path.c_str(), StampNow().times, 0);
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
    std::size_t job = 0;   ///< first job index with this hash
    std::size_t last = 0;  ///< last job index with this hash
    JobOutcome outcome;
    State state = State::kUnresolved;
    std::shared_ptr<InFlight> flight;
    const std::string& hash() const { return outcome.spec_hash; }
  };

  // Deduplicate within the batch, preserving first-occurrence order.  The
  // map's keys view the strings in `hashes`, which never move.
  std::vector<std::string> hashes(jobs.size());
  std::unordered_map<std::string_view, std::size_t> index_of;
  std::vector<Unique> uniq;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    hashes[i] = job_hash(jobs[i]);
    const auto [it, fresh] = index_of.emplace(hashes[i], uniq.size());
    if (fresh) {
      Unique& q = uniq.emplace_back();
      q.job = q.last = i;
      q.outcome.spec_hash = hashes[i];
    } else {
      uniq[it->second].last = i;
    }
  }

  // Resolve each unique spec: an in-flight computation elsewhere means
  // wait; a verified disk entry is a hit; everything else is claimed for
  // computation here.  Claims are registered BEFORE any wait happens, so
  // two concurrent batches can never deadlock on each other.
  std::vector<std::size_t> to_compute;
  for (std::size_t u = 0; u < uniq.size(); ++u) {
    Unique& q = uniq[u];
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = inflight_.find(q.hash());
      if (it != inflight_.end()) {
        q.flight = it->second;
        q.state = State::kWait;
        continue;
      }
    }
    std::string payload, reason;
    std::uint64_t bytes = 0;
    const Probe probe =
        load_entry(entry_path(q.hash()), q.hash(), &payload, &bytes, &reason);
    if (probe == Probe::kHit) {
      touch_entry(q.hash(), bytes);
      counters_.add_hit();
      q.outcome.cache_hit = true;
      q.outcome.payload = std::move(payload);
      q.state = State::kResolved;
      continue;
    }
    if (probe == Probe::kCorrupt) {
      counters_.add_corrupt();
      std::cerr << "warning: cache entry " << q.hash() << " is corrupt ("
                << reason << "); recomputing\n";
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = inflight_.find(q.hash());
      if (it != inflight_.end()) {
        // Raced with another batch that claimed it between our probe and
        // now — wait on theirs instead of computing twice.
        q.flight = it->second;
        q.state = State::kWait;
        continue;
      }
      q.flight = std::make_shared<InFlight>();
      inflight_.emplace(q.hash(), q.flight);
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
        if (!store_entry(jobs[q.job], q.hash(), q.outcome.payload)) {
          std::cerr << "warning: could not write cache entry " << q.hash()
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
        inflight_.erase(q.hash());
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

  // The last job with a spec takes its outcome; earlier ones copy it.
  std::vector<JobOutcome> out(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    Unique& q = uniq[index_of.at(hashes[i])];
    if (i == q.last) {
      out[i] = std::move(q.outcome);
    } else {
      out[i] = q.outcome;
    }
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
  throw BadRequest("bad request: " + why, "");
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

/// The names in `v`, a non-empty array of strings, moved out of it.
std::vector<std::string> string_list(JsonValue& v, const char* field) {
  if (v.type != JsonValue::Type::kArray || v.array.empty()) {
    bad_request(std::string("'") + field + "' must be a non-empty array");
  }
  std::vector<std::string> out;
  out.reserve(v.array.size());
  for (JsonValue& e : v.array) {
    if (e.type != JsonValue::Type::kString) {
      bad_request(std::string("'") + field + "' must contain only strings");
    }
    out.push_back(std::move(e.string));
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

/// The request in `doc`, an object whose "id" re-serialises as `id` (empty
/// when it has none).
ServiceRequest request_from(JsonValue& doc, const std::string& id) {
  static constexpr std::string_view kKnown[] = {
      "id",   "cmd",           "scenario", "apps", "fabrics",        "states",
      "dram", "dram_backends", "scale",    "seed", "timeout_seconds"};
  for (const auto& [key, value] : doc.object) {
    (void)value;
    if (std::find(std::begin(kKnown), std::end(kKnown), key) ==
        std::end(kKnown)) {
      bad_request("unknown field '" + key + "'");
    }
  }

  ServiceRequest req;
  if (!id.empty()) req.id = id;

  if (const JsonValue* cmd = doc.find("cmd")) {
    if (cmd->type != JsonValue::Type::kString) {
      bad_request("'cmd' must be a string");
    }
    if (cmd->string != "ping" && cmd->string != "stats" &&
        cmd->string != "shutdown") {
      bad_request("unknown cmd '" + cmd->string +
                  "' (want ping|stats|shutdown)");
    }
    if (doc.object.size() > (doc.find("id") ? 2u : 1u)) {
      bad_request("'cmd' requests take no other fields");
    }
    req.cmd = cmd->string;
    return req;
  }

  // Modeled-input knobs shared by both request shapes.
  double timeout_seconds = 0.0;
  if (const JsonValue* t = doc.find("timeout_seconds")) {
    timeout_seconds = number_field(*t, "timeout_seconds");
    if (!std::isfinite(timeout_seconds) || timeout_seconds < 0.0) {
      bad_request("'timeout_seconds' must be non-negative and finite");
    }
  }
  const JsonValue* scale_v = doc.find("scale");
  const JsonValue* seed_v = doc.find("seed");
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
  if (const JsonValue* scen = doc.find("scenario")) {
    for (const char* axis : kGridAxes) {
      if (doc.find(axis) != nullptr) {
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
    // An absent axis is an empty list: adhoc_grid's default.  The names
    // move from the document into the lists, and the lists go to
    // adhoc_grid uncopied.
    std::array<std::vector<std::string>, std::size(kGridAxes)> axes;
    for (std::size_t i = 0; i < axes.size(); ++i) {
      if (JsonValue* v = doc.find(kGridAxes[i])) {
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

  std::vector<ScenarioRun> runs = expand_grid(*spec, &req.skipped_invalid);
  req.jobs.reserve(runs.size());
  for (ScenarioRun& run : runs) {
    req.jobs.push_back(SweepJob{std::move(run), scale, seed, timeout_seconds});
  }
  return req;
}

/// Room for a job line besides its id, app, state name and result or
/// error, for a done line besides its id, and for a batch summary: every
/// key, a spec hash and 20-digit counts.
constexpr std::size_t kJobLineBytes = 200;
constexpr std::size_t kDoneLineBytes = 200;
constexpr std::size_t kSummaryBytes = 312;

/// Writes `line` and its newline with one call.  A line reserved with room
/// for both is closed without growing or copying its buffer.
void write_line(std::ostream& out, JsonObject&& line) {
  std::string text = std::move(line).str();
  text += '\n';
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

}  // namespace

ServiceRequest parse_service_request(const std::string& line) {
  JsonReader reader(line);
  std::optional<JsonValue> doc = reader.parse();
  if (!doc) {
    bad_request("malformed JSON at byte " +
                std::to_string(reader.error_offset()));
  }
  if (doc->type != JsonValue::Type::kObject) bad_request("not a JSON object");
  // The id first, so that every later error can echo it.
  std::string id;
  if (const JsonValue* v = doc->find("id")) id = id_json(*v);
  try {
    return request_from(*doc, id);
  } catch (const std::invalid_argument& e) {
    throw BadRequest(e.what(), id);
  }
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
    write_line(out, std::move(ready));
    out.flush();
  }

  bool shutdown = false;
  std::string line;
  while (!shutdown && std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    ServiceRequest req;
    try {
      req = parse_service_request(line);
    } catch (const BadRequest& e) {
      counters.add_protocol_error();
      JsonObject err;
      if (!e.id.empty()) err.set_raw("id", e.id);
      err.set("error", e.what());
      write_line(out, std::move(err));
      if (serve) out.flush();
      continue;
    }
    counters.add_request();

    if (req.cmd == "ping") {
      JsonObject o;
      o.set_raw("id", req.id).set("pong", true);
      write_line(out, std::move(o));
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
      write_line(out, std::move(o));
    } else if (req.cmd == "shutdown") {
      JsonObject o;
      o.set_raw("id", req.id).set("bye", true);
      write_line(out, std::move(o));
      shutdown = true;
    } else {
      const std::vector<JobOutcome> outcomes = service.run_batch(req.jobs);
      std::uint64_t hits = 0, misses = 0, errors = 0;
      for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const SweepJob& job = req.jobs[i];
        const JobOutcome& r = outcomes[i];
        const std::string& state = job.run.state.name();
        JsonObject o;
        o.reserve(kJobLineBytes + req.id.size() + job.run.app.size() +
                  state.size() + (r.ok() ? r.payload : r.error).size())
            .set_raw("id", req.id)
            .set("job", static_cast<std::uint64_t>(i))
            .set("app", job.run.app)
            .set("fabric", fabric_key(job.run.fabric))
            .set("state", state)
            .set("spec_hash", r.spec_hash)
            .set("cache_hit", r.cache_hit);
        if (r.ok()) {
          (r.cache_hit ? hits : misses) += 1;
          o.set_raw("result", r.payload);
        } else {
          ++errors;
          o.set("error", r.error);
        }
        write_line(out, std::move(o));
      }
      JsonObject done;
      done.reserve(kDoneLineBytes + req.id.size())
          .set_raw("id", req.id)
          .set("done", true)
          .set("jobs", static_cast<std::uint64_t>(outcomes.size()))
          .set("skipped_invalid", static_cast<std::uint64_t>(req.skipped_invalid))
          .set("cache_hits", hits)
          .set("cache_misses", misses)
          .set("errors", errors);
      write_line(out, std::move(done));
    }
    if (serve) out.flush();
  }

  if (mode == ServiceLoopMode::kBatch) {
    const obs::ServiceSnapshot s = counters.snapshot();
    JsonObject o;
    o.reserve(kSummaryBytes)
        .set("batch_done", true)
        .set("requests", s.requests)
        .set("cache_hits", s.hits)
        .set("cache_misses", s.misses)
        .set("computed", s.computed)
        .set("errors", s.job_errors)
        .set("protocol_errors", s.protocol_errors)
        .set("evictions", s.evictions)
        .set("corrupt_entries", s.corrupt_entries);
    write_line(out, std::move(o));
    return (s.job_errors > 0 || s.protocol_errors > 0) ? 1 : 0;
  }
  return 0;
}

}  // namespace mot3d::sim
