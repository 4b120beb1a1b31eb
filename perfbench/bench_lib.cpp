#include "bench_lib.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <fstream>
#include <functional>
#include <ostream>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/power_state.hpp"
#include "sim/perf_report.hpp"
#include "sim/scenario_registry.hpp"
#include "workload/app_profile.hpp"

namespace perfbench {

using mot3d::sim::JsonObject;

namespace {

/// The registered sweeps each sweep workload draws its cells from.
const std::vector<std::string>& sweep_sources(const std::string& workload) {
  static const std::vector<std::string> fig6 = {"fig6b_exec_time"};
  static const std::vector<std::string> mot = {
      "fig7a_edp_200ns",  "coherence_sharing", "scale_smoke",
      "thermal_envelope", "stacked_dram",      "fault_resilience"};
  if (workload == "fig6_fabrics") return fig6;
  if (workload == "mot_stack") return mot;
  throw std::invalid_argument("unknown sweep workload '" + workload + "'");
}

}  // namespace

std::vector<SweepCell> sweep_cells(const std::string& workload) {
  const bool mot_only = workload == "mot_stack";
  std::vector<SweepCell> cells;
  for (const std::string& source : sweep_sources(workload)) {
    const mot3d::sim::ScenarioSpec* spec = mot3d::sim::find_scenario(source);
    if (spec == nullptr) {
      throw std::runtime_error("scenario '" + source + "' is not registered");
    }
    for (const mot3d::sim::ScenarioRun& run : mot3d::sim::expand_grid(*spec)) {
      if (mot_only && run.fabric != mot3d::cluster::Fabric::kMot) continue;
      cells.push_back(SweepCell{source, run});
    }
  }
  return cells;
}

double sweep_scale(const std::string& workload) {
  // Both sweeps take 2-3 s on one 2.1 GHz Xeon core: long enough to
  // measure, short enough for several fresh processes per run.
  return workload == "fig6_fabrics" ? 0.01 : 0.05;
}

std::string request_line(std::uint64_t id, const ServiceCell& cell, double scale) {
  JsonObject o;
  o.set("id", id)
      .set_raw("apps", "[" + mot3d::sim::json_string(cell.app) + "]")
      .set_raw("fabrics", "[" + mot3d::sim::json_string(cell.fabric) + "]")
      .set_raw("states", "[" + mot3d::sim::json_string(cell.state) + "]")
      .set_raw("dram", "[" + mot3d::sim::json_string(cell.dram) + "]")
      .set("scale", scale)
      .set("seed", cell.seed);
  return o.str();
}

std::vector<ServiceCell> warm_set(std::uint64_t seed) {
  std::vector<ServiceCell> cells;
  for (const std::string& app : mot3d::workload::splash2_names()) {
    for (const mot3d::core::PowerState& s : mot3d::core::PowerState::paper_states()) {
      for (const char* dram : {"200", "42"}) {
        cells.push_back(ServiceCell{app, s.name(), dram, seed});
      }
    }
  }
  return cells;
}

std::vector<std::string> replay_stream(std::uint64_t seed, std::size_t n,
                                       std::uint64_t first_id) {
  const std::vector<ServiceCell> warm = warm_set(seed);
  const std::size_t w = warm.size();
  mot3d::SplitMix64 rng(seed ^ 0x5EEDF00DULL);
  auto uniform = [&rng] {
    return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };

  // Popularity rank r is warm cell order[r]: a fixed interleaving (not
  // seeded), so every seed requests the same mix of apps, states and
  // DRAM presets and only the draw sequence and the cells' seeds vary.
  std::vector<std::size_t> order(w);
  for (std::size_t i = 0; i < w; ++i) order[i] = (i * 37) % w;
  // Zipf(1) cumulative weights over ranks 1..w.
  std::vector<double> cdf(w);
  double total = 0.0;
  for (std::size_t r = 0; r < w; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cdf[r] = total;
  }

  std::vector<std::string> lines;
  lines.reserve(n);
  std::uint64_t fresh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t id = first_id + i;
    if ((i + 1) % kNewCellPeriod == 0) {
      // The warm-set shape under a seed no other request uses.
      ServiceCell cell = warm[fresh % w];
      cell.seed = seed + 1 + fresh++;
      lines.push_back(request_line(id, cell, kServiceScale));
      continue;
    }
    const double u = uniform() * total;
    std::size_t r = 0;
    while (r + 1 < w && cdf[r] < u) ++r;
    lines.push_back(request_line(id, warm[order[r]], kServiceScale));
  }
  return lines;
}

namespace {

/// Raw text of string field `key` in a flat JSON line ("" when absent).
std::string string_field(const std::string& line, const std::string& key) {
  const std::string tag = "\"" + key + "\": \"";
  const std::size_t at = line.find(tag);
  if (at == std::string::npos) return "";
  const std::size_t begin = at + tag.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

}  // namespace

bool parse_job_line(const std::string& output, JobLine* job) {
  // service_loop writes one line per job, then the request's "done"
  // summary (and, in batch mode, a final "batch_done" line).
  const std::size_t eol = output.find('\n');
  const std::string line = output.substr(0, eol);
  if (line.find("\"job\": ") == std::string::npos) return false;
  *job = JobLine{};
  job->spec_hash = string_field(line, "spec_hash");
  job->cache_hit = line.find("\"cache_hit\": true") != std::string::npos;
  // "result" is the last field and nests the payload verbatim.
  const std::string tag = "\"result\": ";
  const std::size_t at = line.find(tag);
  if (at != std::string::npos && line.back() == '}') {
    const std::size_t begin = at + tag.size();
    job->payload = line.substr(begin, line.size() - 1 - begin);
    job->ok = true;
  } else {
    job->error = string_field(line, "error");
    if (job->error.empty()) job->error = "malformed job line: " + line;
  }
  return true;
}

std::uint64_t payload_u64(const std::string& payload, const std::string& key) {
  const std::string tag = "\"" + key + "\": ";
  const std::size_t at = payload.find(tag);
  if (at == std::string::npos) return 0;
  return std::stoull(payload.substr(at + tag.size()));
}

namespace {

constexpr std::uint32_t kProbeEntities = 65536;
constexpr std::uint32_t kProbeTable = 262144;
constexpr std::uint32_t kProbeInFlight = 2048;
constexpr std::size_t kProbeEvents = 3000;
constexpr std::size_t kProbeFileCalls = 400;  // open+read+close+stat each
constexpr std::size_t kProbeFileBytes = 2048;
/// nominal() of each kind of probe, measured on the reference host.
constexpr double kNominalDataS = 0.6e-3;
constexpr double kNominalFileS = 1.5e-3;

}  // namespace

SpeedProbe::SpeedProbe()
    : entities_(kProbeEntities, Entity{1, 2, 3, 4}), table_(kProbeTable, 5) {
  heap_.reserve(kProbeInFlight + 1);
}

SpeedProbe::SpeedProbe(std::string file) : SpeedProbe() {
  file_ = std::move(file);
  std::ofstream f(file_, std::ios::binary | std::ios::trunc);
  f << std::string(kProbeFileBytes, 'p');
  if (!f) throw std::runtime_error("cannot write probe file '" + file_ + "'");
}

SpeedProbe::~SpeedProbe() {
  if (!file_.empty()) ::unlink(file_.c_str());
}

double SpeedProbe::nominal() const {
  return file_.empty() ? kNominalDataS : kNominalFileS;
}

double SpeedProbe::sample() {
  const Clock::time_point t0 = Clock::now();
  // Reset to the same state, so every sample does the same work (the same
  // events, branches and addresses).  The reset is timed: refilling the
  // caches the measured work evicted is part of what the host's speed
  // changes, as it is for the simulator between two cells.
  std::fill(entities_.begin(), entities_.end(), Entity{1, 2, 3, 4});
  std::fill(table_.begin(), table_.end(), 5U);
  heap_.clear();
  const auto later = std::greater<>();
  for (std::uint32_t i = 0; i < kProbeInFlight; ++i) {
    heap_.emplace_back(i, i);
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t sum = 0;
  for (std::size_t k = 0; k < kProbeEvents; ++k) {
    std::pop_heap(heap_.begin(), heap_.end(), later);
    const auto [t, id] = heap_.back();
    heap_.pop_back();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    Entity& e = entities_[(id * 2654435761U) % kProbeEntities];
    std::uint32_t& slot = table_[(x >> 16) % kProbeTable];
    if (e.c & 1U) {
      e.a += t;
      slot += e.d;
    } else {
      e.b ^= x;
      e.d = slot;
    }
    e.c += (x & 7U) == 0 ? 3 : 1;
    sum += e.a ^ e.b;
    heap_.emplace_back(t + 1 + (x & 31U),
                       static_cast<std::uint32_t>((id + x) % kProbeEntities));
    std::push_heap(heap_.begin(), heap_.end(), later);
  }
  checksum_ = sum;
  if (!file_.empty()) {
    std::array<char, kProbeFileBytes> buf;
    for (std::size_t k = 0; k < kProbeFileCalls; ++k) {
      const int fd = ::open(file_.c_str(), O_RDONLY);
      const bool read = fd >= 0 && ::read(fd, buf.data(), buf.size()) ==
                                       static_cast<ssize_t>(buf.size());
      if (fd >= 0) ::close(fd);
      struct stat st {};
      if (!read || ::stat(file_.c_str(), &st) != 0) {
        throw std::runtime_error("cannot read probe file '" + file_ + "'");
      }
    }
  }
  const Clock::time_point t1 = Clock::now();
  samples_.push_back(seconds(t0, t1));
  return samples_.back();
}

ScaledTimer::ScaledTimer(SpeedProbe& probe, double every_s)
    : probe_(probe), every_s_(every_s), last_sample_(probe.sample()) {}

void ScaledTimer::add(double raw_s) {
  pending_.push_back(raw_s);
  pending_s_ += raw_s;
  if (pending_s_ >= every_s_) finish();
}

const std::vector<double>& ScaledTimer::finish() {
  if (!pending_.empty()) {
    const double now = probe_.sample();
    const double k = probe_.scale(last_sample_, now);
    for (double raw : pending_) scaled_.push_back(raw * k);
    pending_.clear();
    pending_s_ = 0.0;
    last_sample_ = now;
  }
  return scaled_;
}

int SpanLog::add(const std::string& name, std::uint64_t id, int parent,
                 Clock::time_point begin, Clock::time_point end) {
  if (!enabled_) return -1;
  auto us = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  spans_.push_back(Span{name, id, parent, us(begin), us(end)});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write_chrome_trace(std::ostream& os,
                                 const std::string& process) const {
  os << "{\"traceEvents\":[\n";
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
        "\"args\":{\"name\":"
     << mot3d::sim::json_string(process) << "}}";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    JsonObject args;
    args.set("id", s.id)
        .set("span", static_cast<std::uint64_t>(i))
        .set_raw("parent", s.parent < 0 ? "null" : std::to_string(s.parent));
    JsonObject ev;
    ev.set("name", s.name)
        .set("ph", "X")
        .set("pid", std::uint64_t{1})
        .set("tid", std::uint64_t{1})
        .set("ts", s.begin_us)
        .set("dur", s.end_us - s.begin_us)
        .set_raw("args", args.str());
    os << ",\n" << ev.str();
  }
  os << "\n]}\n";
}

}  // namespace perfbench
