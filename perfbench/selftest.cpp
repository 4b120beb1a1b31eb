// Self-test of the benchmark's C++ helpers: the seeded request generator,
// the service response parsing and the host-speed scaling.  Exit code 0
// when every check holds.
//
//   .bench_build/perfbench/perfbench_selftest
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_lib.hpp"
#include "sim/sweep_service.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

void same_seed_same_stream() {
  const std::string a = joined(perfbench::replay_stream(7, 2000, 0));
  const std::string b = joined(perfbench::replay_stream(7, 2000, 0));
  const std::string c = joined(perfbench::replay_stream(8, 2000, 0));
  expect(a == b, "same seed gives a byte-identical NDJSON stream");
  expect(a != c, "another seed gives another stream");
}

void every_line_parses() {
  std::vector<std::string> lines = perfbench::replay_stream(3, 1000, 0);
  for (const perfbench::ServiceCell& cell : perfbench::warm_set(3)) {
    lines.push_back(perfbench::request_line(0, cell, perfbench::kServiceScale));
  }
  for (const std::string& line : lines) {
    try {
      const mot3d::sim::ServiceRequest req = mot3d::sim::parse_service_request(line);
      expect(req.cmd.empty() && req.jobs.size() == 1,
             "line names exactly one job: " + line);
    } catch (const std::exception& e) {
      expect(false, "parse_service_request rejects " + line + ": " + e.what());
    }
  }
}

void stream_shape() {
  const std::size_t n = 5000;
  const std::vector<std::string> lines = perfbench::replay_stream(11, n, 0);
  expect(lines.size() == n, "stream has the requested length");
  // Every kNewCellPeriod-th request names a cell no other request names.
  std::vector<std::string> keys;
  for (const std::string& l : lines) keys.push_back(l.substr(l.find(", ")));
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t uses = 0;
    for (const std::string& k : keys) uses += k == keys[i] ? 1 : 0;
    const bool periodic = (i + 1) % perfbench::kNewCellPeriod == 0;
    if (periodic) {
      ++fresh;
      expect(uses == 1, "request " + std::to_string(i) + " is a never-seen cell");
    }
  }
  expect(fresh == n / perfbench::kNewCellPeriod, "one new cell per period");
}

void parses_service_output() {
  perfbench::JobLine job;
  const std::string hit =
      "{\"id\": 3, \"job\": 0, \"app\": \"fft\", \"fabric\": \"mot\", "
      "\"state\": \"Full\", \"spec_hash\": \"ab12\", \"cache_hit\": true, "
      "\"result\": {\"app\": \"fft\", \"cycles\": 1234, \"ipc\": 0.5}}\n"
      "{\"id\": 3, \"done\": true}\n";
  expect(perfbench::parse_job_line(hit, &job), "job line found");
  expect(job.ok && job.cache_hit && job.spec_hash == "ab12", "hit provenance");
  expect(job.payload == "{\"app\": \"fft\", \"cycles\": 1234, \"ipc\": 0.5}",
         "payload extracted byte-exact");
  expect(perfbench::payload_u64(job.payload, "cycles") == 1234, "cycles field");
  const std::string err =
      "{\"id\": 4, \"job\": 0, \"app\": \"fft\", \"spec_hash\": \"cd34\", "
      "\"cache_hit\": false, \"error\": \"watchdog\"}\n";
  expect(perfbench::parse_job_line(err, &job) && !job.ok && job.error == "watchdog",
         "error line");
  expect(!perfbench::parse_job_line("{\"error\": \"bad request\"}\n", &job),
         "protocol error has no job line");
}

void probe_and_scaling() {
  perfbench::SpeedProbe probe;
  const double first = probe.sample();
  const std::uint64_t sum = probe.checksum();
  expect(first > 0.0 && probe.sample() > 0.0, "probe samples take time");
  expect(probe.checksum() == sum, "every probe sample does the same work");

  // One sample on construction, one when a unit crosses the threshold.
  perfbench::SpeedProbe p1;
  perfbench::ScaledTimer every(p1, 0.0);
  for (double raw : {1.0, 2.0, 3.0}) every.add(raw);
  const std::vector<double>& each = every.finish();
  expect(p1.samples().size() == 4, "a sample between every two units");
  expect(each.size() == 3, "every unit scaled");
  for (std::size_t i = 0; i < each.size(); ++i) {
    const double want =
        (i + 1.0) * p1.scale(p1.samples()[i], p1.samples()[i + 1]);
    expect(each[i] == want, "unit scaled by the samples around it");
  }

  // Below the threshold the units share the samples around all of them.
  perfbench::SpeedProbe p2;
  perfbench::ScaledTimer batched(p2, 1e9);
  for (double raw : {1.0, 2.0, 3.0}) batched.add(raw);
  expect(p2.samples().size() == 1, "no sample below the threshold");
  const std::vector<double> all = batched.finish();
  expect(p2.samples().size() == 2 && all.size() == 3, "finish samples once");
  const double k = p2.scale(p2.samples()[0], p2.samples()[1]);
  expect(all[0] == k && all[1] == 2.0 * k && all[2] == 3.0 * k,
         "units keep their order and share one scale");
  expect(batched.finish().size() == 3 && p2.samples().size() == 2,
         "finish with nothing pending takes no sample");
}

void file_probe(const std::filesystem::path& dir) {
  const std::string file = (dir / "selftest.probe").string();
  {
    perfbench::SpeedProbe probe(file);
    const perfbench::SpeedProbe data;
    expect(std::filesystem::file_size(file) > 0, "file probe creates its file");
    expect(probe.sample() > 0.0, "file probe samples");
    expect(probe.nominal() > data.nominal(), "file calls add to the nominal");
  }
  expect(!std::filesystem::exists(file), "file probe removes its file");
}

}  // namespace

int main(int /*argc*/, char** argv) {
  same_seed_same_stream();
  every_line_parses();
  stream_shape();
  parses_service_output();
  probe_and_scaling();
  // Next to the binary, so the test writes only inside the build tree.
  file_probe(std::filesystem::absolute(argv[0]).parent_path());
  if (failures == 0) std::cout << "perfbench_selftest: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
