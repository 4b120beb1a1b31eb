// Sweep service: content-addressed caching must be invisible except for
// speed.  The properties pinned here are the service's whole contract:
//  * the spec hash is byte-stable — permuting request-axis value order or
//    request-field order never changes it, changing any modeled input
//    always does;
//  * a cache hit is bit-identical to recomputation (including across the
//    scheduler axis, which is deliberately not part of the key);
//  * concurrent batches compute each unique spec exactly once;
//  * truncated / tampered entries are detected and recomputed, never
//    served; errors are never cached; unwritable dirs fail loudly;
//  * eviction is exact LRU over the entries a service knows, so identical
//    request streams give identical counts, and a restarted service
//    reads the same use order back from the file times.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "sim/json_reader.hpp"
#include "sim/scenario_registry.hpp"
#include "sim/sweep_service.hpp"

namespace mot3d::sim {
namespace {

namespace fs = std::filesystem;

/// A small, fast job: fft on the paper config at reduced scale.
SweepJob make_job(const std::string& app, double scale = 0.01) {
  SweepJob j;
  j.run.app = app;
  j.scale = scale;
  j.seed = 7;
  return j;
}

/// Fresh cache directory per test so entries never leak across cases.
class SweepServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("sweep_cache_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ServiceConfig config() const {
    ServiceConfig cfg;
    cfg.cache_dir = dir_.string();
    cfg.threads = 2;
    return cfg;
  }

  static SweepJob job(const std::string& app, double scale = 0.01) {
    return make_job(app, scale);
  }

  fs::path entry_file() const {
    for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
      if (e.path().extension() == ".entry") return e.path();
    }
    ADD_FAILURE() << "no .entry file in " << dir_;
    return {};
  }

  /// `j`'s entry file in this test's cache directory.
  fs::path entry_of(const SweepJob& j) const {
    return dir_ / (job_hash(j) + ".entry");
  }

  /// Each job's entry size in bytes, measured by storing the jobs in a
  /// scratch directory beside this test's own.
  std::vector<std::uint64_t> entry_bytes(const std::vector<SweepJob>& jobs) const {
    const fs::path sizes = dir_.string() + "_sizes";
    fs::remove_all(sizes);
    std::vector<std::uint64_t> bytes;
    {
      ServiceConfig cfg = config();
      cfg.cache_dir = sizes.string();
      SweepService sizing(cfg);
      for (const JobOutcome& o : sizing.run_batch(jobs)) {
        EXPECT_TRUE(o.ok()) << o.error;
      }
      for (const SweepJob& j : jobs) {
        bytes.push_back(fs::file_size(sizes / (job_hash(j) + ".entry")));
      }
    }
    fs::remove_all(sizes);
    return bytes;
  }

  /// One request of one job, as `serve` and `batch` make them.
  static JobOutcome request(SweepService& service, const SweepJob& j) {
    const std::vector<JobOutcome> out = service.run_batch({j});
    EXPECT_TRUE(out.at(0).ok()) << out[0].error;
    return out[0];
  }

  fs::path dir_;
};

// ---- SHA-256 ---------------------------------------------------------------

TEST(Sha256, Fips180KnownVectors) {
  EXPECT_EQ(sha256_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(sha256_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
  EXPECT_EQ(sha256_hex(std::string(1'000'000, 'a')),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, KnownAnswersAtEveryPaddingBoundary) {
  // n x 'a' either side of each boundary: 55 is the longest tail that
  // pads in one block, 56..63 need a second, 64 and 120 start the next.
  const struct {
    std::size_t n;
    const char* digest;
  } cases[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& c : cases) {
    const std::string data(c.n, 'a');
    EXPECT_EQ(sha256_hex(data), c.digest) << c.n;
    EXPECT_EQ(detail::sha256_hex_portable(data), c.digest) << c.n;
  }
}

TEST(Sha256, HardwareCompressionMatchesThePortableReference) {
  // sha256_hex uses the SHA extensions where CPUID reports them; the
  // portable compression is the reference on every length through 1 100
  // bytes (every tail length, up to 17 whole blocks) and one 64 KiB + 7.
  RecordProperty("sha256_hardware",
                 detail::sha256_uses_hardware() ? "yes" : "no");
  SplitMix64 rng(42);
  std::string data;
  for (std::size_t n = 0; n <= 1'100; ++n) {
    EXPECT_EQ(sha256_hex(data), detail::sha256_hex_portable(data)) << n;
    data.push_back(static_cast<char>(rng.next()));
  }
  data.resize(64 * 1024 + 7);
  for (char& c : data) c = static_cast<char>(rng.next());
  EXPECT_EQ(sha256_hex(data), detail::sha256_hex_portable(data));
}

// ---- spec hash stability ---------------------------------------------------

TEST(SpecHash, RequestAxisOrderAndFieldOrderDoNotMatter) {
  // Same grid, permuted axis-value order AND permuted JSON field order:
  // the canonicalisation must make the hash sets identical.
  const ServiceRequest a = parse_service_request(
      R"({"apps":["fft","radix"],"fabrics":["mot","mesh3d"],"scale":0.01,"seed":3})");
  const ServiceRequest b = parse_service_request(
      R"({"seed":3,"fabrics":["mesh3d","mot"],"scale":0.01,"apps":["radix","fft"]})");
  ASSERT_EQ(a.jobs.size(), 4u);
  ASSERT_EQ(b.jobs.size(), 4u);
  std::set<std::string> ha, hb;
  for (const SweepJob& j : a.jobs) ha.insert(job_hash(j));
  for (const SweepJob& j : b.jobs) hb.insert(job_hash(j));
  EXPECT_EQ(ha, hb);
  EXPECT_EQ(ha.size(), 4u) << "distinct cells must hash distinctly";
}

TEST(SpecHash, EverySingleModeledFieldChangesTheHash) {
  SweepJob base;
  base.run.app = "fft";
  base.scale = 0.01;
  base.seed = 7;
  const std::string h0 = job_hash(base);

  std::vector<std::pair<const char*, SweepJob>> variants;
  variants.reserve(16);
  {
    SweepJob j = base;
    j.run.app = "radix";
    variants.emplace_back("app", j);
  }
  {
    SweepJob j = base;
    j.run.fabric = cluster::Fabric::kTrueMesh3d;
    variants.emplace_back("fabric", j);
  }
  {
    SweepJob j = base;
    j.run.state = power_state_by_name("PC8-MB16");
    variants.emplace_back("power state", j);
  }
  {
    SweepJob j = base;
    j.run.dram = mem::DramPreset::kWideIo_63ns;
    variants.emplace_back("dram preset", j);
  }
  {
    SweepJob j = base;
    j.run.dram_backend = DramBackendMode::kStacked;
    variants.emplace_back("dram backend", j);
  }
  {
    SweepJob j = base;
    j.run.thermal.enabled = true;
    variants.emplace_back("thermal enabled", j);
  }
  {
    SweepJob j = base;
    j.run.thermal.ambient_c = 55.0;
    variants.emplace_back("thermal ambient", j);
  }
  {
    SweepJob j = base;
    j.run.thermal.ceiling_c = 75.0;
    variants.emplace_back("thermal ceiling", j);
  }
  {
    SweepJob j = base;
    j.run.fault.enabled = true;
    variants.emplace_back("fault enabled", j);
  }
  {
    SweepJob j = base;
    j.run.fault.tsv_fault_rate = 0.5;
    variants.emplace_back("tsv fault rate", j);
  }
  {
    SweepJob j = base;
    j.run.fault.bank_fault_rate = 0.5;
    variants.emplace_back("bank fault rate", j);
  }
  {
    SweepJob j = base;
    j.run.fault.seed = 99;
    variants.emplace_back("fault seed", j);
  }
  {
    SweepJob j = base;
    j.scale = 0.02;
    variants.emplace_back("scale", j);
  }
  {
    SweepJob j = base;
    j.seed = 8;
    variants.emplace_back("seed", j);
  }
  std::set<std::string> seen{h0};
  for (const auto& [field, j] : variants) {
    const std::string h = job_hash(j);
    EXPECT_NE(h, h0) << "changing " << field << " must change the hash";
    EXPECT_TRUE(seen.insert(h).second)
        << field << " collided with another variant";
  }
}

TEST(SpecHash, WatchdogBudgetIsNotPartOfTheKey) {
  // The watchdog only bounds recomputation; errors are never cached, so a
  // different budget must still address the same cached result.
  SweepJob a = make_job("fft");
  SweepJob b = a;
  b.timeout_seconds = 30.0;
  EXPECT_EQ(job_hash(a), job_hash(b));
}

TEST(SpecHash, CanonicalJsonIsByteStable) {
  const SweepJob j = make_job("fft");
  const std::string doc = canonical_job_json(j);
  EXPECT_EQ(doc, canonical_job_json(j));
  EXPECT_EQ(job_hash(j), sha256_hex(doc));
  // Field order is part of the format: pin the prefix so an accidental
  // reordering (which would orphan every existing cache) fails here.
  EXPECT_EQ(doc.rfind(R"({"format": 1, "app": "fft", "fabric": "mot")", 0), 0u)
      << doc;
}

TEST(SpecHash, PinnedForAFixedJob) {
  // The content address of every entry in an existing --cache-dir: a
  // change here orphans them all.
  EXPECT_EQ(job_hash(make_job("fft")),
            "85e622de63add86f5b665c5051efe347ce53a30459d2d09d6afc87516b7b41fc");
}

// ---- on-disk entry format --------------------------------------------------

/// make_job("fft")'s entry in the v1 layout, byte for byte as store_entry
/// writes it: magic, spec hash, payload hash, payload length, the spec
/// JSON, then the payload.  The payload is a stand-in; the reader checks
/// only that it matches its own hash and length.
constexpr const char* kV1Payload = R"({"app": "fft", "cycles": 123456})";
constexpr const char* kV1Entry =
    "mot3d-cache v1\n"
    "spec_sha256 85e622de63add86f5b665c5051efe347ce53a30459d2d09d6afc87516b7b41fc\n"
    "payload_sha256 f34a86f1fc2d58b18c1eec0ebaebcb3cb78127ae69dac5886c1d3bb9108f4b1d\n"
    "payload_bytes 32\n"
    R"({"format": 1, "app": "fft", "fabric": "mot", "state": "Full", )"
    R"("dram_ns": 200, "dram_backend": "constant", "thermal_enabled": false, )"
    R"("thermal_ambient_c": 45, "thermal_ceiling_c": 80, "fault_enabled": false, )"
    R"("fault_tsv_rate": 0, "fault_bank_rate": 0, "fault_seed": 7, "scale": 0.01, )"
    R"("seed": 7})"
    "\n"
    R"({"app": "fft", "cycles": 123456})";

TEST_F(SweepServiceTest, EntryInTheV1LayoutIsServedAsAHit) {
  fs::create_directories(dir_);
  std::ofstream(entry_of(job("fft")), std::ios::binary) << kV1Entry;
  SweepService service(config());
  const JobOutcome hit = request(service, job("fft"));
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.payload, kV1Payload);
  const obs::ServiceSnapshot s = service.counters().snapshot();
  EXPECT_EQ(s.computed, 0u);
  EXPECT_EQ(s.corrupt_entries, 0u);
}

TEST_F(SweepServiceTest, StoreWritesTheV1Layout) {
  SweepService service(config());
  const SweepJob j = job("fft");
  const JobOutcome cold = request(service, j);
  std::ifstream in(entry_of(j), std::ios::binary);
  const std::string text(std::istreambuf_iterator<char>(in), {});
  EXPECT_EQ(text, "mot3d-cache v1\nspec_sha256 " + job_hash(j) +
                      "\npayload_sha256 " + sha256_hex(cold.payload) +
                      "\npayload_bytes " + std::to_string(cold.payload.size()) +
                      "\n" + canonical_job_json(j) + "\n" + cold.payload);
}

TEST_F(SweepServiceTest, EveryCorruptEntryIsRecomputedWithItsReason) {
  // One defect of the v1 entry per case; each is counted, logged with its
  // reason and recomputed, never served.
  const std::string good = kV1Entry;
  auto replaced = [&good](const std::string& from, const std::string& to) {
    std::string text = good;
    const std::size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return text.replace(at, from.size(), to);
  };
  const std::string header_only =
      good.substr(0, good.find("\n{\"format\"") + 1);
  const struct {
    std::string text;
    const char* reason;
  } cases[] = {
      {"", "bad magic"},
      {replaced("cache v1", "cache v0"), "bad magic"},
      {replaced("spec_sha256 85e6", "spec_sha256 95e6"), "spec hash mismatch"},
      {replaced("payload_sha256 ", "payload_sha255 "), "missing payload hash"},
      {replaced("payload_bytes ", "payload_count "), "missing payload length"},
      {replaced("payload_bytes 32", "payload_bytes 3x2"),
       "malformed payload length"},
      {replaced("payload_bytes 32", "payload_bytes "),
       "malformed payload length"},
      {replaced("payload_bytes 32", "payload_bytes 18446744073709551616"),
       "malformed payload length"},
      {header_only, "missing spec document"},
      {replaced("payload_bytes 32", "payload_bytes 18446744073709551615"),
       "truncated payload"},
      {good.substr(0, good.size() - 1), "truncated payload"},
      {good + "\n", "trailing bytes after payload"},
      {replaced("123456}", "123457}"), "payload hash mismatch"},
  };
  SweepService service(config());
  std::uint64_t corrupt = 0;
  const fs::path entry = entry_of(job("fft"));
  auto expect_recomputed = [&](const char* reason) {
    SCOPED_TRACE(reason);
    ::testing::internal::CaptureStderr();
    const JobOutcome out = request(service, job("fft"));
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_FALSE(out.cache_hit);
    EXPECT_NE(out.payload, kV1Payload);
    EXPECT_NE(log.find(std::string("(") + reason + ")"), std::string::npos)
        << log;
    EXPECT_EQ(service.counters().snapshot().corrupt_entries, ++corrupt);
  };
  for (const auto& c : cases) {
    std::ofstream(entry, std::ios::binary | std::ios::trunc) << c.text;
    expect_recomputed(c.reason);
  }
  // Defects of the file itself.  A FIFO would block an open that waits
  // for a writer forever (the ctest timeout turns that into a failure).
  fs::remove(entry);
  ASSERT_EQ(::mkfifo(entry.c_str(), 0600), 0);
  expect_recomputed("not a regular file");
  ASSERT_TRUE(fs::is_regular_file(entry)) << "the rewrite replaces the FIFO";
  // A sparse file one byte past the 1 MiB bound is rejected unread.
  fs::resize_file(entry, (std::uint64_t{1} << 20) + 1);
  expect_recomputed("oversized entry");
  EXPECT_TRUE(request(service, job("fft")).cache_hit);
}

// ---- cache behaviour -------------------------------------------------------

TEST_F(SweepServiceTest, ColdThenWarmIsBitIdenticalWithZeroRecompute) {
  SweepService service(config());
  const std::vector<SweepJob> jobs = {job("fft"), job("radix")};
  const std::vector<JobOutcome> cold = service.run_batch(jobs);
  ASSERT_EQ(cold.size(), 2u);
  for (const JobOutcome& o : cold) {
    ASSERT_TRUE(o.ok()) << o.error;
    EXPECT_FALSE(o.cache_hit);
    EXPECT_FALSE(o.payload.empty());
  }
  const std::vector<JobOutcome> warm = service.run_batch(jobs);
  for (std::size_t i = 0; i < warm.size(); ++i) {
    ASSERT_TRUE(warm[i].ok());
    EXPECT_TRUE(warm[i].cache_hit);
    EXPECT_EQ(warm[i].payload, cold[i].payload) << "hit must be bit-identical";
    EXPECT_EQ(warm[i].spec_hash, cold[i].spec_hash);
  }
  const obs::ServiceSnapshot s = service.counters().snapshot();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.computed, 2u) << "warm pass must recompute nothing";
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(s.queue_depth, 0);
}

TEST_F(SweepServiceTest, SchedulerIsNotPartOfTheKeyAndHitsAreBitIdentical) {
  ServiceConfig event_cfg = config();
  event_cfg.scheduler = cluster::SchedulerMode::kEventDriven;
  std::string computed;
  {
    SweepService service(event_cfg);
    const auto out = service.run_batch({job("fft")});
    ASSERT_TRUE(out[0].ok()) << out[0].error;
    computed = out[0].payload;
  }
  ServiceConfig dense_cfg = config();
  dense_cfg.scheduler = cluster::SchedulerMode::kDenseTick;
  SweepService service(dense_cfg);
  const auto out = service.run_batch({job("fft")});
  ASSERT_TRUE(out[0].ok());
  EXPECT_TRUE(out[0].cache_hit)
      << "dense-tick must be served by the event-driven entry";
  EXPECT_EQ(out[0].payload, computed);
  EXPECT_EQ(service.counters().snapshot().computed, 0u);
}

TEST_F(SweepServiceTest, DuplicateJobsInOneBatchComputeOnce) {
  SweepService service(config());
  const auto out = service.run_batch({job("fft"), job("fft"), job("fft")});
  ASSERT_EQ(out.size(), 3u);
  for (const JobOutcome& o : out) {
    ASSERT_TRUE(o.ok());
    EXPECT_EQ(o.payload, out[0].payload);
    EXPECT_EQ(o.spec_hash, out[0].spec_hash);
  }
  const obs::ServiceSnapshot s = service.counters().snapshot();
  EXPECT_EQ(s.computed, 1u);
  EXPECT_EQ(s.misses, 1u);
}

TEST_F(SweepServiceTest, ConcurrentClientsComputeEachJobExactlyOnce) {
  SweepService service(config());
  const std::vector<SweepJob> jobs = {job("fft", 0.005), job("radix", 0.005),
                                      job("volrend", 0.005)};
  constexpr int kClients = 4;
  std::vector<std::vector<JobOutcome>> results(kClients);
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(
          [&, c] { results[c] = service.run_batch(jobs); });
    }
    for (std::thread& t : clients) t.join();
  }
  std::uint64_t response_misses = 0;
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(results[c][i].ok()) << results[c][i].error;
      EXPECT_EQ(results[c][i].payload, results[0][i].payload)
          << "client " << c << " job " << i;
      if (!results[c][i].cache_hit) ++response_misses;
    }
  }
  // Cross-check per-response provenance against the service.* probes:
  // every unique spec computed exactly once, every other serve was a hit.
  const obs::ServiceSnapshot s = service.counters().snapshot();
  EXPECT_EQ(s.computed, jobs.size());
  EXPECT_EQ(s.misses, jobs.size());
  EXPECT_EQ(response_misses, jobs.size());
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kClients - 1) * jobs.size());
  EXPECT_EQ(s.queue_depth, 0);
  EXPECT_EQ(s.job_errors, 0u);
}

// ---- corruption + error paths ----------------------------------------------

TEST_F(SweepServiceTest, TruncatedEntryIsRecomputedAndRewritten) {
  SweepService service(config());
  const auto cold = service.run_batch({job("fft")});
  ASSERT_TRUE(cold[0].ok());
  const fs::path entry = entry_file();
  fs::resize_file(entry, fs::file_size(entry) / 2);

  const auto recomputed = service.run_batch({job("fft")});
  ASSERT_TRUE(recomputed[0].ok());
  EXPECT_FALSE(recomputed[0].cache_hit) << "a truncated entry was served";
  EXPECT_EQ(recomputed[0].payload, cold[0].payload);
  EXPECT_EQ(service.counters().snapshot().corrupt_entries, 1u);

  // The rewrite must restore a servable entry.
  const auto warm = service.run_batch({job("fft")});
  EXPECT_TRUE(warm[0].cache_hit);
  EXPECT_EQ(warm[0].payload, cold[0].payload);
}

TEST_F(SweepServiceTest, TamperedPayloadFailsItsHashAndIsNeverServed) {
  SweepService service(config());
  const auto cold = service.run_batch({job("fft")});
  ASSERT_TRUE(cold[0].ok());
  const fs::path entry = entry_file();
  // Flip one payload byte without changing the length: only the payload
  // hash can catch this.
  std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  f.put('X');
  f.close();

  const auto recomputed = service.run_batch({job("fft")});
  ASSERT_TRUE(recomputed[0].ok());
  EXPECT_FALSE(recomputed[0].cache_hit) << "a tampered entry was served";
  EXPECT_EQ(recomputed[0].payload, cold[0].payload);
  EXPECT_GE(service.counters().snapshot().corrupt_entries, 1u);
}

TEST_F(SweepServiceTest, OversizedPayloadLengthIsRecomputed) {
  SweepService service(config());
  const auto cold = service.run_batch({job("fft")});
  ASSERT_TRUE(cold[0].ok());
  // Claim the largest length the header can spell (what "-1" parses to):
  // it must read as a truncated entry, not size a buffer.
  const fs::path entry = entry_file();
  std::string text;
  {
    std::ifstream in(entry, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string key = "\npayload_bytes ";
  const std::size_t at = text.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t value = at + key.size();
  text.replace(value, text.find('\n', value) - value, "18446744073709551615");
  std::ofstream(entry, std::ios::binary | std::ios::trunc) << text;

  const auto recomputed = service.run_batch({job("fft")});
  ASSERT_TRUE(recomputed[0].ok()) << recomputed[0].error;
  EXPECT_FALSE(recomputed[0].cache_hit);
  EXPECT_EQ(recomputed[0].payload, cold[0].payload);
  EXPECT_EQ(service.counters().snapshot().corrupt_entries, 1u);

  const auto warm = service.run_batch({job("fft")});
  EXPECT_TRUE(warm[0].cache_hit);
  EXPECT_EQ(warm[0].payload, cold[0].payload);
}

TEST_F(SweepServiceTest, ErrorsAreNeverCached) {
  SweepService service(config());
  SweepJob wedged = job("fft");
  wedged.timeout_seconds = 1e-6;  // watchdog kills the run immediately
  const auto failed = service.run_batch({wedged});
  ASSERT_FALSE(failed[0].ok());
  EXPECT_FALSE(failed[0].cache_hit);
  EXPECT_NE(failed[0].error.find("watchdog"), std::string::npos)
      << failed[0].error;
  EXPECT_EQ(service.cache_stats().entries, 0u) << "an error was cached";
  EXPECT_EQ(service.counters().snapshot().job_errors, 1u);

  // Same spec without the budget: computes fresh (nothing was cached).
  const auto ok = service.run_batch({job("fft")});
  ASSERT_TRUE(ok[0].ok());
  EXPECT_FALSE(ok[0].cache_hit);
}

TEST_F(SweepServiceTest, EvictionKeepsTheCacheUnderItsByteCap) {
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = 1;  // every store immediately over-caps
  SweepService service(cfg);
  const auto out = service.run_batch({job("fft"), job("radix")});
  ASSERT_TRUE(out[0].ok());
  ASSERT_TRUE(out[1].ok());
  EXPECT_LE(service.cache_stats().entries, 1u);
  EXPECT_GE(service.counters().snapshot().evictions, 1u);
}

// ---- LRU eviction: exact, deterministic, shared with other processes -------

TEST_F(SweepServiceTest, IdenticalRequestStreamsGiveIdenticalCounts) {
  // Twelve specs, a cap of about six entries and a seeded stream skewed
  // toward the first specs: many hits, misses and evictions, so an order
  // that depended on file-time resolution would show.
  std::vector<SweepJob> specs;
  for (const char* app : {"fft", "radix", "volrend", "fmm"}) {
    for (const std::uint64_t seed : {1, 2, 3}) {
      SweepJob j = job(app, 0.002);
      j.seed = seed;
      specs.push_back(j);
    }
  }
  std::uint64_t total = 0;
  for (const std::uint64_t b : entry_bytes(specs)) total += b;
  SplitMix64 rng(2024);
  std::vector<std::size_t> stream(300);
  for (std::size_t& s : stream) {
    const std::size_t u = rng.next() % specs.size();
    const std::size_t v = rng.next() % specs.size();
    s = std::min(u, v);
  }

  struct Replay {
    std::vector<bool> hit;
    std::vector<std::string> payload;
    obs::ServiceSnapshot counts;
  };
  auto replay = [&](const char* subdir) {
    ServiceConfig cfg = config();
    cfg.cache_dir = (dir_ / subdir).string();
    cfg.max_cache_bytes = total / 2;
    SweepService service(cfg);
    Replay r;
    for (const std::size_t s : stream) {
      const JobOutcome o = request(service, specs[s]);
      r.hit.push_back(o.cache_hit);
      r.payload.push_back(o.payload);
    }
    r.counts = service.counters().snapshot();
    return r;
  };
  const Replay a = replay("a");
  const Replay b = replay("b");
  EXPECT_EQ(a.hit, b.hit);
  EXPECT_EQ(a.payload, b.payload);
  EXPECT_EQ(a.counts.hits, b.counts.hits);
  EXPECT_EQ(a.counts.misses, b.counts.misses);
  EXPECT_EQ(a.counts.evictions, b.counts.evictions);
  RecordProperty("hits", std::to_string(a.counts.hits));
  RecordProperty("misses", std::to_string(a.counts.misses));
  RecordProperty("evictions", std::to_string(a.counts.evictions));
  EXPECT_GT(a.counts.hits, 0u);
  EXPECT_GT(a.counts.misses, specs.size()) << "the cap never evicted a spec";
  EXPECT_GT(a.counts.evictions, 0u);
}

TEST_F(SweepServiceTest, StoreEvictsTheLeastRecentlyUsedAndKeepsItself) {
  // C, a stacked-DRAM run, carries more fields than B.
  const SweepJob a = job("fft", 0.002);
  const SweepJob b = job("radix", 0.002);
  SweepJob c = job("fft", 0.002);
  c.run.dram_backend = DramBackendMode::kStacked;
  const std::vector<std::uint64_t> size = entry_bytes({a, b, c});
  ASSERT_LT(size[1], size[2]);
  // A and B fit, C fits alone, C with A does not.
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = std::max(size[0] + size[1], size[2]);
  SweepService service(cfg);
  request(service, a);
  request(service, b);
  EXPECT_TRUE(request(service, a).cache_hit);
  EXPECT_EQ(service.counters().snapshot().evictions, 0u);
  request(service, c);
  EXPECT_EQ(service.counters().snapshot().evictions, 2u);
  EXPECT_FALSE(fs::exists(entry_of(a)));
  EXPECT_FALSE(fs::exists(entry_of(b)));
  EXPECT_TRUE(fs::exists(entry_of(c))) << "the entry just stored was evicted";
}

TEST_F(SweepServiceTest, AHitKeepsItsEntryPastTheNextEviction) {
  const SweepJob a = job("fft", 0.002);
  const SweepJob b = job("radix", 0.002);
  const SweepJob c = job("volrend", 0.002);
  const std::vector<std::uint64_t> size = entry_bytes({a, b, c});
  // A and B fit, and so do A and C: storing C evicts one entry.
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = size[0] + std::max(size[1], size[2]);
  SweepService service(cfg);
  request(service, a);
  request(service, b);
  EXPECT_TRUE(request(service, a).cache_hit);
  request(service, c);
  EXPECT_EQ(service.counters().snapshot().evictions, 1u);
  EXPECT_TRUE(fs::exists(entry_of(a))) << "the entry hit last was evicted";
  EXPECT_FALSE(fs::exists(entry_of(b)));
  EXPECT_TRUE(fs::exists(entry_of(c)));
}

TEST_F(SweepServiceTest, RestartedServiceKeepsTheUseOrder) {
  const SweepJob a = job("fft", 0.002);
  const SweepJob b = job("radix", 0.002);
  const SweepJob c = job("volrend", 0.002);
  const SweepJob d = job("fmm", 0.002);
  const std::vector<std::uint64_t> size = entry_bytes({a, b, c, d});
  // Store `first`, `second` and C, hit `first`, restart, then store D
  // over a cap that holds all but `second`: the rebuilt service reads the
  // use order second, C, first from the file times.  Run with A and B in
  // both roles: a directory listing, ordered by name or by creation,
  // cannot put the victim first both times.
  auto restart_evicts = [&](const char* subdir, const SweepJob& first,
                            const SweepJob& second, std::uint64_t kept_bytes) {
    SCOPED_TRACE(subdir);
    const fs::path dir = dir_ / subdir;
    auto stored = [&](const SweepJob& j) {
      return fs::exists(dir / (job_hash(j) + ".entry"));
    };
    ServiceConfig cfg = config();
    cfg.cache_dir = dir.string();
    {
      SweepService before(cfg);
      request(before, first);
      request(before, second);
      request(before, c);
      EXPECT_TRUE(request(before, first).cache_hit);
    }
    cfg.max_cache_bytes = kept_bytes;
    SweepService after(cfg);
    request(after, d);
    EXPECT_EQ(after.counters().snapshot().evictions, 1u);
    EXPECT_FALSE(stored(second));
    for (const SweepJob* j : {&first, &c, &d}) EXPECT_TRUE(stored(*j));
  };
  restart_evicts("a_hit", a, b, size[0] + size[2] + size[3]);
  restart_evicts("b_hit", b, a, size[1] + size[2] + size[3]);
}

TEST_F(SweepServiceTest, RewrittenCorruptEntryCountsAtItsNewSize) {
  const SweepJob a = job("fft", 0.002);
  {
    SweepService first(config());
    request(first, a);
  }
  fs::resize_file(entry_of(a), 1);
  // The restarted service indexes A at 1 byte, within the cap; the
  // rewrite is a whole entry, over it.
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = 1;
  SweepService second(cfg);
  EXPECT_FALSE(request(second, a).cache_hit);
  EXPECT_EQ(second.counters().snapshot().corrupt_entries, 1u);
  EXPECT_EQ(second.counters().snapshot().evictions, 1u)
      << "the rewritten entry kept its truncated size";
  EXPECT_FALSE(fs::exists(entry_of(a)));
}

TEST_F(SweepServiceTest, EntryDeletedBehindTheServiceIsRecomputedNotServed) {
  SweepService service(config());
  const SweepJob a = job("fft", 0.002);
  const JobOutcome cold = request(service, a);
  ASSERT_TRUE(fs::remove(entry_of(a)));  // another process removes it
  const JobOutcome again = request(service, a);
  EXPECT_FALSE(again.cache_hit);
  EXPECT_EQ(again.payload, cold.payload);
  EXPECT_TRUE(fs::exists(entry_of(a))) << "the recomputed entry was not stored";
  EXPECT_TRUE(request(service, a).cache_hit);
  EXPECT_EQ(service.counters().snapshot().computed, 2u);
}

TEST_F(SweepServiceTest, EvictingAVanishedFileCountsNoEviction) {
  const SweepJob a = job("fft", 0.002);
  const SweepJob b = job("radix", 0.002);
  const SweepJob c = job("volrend", 0.002);
  const std::vector<std::uint64_t> size = entry_bytes({a, b, c});
  // A and B fit; storing C pushes A, the least recent, out.
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = size[1] + std::max(size[0], size[2]);
  SweepService service(cfg);
  request(service, a);
  request(service, b);
  ASSERT_TRUE(fs::remove(entry_of(a)));  // another process removes it
  request(service, c);
  EXPECT_EQ(service.counters().snapshot().evictions, 0u);
  EXPECT_TRUE(fs::exists(entry_of(b)));
  EXPECT_TRUE(fs::exists(entry_of(c)));
}

TEST_F(SweepServiceTest, ClearedServiceEvictsNoEntryItDoesNotKnow) {
  const SweepJob a = job("fft", 0.002);
  const SweepJob b = job("radix", 0.002);
  const SweepJob c = job("volrend", 0.002);
  const std::vector<std::uint64_t> size = entry_bytes({a, b, c});
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = std::max(size[0] + size[1], size[2]);
  SweepService service(cfg);
  request(service, a);
  request(service, b);
  EXPECT_EQ(service.cache_clear(), 2u);
  {
    SweepService other(config());  // another process stores A again
    request(other, a);
  }
  // This service knows only C now: A, B and C would be over the cap.
  request(service, c);
  EXPECT_EQ(service.counters().snapshot().evictions, 0u);
  EXPECT_TRUE(fs::exists(entry_of(a)));
  EXPECT_TRUE(fs::exists(entry_of(c)));
}

TEST_F(SweepServiceTest, HitOnAnotherProcessesEntryIndexesIt) {
  const SweepJob a = job("fft", 0.002);
  const SweepJob b = job("radix", 0.002);
  const std::vector<std::uint64_t> size = entry_bytes({a, b});
  ServiceConfig cfg = config();
  cfg.max_cache_bytes = std::max(size[0], size[1]);  // one entry at a time
  SweepService service(cfg);
  {
    SweepService other(config());  // stores A after `service` started
    request(other, a);
  }
  EXPECT_TRUE(request(service, a).cache_hit);
  request(service, b);
  EXPECT_EQ(service.counters().snapshot().evictions, 1u);
  EXPECT_FALSE(fs::exists(entry_of(a)));
  EXPECT_TRUE(fs::exists(entry_of(b)));
}

TEST(SweepServiceConstruct, UnwritableCacheDirThrowsOneCleanError) {
  // /dev/null/sub cannot be created even by root (unlike /nonexistent/...).
  ServiceConfig cfg;
  cfg.cache_dir = "/dev/null/sub";
  EXPECT_THROW(SweepService{cfg}, std::runtime_error);
  cfg.cache_dir = "";
  EXPECT_THROW(SweepService{cfg}, std::runtime_error);
}

// ---- request protocol ------------------------------------------------------

TEST(ServiceRequestParse, ScenarioRequestsUseGoldenOptions) {
  const ServiceRequest req =
      parse_service_request(R"({"id":9,"scenario":"fig6b_exec_time"})");
  ASSERT_FALSE(req.jobs.empty());
  const ScenarioSpec* spec = find_scenario("fig6b_exec_time");
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(req.jobs.size(), expand_grid(*spec).size());
  EXPECT_EQ(req.jobs.front().scale, spec->golden_scale);
  EXPECT_EQ(req.jobs.front().seed, spec->seed);
  EXPECT_EQ(req.id, "9");
}

TEST(ServiceRequestParse, MalformedRequestsThrowWithOneLineReasons) {
  EXPECT_THROW(parse_service_request("not json"), std::invalid_argument);
  EXPECT_THROW(parse_service_request("[1,2]"), std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"frobnicate":1})"),
               std::invalid_argument);  // unknown field
  EXPECT_THROW(parse_service_request(R"({"cmd":"dance"})"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"cmd":"ping","apps":["fft"]})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_service_request(R"({"scenario":"fig6b_exec_time","apps":["fft"]})"),
      std::invalid_argument);  // mixing shapes
  EXPECT_THROW(parse_service_request(R"({"scenario":"no_such"})"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"scenario":"fig5_wire_lengths"})"),
               std::invalid_argument);  // timing scenario: nothing to memoize
  EXPECT_THROW(parse_service_request(R"({"apps":["notanapp"]})"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"apps":[]})"), std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"apps":["fft"],"scale":-1})"),
               std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"apps":["fft"],"seed":1.5})"),
               std::invalid_argument);
  EXPECT_THROW(
      parse_service_request(R"({"apps":["fft"],"timeout_seconds":-1})"),
      std::invalid_argument);
  EXPECT_THROW(parse_service_request(R"({"id":[1],"apps":["fft"]})"),
               std::invalid_argument);  // non-scalar id
  // A state name may ask for no shape beyond Full1024x2048.
  EXPECT_THROW(parse_service_request(R"({"states":["Full2048x4096"]})"),
               std::invalid_argument);
  EXPECT_FALSE(
      parse_service_request(R"({"apps":["fft"],"states":["Full1024x2048"]})")
          .jobs.empty());

  // Nesting past the reader's limit is malformed, not a stack overflow;
  // the limit itself still parses.
  EXPECT_THROW(parse_service_request(std::string(100'000, '[')),
               std::invalid_argument);
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(JsonReader(nested(JsonReader::kMaxDepth)).parse().has_value());
  EXPECT_FALSE(JsonReader(nested(JsonReader::kMaxDepth + 1)).parse());

  // A seed must be an integer in [0, 2^53): past 2^64 the cast is
  // undefined, and above 2^53 a double no longer holds it exactly
  // (9007199254740993 reads as ...992).
  for (const char* seed : {"1e30", "18446744073709551616", "9007199254740993",
                           "9007199254740992"}) {
    EXPECT_THROW(parse_service_request(std::string(R"({"apps":["fft"],"seed":)") +
                                       seed + "}"),
                 std::invalid_argument)
        << seed;
  }
  const ServiceRequest largest =
      parse_service_request(R"({"apps":["fft"],"seed":9007199254740991})");
  ASSERT_FALSE(largest.jobs.empty());
  EXPECT_EQ(largest.jobs.front().seed, 9007199254740991u);

  // Numbers JSON's grammar forbids: none of these is a seed 3 at scale
  // 0.002, and none is an id.
  for (const char* request :
       {R"({"id":1,"apps":["fft"],"scale":.002,"seed":+3})",
        R"({"apps":["fft"],"scale":.002})", R"({"apps":["fft"],"seed":+3})",
        R"({"apps":["fft"],"scale":2.})", R"({"apps":["fft"],"seed":03})",
        R"({"id":+1,"apps":["fft"]})", R"({"apps":["fft"],"seed":0x3})",
        R"({"apps":["fft"],"scale":NaN})", R"({"apps":["fft"],"scale":1e400})"}) {
    EXPECT_THROW(parse_service_request(request), std::invalid_argument)
        << request;
  }

  // A raw control byte inside a string, and whitespace JSON does not name
  // (\v, \f): none of these is served, and no id echoes a raw tab.
  for (const char* request :
       {"{\"id\":\"a\tb\",\"apps\":[\"fft\"],\"scale\":0.002}",
        "{\"id\":\"a\nb\",\"apps\":[\"fft\"],\"scale\":0.002}",
        "{\"id\":\"a\x01z\",\"apps\":[\"fft\"],\"scale\":0.002}",
        "\v{\"apps\":[\"fft\"],\"scale\":0.002}\f"}) {
    EXPECT_THROW(parse_service_request(request), std::invalid_argument)
        << request;
  }
  // A CRLF request file still parses: CR is whitespace.
  EXPECT_FALSE(
      parse_service_request("{\"apps\":[\"fft\"],\"scale\":0.002}\r")
          .jobs.empty());

  // A line that does not parse names the first byte the reader rejected:
  // a raw tab, a leading \v, a '}' where a key belongs.  "not a JSON
  // object" is kept for a document that parses to something else.
  const std::pair<const char*, const char*> reasons[] = {
      {"{\"id\":\"a\tb\",\"apps\":[\"fft\"],\"scale\":0.002}",
       "bad request: malformed JSON at byte 8"},
      {"\v{\"apps\":[\"fft\"],\"scale\":0.002}\f",
       "bad request: malformed JSON at byte 0"},
      {R"({"id":7,"apps":["fft"],"scale":0.002,})",
       "bad request: malformed JSON at byte 37"},
      {R"({"id":1,"apps":["fft"],"scale":0.002)",
       "bad request: malformed JSON at byte 36"},
      {R"({"id":1,"apps":["fft"],"scale":0.0.2})",
       "bad request: malformed JSON at byte 34"},
      {R"({"id":1,"apps":["fft"],"scale":1e400})",
       "bad request: malformed JSON at byte 31"},
      {R"({"id":nul,"apps":["fft"]})", "bad request: malformed JSON at byte 9"},
      {R"({"id":"a\qb","apps":["fft"]})",
       "bad request: malformed JSON at byte 9"},
      {"[1]", "bad request: not a JSON object"},
  };
  for (const auto& [request, reason] : reasons) {
    try {
      (void)parse_service_request(request);
      ADD_FAILURE() << "served " << request;
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), reason) << request;
    }
  }
}

TEST(JsonReaderNumbers, FollowTheJsonGrammarExactly) {
  const auto number = [](const std::string& text) -> std::optional<double> {
    const std::optional<JsonValue> v = JsonReader(text).parse();
    if (!v) return std::nullopt;
    EXPECT_EQ(v->type, JsonValue::Type::kNumber) << text;
    return v->number;
  };
  // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, each value rounded
  // as strtod rounds it.
  const std::pair<const char*, double> valid[] = {
      {"0", 0.0},        {"-0", -0.0},        {"7", 7.0},
      {"-12", -12.0},    {"0.5", 0.5},        {"-0.002", -0.002},
      {"1e5", 1e5},      {"1E5", 1e5},        {"1e+05", 1e5},
      {"25e-1", 2.5},    {"1.25E-3", 1.25e-3}, {"0e0", 0.0},
      {"1e308", 1e308},  {"2.2250738585072014e-308", 2.2250738585072014e-308},
      {"9007199254740993", 9007199254740992.0},
  };
  for (const auto& [text, want] : valid) {
    const std::optional<double> got = number(text);
    ASSERT_TRUE(got.has_value()) << text;
    EXPECT_EQ(*got, want) << text;
    EXPECT_EQ(std::signbit(*got), std::signbit(want)) << text;
  }
  // The grammar's rejections, then values a double cannot hold (an
  // overflow, an underflow to a subnormal) and names that are no numbers.
  for (const char* text :
       {"+1", ".5", "1.", "01", "-01", "00", "-", "--1", "-.5", "1.e5", "1e",
        "1e+", "e5", ".", "1.5.5", "1e5e5", "0x10", " 1 2", "1e400", "-1e400",
        "1e-400", "4e-320", "NaN", "nan", "Infinity", "-Infinity"}) {
    EXPECT_FALSE(number(text).has_value()) << text;
  }
  // Inside arrays and objects too.
  EXPECT_FALSE(JsonReader("[1,+2]").parse());
  EXPECT_FALSE(JsonReader(R"({"a":01})").parse());
  EXPECT_TRUE(JsonReader(R"({"a":[-0.5e-3, 10]})").parse());
}

TEST(JsonReaderText, OnlyJsonWhitespaceAndEscapedControlBytes) {
  // RFC 8259: whitespace is space, tab, LF and CR, and a string escapes
  // every byte below 0x20.
  const std::string malformed[] = {
      "\"a\tb\"", "\"a\nb\"", "\"a\rb\"", "\"a\x01z\"",
      std::string("\"a\0b\"", 5), "\v[1]\f", "\v[1]", "[1]\f",
      "[1,\f2]", "{\"a\":\v1}", "{\"a\tb\":1}"};
  for (const std::string& text : malformed) {
    EXPECT_FALSE(JsonReader(text).parse()) << text;
  }
  // The escaped forms stay valid, bytes >= 0x80 pass through, and CRLF
  // and tabs between tokens are whitespace.
  const std::optional<JsonValue> doc =
      JsonReader("\t[\"a\\tb\",\"a\\nb\",\"a\\rb\",\"a\\fb\",\"a\\bb\","
                 "\"\xc3\xa9\"] \r\n")
          .parse();
  ASSERT_TRUE(doc);
  ASSERT_EQ(doc->array.size(), 6u);
  EXPECT_EQ(doc->array[0].string, "a\tb");
  EXPECT_EQ(doc->array[1].string, "a\nb");
  EXPECT_EQ(doc->array[2].string, "a\rb");
  EXPECT_EQ(doc->array[3].string, "a\fb");
  EXPECT_EQ(doc->array[4].string, "a\bb");
  EXPECT_EQ(doc->array[5].string, "\xc3\xa9");
}

// ---- the loop, end to end over stringstreams -------------------------------

namespace {
std::vector<JsonValue> parse_lines(const std::string& text) {
  std::vector<JsonValue> docs;
  std::istringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (line.empty()) continue;
    std::optional<JsonValue> doc = JsonReader(line).parse();
    EXPECT_TRUE(doc.has_value()) << "unparseable response line: " << line;
    if (doc) docs.push_back(std::move(*doc));
  }
  return docs;
}

const JsonValue* field(const JsonValue& doc, const char* key) {
  return doc.find(key);
}
}  // namespace

TEST_F(SweepServiceTest, ServeLoopAnswersReadyPingRunStatsShutdown) {
  SweepService service(config());
  std::istringstream in(
      "{\"id\":1,\"cmd\":\"ping\"}\n"
      "{\"id\":2,\"apps\":[\"fft\"],\"scale\":0.01,\"seed\":7}\n"
      "{\"id\":3,\"cmd\":\"stats\"}\n"
      "{\"id\":4,\"cmd\":\"shutdown\"}\n"
      "{\"id\":5,\"cmd\":\"ping\"}\n");  // after shutdown: must not run
  std::ostringstream out;
  EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kServe), 0);

  const std::vector<JsonValue> docs = parse_lines(out.str());
  ASSERT_EQ(docs.size(), 6u) << out.str();  // ready,pong,job,done,stats,bye
  EXPECT_NE(field(docs[0], "ready"), nullptr);
  EXPECT_NE(field(docs[1], "pong"), nullptr);
  ASSERT_NE(field(docs[2], "spec_hash"), nullptr);
  EXPECT_EQ(field(docs[2], "cache_hit")->boolean, false);
  ASSERT_NE(field(docs[2], "result"), nullptr);
  EXPECT_EQ(field(docs[2], "result")->type, JsonValue::Type::kObject);
  ASSERT_NE(field(docs[3], "done"), nullptr);
  EXPECT_EQ(field(docs[3], "cache_misses")->number, 1.0);
  ASSERT_NE(field(docs[4], "stats"), nullptr);
  EXPECT_EQ(field(*field(docs[4], "stats"), "service.computed")->number, 1.0);
  EXPECT_NE(field(docs[5], "bye"), nullptr);
}

TEST_F(SweepServiceTest, BatchLoopExitsNonZeroOnProtocolOrJobErrors) {
  SweepService service(config());
  {
    std::istringstream in("this is not json\n");
    std::ostringstream out;
    EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kBatch), 1);
    const std::vector<JsonValue> docs = parse_lines(out.str());
    ASSERT_EQ(docs.size(), 2u);  // error line + batch_done
    EXPECT_NE(field(docs[0], "error"), nullptr);
    EXPECT_EQ(field(docs[1], "protocol_errors")->number, 1.0);
  }
  {
    // A wedged job (absurd watchdog budget) must yield a structured error
    // response AND a non-zero batch exit — never a wedged process.
    std::istringstream in(
        "{\"apps\":[\"fft\"],\"scale\":0.01,\"timeout_seconds\":0.000001}\n");
    std::ostringstream out;
    EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kBatch), 1);
    const std::vector<JsonValue> docs = parse_lines(out.str());
    ASSERT_EQ(docs.size(), 3u);  // job error + done + batch_done
    ASSERT_NE(field(docs[0], "error"), nullptr);
    EXPECT_NE(field(docs[0], "error")->string.find("watchdog"),
              std::string::npos);
    EXPECT_EQ(field(docs[1], "errors")->number, 1.0);
  }
}

TEST_F(SweepServiceTest, BadRequestLinesEchoTheIdThatParsed) {
  SweepService service(config());
  std::istringstream in(
      "{\"id\":1,\"states\":[\"Full1048576x2097152\"]}\n"
      "{\"id\":\"b\",\"frobnicate\":1}\n"
      "{\"id\":[3],\"apps\":[\"fft\"]}\n"
      "{\"apps\":[\"notanapp\"]}\n"
      "[1,2]\n"
      "this is not json\n");
  std::ostringstream out;
  EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kBatch), 1);
  const std::string text = out.str();
  EXPECT_EQ(
      text.rfind(R"({"id": 1, "error": "bad request: power state )", 0), 0u)
      << text;
  const std::vector<JsonValue> docs = parse_lines(text);
  ASSERT_EQ(docs.size(), 7u) << text;  // six errors + batch_done
  for (std::size_t i = 0; i < 6; ++i) {
    ASSERT_NE(field(docs[i], "error"), nullptr) << i;
  }
  ASSERT_NE(field(docs[0], "id"), nullptr);
  EXPECT_EQ(field(docs[0], "id")->number, 1.0);
  ASSERT_NE(field(docs[1], "id"), nullptr);
  EXPECT_EQ(field(docs[1], "id")->string, "b");
  // A non-scalar id, no id, or no object at all: nothing to echo.
  for (std::size_t i = 2; i < 6; ++i) {
    EXPECT_EQ(field(docs[i], "id"), nullptr) << i;
  }
  EXPECT_EQ(field(docs[6], "protocol_errors")->number, 6.0);
}

TEST_F(SweepServiceTest, WarmBatchReportsZeroMissesByteIdentically) {
  // The CI smoke in script form: same requests, cold then warm, responses
  // byte-identical and the warm summary reports zero misses.
  const std::string requests =
      "{\"id\":1,\"apps\":[\"fft\",\"radix\"],\"scale\":0.01,\"seed\":7}\n";
  std::string cold_text, warm_text;
  {
    SweepService service(config());
    std::istringstream in(requests);
    std::ostringstream out;
    EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kBatch), 0);
    cold_text = out.str();
  }
  {
    SweepService service(config());
    std::istringstream in(requests);
    std::ostringstream out;
    EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kBatch), 0);
    warm_text = out.str();
  }
  EXPECT_NE(cold_text.find("\"cache_misses\": 2"), std::string::npos);
  EXPECT_NE(warm_text.find("\"cache_misses\": 0"), std::string::npos);
  EXPECT_NE(warm_text.find("\"cache_hits\": 2"), std::string::npos);
  // Every response line must be byte-identical once the one legitimate
  // difference — the cache_hit provenance flag — is normalised away.
  auto normalize = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
      if (line.find("\"spec_hash\"") == std::string::npos) continue;
      const std::string from = "\"cache_hit\": true";
      const std::size_t at = line.find(from);
      if (at != std::string::npos) {
        line.replace(at, from.size(), "\"cache_hit\": false");
      }
      lines.push_back(line);
    }
    return lines;
  };
  const std::vector<std::string> cold_lines = normalize(cold_text);
  const std::vector<std::string> warm_lines = normalize(warm_text);
  ASSERT_EQ(cold_lines.size(), 2u);
  ASSERT_EQ(warm_lines.size(), 2u);
  for (std::size_t i = 0; i < cold_lines.size(); ++i) {
    EXPECT_EQ(cold_lines[i], warm_lines[i]) << "warm line " << i
                                            << " is not bit-identical";
  }
}

TEST_F(SweepServiceTest, WarmOneJobResponseIsPinnedByteForByte) {
  // One fixed one-job request, cold and then warm: the warm output (job
  // line, done line, batch summary) spelled out byte for byte.  Comparing
  // warm with cold alone would pass a line writer that changed both.
  const std::string request =
      R"({"id":"hit-17","apps":["fft"],"states":["PC4-MB8"],)"
      R"("scale":0.002,"seed":3001})"
      "\n";
  std::string text;
  for (const bool warm : {false, true}) {
    SweepService service(config());
    std::istringstream in(request);
    std::ostringstream out;
    EXPECT_EQ(service_loop(in, out, service, ServiceLoopMode::kBatch), 0);
    EXPECT_EQ(service.counters().snapshot().hits, warm ? 1u : 0u);
    text = out.str();
  }
  EXPECT_EQ(text,
      R"({"id": "hit-17", "job": 0, "app": "fft", "fabric": "mot", )"
      R"("state": "PC4-MB8", )"
      R"("spec_hash": "edfa6f019292105cfb2b2f710d1267efbb7b2bba001ceee3956fb42e07e33750", )"
      R"("cache_hit": true, "result": {"app": "fft", "fabric": "3-D MoT", )"
      R"("state": "PC4-MB8", "dram_ns": 200, "cycles": 25679, )"
      R"("instructions": 3926, "ipc": 0.1528875735036411, "l2_hits": 7, )"
      R"("l2_misses": 214, "l2_writebacks": 0, )"
      R"("l2_bank_conflict_cycles": 0, "l2_bank_hit_rate_min": 0, )"
      R"("l2_bank_hit_rate_max": 0.1351351351351351, )"
      R"("l2_bank_hit_rate_spread": 0.1351351351351351, )"
      R"("l2_resident_lines": 214, )"
      R"("l2_hit_latency_mean": 7.714285714285714, )"
      R"("l2_latency_mean": 205.6787330316742, "l2_latency_p95": 213, )"
      R"("dram_reads": 214, "dram_writes": 0, "dram_wait_cycles": 23, )"
      R"("icn_requests_injected": 221, "icn_requests_delivered": 221, )"
      R"("icn_responses_delivered": 221, )"
      R"("icn_arbitration_wait_cycles": 10, )"
      R"("l1d_miss_rate": 0.1925133689839572, "l1i_miss_rate": 0, )"
      R"("energy_core_pj": 3091800, "energy_l1_pj": 11608, )"
      R"("energy_l2_pj": 282923.6386520001, )"
      R"("energy_icn_pj": 57486.84800000016, "energy_dram_pj": 1712000, )"
      R"("edp_energy_pj": 3443818.4866520003, )"
      R"("edp_pj_s": 88.43381491873672, "avg_power_w": 0.1341103036197671}})" "\n"
      R"({"id": "hit-17", "done": true, "jobs": 1, "skipped_invalid": 0, )"
      R"("cache_hits": 1, "cache_misses": 0, "errors": 0})" "\n"
      R"({"batch_done": true, "requests": 1, "cache_hits": 1, )"
      R"("cache_misses": 0, "computed": 0, "errors": 0, )"
      R"("protocol_errors": 0, "evictions": 0, "corrupt_entries": 0})" "\n");
}

}  // namespace
}  // namespace mot3d::sim
