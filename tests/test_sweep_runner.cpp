// SweepRunner: determinism under parallelism.  The same sweep executed at
// --threads=1 and --threads=4 must yield byte-identical ordered results,
// and task exceptions must surface deterministically.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>

#include "sim/perf_report.hpp"
#include "sim/sweep_runner.hpp"

namespace mot3d::sim {
namespace {

std::vector<SweepRunner::Task> fig6_style_tasks() {
  using cluster::Fabric;
  std::vector<SweepRunner::Task> tasks;
  for (const char* app : {"fft", "volrend"}) {
    for (Fabric fabric : {Fabric::kMot, Fabric::kTrueMesh3d,
                          Fabric::kHybridBusMesh, Fabric::kHybridBusTree}) {
      tasks.push_back([app, fabric] {
        return cluster::Cluster(cluster::make_paper_config(
                                    workload::profile_by_name(app), fabric,
                                    core::PowerState::full(),
                                    mem::DramPreset::kDdr3_200ns, 0.005, 42))
            .run();
      });
    }
  }
  return tasks;
}

/// run_isolated's results with every task required to have succeeded.
std::vector<cluster::SimResult> results_of(SweepRunner& runner) {
  std::vector<cluster::SimResult> out;
  for (IsolatedResult& r : runner.run_isolated(fig6_style_tasks())) {
    EXPECT_TRUE(r.ok()) << r.error;
    out.push_back(std::move(r.result));
  }
  return out;
}

TEST(SweepRunner, SingleVsFourThreadsIdenticalOrderedResults) {
  SweepRunner serial(1);
  SweepRunner parallel(4);
  const auto a = results_of(serial);
  const auto b = results_of(parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].app, b[i].app) << i;
    EXPECT_EQ(a[i].fabric, b[i].fabric) << i;
    EXPECT_EQ(a[i].cycles, b[i].cycles) << i;
    EXPECT_EQ(a[i].instructions, b[i].instructions) << i;
    EXPECT_EQ(a[i].l2.hits, b[i].l2.hits) << i;
    EXPECT_EQ(a[i].l2.misses, b[i].l2.misses) << i;
    EXPECT_EQ(a[i].dram.reads, b[i].dram.reads) << i;
    EXPECT_DOUBLE_EQ(a[i].energy.edp_energy_pj(), b[i].energy.edp_energy_pj()) << i;
    EXPECT_DOUBLE_EQ(a[i].edp_pj_s, b[i].edp_pj_s) << i;
  }
}

TEST(SweepRunner, ResultsArriveInTaskOrder) {
  SweepRunner runner(4);
  const auto results = results_of(runner);
  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(results[0].app, "fft");
  EXPECT_EQ(results[0].fabric, "3-D MoT");
  EXPECT_EQ(results[3].fabric, "3-D Hybrid Bus-Tree");
  EXPECT_EQ(results[4].app, "volrend");
}

TEST(SweepRunner, TelemetryAccumulates) {
  SweepRunner runner(2);
  const auto results = results_of(runner);
  const PerfTelemetry& t = runner.telemetry();
  EXPECT_EQ(t.threads, 2u);
  EXPECT_EQ(t.runs, results.size());
  std::uint64_t cycles = 0;
  for (const auto& r : results) cycles += r.cycles;
  EXPECT_EQ(t.simulated_cycles, cycles);
  EXPECT_GT(t.wall_seconds, 0.0);
  EXPECT_GT(t.cycles_per_second(), 0.0);
}

TEST(SweepRunner, ParallelForCoversEveryIndexOnce) {
  SweepRunner runner(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  runner.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

TEST(SweepRunner, FirstExceptionByIndexPropagates) {
  SweepRunner runner(4);
  EXPECT_THROW(
      runner.parallel_for(16,
                          [](std::size_t i) {
                            if (i % 2 == 1) {
                              throw std::runtime_error("task " + std::to_string(i));
                            }
                          }),
      std::runtime_error);
  try {
    runner.parallel_for(16, [](std::size_t i) {
      if (i >= 3) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
}

TEST(SweepRunner, RunIsolatedRecordsPerTaskErrorsWithoutAbortingPeers) {
  // A deliberately-throwing task must become its own error string; every
  // other task still runs and the ordering stays deterministic.
  std::vector<SweepRunner::Task> tasks = fig6_style_tasks();
  tasks.insert(tasks.begin() + 2, []() -> cluster::SimResult {
    throw std::runtime_error("injected task failure");
  });
  for (unsigned threads : {1u, 4u}) {
    SweepRunner runner(threads);
    const std::vector<IsolatedResult> results = runner.run_isolated(tasks);
    ASSERT_EQ(results.size(), 9u) << threads;
    EXPECT_FALSE(results[2].ok()) << threads;
    EXPECT_EQ(results[2].error, "injected task failure") << threads;
    for (std::size_t i = 0; i < results.size(); ++i) {
      if (i == 2) continue;
      EXPECT_TRUE(results[i].ok()) << "thread=" << threads << " task=" << i;
      EXPECT_GT(results[i].result.cycles, 0u) << i;
    }
    // Task order: the throwing task displaced index 2; its neighbours are
    // still the fig6-style grid in declaration order.
    EXPECT_EQ(results[0].result.app, "fft");
    EXPECT_EQ(results[1].result.fabric, "True 3-D Mesh");
    EXPECT_EQ(results[3].result.fabric, "3-D Hybrid Bus-Mesh");
  }
}

TEST(SweepRunner, RunIsolatedAllTasksThrowStillCompletes) {
  SweepRunner runner(4);
  std::vector<SweepRunner::Task> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([i]() -> cluster::SimResult {
      throw std::runtime_error("task " + std::to_string(i));
    });
  }
  const std::vector<IsolatedResult> results = runner.run_isolated(tasks);
  ASSERT_EQ(results.size(), 8u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].error, "task " + std::to_string(i)) << i;
  }
}

TEST(SweepRunner, ZeroThreadsResolvesToHardware) {
  EXPECT_GE(SweepRunner(0).threads(), 1u);
  EXPECT_EQ(SweepRunner(3).threads(), 3u);
}

TEST(PerfReport, JsonObjectSerialisesDeterministically) {
  JsonObject o;
  o.set("bench", "fig6a").set("runs", std::uint64_t{32}).set("scale", 0.25);
  EXPECT_EQ(o.str(), "{\"bench\": \"fig6a\", \"runs\": 32, \"scale\": 0.25}");
}

TEST(PerfReport, JsonObjectPinsEscapesNumbersAndMerges) {
  // Spec hashes, goldens and service responses are these bytes.
  JsonObject o;
  o.set("k\"ey\\", "q\" b\\ n\n t\t r\r")
      .set("ctl", std::string("\x00\x01" "\x1f" "\x7f", 4))
      .set("utf8", "caf\xc3\xa9 \xff")
      .set("nan", std::nan(""))
      .set("-inf", -std::numeric_limits<double>::infinity())
      .set("doubles", 0.1)
      .set("third", 1.0 / 3.0)
      .set("whole", 3.0)
      .set("neg", -2.5)
      .set("big", 1e300)
      .set("tiny", 5e-324)
      .set("u64max", std::numeric_limits<std::uint64_t>::max())
      .set("zero", std::uint64_t{0})
      .set("u", 7u)
      .set("yes", true)
      .set("no", false)
      .set_raw("raw", "[1, {\"k\": null}]");
  EXPECT_EQ(o.str(),
            "{\"k\\\"ey\\\\\": \"q\\\" b\\\\ n\\n t\\t r\\u000d\", "
            "\"ctl\": \"\\u0000\\u0001\\u001f\x7f\", "
            "\"utf8\": \"caf\xc3\xa9 \xff\", "
            "\"nan\": 0, \"-inf\": 0, \"doubles\": 0.1, "
            "\"third\": 0.3333333333333333, \"whole\": 3, \"neg\": -2.5, "
            "\"big\": 1e+300, \"tiny\": 5e-324, "
            "\"u64max\": 18446744073709551615, \"zero\": 0, \"u\": 7, "
            "\"yes\": true, \"no\": false, \"raw\": [1, {\"k\": null}]}");
  EXPECT_EQ(json_string("a\"\\\n\x1f"), "\"a\\\"\\\\\\n\\u001f\"");
  EXPECT_EQ(json_number(0.25), "0.25");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "0");

  JsonObject empty;
  EXPECT_EQ(empty.str(), "{}");
  EXPECT_EQ(JsonObject(empty).merge(JsonObject{}).str(), "{}");
  JsonObject one;
  one.set("a", 1u);
  EXPECT_EQ(JsonObject(one).merge(empty).str(), "{\"a\": 1}");
  EXPECT_EQ(JsonObject(empty).merge(one).str(), "{\"a\": 1}");
  JsonObject two;
  two.set("b", "x");
  EXPECT_EQ(JsonObject(one).merge(two).str(), "{\"a\": 1, \"b\": \"x\"}");
  JsonObject nested;
  nested.set_raw("o", one.str()).merge(two);
  EXPECT_EQ(nested.str(), "{\"o\": {\"a\": 1}, \"b\": \"x\"}");
}

TEST(PerfReport, WritesMergedReport) {
  PerfTelemetry t;
  t.threads = 2;
  t.runs = 4;
  t.simulated_cycles = 1000;
  t.wall_seconds = 0.5;
  JsonObject extra;
  extra.set("scale", 0.1);
  const std::string path = ::testing::TempDir() + "mot3d_perf_report.json";
  ASSERT_TRUE(write_perf_report(path, "unit", t, extra));
  std::ifstream in(path);
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "{\"bench\": \"unit\", \"threads\": 2, \"runs\": 4, "
            "\"simulated_cycles\": 1000, \"wall_seconds\": 0.5, "
            "\"cycles_per_second\": 2000, \"scale\": 0.1}");
}

}  // namespace
}  // namespace mot3d::sim
