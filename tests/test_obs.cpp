// Observability subsystem: trace-buffer ring semantics, latency-digest
// percentiles, metrics-registry null encoding, and the two properties
// the tentpole promises at the cluster level —
//  * enabling observability never perturbs the model (same cycles,
//    instructions, energy as an untraced run), and
//  * the exported trace + metrics documents are bit-identical between
//    the dense-tick and event-driven schedulers, on coherent and
//    fault-injected runs alike;
// plus the cross-check that per-component event counts derived from a
// trace exactly equal the statistics aggregates, and digests of two whole
// metrics documents.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <string>

#include "cluster/cluster.hpp"
#include "common/sha256.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "workload/app_profile.hpp"

namespace mot3d::obs {
namespace {

// ---- trace buffer: unbounded vs drop-oldest ring ---------------------------

TEST(TraceBuffer, UnboundedKeepsEverythingInOrder) {
  TraceBuffer buf;  // capacity 0 = unbounded
  const std::uint32_t t = buf.add_track("fabric");
  for (Cycle c = 0; c < 10; ++c) buf.instant("tick", t, c);
  EXPECT_EQ(buf.size(), 10u);
  EXPECT_EQ(buf.recorded(), 10u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf.event(i).ts, static_cast<Cycle>(i));
  }
}

TEST(TraceBuffer, RingDropsOldestAndRemembersTotal) {
  TraceBuffer ring(4);
  const std::uint32_t t = ring.add_track("core 0");
  for (Cycle c = 0; c < 10; ++c) ring.instant("tick", t, c, "n", c);
  EXPECT_EQ(ring.size(), 4u);      // only the newest four retained
  EXPECT_EQ(ring.recorded(), 10u);  // but all ten were recorded
  // Oldest-first iteration over the survivors: cycles 6..9.
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.event(i).ts, static_cast<Cycle>(6 + i));
  }
}

TEST(TraceBuffer, FlightDumpNamesTracksArgsAndDropCount) {
  TraceBuffer ring(4);
  const std::uint32_t gov = ring.add_track("governor");
  for (Cycle c = 0; c < 10; ++c) {
    ring.instant("demote", gov, 100 + c, "peak_c_x100", 7200 + c);
  }
  const std::string dump = ring.flight_dump(4);
  EXPECT_NE(dump.find("last 4 of 10 events"), std::string::npos) << dump;
  EXPECT_NE(dump.find("[governor]"), std::string::npos) << dump;
  EXPECT_NE(dump.find("demote"), std::string::npos) << dump;
  EXPECT_NE(dump.find("peak_c_x100=7209"), std::string::npos) << dump;
  // The dropped events (cycles 100..105) must not appear.
  EXPECT_EQ(dump.find("cycle 100 "), std::string::npos) << dump;
}

// ---- latency digests -------------------------------------------------------

TEST(LatencyHistogram, ExactPercentilesOnKnownDistribution) {
  LatencyHistogram h;
  // 100 samples with value == rank: pN is exactly N.
  for (Cycle v = 1; v <= 100; ++v) h.record(v);
  const LatencyDigest d = h.digest();
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.min, 1u);
  EXPECT_EQ(d.max, 100u);
  EXPECT_EQ(d.p50, 50u);
  EXPECT_EQ(d.p95, 95u);
  EXPECT_EQ(d.p99, 99u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
}

TEST(LatencyHistogram, EmptyDigestIsExplicitlyEmptyNotZeroLatency) {
  const LatencyDigest d = LatencyHistogram{}.digest();
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.count, 0u);
}

TEST(LatencyHistogram, OverflowBucketKeepsCountAndTrueMax) {
  LatencyHistogram h;
  h.record(10);
  h.record(LatencyHistogram::kMaxExact + 500);
  const LatencyDigest d = h.digest();
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.min, 10u);
  EXPECT_EQ(d.max, LatencyHistogram::kMaxExact + 500);
}

// ---- metrics registry: explicit null for empty statistics ------------------
// An empty statistic (a histogram's mean and max read 0.0 before the first
// sample) must serialise as JSON null / an empty CSV cell, never as a fake
// zero sample.

TEST(MetricsRegistry, EmptyStatSerialisesAsNullThenRealValue) {
  MetricsRegistry reg(100);
  reg.start_row(100);
  reg.put("stat.min", MetricsRegistry::kNull);  // stat still empty
  reg.start_row(200);
  reg.put("stat.min", 3.5);  // first real sample

  ASSERT_EQ(reg.sample_count(), 2u);
  ASSERT_EQ(reg.counter_count(), 1u);
  EXPECT_TRUE(std::isnan(reg.value(0, 0)));
  EXPECT_DOUBLE_EQ(reg.value(0, 1), 3.5);

  std::ostringstream json;
  reg.write_json(json);
  EXPECT_NE(json.str().find("\"stat.min\":[null,3.5]"), std::string::npos)
      << json.str();

  std::ostringstream csv;
  reg.write_csv_rows(csv, "runA");
  EXPECT_NE(csv.str().find("runA,100,stat.min,\n"), std::string::npos)
      << csv.str();  // empty value cell, not 0
  EXPECT_NE(csv.str().find("runA,200,stat.min,3.5\n"), std::string::npos)
      << csv.str();
}

// ---- cluster integration ---------------------------------------------------

cluster::ClusterConfig paper_cfg(const char* app, cluster::Fabric fabric,
                                 cluster::SchedulerMode mode,
                                 double scale = 0.01) {
  cluster::ClusterConfig cfg = cluster::make_paper_config(
      workload::profile_by_name(app), fabric, core::PowerState::full(),
      mem::DramPreset::kDdr3_200ns, scale, 42);
  cfg.scheduler = mode;
  return cfg;
}

std::string trace_json(const cluster::SimResult& r) {
  std::ostringstream os;
  write_chrome_trace(os, {{"run", r.trace.get()}});
  return os.str();
}

std::string metrics_json(const cluster::SimResult& r) {
  std::ostringstream os;
  r.metrics->write_json(os);
  return os.str();
}

TEST(ObsCluster, ObservabilityDoesNotPerturbTheModel) {
  cluster::ClusterConfig off =
      paper_cfg("producer_consumer", cluster::Fabric::kMot,
                cluster::SchedulerMode::kEventDriven);
  cluster::ClusterConfig on = off;
  on.obs.trace = true;
  on.obs.metrics = true;

  const cluster::SimResult base = cluster::Cluster(off).run();
  const cluster::SimResult traced = cluster::Cluster(on).run();

  EXPECT_EQ(base.cycles, traced.cycles);
  EXPECT_EQ(base.instructions, traced.instructions);
  EXPECT_EQ(base.l2.hits, traced.l2.hits);
  EXPECT_EQ(base.l2.misses, traced.l2.misses);
  EXPECT_EQ(base.coherence.invalidations, traced.coherence.invalidations);
  EXPECT_DOUBLE_EQ(base.energy.edp_energy_pj(), traced.energy.edp_energy_pj());

  // Off by default: no summary, no documents.
  EXPECT_FALSE(base.obs.enabled);
  EXPECT_EQ(base.trace, nullptr);
  EXPECT_EQ(base.metrics, nullptr);
  EXPECT_FALSE(base.phase_seconds.valid);

  // On: digests populated and internally consistent.
  EXPECT_TRUE(traced.obs.enabled);
  ASSERT_NE(traced.trace, nullptr);
  ASSERT_NE(traced.metrics, nullptr);
  EXPECT_GT(traced.trace->size(), 0u);
  EXPECT_GT(traced.obs.l2_rt.count, 0u);
  EXPECT_LE(traced.obs.l2_rt.p50, traced.obs.l2_rt.p95);
  EXPECT_LE(traced.obs.l2_rt.p95, traced.obs.l2_rt.p99);
  EXPECT_LE(traced.obs.l2_rt.p99, traced.obs.l2_rt.max);
  EXPECT_GT(traced.obs.inv_rt.count, 0u);     // sharing pattern invalidates
  EXPECT_GT(traced.obs.dram_service.count, 0u);
}

TEST(ObsCluster, MetricsSamplesLandOnEpochBoundariesAndRunEnd) {
  cluster::ClusterConfig cfg =
      paper_cfg("fft", cluster::Fabric::kMot,
                cluster::SchedulerMode::kEventDriven);
  cfg.obs.metrics = true;
  cfg.obs.metrics_epoch_cycles = 1'000;
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_GT(r.metrics->sample_count(), 1u);
  for (std::size_t s = 0; s + 1 < r.metrics->sample_count(); ++s) {
    EXPECT_EQ(r.metrics->sample_cycle(s), (s + 1) * 1'000);
  }
  // The final sample is the run-end flush at the finish cycle.
  EXPECT_EQ(r.metrics->last_sample_cycle(), r.cycles);
}

// Satellite cross-check: counts derived from the trace equal the stats
// aggregates — the trace is the same model, not a parallel accounting.
void expect_trace_matches_stats(cluster::Fabric fabric,
                                cluster::SchedulerMode mode) {
  cluster::ClusterConfig cfg = paper_cfg("producer_consumer", fabric, mode);
  cfg.obs.trace = true;
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  ASSERT_NE(r.trace, nullptr);

  std::uint64_t invalidates = 0, l2_misses = 0, grants = 0;
  std::uint64_t inv_acks = 0, data_forwards = 0;
  std::uint64_t routed_requests = 0, routed_responses = 0;
  std::uint64_t route_ends_out_of_order = 0;
  Cycle grant_wait = 0, last_route_end = 0;
  for (std::size_t i = 0; i < r.trace->size(); ++i) {
    const TraceEvent& e = r.trace->event(i);
    if (std::strcmp(e.name, "Invalidate") == 0) ++invalidates;
    if (std::strcmp(e.name, "l2_miss") == 0) ++l2_misses;
    if (std::strcmp(e.name, "grant") == 0) {
      ++grants;
      grant_wait += e.dur;
    }
    const bool route_req = std::strcmp(e.name, "route_req") == 0;
    const bool route_resp = std::strcmp(e.name, "route_resp") == 0;
    routed_requests += route_req;
    routed_responses += route_resp;
    if (route_req || route_resp) {
      // Recorded as the message is delivered, so ts + dur is that cycle.
      route_ends_out_of_order += e.ts + e.dur < last_route_end;
      last_route_end = e.ts + e.dur;
    }
    // The ack legs appear twice (injection instant at the core, round-trip
    // complete at the bank); count only the completes.
    if (e.phase == 'X' && std::strcmp(e.name, "InvAck") == 0) ++inv_acks;
    if (e.phase == 'X' && std::strcmp(e.name, "DataForward") == 0) {
      ++data_forwards;
    }
  }
  EXPECT_EQ(invalidates, r.coherence.invalidations);
  EXPECT_EQ(l2_misses, r.l2.misses);
  EXPECT_EQ(inv_acks, r.coherence.inv_acks);
  EXPECT_EQ(data_forwards, r.coherence.data_forwards);
  if (fabric == cluster::Fabric::kMot) {
    // One MoT grant per delivered request; the summed grant durations are
    // exactly the fabric's aggregate arbitration wait.
    EXPECT_EQ(grants, r.interconnect.requests_delivered);
    EXPECT_EQ(grant_wait, r.interconnect.arbitration_wait_cycles);
  } else {
    // One route event per delivered message, spanning injection to
    // delivery, both inside the run.
    EXPECT_GT(routed_requests, 0u);
    EXPECT_EQ(routed_requests, r.interconnect.requests_delivered);
    EXPECT_EQ(routed_responses, r.interconnect.responses_delivered);
    EXPECT_EQ(route_ends_out_of_order, 0u);
    EXPECT_LE(last_route_end, r.cycles);
  }
}

TEST(ObsCluster, TraceCountsMatchStatsAggregatesEventDriven) {
  expect_trace_matches_stats(cluster::Fabric::kMot,
                             cluster::SchedulerMode::kEventDriven);
}

TEST(ObsCluster, TraceCountsMatchStatsAggregatesDenseTick) {
  expect_trace_matches_stats(cluster::Fabric::kMot,
                             cluster::SchedulerMode::kDenseTick);
}

TEST(ObsCluster, RouteEventsMatchPacketFabricDeliveriesEventDriven) {
  for (const cluster::Fabric f :
       {cluster::Fabric::kTrueMesh3d, cluster::Fabric::kHybridBusTree}) {
    SCOPED_TRACE(cluster::fabric_name(f));
    expect_trace_matches_stats(f, cluster::SchedulerMode::kEventDriven);
  }
}

TEST(ObsCluster, RouteEventsMatchPacketFabricDeliveriesDenseTick) {
  for (const cluster::Fabric f :
       {cluster::Fabric::kTrueMesh3d, cluster::Fabric::kHybridBusTree}) {
    SCOPED_TRACE(cluster::fabric_name(f));
    expect_trace_matches_stats(f, cluster::SchedulerMode::kDenseTick);
  }
}

// Satellite cross-check, DRAM leg: the final metrics-registry sample of
// every "dram.*" counter equals the corresponding stats aggregate — the
// sampler reads the same model state, not a parallel accounting.
double final_metric(const cluster::SimResult& r, const std::string& name) {
  const std::size_t last = r.metrics->sample_count() - 1;
  for (std::size_t i = 0; i < r.metrics->counter_count(); ++i) {
    if (r.metrics->counter_name(i) == name) return r.metrics->value(i, last);
  }
  ADD_FAILURE() << "no metrics counter named " << name;
  return -1.0;
}

TEST(ObsCluster, DramMetricsCountersMatchStatsAggregates) {
  cluster::ClusterConfig cfg =
      paper_cfg("fft", cluster::Fabric::kMot,
                cluster::SchedulerMode::kEventDriven);
  cfg.obs.metrics = true;
  cfg.dram.open_page_policy = true;  // nonzero page_hits/page_misses
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  ASSERT_NE(r.metrics, nullptr);
  ASSERT_GT(r.metrics->sample_count(), 0u);

  EXPECT_EQ(final_metric(r, "dram.reads"), static_cast<double>(r.dram.reads));
  EXPECT_EQ(final_metric(r, "dram.writes"), static_cast<double>(r.dram.writes));
  EXPECT_EQ(final_metric(r, "dram.page_hits"),
            static_cast<double>(r.dram.page_hits));
  EXPECT_EQ(final_metric(r, "dram.page_misses"),
            static_cast<double>(r.dram.page_misses));
  EXPECT_EQ(final_metric(r, "dram.total_wait_cycles"),
            static_cast<double>(r.dram.total_wait_cycles));
  EXPECT_GT(r.dram.page_hits + r.dram.page_misses, 0u);
  // Every tracked access is either a row hit or a row miss.
  EXPECT_EQ(r.dram.page_hits + r.dram.page_misses, r.dram.reads);
}

TEST(ObsCluster, StackedDramVaultMetricsSumToBackendStats) {
  cluster::ClusterConfig cfg =
      paper_cfg("fft", cluster::Fabric::kMot,
                cluster::SchedulerMode::kEventDriven);
  cfg.obs.metrics = true;
  cfg.stacked_dram = true;
  const cluster::SimResult r = cluster::Cluster(cfg).run();
  ASSERT_NE(r.metrics, nullptr);

  EXPECT_EQ(final_metric(r, "dram.page_hits"),
            static_cast<double>(r.dram.page_hits));
  EXPECT_EQ(final_metric(r, "dram.page_misses"),
            static_cast<double>(r.dram.page_misses));
  double vault_accesses = 0.0, vault_row_hits = 0.0;
  for (std::size_t v = 0; v < r.dram3d.vaults; ++v) {
    const std::string vp = "dram.vault" + std::to_string(v);
    vault_accesses += final_metric(r, vp + ".accesses");
    vault_row_hits += final_metric(r, vp + ".row_hits");
  }
  EXPECT_EQ(vault_accesses, static_cast<double>(r.dram.reads + r.dram.writes));
  EXPECT_EQ(vault_row_hits, static_cast<double>(r.dram3d.row_hits));
}

// The tentpole differential: the serialised trace and metrics documents —
// not just the aggregate counters — are bit-identical between schedulers.
void expect_obs_documents_identical(cluster::ClusterConfig cfg) {
  cfg.obs.trace = true;
  cfg.obs.metrics = true;

  cfg.scheduler = cluster::SchedulerMode::kDenseTick;
  const cluster::SimResult dense = cluster::Cluster(cfg).run();
  cfg.scheduler = cluster::SchedulerMode::kEventDriven;
  const cluster::SimResult event = cluster::Cluster(cfg).run();

  ASSERT_NE(dense.trace, nullptr);
  ASSERT_NE(event.trace, nullptr);
  EXPECT_EQ(dense.trace->size(), event.trace->size());
  EXPECT_EQ(trace_json(dense), trace_json(event));
  EXPECT_EQ(metrics_json(dense), metrics_json(event));
  EXPECT_EQ(dense.obs.l2_rt, event.obs.l2_rt);
  EXPECT_EQ(dense.obs.inv_rt, event.obs.inv_rt);
  EXPECT_EQ(dense.obs.dram_service, event.obs.dram_service);
}

TEST(ObsCluster, TraceAndMetricsBitIdenticalOnCoherentRun) {
  expect_obs_documents_identical(paper_cfg("producer_consumer",
                                           cluster::Fabric::kMot,
                                           cluster::SchedulerMode::kDenseTick));
}

TEST(ObsCluster, TraceAndMetricsBitIdenticalOnNocRun) {
  expect_obs_documents_identical(paper_cfg("read_mostly",
                                           cluster::Fabric::kTrueMesh3d,
                                           cluster::SchedulerMode::kDenseTick));
}

TEST(ObsCluster, TraceAndMetricsBitIdenticalUnderInjectedFaults) {
  cluster::ClusterConfig cfg =
      paper_cfg("fft", cluster::Fabric::kMot,
                cluster::SchedulerMode::kDenseTick, 0.02);
  cfg.fault = fault::FaultConfig::from_envelope(
      fault::FaultEnvelope{true, 1.0, 0.5, 101});
  expect_obs_documents_identical(cfg);
}

// Whole metrics documents, pinned: a sampler that reorders, renames or
// drops a counter moves these digests under both schedulers, where the
// dense == event differential above cannot see it.  Run (a) carries every
// counter family, dram.vault0-7 included; run (b) is a packet-fabric run
// on the constant-latency backend.
void expect_metrics_pinned(cluster::ClusterConfig cfg, std::size_t counters,
                           std::size_t rows, const char* json_digest,
                           const char* csv_digest) {
  cfg.obs.metrics = true;
  cfg.obs.metrics_epoch_cycles = 2'000;
  for (const cluster::SchedulerMode mode :
       {cluster::SchedulerMode::kDenseTick,
        cluster::SchedulerMode::kEventDriven}) {
    SCOPED_TRACE(cluster::scheduler_name(mode));
    cfg.scheduler = mode;
    const cluster::SimResult r = cluster::Cluster(cfg).run();
    ASSERT_NE(r.metrics, nullptr);
    EXPECT_EQ(r.metrics->counter_count(), counters);
    EXPECT_EQ(r.metrics->sample_count(), rows);
    std::ostringstream csv;
    r.metrics->write_csv_rows(csv, "run");
    EXPECT_EQ(sha256_hex(metrics_json(r)), json_digest);
    EXPECT_EQ(sha256_hex(csv.str()), csv_digest);
  }
}

TEST(ObsCluster, MetricsDocumentsPinnedOnStackedThermalRun) {
  cluster::ClusterConfig cfg =
      paper_cfg("producer_consumer", cluster::Fabric::kMot,
                cluster::SchedulerMode::kEventDriven, 0.02);
  cfg.stacked_dram = true;
  cfg.vault_remap.enabled = true;
  cfg.thermal = thermal::ThermalConfig::from_envelope(
      thermal::ThermalEnvelope{true, 60.0, 70.0});
  expect_metrics_pinned(
      cfg, 66, 8,
      "7858af4da10285ad209cacccd9a69ea48de05bfc33dda5e0a0db4251161aa727",
      "e2a04495a872c5e85a395685e1ad60d4035547b246de7f589d4e207fb188a739");
}

TEST(ObsCluster, MetricsDocumentsPinnedOnMesh3dRun) {
  expect_metrics_pinned(
      paper_cfg("producer_consumer", cluster::Fabric::kTrueMesh3d,
                cluster::SchedulerMode::kEventDriven),
      29, 10,
      "be59c75da2a53d99c664c6445e5c948f2974be11e57541e000e958090b82bea3",
      "a6372d10600e90bfbb85327b7efd0bb73830b6e43a97499103fcd93489b31697");
}

}  // namespace
}  // namespace mot3d::obs
