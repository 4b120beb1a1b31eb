// Unit tests for the packet-switched baselines: reachability on all three
// topologies, zero-load latency ordering, wormhole integrity, bus
// round-robin sharing, back-pressure, energy/stat accounting, the exact
// delivery order under saturation, and construction-time shape checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "memory_test_doubles.hpp"
#include "noc/network.hpp"

namespace mot3d::noc {
namespace {

power::InterconnectPowerModel power_model() {
  return power::InterconnectPowerModel(phys::WireModel(phys::default_technology()));
}

class NocTest : public ::testing::TestWithParam<NocTopology> {
 protected:
  NocConfig cfg;
  DeliveryLog got;

  std::unique_ptr<NocNetwork> make() {
    return make_noc(GetParam(), cfg, power_model());
  }

  static MemRequest req(CoreId c, BankId b, bool write = false,
                        std::uint64_t id = 1) {
    return MemRequest{.id = id, .core = c, .bank = b, .addr = 0,
                      .is_write = write, .issue_cycle = 0};
  }
};

TEST_P(NocTest, EveryCoreReachesEveryBank) {
  auto icn = make();
  std::uint64_t id = 1;
  Cycle t = 0;  // monotonic: bus pacing state is in absolute time
  for (CoreId c = 0; c < 16; ++c) {
    for (BankId b = 0; b < 32; ++b) {
      got.requests.clear();
      ASSERT_TRUE(icn->try_inject_request(req(c, b, false, id++), t));
      const Cycle deadline = t + 500;
      for (; t < deadline && got.requests.empty(); ++t) got.tick(*icn, t);
      ASSERT_EQ(got.requests.size(), 1u) << "core " << c << " bank " << b;
      EXPECT_EQ(got.requests[0].first.bank, b);
      EXPECT_EQ(got.requests[0].first.core, c);
    }
  }
}

TEST_P(NocTest, EveryBankReachesEveryCore) {
  auto icn = make();
  std::uint64_t id = 1;
  Cycle t = 0;
  for (BankId b = 0; b < 32; b += 5) {
    for (CoreId c = 0; c < 16; c += 3) {
      got.responses.clear();
      MemResponse resp{.id = id++, .core = c, .bank = b, .addr = 0,
                       .is_write = false, .l2_hit = true, .issue_cycle = t};
      ASSERT_TRUE(icn->try_inject_response(resp, t));
      const Cycle deadline = t + 500;
      for (; t < deadline && got.responses.empty(); ++t) got.tick(*icn, t);
      ASSERT_EQ(got.responses.size(), 1u) << "bank " << b << " core " << c;
      EXPECT_EQ(got.responses[0].first.core, c);
    }
  }
}

TEST_P(NocTest, WritePacketsCarryTheLine) {
  // A write-back is 1 + line_flits flits: its serialisation must make it
  // slower than a 1-flit read request over the same path.
  auto icn = make();
  ASSERT_TRUE(icn->try_inject_request(req(0, 31, false, 1), 0));
  for (Cycle t = 0; t < 500 && got.requests.empty(); ++t) got.tick(*icn, t);
  ASSERT_EQ(got.requests.size(), 1u);
  const Cycle read_lat = got.requests[0].second;

  got.requests.clear();
  auto icn2 = make();
  ASSERT_TRUE(icn2->try_inject_request(req(0, 31, true, 2), 0));
  for (Cycle t = 0; t < 500 && got.requests.empty(); ++t) got.tick(*icn2, t);
  ASSERT_EQ(got.requests.size(), 1u);
  EXPECT_GE(got.requests[0].second, read_lat + cfg.line_flits());
}

TEST_P(NocTest, ManyOutstandingAllComplete) {
  // 16 cores each fire at 8 different banks in sequence — conservation.
  auto icn = make();
  std::uint64_t id = 1;
  std::size_t injected = 0;
  for (int round = 0; round < 8; ++round) {
    for (CoreId c = 0; c < 16; ++c) {
      const BankId b = static_cast<BankId>((c * 7 + round * 5) % 32);
      if (icn->try_inject_request(req(c, b, (round % 2) == 0, id++), 0)) {
        ++injected;
      }
    }
  }
  for (Cycle t = 0; t < 5000 && !icn->idle(); ++t) got.tick(*icn, t);
  EXPECT_TRUE(icn->idle());
  EXPECT_EQ(got.requests.size(), injected);
}

TEST_P(NocTest, EnergyAndStatsAccumulate) {
  auto icn = make();
  icn->try_inject_request(req(0, 31), 0);
  for (Cycle t = 0; t < 500 && !icn->idle(); ++t) got.tick(*icn, t);
  EXPECT_GT(icn->dynamic_energy_pj(), 0.0);
  EXPECT_GT(icn->leakage_mw(), 0.0);
  EXPECT_EQ(icn->stats().requests_injected, 1u);
  EXPECT_EQ(icn->stats().requests_delivered, 1u);
  EXPECT_GT(icn->transport_stats().flit_router_traversals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Topologies, NocTest,
                         ::testing::Values(NocTopology::kTrueMesh3d,
                                           NocTopology::kHybridBusMesh,
                                           NocTopology::kHybridBusTree),
                         [](const auto& info) {
                           switch (info.param) {
                             case NocTopology::kTrueMesh3d: return "TrueMesh3d";
                             case NocTopology::kHybridBusMesh: return "BusMesh";
                             case NocTopology::kHybridBusTree: return "BusTree";
                           }
                           return "unknown";
                         });

class NocStressTest : public ::testing::TestWithParam<NocTopology> {};

TEST_P(NocStressTest, BidirectionalHeavyTrafficDrains) {
  // Protocol-deadlock regression: saturate the fabric with multi-flit
  // request worms (write-backs) in one direction while every bank pumps
  // multi-flit response worms the other way.  Without per-class virtual
  // networks this wedges (a response worm holding a TSV bus waits on a
  // mesh link held by a request worm that waits on that bus).
  NocConfig cfg;
  auto icn = make_noc(GetParam(), cfg, power_model());
  DeliveryLog got;

  std::uint64_t id = 1;
  std::size_t req_in = 0, resp_in = 0;
  Cycle t = 0;
  for (int round = 0; round < 40; ++round) {
    for (CoreId c = 0; c < 16; ++c) {
      MemRequest r{.id = id++, .core = c,
                   .bank = static_cast<BankId>((c * 3 + round) % 32), .addr = 0,
                   .is_write = true, .issue_cycle = t};
      if (icn->try_inject_request(r, t)) ++req_in;
    }
    for (BankId b = 0; b < 32; ++b) {
      MemResponse resp{.id = id++, .core = static_cast<CoreId>((b + round) % 16),
                       .bank = b, .addr = 0, .is_write = false, .l2_hit = true,
                       .issue_cycle = t};
      if (icn->try_inject_response(resp, t)) ++resp_in;
    }
    for (int i = 0; i < 8; ++i) got.tick(*icn, t++);
  }
  for (; t < 300000 && !icn->idle(); ++t) got.tick(*icn, t);
  EXPECT_TRUE(icn->idle()) << "fabric wedged: " << got.requests.size() << "/"
                           << req_in << " requests, " << got.responses.size()
                           << "/" << resp_in << " responses delivered";
  EXPECT_EQ(got.requests.size(), req_in);
  EXPECT_EQ(got.responses.size(), resp_in);
}

INSTANTIATE_TEST_SUITE_P(Topologies, NocStressTest,
                         ::testing::Values(NocTopology::kTrueMesh3d,
                                           NocTopology::kHybridBusMesh,
                                           NocTopology::kHybridBusTree),
                         [](const auto& info) {
                           switch (info.param) {
                             case NocTopology::kTrueMesh3d: return "TrueMesh3d";
                             case NocTopology::kHybridBusMesh: return "BusMesh";
                             case NocTopology::kHybridBusTree: return "BusTree";
                           }
                           return "unknown";
                         });

TEST(NocOrdering, BusMeshBeatsTrueMeshAtZeroLoad) {
  // The hybrid's single bus hop replaces two mesh hops vertically (ref [2]).
  NocConfig cfg;
  const auto pm = power_model();
  Cycle mesh_lat = 0, busmesh_lat = 0;
  for (int which = 0; which < 2; ++which) {
    auto icn = make_noc(which == 0 ? NocTopology::kTrueMesh3d
                                   : NocTopology::kHybridBusMesh,
                        cfg, pm);
    DeliveryLog got;
    // Core 0 (corner) to bank 31 (opposite corner, top tier): worst case.
    MemRequest r{.id = 1, .core = 0, .bank = 31, .addr = 0, .is_write = false,
                 .issue_cycle = 0};
    icn->try_inject_request(r, 0);
    for (Cycle t = 0; t < 500 && got.requests.empty(); ++t) got.tick(*icn, t);
    ASSERT_EQ(got.requests.size(), 1u);
    (which == 0 ? mesh_lat : busmesh_lat) = got.requests[0].second;
  }
  EXPECT_GT(mesh_lat, 0u);
  EXPECT_GT(busmesh_lat, 0u);
  EXPECT_LT(busmesh_lat, mesh_lat);
}

TEST(NocOrdering, BusTreeSaturatesUnderLoad) {
  // Hammer all banks behind one quadrant bus: the Bus-Tree must show far
  // worse aggregate completion time than Bus-Mesh (the paper's Fig. 6
  // explanation: "increased vertical bus accesses ... offset the benefit").
  NocConfig cfg;
  const auto pm = power_model();
  auto run = [&](NocTopology topo) {
    auto icn = make_noc(topo, cfg, pm);
    DeliveryLog got;
    std::uint64_t id = 1;
    // Uniform response traffic: every bank answers 8 cores.  The Bus-Mesh
    // spreads this over 16 pillar buses (2 banks each); the Bus-Tree
    // funnels 8 banks through each of its 4 buses.
    for (int round = 0; round < 8; ++round) {
      for (BankId b = 0; b < 32; ++b) {
        MemResponse resp{.id = id++,
                         .core = static_cast<CoreId>((b + round) % 16),
                         .bank = b, .addr = 0, .is_write = false,
                         .l2_hit = true, .issue_cycle = 0};
        icn->try_inject_response(resp, 0);
      }
    }
    Cycle t = 0;
    for (; t < 50000 && !icn->idle(); ++t) got.tick(*icn, t);
    EXPECT_EQ(got.responses.size(), 256u);
    return t;
  };
  const Cycle tree_time = run(NocTopology::kHybridBusTree);
  const Cycle mesh_time = run(NocTopology::kHybridBusMesh);
  EXPECT_GT(tree_time, mesh_time * 3 / 2);
}

// ---------------------------------------------------------------------------
// Arbitration-order pin.  The goldens pin aggregates at light load; this
// saturates each fabric in both directions (1- and 5-flit worms on both
// virtual networks) and hashes the exact (kind, id, cycle) sequence of
// deliveries, each tick's responses before its requests as Cluster drains
// them.  Any change to round-robin order, wormhole locking, back-pressure,
// throttle pacing or next_event()'s drain bound moves the digest.  The
// first six digests were recorded from the all-inputs scan that the
// occupancy-driven tick replaced, with each tick's log stably reordered
// responses-first; the last three from the output-first switch allocator
// (every output scanning the inputs for a head routed to it).  Only a
// deliberate model change may move them.  Each case also pins the run's
// router (output, VC) visits, recorded from the input-first allocator: a
// change that visits outputs with nothing to send fails here even though
// it delivers the same packets at the same cycles.
// ---------------------------------------------------------------------------
struct OrderCase {
  const char* name;
  NocTopology topology;
  unsigned link_cycles = 1;
  unsigned router_pipeline_cycles = 1;
  std::uint32_t throttled_router = 0;
  unsigned throttle_cycles = 0;  ///< 0 = every router healthy
  std::size_t buffer_flits = NocConfig{}.buffer_flits;
  const char* digest = "";
  std::uint64_t output_visits = 0;
};

struct OrderOutcome {
  std::string digest;
  std::uint64_t output_visits = 0;
};

OrderOutcome saturated_delivery_order(const OrderCase& c) {
  constexpr Cycle kInjectCycles = 1200;
  constexpr Cycle kDrainLimit = 200000;
  NocConfig cfg;
  cfg.link_cycles = c.link_cycles;
  cfg.router_pipeline_cycles = c.router_pipeline_cycles;
  cfg.buffer_flits = c.buffer_flits;
  auto icn = make_noc(c.topology, cfg, power_model());
  if (c.throttle_cycles > 0) {
    icn->set_router_throttle(c.throttled_router, c.throttle_cycles);
  }
  std::string log;
  std::size_t delivered = 0;
  auto record = [&](char kind, std::uint64_t id, Cycle t) {
    log += kind;
    log += ' ' + std::to_string(id) + ' ' + std::to_string(t) + '\n';
    ++delivered;
  };
  DeliveryLog got;
  auto tick = [&](Cycle now) {
    got.tick(*icn, now);
    for (const auto& [r, at] : got.responses) record('r', r.id, at);
    for (const auto& [r, at] : got.requests) record('q', r.id, at);
    got.responses.clear();
    got.requests.clear();
  };

  // Every endpoint offers a packet with probability 0.6 per cycle, far
  // above what one NI can drain, so injection queues stay full and every
  // router and bus arbitrates under back-pressure.
  Rng rng(20161);
  std::uint64_t id = 0;
  std::size_t injected = 0, refused = 0;
  Cycle t = 0;
  for (; t < kInjectCycles; ++t) {
    for (CoreId core = 0; core < cfg.num_cores; ++core) {
      const bool offer = rng.next_bool(0.6);
      const auto bank = static_cast<BankId>(rng.next_below(cfg.num_banks));
      const bool write = rng.next_bool(0.5);  // 5-flit worm, else 1 flit
      if (!offer) continue;
      MemRequest r{.id = ++id, .core = core, .bank = bank, .addr = 0,
                   .is_write = write, .issue_cycle = t};
      ++(icn->try_inject_request(r, t) ? injected : refused);
    }
    for (BankId bank = 0; bank < cfg.num_banks; ++bank) {
      const bool offer = rng.next_bool(0.6);
      const auto core = static_cast<CoreId>(rng.next_below(cfg.num_cores));
      const bool write_ack = rng.next_bool(0.5);  // 1 flit, else 5 flits
      if (!offer) continue;
      MemResponse resp{.id = ++id, .core = core, .bank = bank, .addr = 0,
                       .is_write = write_ack, .l2_hit = true,
                       .issue_cycle = t};
      ++(icn->try_inject_response(resp, t) ? injected : refused);
    }
    tick(t);
  }
  // Drain, jumping over the cycles next_event() reports as quiet.
  while (!icn->idle() && t < kDrainLimit) {
    const Cycle next = icn->next_event(t);
    if (next == kNeverCycle) break;
    t = std::max(t, next);
    tick(t++);
  }
  EXPECT_TRUE(icn->idle()) << c.name << " wedged at cycle " << t;
  EXPECT_EQ(delivered, injected) << c.name;
  EXPECT_GT(refused, 0u) << c.name << " never filled an injection queue";
  return {sha256_hex(log), icn->stats().output_visits};
}

void PrintTo(const OrderCase& c, std::ostream* os) { *os << c.name; }

class NocOrderPin : public ::testing::TestWithParam<OrderCase> {};

TEST_P(NocOrderPin, SaturatedDeliveryOrderIsPinned) {
  const OrderOutcome got = saturated_delivery_order(GetParam());
  EXPECT_EQ(got.digest, GetParam().digest);
  EXPECT_EQ(got.output_visits, GetParam().output_visits);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, NocOrderPin,
    ::testing::Values(
        OrderCase{.name = "TrueMesh3d", .topology = NocTopology::kTrueMesh3d,
                  .digest =
                      "f2f6f17781a4d6d91841243679d2e0942d28a991b4065f3c3eb3c76d868d3e84",
                  .output_visits = 215670},
        OrderCase{.name = "BusMesh", .topology = NocTopology::kHybridBusMesh,
                  .digest =
                      "4fede7490cae1e1a8f26c2b0fbb0b787d651378b2bc76d7f79e2680dae3a7859",
                  .output_visits = 105024},
        OrderCase{.name = "BusTree", .topology = NocTopology::kHybridBusTree,
                  .digest =
                      "a1f6ce7f4eecaff5f34c4d1dae582306934cf527b810537c2fbeccbb55b43dcc",
                  .output_visits = 63150},
        // Router 5 is tile (1,1) of the core tier: on most XY paths.
        OrderCase{.name = "TrueMesh3dThrottled",
                  .topology = NocTopology::kTrueMesh3d,
                  .throttled_router = 5, .throttle_cycles = 2,
                  .digest =
                      "9abcd5c12e2da47795d999a05d3d497ba669e8e80151122a99dc0f4db1641855",
                  .output_visits = 152647},
        // Zero-latency hops: a flit handed on is ready in the same tick,
        // so the order in which buses and routers take their turns shows.
        OrderCase{.name = "TrueMesh3dZeroLatency",
                  .topology = NocTopology::kTrueMesh3d, .link_cycles = 0,
                  .router_pipeline_cycles = 0,
                  .digest =
                      "8dcd88a602eb8b5b6bcbad2cfb50cac028e15d26a938d31d3fcba0db03e9d778",
                  .output_visits = 196104},
        OrderCase{.name = "BusMeshZeroLatency",
                  .topology = NocTopology::kHybridBusMesh, .link_cycles = 0,
                  .router_pipeline_cycles = 0,
                  .digest =
                      "8ed8e08c58a66e0af2b293b96a0dae52ec5f141dc53d859639370059c2b2f5ca",
                  .output_visits = 84062},
        // The root (4 ports) and quad routers (6 ports) with their buses.
        OrderCase{.name = "BusTreeZeroLatency",
                  .topology = NocTopology::kHybridBusTree, .link_cycles = 0,
                  .router_pipeline_cycles = 0,
                  .digest =
                      "04cf451ceedaa0f55232f8d3f7d4e81494214b2ec5e98a36e8debf57c5c17fab",
                  .output_visits = 54430},
        // Router 5 is tile (1,1), which also feeds its own pillar bus.
        OrderCase{.name = "BusMeshThrottled",
                  .topology = NocTopology::kHybridBusMesh,
                  .throttled_router = 5, .throttle_cycles = 2,
                  .digest =
                      "94efb89ec78ffc45dc5381631c2068707902d3b3d0202b7b1c567fa3c1f3ec38",
                  .output_visits = 146437},
        // One-flit buffers: every worm spans several routers, so heads
        // wait at the front of their queues through long back-pressure.
        OrderCase{.name = "TrueMesh3dOneFlitBuffers",
                  .topology = NocTopology::kTrueMesh3d, .buffer_flits = 1,
                  .digest =
                      "d1a51fcd86ba4630d571742edfde83a363ec6bec07b55b84c8db7a039ebe1d90",
                  .output_visits = 209467}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(NocConstruction, BuildersRejectShapesTheyCannotWire) {
  // The builders lay out the 4x4 tile grid of the 16x32 cluster.  A 32x32
  // shape used to build and then never deliver bank 4 -> core 20; 64x128
  // died on an out-of-range routing-table write.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {32, 32}, {64, 128}, {16, 16}, {8, 32}};
  for (const NocTopology topo :
       {NocTopology::kTrueMesh3d, NocTopology::kHybridBusMesh,
        NocTopology::kHybridBusTree}) {
    for (const auto& [cores, banks] : shapes) {
      NocConfig cfg;
      cfg.num_cores = cores;
      cfg.num_banks = banks;
      try {
        (void)make_noc(topo, cfg, power_model());
        ADD_FAILURE() << "topology " << static_cast<int>(topo) << " built "
                      << cores << "x" << banks;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find("16-core/32-bank"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(NocConstruction, RouterPortsAreBoundedByTheOccupancyMask) {
  NocNetwork net(NocConfig{}, power_model());
  EXPECT_NO_THROW(net.add_router(NocNetwork::kMaxRouterPorts));
  EXPECT_THROW(net.add_router(NocNetwork::kMaxRouterPorts + 1),
               std::invalid_argument);
  EXPECT_EQ(net.num_routers(), 1u);
}

TEST(NocConstruction, BusAttachmentsAreBoundedByTheOccupancyMask) {
  NocNetwork net(NocConfig{}, power_model());
  const std::uint32_t bus = net.add_bus(0.08, 2);
  for (std::size_t i = 0; i < NocNetwork::kMaxBusSlots; ++i) {
    EXPECT_EQ(net.add_bus_attachment(bus), i);
  }
  EXPECT_THROW(net.add_bus_attachment(bus), std::invalid_argument);
}

TEST(NocConstruction, RoutesMustNameAPortOfTheRouter) {
  // A head routed to a missing port would never match an output and would
  // surface much later as a deadlock; the table rejects it instead.
  NocNetwork net(NocConfig{}, power_model());
  const std::uint32_t r = net.add_router(4);
  EXPECT_NO_THROW(net.set_route(r, 0, 3));
  try {
    net.set_route(r, 1, 4);
    ADD_FAILURE() << "a route to port 4 of a 4-port router was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("names port 4 of 4"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(net.set_route(r, 2, 1000), std::invalid_argument);
}

TEST(NocConstruction, WidestRouterServesEveryPortInRoundRobinOrder) {
  // Port 31 is the top bit of the occupancy masks.  Bank b injects on
  // port b of a 32-port crossbar, and every bank sends core 0 a one-flit
  // write acknowledgement at cycle 0; they must leave by port 0 one per
  // cycle in port order.
  constexpr std::uint32_t kPorts = NocNetwork::kMaxRouterPorts;
  const NocConfig cfg;
  ASSERT_EQ(cfg.num_banks, kPorts);
  NocNetwork net(cfg, power_model());
  const std::uint32_t r = net.add_router(kPorts);
  net.set_output(r, 0, {Target::Kind::kEndpoint, 0, 0, 0.1});
  net.set_route(r, 0, 0);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    net.set_endpoint_injection(cfg.bank_node(p),
                               {Target::Kind::kRouterPort, r, p, 0.1});
  }
  for (BankId b = 0; b < kPorts; ++b) {
    const MemResponse ack{.id = b + 1u, .core = 0, .bank = b, .addr = 0,
                          .is_write = true, .l2_hit = true, .issue_cycle = 0};
    ASSERT_TRUE(net.try_inject_response(ack, 0));
  }
  DeliveryLog got;
  for (Cycle t = 0; t < 200 && !net.idle(); ++t) got.tick(net, t);
  ASSERT_EQ(got.responses.size(), kPorts);
  for (std::uint32_t i = 0; i < kPorts; ++i) {
    EXPECT_EQ(got.responses[i].first.bank, i);
    EXPECT_EQ(got.responses[i].second, got.responses[0].second + i);
  }
}

// ---------------------------------------------------------------------------
// The switch allocator's work counter.  On an idle True 3-D Mesh ticked
// only at the cycles next_event() names, a 1-flit packet makes exactly one
// (output, VC) visit at each of the k routers it crosses when every hop
// goes to a lower-numbered router: a router handed the flit takes its next
// turn in the next tick's walk, when the flit is ready.  When every hop
// goes to a higher-numbered router, that router also takes a turn later in
// the same walk and finds the head not yet ready: 2k - 1 visits.  Router
// (x, y, z) is number 16z + 4y + x, and a route runs X, then Y, then Z.
// ---------------------------------------------------------------------------
/// Visits an idle True 3-D Mesh makes to deliver the one packet `inject`
/// offers it at cycle 0.
template <typename Inject>
std::uint64_t visits_to_deliver(Inject inject) {
  auto icn = make_noc(NocTopology::kTrueMesh3d, NocConfig{}, power_model());
  EXPECT_TRUE(inject(*icn));
  DeliveryLog got;
  for (Cycle t = icn->next_event(0); t != kNeverCycle;
       t = icn->next_event(t + 1)) {
    got.tick(*icn, t);
  }
  EXPECT_EQ(got.requests.size() + got.responses.size(), 1u);
  return icn->stats().output_visits;
}

TEST(NocWork, OneFlitPacketVisitsOneOutputPerRouter) {
  struct Trip {
    CoreId core;
    BankId bank;
    std::uint64_t routers;  ///< |dx| + |dy| + tier + 1
  };
  for (const Trip& trip : {Trip{0, 31, 9}, Trip{0, 0, 2}, Trip{5, 21, 3},
                           Trip{4, 30, 7}}) {
    // A write acknowledgement is one flit; from a bank to a core at a
    // lower x and y every hop (west, south, down) lowers the router number.
    MemResponse ack{.id = 1, .core = trip.core, .bank = trip.bank, .addr = 0,
                    .is_write = true, .l2_hit = true, .issue_cycle = 0};
    // A read request is one flit; core to bank, every hop raises it.
    MemRequest read{.id = 2, .core = trip.core, .bank = trip.bank, .addr = 0,
                    .is_write = false, .issue_cycle = 0};
    const bool descending = trip.core % 4 <= (trip.bank % 16) % 4 &&
                            trip.core / 4 <= (trip.bank % 16) / 4;
    ASSERT_TRUE(descending) << "pick trips whose response only descends";
    EXPECT_EQ(visits_to_deliver([&](Interconnect& icn) {
                return icn.try_inject_response(ack, 0);
              }),
              trip.routers)
        << "bank " << trip.bank << " -> core " << trip.core;
    EXPECT_EQ(visits_to_deliver([&](Interconnect& icn) {
                return icn.try_inject_request(read, 0);
              }),
              2 * trip.routers - 1)
        << "core " << trip.core << " -> bank " << trip.bank;
  }
}

}  // namespace
}  // namespace mot3d::noc
