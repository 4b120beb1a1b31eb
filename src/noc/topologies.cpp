// make_noc(): the paper's three packet-switched 3-D baselines, each wired
// into a bare NocNetwork.
//
// Geometry: a 4x4 grid of tiles on the core tier (one core per tile) and
// two stacked bank tiers of 16 banks each (bank b sits at tile b%16, tier
// 1 + b/16), mirroring the MoT cluster's floorplan.  Any other shape is
// rejected at construction: it would leave endpoints unwired.
#include <array>
#include <cstdlib>
#include <memory>
#include <stdexcept>

#include "noc/network.hpp"

namespace mot3d::noc {

namespace {

constexpr std::uint32_t kEast = 0, kWest = 1, kNorth = 2, kSouth = 3;

struct Tile {
  int x = 0;
  int y = 0;
};

Tile tile_of_core(NodeId c) { return {static_cast<int>(c % 4), static_cast<int>(c / 4)}; }
Tile tile_of_bank(std::uint32_t b) {
  const std::uint32_t t = b % 16;
  return {static_cast<int>(t % 4), static_cast<int>(t / 4)};
}
int tier_of_bank(std::uint32_t b) { return 1 + static_cast<int>(b / 16); }

/// XY-dimension-order next hop within one tier's 4x4 mesh; returns the port
/// or -1 when (x, y) is the destination tile.
int xy_next_port(Tile at, Tile to) {
  if (to.x > at.x) return kEast;
  if (to.x < at.x) return kWest;
  if (to.y > at.y) return kNorth;
  if (to.y < at.y) return kSouth;
  return -1;
}

// ---------------------------------------------------------------------------
// True 3-D Mesh: 4x4x3 routers, 7 ports (E W N S Up Down Local), XYZ
// dimension-order routing (deadlock-free).
// ---------------------------------------------------------------------------
void wire_true_mesh_3d(NocNetwork& net) {
  const NocConfig& cfg = net.config();
  constexpr std::uint32_t kUp = 4, kDown = 5, kLocal = 6;
  const double pitch = cfg.mesh_pitch_mm;
  const double tsv_mm = 0.04;  // 40 µm tier gap

  auto rid = [](int x, int y, int z) {
    return static_cast<std::uint32_t>(z * 16 + y * 4 + x);
  };

  for (int z = 0; z < 3; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const std::uint32_t r = net.add_router(7);
        (void)r;
      }
    }
  }
  // Mesh + vertical links.
  for (int z = 0; z < 3; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const std::uint32_t r = rid(x, y, z);
        if (x < 3)
          net.set_output(r, kEast,
                         {Target::Kind::kRouterPort, rid(x + 1, y, z), kWest, pitch});
        if (x > 0)
          net.set_output(r, kWest,
                         {Target::Kind::kRouterPort, rid(x - 1, y, z), kEast, pitch});
        if (y < 3)
          net.set_output(r, kNorth,
                         {Target::Kind::kRouterPort, rid(x, y + 1, z), kSouth, pitch});
        if (y > 0)
          net.set_output(r, kSouth,
                         {Target::Kind::kRouterPort, rid(x, y - 1, z), kNorth, pitch});
        if (z < 2)
          net.set_output(r, kUp,
                         {Target::Kind::kRouterPort, rid(x, y, z + 1), kDown, tsv_mm});
        if (z > 0)
          net.set_output(r, kDown,
                         {Target::Kind::kRouterPort, rid(x, y, z - 1), kUp, tsv_mm});
      }
    }
  }
  // Endpoints.
  for (NodeId c = 0; c < cfg.num_cores; ++c) {
    const Tile t = tile_of_core(c);
    const std::uint32_t r = rid(t.x, t.y, 0);
    net.set_output(r, kLocal, {Target::Kind::kEndpoint, c, 0, 0.1});
    net.set_endpoint_injection(c, {Target::Kind::kRouterPort, r, kLocal, 0.1});
  }
  for (std::uint32_t b = 0; b < cfg.num_banks; ++b) {
    const Tile t = tile_of_bank(b);
    const std::uint32_t r = rid(t.x, t.y, tier_of_bank(b));
    const NodeId e = cfg.bank_node(b);
    net.set_output(r, kLocal, {Target::Kind::kEndpoint, e, 0, 0.1});
    net.set_endpoint_injection(e, {Target::Kind::kRouterPort, r, kLocal, 0.1});
  }
  // XYZ routing tables.
  auto dst_place = [&cfg](NodeId e, Tile& t, int& z) {
    if (e < cfg.num_cores) {
      t = tile_of_core(e);
      z = 0;
    } else {
      const std::uint32_t b = static_cast<std::uint32_t>(e - cfg.num_cores);
      t = tile_of_bank(b);
      z = tier_of_bank(b);
    }
  };
  for (int z = 0; z < 3; ++z) {
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        const std::uint32_t r = rid(x, y, z);
        for (NodeId e = 0; e < cfg.num_endpoints(); ++e) {
          Tile dt;
          int dz;
          dst_place(e, dt, dz);
          int port = xy_next_port({x, y}, dt);
          if (port < 0) port = dz > z ? static_cast<int>(kUp)
                             : dz < z ? static_cast<int>(kDown)
                                      : static_cast<int>(kLocal);
          net.set_route(r, e, static_cast<std::uint32_t>(port));
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3-D Hybrid Bus-Mesh (Li et al., ISCA'06 "network-in-memory"): a 2-D mesh
// on the core tier; each router owns a vertical dTDMA TSV-bus pillar shared
// by the two banks stacked above its tile.
// ---------------------------------------------------------------------------
void wire_hybrid_bus_mesh(NocNetwork& net) {
  const NocConfig& cfg = net.config();
  constexpr std::uint32_t kLocal = 4, kBusPort = 5;
  const double pitch = cfg.mesh_pitch_mm;

  auto rid = [](int x, int y) { return static_cast<std::uint32_t>(y * 4 + x); };

  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) (void)net.add_router(6);
  }
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const std::uint32_t r = rid(x, y);
      if (x < 3) net.set_output(r, kEast, {Target::Kind::kRouterPort, rid(x + 1, y), kWest, pitch});
      if (x > 0) net.set_output(r, kWest, {Target::Kind::kRouterPort, rid(x - 1, y), kEast, pitch});
      if (y < 3) net.set_output(r, kNorth, {Target::Kind::kRouterPort, rid(x, y + 1), kSouth, pitch});
      if (y > 0) net.set_output(r, kSouth, {Target::Kind::kRouterPort, rid(x, y - 1), kNorth, pitch});
    }
  }
  // One pillar bus per tile: slots = {router, bank tier1, bank tier2}.
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const std::uint32_t r = rid(x, y);
      const std::uint32_t bus = net.add_bus(0.08, cfg.pillar_bus_cycles_per_flit);
      const std::uint32_t router_slot = net.add_bus_attachment(bus);
      net.set_output(r, kBusPort, {Target::Kind::kBus, bus, router_slot, 0.04});
      for (int tier = 0; tier < 2; ++tier) {
        const std::uint32_t b = static_cast<std::uint32_t>(tier * 16 + y * 4 + x);
        const NodeId e = cfg.bank_node(b);
        const std::uint32_t slot = net.add_bus_attachment(bus);
        net.set_endpoint_injection(e, {Target::Kind::kBus, bus, slot, 0.04});
        net.set_bus_route(bus, e, {Target::Kind::kEndpoint, e, 0, 0.04});
      }
      // Anything not a pillar bank returns into the router.
      for (NodeId e = 0; e < cfg.num_cores; ++e) {
        net.set_bus_route(bus, e, {Target::Kind::kRouterPort, r, kBusPort, 0.04});
      }
    }
  }
  for (NodeId c = 0; c < cfg.num_cores; ++c) {
    const Tile t = tile_of_core(c);
    const std::uint32_t r = rid(t.x, t.y);
    net.set_output(r, kLocal, {Target::Kind::kEndpoint, c, 0, 0.1});
    net.set_endpoint_injection(c, {Target::Kind::kRouterPort, r, kLocal, 0.1});
  }
  // Routing: XY to the destination tile; there, Local for cores, the
  // pillar bus for banks.
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      const std::uint32_t r = rid(x, y);
      for (NodeId e = 0; e < cfg.num_endpoints(); ++e) {
        const Tile dt = e < cfg.num_cores
                            ? tile_of_core(e)
                            : tile_of_bank(static_cast<std::uint32_t>(e - cfg.num_cores));
        int port = xy_next_port({x, y}, dt);
        if (port < 0) port = e < cfg.num_cores ? static_cast<int>(kLocal)
                                               : static_cast<int>(kBusPort);
        net.set_route(r, e, static_cast<std::uint32_t>(port));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 3-D Hybrid Bus-Tree (Madan et al., HPCA'09 flavour): an in-plane tree of
// routers (four quad routers + one root) and four vertical buses, each
// shared by the EIGHT banks above one quadrant — less hop count than the
// mesh but far more bus sharing, which is why it performs worst.
// ---------------------------------------------------------------------------
void wire_hybrid_bus_tree(NocNetwork& net) {
  const NocConfig& cfg = net.config();
  constexpr std::uint32_t kUpPort = 4, kBusPort = 5;
  const double link = cfg.tree_link_mm;

  auto quad_of_core = [](NodeId c) { return static_cast<std::uint32_t>(c / 4); };
  auto quad_of_bank = [](std::uint32_t b) { return (b % 16) / 4; };

  std::array<std::uint32_t, 4> quad{};
  for (std::uint32_t q = 0; q < 4; ++q) quad[q] = net.add_router(6);
  const std::uint32_t root = net.add_router(4);

  for (std::uint32_t q = 0; q < 4; ++q) {
    net.set_output(quad[q], kUpPort, {Target::Kind::kRouterPort, root, q, link});
    net.set_output(root, q, {Target::Kind::kRouterPort, quad[q], kUpPort, link});
  }
  // Cores: four local ports per quad router.
  for (NodeId c = 0; c < cfg.num_cores; ++c) {
    const std::uint32_t q = quad_of_core(c);
    const std::uint32_t port = c % 4;
    net.set_output(quad[q], port, {Target::Kind::kEndpoint, c, 0, 0.6});
    net.set_endpoint_injection(c, {Target::Kind::kRouterPort, quad[q], port, 0.6});
  }
  // Buses: one per quadrant, eight banks each.
  for (std::uint32_t q = 0; q < 4; ++q) {
    const std::uint32_t bus = net.add_bus(0.08, cfg.quadrant_bus_cycles_per_flit);
    const std::uint32_t router_slot = net.add_bus_attachment(bus);
    net.set_output(quad[q], kBusPort, {Target::Kind::kBus, bus, router_slot, 0.04});
    for (std::uint32_t b = 0; b < cfg.num_banks; ++b) {
      if (quad_of_bank(b) != q) continue;
      const NodeId e = cfg.bank_node(b);
      const std::uint32_t slot = net.add_bus_attachment(bus);
      net.set_endpoint_injection(e, {Target::Kind::kBus, bus, slot, 0.04});
      net.set_bus_route(bus, e, {Target::Kind::kEndpoint, e, 0, 0.04});
    }
    for (NodeId c = 0; c < cfg.num_cores; ++c) {
      net.set_bus_route(bus, c, {Target::Kind::kRouterPort, quad[q], kBusPort, 0.04});
    }
  }
  // Routing tables.
  for (std::uint32_t q = 0; q < 4; ++q) {
    for (NodeId e = 0; e < cfg.num_endpoints(); ++e) {
      std::uint32_t port;
      if (e < cfg.num_cores) {
        port = quad_of_core(e) == q ? e % 4 : kUpPort;
      } else {
        const std::uint32_t b = static_cast<std::uint32_t>(e - cfg.num_cores);
        port = quad_of_bank(b) == q ? kBusPort : kUpPort;
      }
      net.set_route(quad[q], e, port);
    }
  }
  for (NodeId e = 0; e < cfg.num_endpoints(); ++e) {
    const std::uint32_t q =
        e < cfg.num_cores
            ? quad_of_core(e)
            : quad_of_bank(static_cast<std::uint32_t>(e - cfg.num_cores));
    net.set_route(root, e, q);
  }
}

}  // namespace

std::unique_ptr<NocNetwork> make_noc(NocTopology topology, const NocConfig& cfg,
                                     const power::InterconnectPowerModel& power) {
  if (cfg.num_cores != 16 || cfg.num_banks != 32) {
    throw std::invalid_argument(
        "packet-switched baselines are hardwired to the 16-core/32-bank "
        "Table I cluster; scale-out shapes run the MoT fabric only");
  }
  auto net = std::make_unique<NocNetwork>(cfg, power);
  switch (topology) {
    case NocTopology::kTrueMesh3d: wire_true_mesh_3d(*net); break;
    case NocTopology::kHybridBusMesh: wire_hybrid_bus_mesh(*net); break;
    case NocTopology::kHybridBusTree: wire_hybrid_bus_tree(*net); break;
  }
  return net;
}

}  // namespace mot3d::noc
