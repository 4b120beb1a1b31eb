// Flit-level cycle-driven NoC fabric: wormhole routers, TSV buses and
// network interfaces, driven as an Interconnect, plus make_noc(), which
// wires in one of the paper's three packet-switched 3-D baselines (True
// 3-D Mesh, Hybrid Bus-Mesh [2], Hybrid Bus-Tree [21]).
//
// Router micro-architecture: input-buffered, one flit per output per cycle,
// round-robin switch allocation (input-first: a head flit at the front of
// its queue posts a request to the output its route names), wormhole
// output locking (head locks, tail releases), table-based routing (XYZ
// dimension-order for the mesh, up*/down* on the tree — both
// deadlock-free), `router_pipeline_cycles` of per-hop latency plus
// `link_cycles` of wire latency.  Back-pressure is by buffer occupancy at
// the downstream input.  Endpoint ejection is always accepted (sink
// consumption), which rules out protocol deadlock between request and
// response traffic.
//
// TSV buses carry one flit per cycle, round-robin among their attachments —
// the "dTDMA bus" of ref [2]; in the Bus-Tree topology each bus is shared
// by eight stacked banks, which is exactly the serialisation that makes it
// the worst performer in the paper's Fig. 6.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/index_set.hpp"
#include "common/interconnect.hpp"
#include "common/ring_buffer.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"
#include "power/interconnect_power.hpp"

namespace mot3d::noc {

struct NocConfig {
  std::size_t num_cores = 16;
  std::size_t num_banks = 32;
  std::size_t buffer_flits = 4;          ///< per router input port, per VC
  unsigned router_pipeline_cycles = 1;   ///< speculative single-cycle router
  unsigned link_cycles = 1;
  std::size_t flit_bits = 128;           ///< link width of the baselines
  std::size_t line_bytes = 32;
  /// dTDMA TSV-bus slot times (arbitration + turnaround between masters;
  /// ref [2]'s bus is time-multiplexed among all attached tiers).  The
  /// Bus-Tree's quadrant buses carry 9 drops over two tiers, so their slot
  /// time is longer — the physical root of the paper's Fig. 6 finding.
  unsigned pillar_bus_cycles_per_flit = 2;   ///< Bus-Mesh: 3-drop pillar
  unsigned quadrant_bus_cycles_per_flit = 4; ///< Bus-Tree: 9-drop quadrant
  double mesh_pitch_mm = 1.25;           ///< 5 mm die / 4 columns
  double tree_link_mm = 1.25;

  std::size_t line_flits() const { return line_bytes * 8 / flit_bits; }
  std::size_t num_endpoints() const { return num_cores + num_banks; }
  NodeId bank_node(std::uint32_t b) const {
    return static_cast<NodeId>(num_cores + b);
  }
};

struct NocTransportStats {
  std::uint64_t flit_router_traversals = 0;  ///< buffer+xbar energy events
  std::uint64_t flit_bus_transfers = 0;
  double flit_link_mm = 0.0;                 ///< wire-length-weighted flits
};

/// Where an output port / bus grant sends a flit.
struct Target {
  enum class Kind : std::uint8_t { kNone, kRouterPort, kEndpoint, kBus };
  Kind kind = Kind::kNone;
  std::uint32_t index = 0;  ///< router id / endpoint id / bus id
  std::uint32_t port = 0;   ///< router input port, or bus attachment slot
  double wire_mm = 0.0;     ///< physical link length (energy accounting)
};

/// Which baseline make_noc() wires.
enum class NocTopology { kTrueMesh3d, kHybridBusMesh, kHybridBusTree };

/// The packet-switched fabric.  Each message waits in a slot of a table
/// from injection until its tail flit ejects, and its flits carry the
/// slot's index; a worm's flits leave in order on one path, so no flit
/// names a slot after its tail has ejected.
class NocNetwork final : public Interconnect {
 public:
  /// A bare network: no routers, buses or wiring yet.  make_noc() wires
  /// one of the baselines into it; tests wire their own.
  NocNetwork(const NocConfig& cfg, const power::InterconnectPowerModel& power);

  /// Most ports a router may have: one bit each in its occupancy masks.
  static constexpr std::size_t kMaxRouterPorts = 32;
  /// Most attachments a bus may have: one bit each in its occupancy mask.
  static constexpr std::size_t kMaxBusSlots = 32;

  // ---- construction ----
  /// Adds a router with `num_ports` ports; returns its id.  Throws
  /// std::invalid_argument above kMaxRouterPorts.
  std::uint32_t add_router(std::size_t num_ports);
  /// Wire router output (r, port) to `target`.
  void set_output(std::uint32_t router, std::uint32_t port, Target target);
  /// Adds a TSV bus; returns its id.  Attachments are added separately.
  /// `cycles_per_flit` is the dTDMA slot time: a lightly-loaded 3-drop
  /// pillar (Bus-Mesh) moves a flit every 2 cycles; a 9-drop quadrant bus
  /// (Bus-Tree) pays more capacitive load and a longer TDMA frame.
  std::uint32_t add_bus(double wire_mm, unsigned cycles_per_flit);
  /// Attach a sender to the bus: flits from this slot are arbitrated RR.
  /// Returns the attachment slot id, the `port` of a Target that injects
  /// into this bus.  Throws std::invalid_argument past kMaxBusSlots.
  std::uint32_t add_bus_attachment(std::uint32_t bus);
  /// Where the bus delivers flits destined to endpoint `e`.
  void set_bus_route(std::uint32_t bus, NodeId e, Target target);
  /// Attach endpoint `e`'s injection to a router input port or a bus slot.
  void set_endpoint_injection(NodeId e, Target target);
  /// Routing table entry: at `router`, packets for endpoint `dst` leave by
  /// `out_port`.  Throws std::invalid_argument when `out_port` is not one of
  /// the router's ports.
  void set_route(std::uint32_t router, NodeId dst, std::uint32_t out_port);

  // ---- Interconnect ----
  /// Queue the message's flits at its source NI: one flit, plus
  /// line_flits() when it carries a line.  False when the NI queue has no
  /// room for them.
  bool try_inject_request(const MemRequest& req, Cycle now) override;
  bool try_inject_response(const MemResponse& resp, Cycle now) override;
  void tick(Cycle now) override;
  bool idle() const override { return free_slots_.size() == slots_.size(); }
  /// Next-event contract (see DESIGN.md): earliest cycle >= `now` at which
  /// tick() could move a flit.  Any flit that is ready but back-pressured
  /// pins the result to `now` (dense ticking resumes until it drains).
  Cycle next_event(Cycle now) const override;
  double dynamic_energy_pj() const override;
  double leakage_mw() const override;

  const NocConfig& config() const { return cfg_; }
  const NocTransportStats& transport_stats() const { return transport_; }
  std::size_t num_routers() const { return routers_.size(); }

  /// Fault injection: serialise router `router`'s crossbar — at most one
  /// flit moves per window and each moved flit costs `extra_cycles` extra
  /// pause (a degraded link retrains/retries every transfer).  Cumulative
  /// and permanent.
  void set_router_throttle(std::uint32_t router, unsigned extra_cycles);

 private:
  using FlitQueue = RingBuffer<Flit>;
  using PortMask = std::uint32_t;  ///< bit i = router port i (input or output)
  using VcMasks = std::array<PortMask, kNumVcs>;

  struct InPort {
    std::array<FlitQueue, kNumVcs> q;  ///< one buffer per virtual net
  };
  struct OutPort {
    Target target;
    std::array<int, kNumVcs> locked_in{-1, -1};  ///< wormhole lock per VC
    VcMasks requests{};  ///< per VC: inputs whose front is a head routed here
    std::uint32_t rr = 0;      ///< round-robin pointer over inputs
    std::uint8_t vc_rr = 0;    ///< round-robin between virtual networks
  };
  struct Router {
    std::vector<InPort> in;
    std::vector<OutPort> out;
    std::vector<std::uint32_t> route;  ///< per endpoint -> out port
    unsigned throttle = 0;   ///< fault: extra cycles per moved flit (0 = healthy)
    Cycle busy_until = 0;    ///< fault: serialisation pacing
    // Per VC, kept by push()/pop() (and, for `locked`, where a lock is
    // taken or released): the inputs whose queue is non-empty, the
    // outputs with a request, and the outputs holding a wormhole lock.
    VcMasks occupied{};
    VcMasks requested{};
    VcMasks locked{};
  };
  struct Bus {
    std::vector<FlitQueue> slots;  ///< one FIFO per attachment
    std::uint32_t rr = 0;
    int locked_slot = -1;  ///< wormhole: slot owning the bus until tail
    Cycle busy_until = 0;  ///< dTDMA slot pacing
    unsigned cycles_per_flit = 2;
    std::vector<Target> route;  ///< per endpoint -> delivery target
    double wire_mm = 0.0;
    PortMask occupied = 0;  ///< non-empty slots (push()/pop())
  };
  struct EndpointNi {
    Target injection;  ///< router input port, or bus and slot
    FlitQueue inject_q;
    static constexpr std::size_t kMaxInjectQ = 64;
  };
  /// A message in flight; the VC of its flits says which of `req` and
  /// `resp` it is.
  struct Message {
    Cycle injected = 0;
    MemRequest req;
    MemResponse resp;
  };

  // Every flit enters and leaves a FIFO through push()/pop(), which keep
  // the summaries (router and bus masks, and the busy sets) equal
  // to what a scan of the queues would find.  tick() and next_event() walk
  // only the busy components, and a router only its requested or locked
  // outputs.
  void push(Router& r, std::uint32_t port, const Flit& flit);
  void pop(Router& r, std::uint32_t port, std::uint8_t vc);
  void push(Bus& bus, std::uint32_t slot, const Flit& flit);
  void pop(Bus& bus, std::uint32_t slot);
  void push(EndpointNi& ni, const Flit& flit);
  void pop(EndpointNi& ni);
  /// Post (or withdraw) input `port`'s request for the output its front
  /// flit `head` is routed to.
  static void request(Router& r, std::uint32_t port, const Flit& head);
  static void withdraw(Router& r, std::uint32_t port, const Flit& head);

  /// Queue a `flits`-long message from `src` to `dst` on `vc` and return
  /// the slot it waits in, or null when `src`'s NI queue has no room.
  Message* inject(NodeId src, NodeId dst, std::size_t flits, std::uint8_t vc,
                  Cycle now);
  bool deliver_to_target(const Target& t, Flit flit, Cycle now);
  void eject(const Flit& flit, Cycle now);
  bool router_in_has_space(std::uint32_t router, std::uint32_t port,
                           std::uint8_t vc) const;
  /// Try to move one flit of virtual network `vc` through output `po` of
  /// router `ri`; returns true if a flit moved.
  bool router_output_step(std::uint32_t ri, std::uint32_t po, std::uint8_t vc,
                          Cycle now);

  NocConfig cfg_;
  power::InterconnectPowerModel power_;
  std::vector<Router> routers_;
  std::vector<Bus> buses_;
  std::vector<EndpointNi> endpoints_;
  std::vector<Message> slots_;
  std::vector<std::uint32_t> free_slots_;  ///< slots no message holds
  NocTransportStats transport_;
  double total_link_mm_ = 0.0;  ///< router-to-router wire, for leakage
  // The components that buffer a flit, kept by push()/pop().
  IndexSet busy_routers_;
  IndexSet busy_buses_;
  IndexSet busy_nis_;
};

/// One of the paper's three baselines, fully wired (16 cores, 32 banks
/// over two stacked tiers).  Throws std::invalid_argument for any other
/// shape.
std::unique_ptr<NocNetwork> make_noc(NocTopology topology, const NocConfig& cfg,
                                     const power::InterconnectPowerModel& power);

}  // namespace mot3d::noc
