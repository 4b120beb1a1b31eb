#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

namespace mot3d::noc {

NocNetwork::NocNetwork(const NocConfig& cfg)
    : cfg_(cfg), endpoints_(cfg.num_endpoints()) {}

std::uint32_t NocNetwork::add_router(std::size_t num_ports) {
  if (num_ports > kMaxRouterPorts) {
    throw std::invalid_argument(
        "router with " + std::to_string(num_ports) + " ports: at most " +
        std::to_string(kMaxRouterPorts) + " fit its occupancy masks");
  }
  Router r;
  r.in.resize(num_ports);
  r.out.resize(num_ports);
  r.route.assign(cfg_.num_endpoints(), 0);
  routers_.push_back(std::move(r));
  return static_cast<std::uint32_t>(routers_.size() - 1);
}

void NocNetwork::set_output(std::uint32_t router, std::uint32_t port, Target target) {
  routers_.at(router).out.at(port).target = target;
  if (target.kind == Target::Kind::kRouterPort) total_link_mm_ += target.wire_mm;
}

std::uint32_t NocNetwork::add_bus(double wire_mm, unsigned cycles_per_flit) {
  Bus b;
  b.wire_mm = wire_mm;
  b.cycles_per_flit = cycles_per_flit == 0 ? 1 : cycles_per_flit;
  b.route.assign(cfg_.num_endpoints(), Target{});
  buses_.push_back(std::move(b));
  return static_cast<std::uint32_t>(buses_.size() - 1);
}

std::uint32_t NocNetwork::add_bus_attachment(std::uint32_t bus) {
  Bus& b = buses_.at(bus);
  b.slots.emplace_back();
  return static_cast<std::uint32_t>(b.slots.size() - 1);
}

void NocNetwork::set_bus_route(std::uint32_t bus, NodeId e, Target target) {
  buses_.at(bus).route.at(e) = target;
}

void NocNetwork::set_endpoint_injection(NodeId e, Target target,
                                        std::optional<std::uint32_t> bus_slot) {
  endpoints_.at(e).injection = target;
  endpoints_.at(e).bus_slot = bus_slot;
}

void NocNetwork::set_route(std::uint32_t router, NodeId dst, std::uint32_t out_port) {
  routers_.at(router).route.at(dst) = out_port;
}

void NocNetwork::set_router_throttle(std::uint32_t router, unsigned extra_cycles) {
  routers_.at(router).throttle += extra_cycles;
}

bool NocNetwork::try_inject(const Packet& p, Cycle now) {
  EndpointNi& ni = endpoints_.at(p.src);
  if (ni.inject_q.size() + p.length_flits > EndpointNi::kMaxInjectQ) return false;
  packets_.emplace(p.id, p);
  for (std::size_t f = 0; f < p.length_flits; ++f) {
    Flit flit;
    flit.packet = p.id;
    flit.dst = p.dst;
    flit.head = (f == 0);
    flit.tail = (f + 1 == p.length_flits);
    flit.vc = p.kind == PacketKind::kRequest ? kRequestVc : kResponseVc;
    flit.ready_at = now;
    push(ni, flit);
  }
  return true;
}

void NocNetwork::push(Router& r, std::uint32_t port, const Flit& flit) {
  r.in[port].q[flit.vc].push_back(flit);
  ++r.buffered;
  r.occupied[flit.vc] |= PortMask{1} << port;
}

void NocNetwork::pop(Router& r, std::uint32_t port, std::uint8_t vc) {
  FlitQueue& q = r.in[port].q[vc];
  q.pop_front();
  --r.buffered;
  if (q.empty()) r.occupied[vc] &= ~(PortMask{1} << port);
}

void NocNetwork::push(Bus& bus, std::uint32_t slot, const Flit& flit) {
  bus.slots[slot].push_back(flit);
  ++bus.buffered;
}

void NocNetwork::pop(Bus& bus, std::uint32_t slot) {
  bus.slots[slot].pop_front();
  --bus.buffered;
}

void NocNetwork::push(EndpointNi& ni, const Flit& flit) {
  ni.inject_q.push_back(flit);
  ++ni_flits_;
}

void NocNetwork::pop(EndpointNi& ni) {
  ni.inject_q.pop_front();
  --ni_flits_;
}

bool NocNetwork::router_in_has_space(std::uint32_t router, std::uint32_t port,
                                     std::uint8_t vc) const {
  return routers_.at(router).in.at(port).q[vc].size() < cfg_.buffer_flits;
}

void NocNetwork::eject(const Flit& flit, Cycle now) {
  if (!flit.tail) return;
  auto it = packets_.find(flit.packet);
  assert(it != packets_.end());
  ++stats_.packets_delivered;
  if (delivery_) delivery_(it->second, now);
  packets_.erase(it);
}

bool NocNetwork::deliver_to_target(const Target& t, Flit flit, Cycle now) {
  switch (t.kind) {
    case Target::Kind::kRouterPort: {
      if (!router_in_has_space(t.index, t.port, flit.vc)) return false;
      flit.ready_at = now + cfg_.link_cycles + cfg_.router_pipeline_cycles;
      push(routers_[t.index], t.port, flit);
      stats_.flit_link_mm += t.wire_mm;
      return true;
    }
    case Target::Kind::kEndpoint:
      eject(flit, now);
      stats_.flit_link_mm += t.wire_mm;
      return true;
    case Target::Kind::kBus: {
      Bus& bus = buses_[t.index];
      if (bus.slots.at(t.port).size() >= cfg_.buffer_flits) return false;
      flit.ready_at = now + 1;  // bus request/arbitration setup
      push(bus, t.port, flit);
      return true;
    }
    case Target::Kind::kNone:
      break;
  }
  assert(false && "flit sent into an unwired target");
  return false;
}

bool NocNetwork::router_output_step(std::uint32_t ri, std::uint32_t po,
                                    std::uint8_t vc, Cycle now) {
  Router& r = routers_[ri];
  OutPort& op = r.out[po];

  int chosen = -1;
  if (op.locked_in[vc] >= 0) {
    // Wormhole: within this virtual network only the owning input sends.
    InPort& ip = r.in[static_cast<std::size_t>(op.locked_in[vc])];
    if (!ip.q[vc].empty() && ip.q[vc].front().ready_at <= now) {
      chosen = op.locked_in[vc];
    }
  } else {
    // Round-robin from `rr`: the occupied inputs at or after it in port
    // order, then those before it.  Empty inputs are never visited.
    auto first_eligible = [&](PortMask inputs) {
      for (; inputs != 0; inputs &= inputs - 1) {
        const auto pi = static_cast<std::size_t>(std::countr_zero(inputs));
        const Flit& f = r.in[pi].q[vc].front();
        if (f.ready_at > now) continue;
        if (!f.head) continue;  // body flits follow their lock
        if (r.route.at(f.dst) != po) continue;
        return static_cast<int>(pi);
      }
      return -1;
    };
    const PortMask from_rr = r.occupied[vc] & (~PortMask{0} << op.rr);
    chosen = first_eligible(from_rr);
    if (chosen < 0) chosen = first_eligible(r.occupied[vc] & ~from_rr);
  }
  if (chosen < 0) return false;

  const auto in_port = static_cast<std::uint32_t>(chosen);
  Flit flit = r.in[in_port].q[vc].front();
  if (!deliver_to_target(op.target, flit, now)) return false;  // back-pressure
  pop(r, in_port, vc);
  ++stats_.flit_router_traversals;
  if (flit.head && !flit.tail) {
    op.locked_in[vc] = chosen;
  } else if (flit.tail) {
    op.locked_in[vc] = -1;
    op.rr = (static_cast<std::size_t>(chosen) + 1) % r.in.size();
  }
  return true;
}

void NocNetwork::tick(Cycle now) {
  // Buses, routers and the NI phase whose occupancy is zero at their turn
  // are skipped: an empty component moves nothing, and its round-robin
  // pointers, wormhole locks and busy_until change only when a flit moves.
  // Occupancy is read at each turn, not once per tick, so a flit handed on
  // earlier in this tick is still seen (it may be ready now when
  // link_cycles = router_pipeline_cycles = 0).
  //
  // 1. Buses: one flit per bus per cycle, wormhole-locked to the granted
  //    slot so multi-flit packets stay contiguous at the receiving router.
  //    The lock is *hard*: even if the owning slot has no flit ready this
  //    cycle, no other slot may use the bus — otherwise two packets
  //    interleave into one router input queue and break worm framing.
  for (Bus& bus : buses_) {
    if (bus.buffered == 0 || bus.busy_until > now) continue;
    const std::size_t n = bus.slots.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t s = bus.locked_slot >= 0
                                ? static_cast<std::size_t>(bus.locked_slot)
                                : (bus.rr + k) % n;
      const FlitQueue& q = bus.slots[s];
      if (bus.locked_slot < 0 &&
          (q.empty() || q.front().ready_at > now || !q.front().head)) {
        continue;  // unlocked bus only grants a fresh head flit
      }
      if (q.empty() || q.front().ready_at > now) break;  // hold bus
      const Flit moving = q.front();
      const Target& t = bus.route.at(moving.dst);
      if (!deliver_to_target(t, moving, now)) break;  // blocked: hold the bus
      pop(bus, static_cast<std::uint32_t>(s));
      ++stats_.flit_bus_transfers;
      bus.busy_until = now + bus.cycles_per_flit;
      if (moving.tail) {
        bus.locked_slot = -1;
        bus.rr = (s + 1) % n;
      } else {
        bus.locked_slot = static_cast<int>(s);
      }
      break;  // one transfer per bus per slot time
    }
  }

  // 2. Routers: every output port moves at most one flit per cycle,
  //    alternating fairly between the two virtual networks (requests may
  //    never starve responses, and vice versa).  A fault-throttled router
  //    is serialised: at most one flit total per window, then it pauses
  //    `throttle` cycles (degraded link retrains every transfer).
  for (std::uint32_t ri = 0; ri < routers_.size(); ++ri) {
    Router& r = routers_[ri];
    if (r.buffered == 0 || (r.throttle > 0 && r.busy_until > now)) continue;
    bool moved = false;
    for (std::uint32_t po = 0; po < r.out.size(); ++po) {
      OutPort& op = r.out[po];
      if (op.target.kind == Target::Kind::kNone) continue;
      const std::uint8_t first = op.vc_rr;
      for (std::uint8_t i = 0; i < kNumVcs; ++i) {
        const auto vc = static_cast<std::uint8_t>((first + i) % kNumVcs);
        if (router_output_step(ri, po, vc, now)) {
          op.vc_rr = static_cast<std::uint8_t>((vc + 1) % kNumVcs);
          moved = true;
          break;
        }
      }
      if (moved && r.throttle > 0) break;  // serialised crossbar
    }
    if (moved && r.throttle > 0) r.busy_until = now + 1 + r.throttle;
  }

  // 3. Endpoint NIs: one flit per cycle enters the fabric.
  if (ni_flits_ == 0) return;
  for (EndpointNi& ni : endpoints_) {
    if (ni.inject_q.empty() || ni.inject_q.front().ready_at > now) continue;
    const Target& t = ni.injection;
    Flit flit = ni.inject_q.front();
    if (t.kind == Target::Kind::kRouterPort) {
      if (!router_in_has_space(t.index, t.port, flit.vc)) continue;
      flit.ready_at = now + cfg_.router_pipeline_cycles;
      push(routers_[t.index], t.port, flit);
      pop(ni);
    } else if (t.kind == Target::Kind::kBus) {
      Bus& bus = buses_[t.index];
      if (bus.slots.at(*ni.bus_slot).size() >= cfg_.buffer_flits) continue;
      flit.ready_at = now + 1;
      push(bus, *ni.bus_slot, flit);
      pop(ni);
    } else {
      assert(false && "endpoint without injection wiring");
    }
  }
}

bool NocNetwork::idle() const { return packets_.empty(); }

Cycle NocNetwork::next_event(Cycle now) const {
  if (packets_.empty()) return kNeverCycle;
  Cycle next = kNeverCycle;
  // Every queued flit sits in exactly one FIFO (NI inject queue, bus
  // slot, or router input buffer); only heads can move, so the earliest
  // head ready_at bounds the next state change.  A head that is already
  // ready may still be blocked by back-pressure or wormhole locks, which
  // this bound conservatively reports as "event now".  Empty NIs, buses
  // and routers hold no head and are skipped via their occupancy.
  if (ni_flits_ > 0) {
    for (const EndpointNi& ni : endpoints_) {
      if (ni.inject_q.empty()) continue;
      if (ni.inject_q.front().ready_at <= now) return now;
      next = std::min(next, ni.inject_q.front().ready_at);
    }
  }
  for (const Bus& bus : buses_) {
    if (bus.buffered == 0) continue;
    for (const FlitQueue& q : bus.slots) {
      if (q.empty()) continue;
      const Cycle ready = std::max(q.front().ready_at, bus.busy_until);
      if (ready <= now) return now;
      next = std::min(next, ready);
    }
  }
  for (const Router& r : routers_) {
    if (r.buffered == 0) continue;
    for (std::uint8_t vc = 0; vc < kNumVcs; ++vc) {
      for (PortMask m = r.occupied[vc]; m != 0; m &= m - 1) {
        const auto pi = static_cast<std::size_t>(std::countr_zero(m));
        Cycle ready = r.in[pi].q[vc].front().ready_at;
        if (r.throttle > 0) ready = std::max(ready, r.busy_until);
        if (ready <= now) return now;
        next = std::min(next, ready);
      }
    }
  }
  return next;
}

}  // namespace mot3d::noc
