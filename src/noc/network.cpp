#include "noc/network.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <string>

#include "obs/trace.hpp"

namespace mot3d::noc {

namespace {

/// The ports numbered `from` and up; `from` may be one past the last port.
constexpr std::uint32_t ports_from(std::uint32_t from) {
  return static_cast<std::uint32_t>(std::uint64_t{0xFFFFFFFF} << from);
}

}  // namespace

NocNetwork::NocNetwork(const NocConfig& cfg,
                       const power::InterconnectPowerModel& power)
    : cfg_(cfg),
      power_(power),
      endpoints_(cfg.num_endpoints()),
      busy_nis_(cfg.num_endpoints()) {}

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
  busy_routers_ = IndexSet(routers_.size());  // nothing is buffered yet
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
  busy_buses_ = IndexSet(buses_.size());
  return static_cast<std::uint32_t>(buses_.size() - 1);
}

std::uint32_t NocNetwork::add_bus_attachment(std::uint32_t bus) {
  Bus& b = buses_.at(bus);
  if (b.slots.size() == kMaxBusSlots) {
    throw std::invalid_argument("bus " + std::to_string(bus) + " already has " +
                                std::to_string(kMaxBusSlots) +
                                " attachments, all its occupancy mask holds");
  }
  b.slots.emplace_back();
  return static_cast<std::uint32_t>(b.slots.size() - 1);
}

void NocNetwork::set_bus_route(std::uint32_t bus, NodeId e, Target target) {
  buses_.at(bus).route.at(e) = target;
}

void NocNetwork::set_endpoint_injection(NodeId e, Target target) {
  endpoints_.at(e).injection = target;
}

void NocNetwork::set_route(std::uint32_t router, NodeId dst, std::uint32_t out_port) {
  Router& r = routers_.at(router);
  if (out_port >= r.out.size()) {
    throw std::invalid_argument(
        "route at router " + std::to_string(router) + " names port " +
        std::to_string(out_port) + " of " + std::to_string(r.out.size()));
  }
  r.route.at(dst) = out_port;
}

void NocNetwork::set_router_throttle(std::uint32_t router, unsigned extra_cycles) {
  routers_.at(router).throttle += extra_cycles;
}

NocNetwork::Message* NocNetwork::inject(NodeId src, NodeId dst,
                                        std::size_t flits, std::uint8_t vc,
                                        Cycle now) {
  EndpointNi& ni = endpoints_.at(src);
  if (ni.inject_q.size() + flits > EndpointNi::kMaxInjectQ) return nullptr;
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  for (std::size_t f = 0; f < flits; ++f) {
    push(ni, Flit{.message = slot, .dst = dst, .head = f == 0,
                  .tail = f + 1 == flits, .vc = vc, .ready_at = now});
  }
  Message& m = slots_[slot];
  m.injected = now;
  return &m;
}

bool NocNetwork::try_inject_request(const MemRequest& req, Cycle now) {
  // The packet fabrics run the full (ungated) configuration: logical ==
  // physical bank.
  Message* m = inject(req.core, cfg_.bank_node(req.bank),
                      1 + (req.is_write ? cfg_.line_flits() : 0), kRequestVc,
                      now);
  if (m == nullptr) return false;
  m->req = req;
  ++stats_.requests_injected;
  return true;
}

bool NocNetwork::try_inject_response(const MemResponse& resp, Cycle now) {
  Message* m = inject(cfg_.bank_node(resp.bank), resp.core,
                      1 + (resp.is_write ? 0 : cfg_.line_flits()), kResponseVc,
                      now);
  if (m == nullptr) return false;
  m->resp = resp;
  ++stats_.responses_injected;
  return true;
}

void NocNetwork::request(Router& r, std::uint32_t port, const Flit& head) {
  const std::uint32_t po = r.route[head.dst];
  r.out[po].requests[head.vc] |= PortMask{1} << port;
  r.requested[head.vc] |= PortMask{1} << po;
}

void NocNetwork::withdraw(Router& r, std::uint32_t port, const Flit& head) {
  const std::uint32_t po = r.route[head.dst];
  PortMask& requests = r.out[po].requests[head.vc];
  requests &= ~(PortMask{1} << port);
  if (requests == 0) r.requested[head.vc] &= ~(PortMask{1} << po);
}

// A queue's front changes only here: a push into an empty queue, or a pop.
// Only then can a request appear or go, so the masks stay exact.
void NocNetwork::push(Router& r, std::uint32_t port, const Flit& flit) {
  FlitQueue& q = r.in[port].q[flit.vc];
  q.push_back(flit);
  if (q.size() > 1) return;
  r.occupied[flit.vc] |= PortMask{1} << port;
  if (flit.head) request(r, port, flit);
  busy_routers_.insert(static_cast<std::size_t>(&r - routers_.data()));
}

void NocNetwork::pop(Router& r, std::uint32_t port, std::uint8_t vc) {
  FlitQueue& q = r.in[port].q[vc];
  if (q.front().head) withdraw(r, port, q.front());
  q.pop_front();
  if (!q.empty()) {
    if (q.front().head) request(r, port, q.front());
    return;
  }
  r.occupied[vc] &= ~(PortMask{1} << port);
  for (const PortMask m : r.occupied) {
    if (m != 0) return;
  }
  busy_routers_.erase(static_cast<std::size_t>(&r - routers_.data()));
}

void NocNetwork::push(Bus& bus, std::uint32_t slot, const Flit& flit) {
  bus.slots[slot].push_back(flit);
  bus.occupied |= PortMask{1} << slot;
  busy_buses_.insert(static_cast<std::size_t>(&bus - buses_.data()));
}

void NocNetwork::pop(Bus& bus, std::uint32_t slot) {
  FlitQueue& q = bus.slots[slot];
  q.pop_front();
  if (!q.empty()) return;
  bus.occupied &= ~(PortMask{1} << slot);
  if (bus.occupied == 0) {
    busy_buses_.erase(static_cast<std::size_t>(&bus - buses_.data()));
  }
}

void NocNetwork::push(EndpointNi& ni, const Flit& flit) {
  ni.inject_q.push_back(flit);
  busy_nis_.insert(static_cast<std::size_t>(&ni - endpoints_.data()));
}

void NocNetwork::pop(EndpointNi& ni) {
  ni.inject_q.pop_front();
  if (ni.inject_q.empty()) {
    busy_nis_.erase(static_cast<std::size_t>(&ni - endpoints_.data()));
  }
}

bool NocNetwork::router_in_has_space(std::uint32_t router, std::uint32_t port,
                                     std::uint8_t vc) const {
  return routers_.at(router).in.at(port).q[vc].size() < cfg_.buffer_flits;
}

void NocNetwork::eject(const Flit& flit, Cycle now) {
  if (!flit.tail) return;
  const Message& m = slots_[flit.message];
  // ts = injection, dur = full in-network latency (queueing +
  // serialisation + hops); recorded only at delivery, which is a model
  // state change in both scheduler modes.
  if (flit.vc == kRequestVc) {
    ++stats_.requests_delivered;
    if (trace_ != nullptr) {
      trace_->complete("route_req", trace_track_, m.injected, now - m.injected,
                       "core", m.req.core, "bank", m.req.bank);
    }
    delivered_requests_.push_back(m.req);
  } else {
    ++stats_.responses_delivered;
    if (trace_ != nullptr) {
      trace_->complete("route_resp", trace_track_, m.injected,
                       now - m.injected, "core", m.resp.core, "bank",
                       m.resp.bank);
    }
    delivered_responses_.push_back(m.resp);
  }
  free_slots_.push_back(flit.message);
}

bool NocNetwork::deliver_to_target(const Target& t, Flit flit, Cycle now) {
  switch (t.kind) {
    case Target::Kind::kRouterPort: {
      if (!router_in_has_space(t.index, t.port, flit.vc)) return false;
      flit.ready_at = now + cfg_.link_cycles + cfg_.router_pipeline_cycles;
      push(routers_[t.index], t.port, flit);
      transport_.flit_link_mm += t.wire_mm;
      return true;
    }
    case Target::Kind::kEndpoint:
      eject(flit, now);
      transport_.flit_link_mm += t.wire_mm;
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
    // Round-robin from `rr` over the inputs requesting this output: those
    // at or after it in port order, then those before it.  Body flits
    // never request (they follow their lock), and neither do inputs whose
    // head is routed elsewhere.
    auto first_ready = [&](PortMask inputs) {
      for (; inputs != 0; inputs &= inputs - 1) {
        const auto pi = static_cast<std::size_t>(std::countr_zero(inputs));
        if (r.in[pi].q[vc].front().ready_at <= now) return static_cast<int>(pi);
      }
      return -1;
    };
    const PortMask from_rr = op.requests[vc] & ports_from(op.rr);
    chosen = first_ready(from_rr);
    if (chosen < 0) chosen = first_ready(op.requests[vc] & ~from_rr);
  }
  if (chosen < 0) return false;

  const auto in_port = static_cast<std::uint32_t>(chosen);
  Flit flit = r.in[in_port].q[vc].front();
  if (!deliver_to_target(op.target, flit, now)) return false;  // back-pressure
  pop(r, in_port, vc);
  ++transport_.flit_router_traversals;
  if (flit.head && !flit.tail) {
    op.locked_in[vc] = chosen;
    r.locked[vc] |= PortMask{1} << po;
  } else if (flit.tail) {
    op.locked_in[vc] = -1;
    r.locked[vc] &= ~(PortMask{1} << po);
    op.rr = (static_cast<std::size_t>(chosen) + 1) % r.in.size();
  }
  return true;
}

void NocNetwork::tick(Cycle now) {
  // Only the buses, routers and NIs in the busy sets take a turn, in
  // ascending index order: an empty component moves nothing, and its
  // round-robin pointers, wormhole locks and busy_until change only when a
  // flit moves.  Each walk re-reads its set at every step, so a component
  // handed a flit earlier in this tick still takes its turn when its index
  // lies ahead (the flit may be ready now when link_cycles =
  // router_pipeline_cycles = 0), exactly as a scan of every component
  // would.
  //
  // 1. Buses: one flit per bus per cycle, wormhole-locked to the granted
  //    slot so multi-flit packets stay contiguous at the receiving router.
  //    The lock is *hard*: even if the owning slot has no flit ready this
  //    cycle, no other slot may use the bus — otherwise two packets
  //    interleave into one router input queue and break worm framing.
  //    An unlocked bus grants the first occupied slot, round-robin from
  //    `rr`, whose front is a ready head flit.  At most one transfer per
  //    bus per slot time; a blocked transfer holds the bus.
  busy_buses_.for_each([&](std::size_t b) {
    Bus& bus = buses_[b];
    if (bus.busy_until > now) return;
    int s = bus.locked_slot;
    if (s < 0) {
      auto first_ready_head = [&](PortMask slots) {
        for (; slots != 0; slots &= slots - 1) {
          const int i = std::countr_zero(slots);
          const Flit& f = bus.slots[static_cast<std::size_t>(i)].front();
          if (f.ready_at <= now && f.head) return i;
        }
        return -1;
      };
      const PortMask from_rr = bus.occupied & ports_from(bus.rr);
      s = first_ready_head(from_rr);
      if (s < 0) s = first_ready_head(bus.occupied & ~from_rr);
      if (s < 0) return;
    }
    const auto slot = static_cast<std::uint32_t>(s);
    const FlitQueue& q = bus.slots[slot];
    if (q.empty() || q.front().ready_at > now) return;  // hold bus
    const Flit moving = q.front();
    const Target& t = bus.route.at(moving.dst);
    if (!deliver_to_target(t, moving, now)) return;  // blocked: hold the bus
    pop(bus, slot);
    ++transport_.flit_bus_transfers;
    bus.busy_until = now + bus.cycles_per_flit;
    if (moving.tail) {
      bus.locked_slot = -1;
      bus.rr = static_cast<std::uint32_t>((slot + 1) % bus.slots.size());
    } else {
      bus.locked_slot = s;
    }
  });

  // 2. Routers: every output port moves at most one flit per cycle,
  //    alternating fairly between the two virtual networks (requests may
  //    never starve responses, and vice versa).  A fault-throttled router
  //    is serialised: at most one flit total per window, then it pauses
  //    `throttle` cycles (degraded link retrains every transfer).
  //
  //    Allocation is input-first: an output takes a turn only on the VCs
  //    where some input requests it or where it holds a wormhole lock; on
  //    any other VC the full arbitration would pick nothing.  The outputs
  //    are walked in port order and the masks re-read at every turn, so a
  //    head that an earlier turn exposed at the front of its queue is seen
  //    by a later output, as the scan of every output saw it.
  busy_routers_.for_each([&](std::size_t ri) {
    Router& r = routers_[ri];
    if (r.throttle > 0 && r.busy_until > now) return;
    auto in_play = [&r](std::uint8_t vc) {
      return r.requested[vc] | r.locked[vc];
    };
    bool moved = false;
    for (std::uint32_t po = 0;; ++po) {
      PortMask outputs = 0;
      for (std::uint8_t vc = 0; vc < kNumVcs; ++vc) outputs |= in_play(vc);
      outputs &= ports_from(po);
      if (outputs == 0) break;
      po = static_cast<std::uint32_t>(std::countr_zero(outputs));
      OutPort& op = r.out[po];
      if (op.target.kind == Target::Kind::kNone) continue;
      const std::uint8_t first = op.vc_rr;
      for (std::uint8_t i = 0; i < kNumVcs; ++i) {
        const auto vc = static_cast<std::uint8_t>((first + i) % kNumVcs);
        if ((in_play(vc) >> po & 1) == 0) continue;
        ++stats_.output_visits;
        if (router_output_step(static_cast<std::uint32_t>(ri), po, vc, now)) {
          op.vc_rr = static_cast<std::uint8_t>((vc + 1) % kNumVcs);
          moved = true;
          break;
        }
      }
      if (moved && r.throttle > 0) break;  // serialised crossbar
    }
    if (moved && r.throttle > 0) r.busy_until = now + 1 + r.throttle;
  });

  // 3. Endpoint NIs: one flit per cycle enters the fabric.
  busy_nis_.for_each([&](std::size_t e) {
    EndpointNi& ni = endpoints_[e];
    if (ni.inject_q.front().ready_at > now) return;
    const Target& t = ni.injection;
    Flit flit = ni.inject_q.front();
    if (t.kind == Target::Kind::kRouterPort) {
      if (!router_in_has_space(t.index, t.port, flit.vc)) return;
      flit.ready_at = now + cfg_.router_pipeline_cycles;
      push(routers_[t.index], t.port, flit);
      pop(ni);
    } else if (t.kind == Target::Kind::kBus) {
      Bus& bus = buses_[t.index];
      if (bus.slots.at(t.port).size() >= cfg_.buffer_flits) return;
      flit.ready_at = now + 1;
      push(bus, t.port, flit);
      pop(ni);
    } else {
      assert(false && "endpoint without injection wiring");
    }
  });
}

Cycle NocNetwork::next_event(Cycle now) const {
  if (idle()) return kNeverCycle;
  Cycle next = kNeverCycle;
  // Every queued flit sits in exactly one FIFO (NI inject queue, bus
  // slot, or router input buffer); only heads can move, so the earliest
  // head ready_at bounds the next state change.  A head that is already
  // ready may still be blocked by back-pressure or wormhole locks, which
  // this bound conservatively reports as "event now".  Only the busy NIs,
  // buses and routers hold a head.
  auto each = [](const IndexSet& set, auto&& f) {
    for (std::size_t i = set.next(0); i != IndexSet::npos; i = set.next(i + 1)) {
      if (f(i)) return true;
    }
    return false;
  };
  auto earliest = [&](Cycle ready) {
    next = std::min(next, ready);
    return ready <= now;
  };
  if (each(busy_nis_, [&](std::size_t e) {
        return earliest(endpoints_[e].inject_q.front().ready_at);
      })) {
    return now;
  }
  if (each(busy_buses_, [&](std::size_t b) {
        const Bus& bus = buses_[b];
        for (PortMask m = bus.occupied; m != 0; m &= m - 1) {
          const auto s = static_cast<std::size_t>(std::countr_zero(m));
          if (earliest(std::max(bus.slots[s].front().ready_at, bus.busy_until))) {
            return true;
          }
        }
        return false;
      })) {
    return now;
  }
  if (each(busy_routers_, [&](std::size_t ri) {
        const Router& r = routers_[ri];
        for (std::uint8_t vc = 0; vc < kNumVcs; ++vc) {
          for (PortMask m = r.occupied[vc]; m != 0; m &= m - 1) {
            const auto pi = static_cast<std::size_t>(std::countr_zero(m));
            Cycle ready = r.in[pi].q[vc].front().ready_at;
            if (r.throttle > 0) ready = std::max(ready, r.busy_until);
            if (earliest(ready)) return true;
          }
        }
        return false;
      })) {
    return now;
  }
  return next;
}

double NocNetwork::dynamic_energy_pj() const {
  const double router_pj =
      static_cast<double>(transport_.flit_router_traversals) *
      power_.router_hop_pj();
  const double link_pj =
      power_.wire_transfer_pj(transport_.flit_link_mm, cfg_.flit_bits);
  // Bus transfers cross the TSV stack: charge the TSV capacitance per bit.
  const double bus_pj = static_cast<double>(transport_.flit_bus_transfers) *
                        power_.wire().tech().tsv_energy_fj_per_bit * 1e-3 *
                        static_cast<double>(cfg_.flit_bits);
  return router_pj + link_pj + bus_pj;
}

double NocNetwork::leakage_mw() const {
  const double routers =
      static_cast<double>(routers_.size()) * power_.router_leakage_mw();
  const double links = power_.wire_leakage_mw(total_link_mm_, cfg_.flit_bits);
  return routers + links;
}

}  // namespace mot3d::noc
