#include "noc/noc_interconnect.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace mot3d::noc {

const char* topology_name(NocTopology t) {
  switch (t) {
    case NocTopology::kTrueMesh3d: return "True 3-D Mesh";
    case NocTopology::kHybridBusMesh: return "3-D Hybrid Bus-Mesh";
    case NocTopology::kHybridBusTree: return "3-D Hybrid Bus-Tree";
  }
  return "?";
}

namespace {
NocNetwork build(NocTopology t, const NocConfig& cfg) {
  switch (t) {
    case NocTopology::kTrueMesh3d: return build_true_mesh_3d(cfg);
    case NocTopology::kHybridBusMesh: return build_hybrid_bus_mesh(cfg);
    case NocTopology::kHybridBusTree: return build_hybrid_bus_tree(cfg);
  }
  throw std::invalid_argument("unknown topology");
}
}  // namespace

NocInterconnect::NocInterconnect(NocTopology topology, const NocConfig& cfg,
                                 const power::InterconnectPowerModel& power)
    : topology_(topology), net_(build(topology, cfg)), power_(power) {
  net_.set_delivery([this](const Packet& p, Cycle now) {
    if (p.kind == PacketKind::kRequest) {
      ++stats_.requests_delivered;
      if (trace_ != nullptr) {
        // ts = injection, dur = full in-network latency (queueing +
        // serialisation + hops); recorded only at delivery, which is a
        // model state change in both scheduler modes.
        trace_->complete("route_req", trace_track_, p.created,
                         now - p.created, "core", p.req.core, "bank",
                         p.req.bank);
      }
      delivered_requests_.push_back(p.req);
    } else {
      ++stats_.responses_delivered;
      if (trace_ != nullptr) {
        trace_->complete("route_resp", trace_track_, p.created,
                         now - p.created, "core", p.resp.core, "bank",
                         p.resp.bank);
      }
      delivered_responses_.push_back(p.resp);
    }
  });
}

bool NocInterconnect::try_inject_request(const MemRequest& req, Cycle now) {
  Packet p;
  p.id = next_packet_++;
  p.kind = PacketKind::kRequest;
  p.src = core_node(req.core);
  p.dst = bank_node(req.bank);  // the NoC baselines run the full (ungated)
                                // configuration: logical == physical bank
  p.length_flits = 1 + (req.is_write ? net_.config().line_flits() : 0);
  p.created = now;
  p.req = req;
  if (!net_.try_inject(p, now)) {
    --next_packet_;
    return false;
  }
  ++stats_.requests_injected;
  return true;
}

bool NocInterconnect::try_inject_response(const MemResponse& resp, Cycle now) {
  Packet p;
  p.id = next_packet_++;
  p.kind = PacketKind::kResponse;
  p.src = bank_node(resp.bank);
  p.dst = core_node(resp.core);
  p.length_flits = 1 + (resp.is_write ? 0 : net_.config().line_flits());
  p.created = now;
  p.resp = resp;
  if (!net_.try_inject(p, now)) {
    --next_packet_;
    return false;
  }
  ++stats_.responses_injected;
  return true;
}

void NocInterconnect::tick(Cycle now) {
  net_.tick(now);
  stats_.output_visits = net_.output_visits();
}

double NocInterconnect::dynamic_energy_pj() const {
  const NocTransportStats& s = net_.transport_stats();
  const double router_pj =
      static_cast<double>(s.flit_router_traversals) * power_.router_hop_pj();
  const double link_pj =
      power_.wire_transfer_pj(s.flit_link_mm, net_.config().flit_bits);
  // Bus transfers cross the TSV stack: charge the TSV capacitance per bit.
  const double bus_pj = static_cast<double>(s.flit_bus_transfers) *
                        power_.wire().tech().tsv_energy_fj_per_bit * 1e-3 *
                        static_cast<double>(net_.config().flit_bits);
  return router_pj + link_pj + bus_pj;
}

double NocInterconnect::leakage_mw() const {
  const double routers =
      static_cast<double>(net_.num_routers()) * power_.router_leakage_mw();
  const double links =
      power_.wire_leakage_mw(net_.total_link_mm(), net_.config().flit_bits);
  return routers + links;
}

std::unique_ptr<NocInterconnect> make_noc(NocTopology topology, const NocConfig& cfg,
                                          const power::InterconnectPowerModel& power) {
  return std::make_unique<NocInterconnect>(topology, cfg, power);
}

}  // namespace mot3d::noc
