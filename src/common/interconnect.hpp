// Abstract on-chip interconnect: the pluggable transport between the cores'
// L1 miss ports and the stacked L2 banks.
//
// Implementations: the paper's circuit-switched reconfigurable 3-D MoT
// (src/core) and the three packet-switched baselines it is compared against
// (src/noc: True 3-D Mesh, 3-D Hybrid Bus-Mesh, 3-D Hybrid Bus-Tree).
#pragma once

#include <cstdint>
#include <vector>

#include "common/messages.hpp"
#include "common/types.hpp"

namespace mot3d::obs {
class TraceBuffer;
}  // namespace mot3d::obs

namespace mot3d {

/// Transport-level counters common to every interconnect.
struct InterconnectStats {
  std::uint64_t requests_injected = 0;
  std::uint64_t requests_delivered = 0;
  std::uint64_t responses_injected = 0;
  std::uint64_t responses_delivered = 0;
  std::uint64_t arbitration_wait_cycles = 0;  ///< (MoT) lost-arbitration cycles
  /// (Packet fabrics) router (output, VC) arbitration attempts; always 0 on
  /// the MoT.  Host work like SimResult::core_ticks, not a modeled number:
  /// the dense scheduler ticks the fabric more often than the event one,
  /// so the run JSON never carries it; `bench --baseline` matches it.
  std::uint64_t output_visits = 0;
};

/// Cycle-driven transport.  The cluster drives tick() once per cycle after
/// the cores; tick() appends each delivery to delivered_requests() /
/// delivered_responses(), which the caller drains afterwards.
///
/// Implementations additionally honour the *next-event contract* (see
/// DESIGN.md): next_event(now) returns the earliest cycle >= now at which
/// tick() could change any observable state or statistic.  A tick() at any
/// cycle strictly before that value must be a no-op, which lets the cluster
/// scheduler fast-forward over quiescent stretches without changing modeled
/// results.
class Interconnect {
 public:
  virtual ~Interconnect() = default;

  /// Core-side injection; false == port busy this cycle (retry next tick).
  virtual bool try_inject_request(const MemRequest& req, Cycle now) = 0;

  /// Bank-side injection; false == port busy this cycle.
  virtual bool try_inject_response(const MemResponse& resp, Cycle now) = 0;

  /// Advance one cycle; appends this cycle's deliveries to the batches.
  virtual void tick(Cycle now) = 0;

  /// Nothing in flight.
  virtual bool idle() const = 0;

  /// Earliest cycle >= `now` at which tick() could change state or stats;
  /// kNeverCycle when nothing will ever happen without new input.  The
  /// default is maximally conservative (an event every cycle), which keeps
  /// unknown implementations correct but disables cycle skipping.
  virtual Cycle next_event(Cycle now) const { return now; }

  /// Cumulative transport dynamic energy, pJ.
  virtual double dynamic_energy_pj() const = 0;

  /// Leakage power of the (currently powered) network, mW.
  virtual double leakage_mw() const = 0;

  /// The deliveries of the ticks since the last clear_deliveries(), each
  /// class in delivery order.  A request's `bank` is already the physical
  /// bank (power-gating remap applied by the routing switches).  Callers
  /// drain responses first, then requests.  The MoT delivers in that order
  /// within a tick; the bus NoCs interleave the two classes.  Draining
  /// after tick() still models what handling each delivery as it is made
  /// would, because the two classes touch disjoint model state
  /// (responses: core state and latency histograms; requests: bank queues
  /// and directory slices).  See DESIGN.md.
  const std::vector<MemRequest>& delivered_requests() const {
    return delivered_requests_;
  }
  const std::vector<MemResponse>& delivered_responses() const {
    return delivered_responses_;
  }
  void clear_deliveries() {
    delivered_requests_.clear();
    delivered_responses_.clear();
  }

  const InterconnectStats& stats() const { return stats_; }

  /// Observability: point the fabric at a trace sink (null = off) and
  /// the track id its events are stamped with.  Implementations record
  /// grant/route events only on model state changes, never on failed
  /// injection attempts — a retry polled every cycle is invisible to the
  /// event-driven scheduler, and recording it would break the
  /// dense-vs-event trace differential.
  void set_trace(obs::TraceBuffer* trace, std::uint32_t track) {
    trace_ = trace;
    trace_track_ = track;
  }

 protected:
  std::vector<MemRequest> delivered_requests_;
  std::vector<MemResponse> delivered_responses_;
  InterconnectStats stats_;
  obs::TraceBuffer* trace_ = nullptr;  ///< null = observability off
  std::uint32_t trace_track_ = 0;
};

}  // namespace mot3d
