// Test doubles for the memory side: a read sink that records every DRAM
// completion, a bank-side transport that records (or refuses) every L2
// response, and a log that ticks a fabric and drains its deliveries.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/interconnect.hpp"
#include "mem/memory_backend.hpp"

namespace mot3d {

/// Records every completed read, in completion order.
struct RecordingSink final : mem::ReadSink {
  struct Done {
    std::uint32_t requester;
    std::uint64_t tag;
    Addr addr;
    Cycle at;
  };
  std::vector<Done> done;

  void on_read_done(std::uint32_t requester, std::uint64_t tag, Addr addr,
                    Cycle now) override {
    done.push_back(Done{requester, tag, addr, now});
  }
};

/// Accepts every L2 response, recording it and the cycle it left its bank,
/// unless `block` is set.
struct FakeTransport final : Interconnect {
  std::vector<MemResponse> responses;
  std::vector<Cycle> answered_at;
  bool block = false;

  bool try_inject_request(const MemRequest&, Cycle) override { return false; }
  bool try_inject_response(const MemResponse& r, Cycle now) override {
    if (block) return false;
    responses.push_back(r);
    answered_at.push_back(now);
    return true;
  }
  void tick(Cycle) override {}
  bool idle() const override { return true; }
  double dynamic_energy_pj() const override { return 0.0; }
  double leakage_mw() const override { return 0.0; }
};

/// Ticks a fabric and drains its delivery batches responses-first, as
/// Cluster does, recording each delivery with the cycle of its tick.
struct DeliveryLog {
  std::vector<std::pair<MemRequest, Cycle>> requests;
  std::vector<std::pair<MemResponse, Cycle>> responses;

  void tick(Interconnect& icn, Cycle now) {
    icn.tick(now);
    for (const MemResponse& r : icn.delivered_responses()) {
      responses.emplace_back(r, now);
    }
    for (const MemRequest& r : icn.delivered_requests()) {
      requests.emplace_back(r, now);
    }
    icn.clear_deliveries();
  }
};

}  // namespace mot3d
