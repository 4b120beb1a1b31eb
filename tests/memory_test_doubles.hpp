// Test doubles for the memory side: a read sink that records every DRAM
// completion, and a bank-side transport that records (or refuses) every
// L2 response.
#pragma once

#include <cstdint>
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

  const char* name() const override { return "fake"; }
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

}  // namespace mot3d
