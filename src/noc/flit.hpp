// Flits for the packet-switched 3-D NoC baselines.
//
// The paper compares its circuit-switched MoT against True 3-D Mesh,
// 3-D Hybrid Bus-Mesh [2] and 3-D Hybrid Bus-Tree [21]; all three are
// wormhole networks with 64-bit flits here.  A 32 B cache line is four
// data flits, so:  read request = 1 flit, write-back request = 1 + 4,
// read response = 1 + 4, write acknowledge = 1.
#pragma once

#include <cstdint>

#include "common/types.hpp"

namespace mot3d::noc {

/// Endpoint id: cores are [0, num_cores), banks [num_cores, num_cores+banks).
using NodeId = std::uint32_t;

struct Flit {
  std::uint32_t message = 0;  ///< the network's slot for its message
  NodeId dst = 0;        ///< destination endpoint (head carries the route)
  bool head = false;
  bool tail = false;
  std::uint8_t vc = 0;   ///< virtual network: 0 = request, 1 = response
  Cycle ready_at = 0;    ///< when this flit clears the current pipeline stage
};

/// Message-class virtual networks.  Requests and responses must not share
/// buffer queues, or a response worm stalled behind a request worm that
/// itself waits on the response's resources deadlocks the fabric (the
/// standard protocol-deadlock argument; see Dally & Towles ch. 14).
inline constexpr std::uint8_t kRequestVc = 0;
inline constexpr std::uint8_t kResponseVc = 1;
inline constexpr std::size_t kNumVcs = 2;

}  // namespace mot3d::noc
