// Deterministic synthetic trace generation from an AppProfile.
//
// A Workload instance describes one benchmark run on `num_threads` cores.
// All cores share one barrier-fenced phase plan (alternating parallel and
// serial phases; serial work runs on thread 0 while the others spin), so
// the Amdahl behaviour and the barrier spin energy emerge naturally in the
// core model rather than being asserted analytically.
//
// Generation is lazy — records are produced on demand, so a multi-million
// instruction run needs O(1) memory per core — and fully deterministic in
// (profile, num_threads, scale, seed).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ring_buffer.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "cpu/trace.hpp"
#include "workload/app_profile.hpp"

namespace mot3d::workload {

/// The barrier-fenced execution skeleton shared by all cores of a run.
struct PhasePlan {
  struct Phase {
    bool serial = false;           ///< all work on thread 0
    std::uint64_t instructions = 0;///< total work in this phase
    std::uint32_t barrier_id = 0;  ///< barrier closing this phase
  };
  std::vector<Phase> phases;
  std::uint32_t num_barriers = 0;

  static PhasePlan build(const AppProfile& profile, double scale);
};

/// Address-space layout constants for the synthetic streams.
struct AddressMap {
  static constexpr Addr kPrivateBase = 0x4000'0000;
  /// 2 MB per core slot, staggered by 40 KB so that different cores'
  /// private regions land on different L2 sets.  (The L2 set period is
  /// 32 banks * 256 sets * 32 B = 256 KB; an exact 2 MB stride would alias
  /// every core onto the same sets.  Real systems get this spread from
  /// page-colouring in the OS's virtual-to-physical mapping.)
  static constexpr Addr kPrivateStride = 0x0020'0000 + 0x0000'A000;
  static constexpr Addr kSharedBase = 0x8000'0000;
  static constexpr Addr kCodeBase = 0x0001'0000;

  static Addr private_base(std::size_t thread) {
    return kPrivateBase + static_cast<Addr>(thread) * kPrivateStride;
  }
};

/// Per-core lazy record stream.
class SyntheticTrace final : public cpu::TraceSource {
 public:
  SyntheticTrace(const AppProfile& profile, const PhasePlan& plan,
                 std::size_t thread, std::size_t num_threads, std::uint64_t seed);

  cpu::TraceRecord next() override;

 private:
  /// One data reference with its operation: coherent sharing patterns must
  /// correlate op and address (a producer *writes* its chunk), which the
  /// independent op/addr draws of the legacy stream cannot express.
  struct DataAccess {
    MemOp op = MemOp::kLoad;
    Addr addr = 0;
  };

  void refill();
  std::uint64_t phase_share(std::size_t phase_idx) const;
  Addr next_data_addr();
  Addr next_code_addr();

  // -- region walkers shared by the legacy and coherent paths (exact RNG
  //    draw order preserved for kNone profiles) --
  MemOp draw_op();
  Addr stack_addr();
  Addr shared_walk_addr();
  Addr private_addr();

  /// Pattern-specific (op, addr) for profiles with a sharing pattern.
  DataAccess next_coherent_access();

  const AppProfile& profile_;
  const PhasePlan& plan_;
  std::size_t thread_;
  std::size_t num_threads_;
  std::uint64_t seed_;
  Rng rng_;

  std::size_t phase_idx_ = 0;
  std::uint64_t share_remaining_ = 0;
  bool phase_initialised_ = false;
  double ifetch_credit_ = 0.0;

  // spatial-locality walkers
  Addr private_ptr_;
  Addr shared_ptr_;
  Addr code_ptr_;
  Addr stack_ptr_;
  std::uint32_t private_run_ = 0;
  std::uint32_t shared_run_ = 0;

  // sharing-pattern walkers (coherent profiles only)
  Addr prod_off_ = 0;               ///< producer-consumer: own-chunk cursor
  Addr cons_off_ = 0;               ///< producer-consumer: peer-chunk cursor
  std::uint64_t migr_obj_ = 0;      ///< migratory: current record
  std::uint32_t migr_phase_ = 0;    ///< migratory: read/modify alternation
  std::size_t a2a_peer_ = 0;        ///< all-to-all: peer slot being read
  Addr a2a_own_off_ = 0;
  Addr a2a_peer_off_ = 0;

  RingBuffer<cpu::TraceRecord> buffer_;  ///< at most 3 records per refill
};

/// One benchmark run: builds the shared plan and per-core streams.
class Workload {
 public:
  /// `scale` multiplies the profile's work_instructions (benches use < 1 to
  /// keep runs fast; results are shape-stable in scale).
  Workload(AppProfile profile, std::size_t num_threads, double scale,
           std::uint64_t seed);

  /// Stream for thread `t` (0-based).  Each call creates a fresh,
  /// independent generator over the same plan.
  std::unique_ptr<SyntheticTrace> make_trace(std::size_t thread) const;

  const AppProfile& profile() const { return profile_; }
  const PhasePlan& plan() const { return plan_; }

 private:
  AppProfile profile_;
  std::size_t num_threads_;
  std::uint64_t seed_;
  PhasePlan plan_;
};

}  // namespace mot3d::workload
