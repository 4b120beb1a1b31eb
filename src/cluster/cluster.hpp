// The 3-D multi-core cluster system model (paper Fig. 1): 16 in-order cores
// with private L1s on the core tier, a 32-bank shared L2 stacked above it,
// a pluggable on-chip interconnect between them (circuit-switched MoT or
// one of the packet-switched baselines), and an off-cluster DRAM behind the
// round-robin Miss bus.  This is the Graphite-substitute [11] that runs the
// synthetic SPLASH-2 workloads and produces every number in Figs. 6-8.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cacti/sram_model.hpp"
#include "coherence/directory.hpp"
#include "common/index_set.hpp"
#include "common/interconnect.hpp"
#include "common/types.hpp"
#include "core/mot_interconnect.hpp"
#include "core/power_state.hpp"
#include "cpu/barrier.hpp"
#include "cpu/core.hpp"
#include "dram3d/stacked_dram.hpp"
#include "dram3d/vault_remap.hpp"
#include "fault/degradation.hpp"
#include "fault/fault_schedule.hpp"
#include "fault/watchdog.hpp"
#include "mem/dram.hpp"
#include "mem/l2_system.hpp"
#include "noc/network.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_config.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "phys/geometry.hpp"
#include "phys/technology.hpp"
#include "power/core_power.hpp"
#include "power/energy_ledger.hpp"
#include "power/interconnect_power.hpp"
#include "thermal/governor.hpp"
#include "thermal/thermal_model.hpp"
#include "workload/synthetic_trace.hpp"

namespace mot3d::cluster {

/// Which transport connects cores to the stacked L2.
enum class Fabric { kMot, kTrueMesh3d, kHybridBusMesh, kHybridBusTree };

const char* fabric_name(Fabric f);

/// How Cluster::run() and step() advance simulated time.
///
/// kEventDriven fast-forwards over quiescent stretches (every component
/// reports, via the next-event contract of DESIGN.md, the earliest cycle it
/// can change state; when that is in the future the scheduler jumps there,
/// batch-accounting per-cycle core statistics).  All modeled results are
/// bit-identical to kDenseTick, the reference per-cycle loop, which is kept
/// for differential testing.
enum class SchedulerMode { kEventDriven, kDenseTick };

const char* scheduler_name(SchedulerMode m);

struct ClusterConfig {
  // -- architecture (Table I) --
  std::size_t total_cores = 16;
  std::size_t total_banks = 32;
  mem::L2Config l2;                     ///< timing/energy filled from CACTI-lite
  mem::DramPreset dram_preset = mem::DramPreset::kDdr3_200ns;
  mem::DramConfig dram;                 ///< latency overridden by the preset
  /// Memory backend selector: false (default) = the constant-latency
  /// preset controller; true = the 3-D stacked vault backend (src/dram3d).
  bool stacked_dram = false;
  dram3d::Dram3dConfig dram3d;          ///< stacked-backend geometry/timing
  /// Thermal-aware vault remapping (needs stacked_dram + thermal.enabled).
  dram3d::VaultRemapConfig vault_remap;

  // -- interconnect --
  Fabric fabric = Fabric::kMot;
  core::PowerState power_state = core::PowerState::full();

  // -- physical / power models --
  phys::TechnologyParams tech = phys::default_technology();
  phys::FloorplanParams floorplan;
  cacti::SramBankConfig l2_bank_sram;
  power::CorePowerParams core_power;

  // -- workload --
  workload::AppProfile app;
  double scale = 0.25;                  ///< fraction of the profile's work
  std::uint64_t seed = 42;

  // -- thermal subsystem (disabled by default; see src/thermal/) --
  thermal::ThermalConfig thermal;

  // -- fault injection + watchdog (disabled by default; see src/fault/) --
  fault::FaultConfig fault;
  /// The watchdog also auto-engages whenever faults are enabled (a dropped
  /// message must never wedge a run); this config enables it standalone
  /// (e.g. mot3d_experiments --timeout) and tunes its intervals.
  fault::WatchdogConfig watchdog;

  // -- observability (disabled by default; see src/obs/) --
  obs::ObsConfig obs;

  // -- simulation --
  SchedulerMode scheduler = SchedulerMode::kEventDriven;
  /// Pre-load each core's L1I with the app's code footprint.  Scaled-down
  /// traces over-weight cold-start instruction misses; the paper's numbers
  /// are steady-state over full SPLASH-2 runs.
  bool warm_instruction_caches = true;
};

/// Everything a bench needs from one run.
struct SimResult {
  std::string app;
  std::string fabric;
  std::string power_state;
  double dram_latency_ns = 0.0;

  Cycle cycles = 0;
  std::uint64_t instructions = 0;

  // L2 access latency measured at the cores: injection -> response.
  obs::LatencyHistogram l2_latency;      ///< all L2 transactions
  obs::LatencyHistogram l2_hit_latency;  ///< L2 hits only (interconnect + bank)

  mem::L2Stats l2;
  mem::DramStats dram;
  InterconnectStats interconnect;
  std::size_t l2_resident_lines = 0;  ///< footprint left in the L2 at the end
  double l1d_miss_rate = 0.0;
  double l1i_miss_rate = 0.0;

  /// Per-bank hit-rate spread over the active banks that saw traffic — the
  /// interleave-balance signal the bank-conflict counter alone hides.
  double l2_bank_hit_rate_min = 0.0;
  double l2_bank_hit_rate_max = 0.0;
  double l2_bank_hit_rate_spread = 0.0;  ///< max - min

  /// Directory-MESI traffic (enabled == false when the run's workload has
  /// no sharing pattern and the coherence subsystem stayed detached).
  bool coherence_enabled = false;
  coherence::CoherenceStats coherence;
  std::size_t coh_dir_entries = 0;  ///< final directory occupancy

  power::EnergyLedger energy;
  double edp_pj_s = 0.0;
  double avg_power_w = 0.0;

  /// Thermal trajectory + governor activity (enabled == false when the
  /// run had no thermal subsystem).
  thermal::ThermalSummary thermal;

  /// Fault-injection trajectory (enabled == false when the run had no
  /// fault schedule).  outcome == "failed" means the run ended early on an
  /// unrecoverable topology with partial results.
  fault::FaultSummary fault;

  /// Stacked-DRAM trajectory (enabled == false on the constant backend;
  /// the dram3d_* scenario-JSON fields then stay absent).
  dram3d::Dram3dSummary dram3d;

  /// Observability digests (enabled == false when tracing/metrics were
  /// off; the obs_* scenario-JSON fields then stay absent).
  obs::ObsSummary obs;
  /// Host wall-seconds per simulator phase (valid only when
  /// ObsConfig::phase_timing was on; `bench --json` reports it).
  obs::PhaseSeconds phase_seconds;
  /// Core::tick calls the run made.  Host-side work, not a modeled number:
  /// the dense scheduler ticks every unfrozen core every cycle, the event
  /// scheduler only the cores that can act.  The canonical run JSON never
  /// carries it; `bench --baseline` matches it exactly.
  std::uint64_t core_ticks = 0;
  /// The run's full event trace / sampled metrics; null unless the
  /// corresponding ObsConfig switch was on.  Shared with the cluster
  /// (the buffers are immutable after run()).
  std::shared_ptr<const obs::TraceBuffer> trace;
  std::shared_ptr<const obs::MetricsRegistry> metrics;

  std::vector<cpu::CoreStats> cores;  ///< active cores only

  double ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) / static_cast<double>(cycles);
  }
};

/// Build-and-run system simulator.
class Cluster final : private mem::ReadSink {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Run to completion (all cores done, all queues drained).
  SimResult run();

  /// Advance `cycles` cycles of the run loop under the configured
  /// scheduler, polls included (examples / reconfiguration demos), then
  /// catch every core's counters up; stops early if an unrecoverable fault
  /// failed the run.  A step past the end of the run just advances the
  /// clock, as dense ticks of a finished cluster do.
  void step(Cycle cycles);

  /// Current simulation time.
  Cycle now() const { return now_; }
  bool finished() const;

  /// Component access for examples and tests.
  Interconnect& interconnect() { return *interconnect_; }
  core::MotInterconnect* mot() { return mot_; }
  mem::L2System& l2() { return *l2_; }
  mem::MemoryBackend& dram() { return *dram_; }

  /// Snapshot results so far: after run() (which calls this at
  /// completion) or step(), when every core's counters are caught up.
  SimResult collect_result() const;

 private:
  /// One iteration of the run loop, the whole body of run() and step():
  /// the livelock guard (kMaxCycles), poll(), the failed-run exit, then
  /// (event mode) a jump to the next event, but no further than `limit`,
  /// when nothing can happen this cycle, else one tick.  Returns false
  /// once an unrecoverable fault failed the run.
  bool advance(Cycle limit);

  /// One cycle in the fixed phase order: cores, coherence acks, demand
  /// injection, interconnect (+ delivery drain), L2, DRAM.  `timed` stamps
  /// steady_clock between phases for the 1-in-64 PhaseTimer sample; clock
  /// reads never touch model state, so timing a run cannot perturb its
  /// modeled metrics.
  void tick(bool timed);

  /// Where every DRAM read ends, called from inside the backend's tick()
  /// before its arbitration (so a refill's dirty victim is granted this
  /// cycle): bank refills (requesters below total_banks) go to the L2,
  /// instruction refills to their core.
  void on_read_done(std::uint32_t requester, std::uint64_t tag, Addr addr,
                    Cycle now) override;

  /// Hand one fabric-delivered response to its core (or the L1 snoop
  /// controller for invalidations), recording the latency sample.
  void deliver_response(const MemResponse& resp);

  /// Drain the interconnect's batched deliveries after its tick():
  /// responses first, then requests — the in-tick phase order (see the
  /// equivalence note in common/interconnect.hpp).
  void drain_fabric_deliveries();

  /// Per-cycle injection phase: coherence acknowledgements first (they
  /// flow even while cores are clock-held), then the demand request of
  /// each unfrozen core.  Split so the timed tick can attribute the two
  /// halves to different phases.  Both walk only the cores in their set
  /// (acking_, injecting_), in arena order, under either scheduler.
  void inject_coherence_acks();
  void inject_demand_requests();

  // -- per-core work sets (arena slots; DESIGN.md "Cores that can act") --

  /// Arena slot of active core `c`.
  std::size_t slot_of(CoreId c) const {
    return static_cast<std::size_t>(cores_[c] - core_arena_.data());
  }

  /// Re-file slot `i` after its core ticked or took a message: the
  /// injecting_ and done_ sets (both schedulers) and, in an event-driven
  /// run, its wake — due next cycle, a timed wake at the end of a compute
  /// burst, or asleep until a delivery or a barrier release.
  void file_core(std::size_t i);

  /// Event-mode core phase: tick only the due cores, in arena order.
  void tick_due_cores();

  /// Account slot `i`'s slept cycles up to `to` through Core::skip, just
  /// before anything reads its counters or changes its state.  A no-op
  /// under the dense scheduler and while the cores are clock-held (held
  /// cycles accrue nothing).
  void catch_up(std::size_t i, Cycle to);

  /// catch_up() every core to now_: boundaries that read core counters.
  void sync_cores();

  /// Rebuild the wake set from the cores' states, synced at now_ (event
  /// mode: at construction and whenever a clock hold ends).
  void refile_cores();

  /// Minimum over every component's next_event(now_) and every subsystem
  /// boundary (thermal sample, metrics epoch, next fault, watchdog check,
  /// unfreeze point); never below now_.  The boundaries are events, so
  /// both schedulers visit them at the exact same cycles.
  Cycle next_event_cycle() const;

  /// Top of every loop iteration, strictly ordered so the byte-identical
  /// guarantee holds for every subsystem combination: drain completion,
  /// thermal boundary, faults, the freeze fold, watchdog, metrics.  The
  /// idle path is a handful of compares: it runs every iteration.
  void poll();

  // -- drain / freeze state shared by the governor, vault remap and faults --

  /// A reconfiguration or vault swap is waiting for the transport to drain.
  bool draining() const {
    return drain_target_.has_value() || pending_vault_swap_.has_value();
  }

  /// Apply the pending drain's payload (reconfiguration or vault swap)
  /// once the transport is quiescent; the reconfiguration's reprogramming
  /// delay or the swap's migration freeze sets frozen_until_.
  void try_complete_drain();

  /// Cores are clock-held (governor throttle or reconfiguration drain).
  void set_frozen(bool frozen);

  // -- thermal subsystem plumbing (only reached when thermal_ is set) --

  /// Close the power books of [last_thermal_cycle_, now_) and feed the
  /// interval into the thermal model's leakage fixed point.
  void thermal_sample_interval();

  /// Per-tile power sources of the current interval from ledger deltas.
  thermal::ThermalSources thermal_build_sources(
      const power::EnergyLedger& delta, Cycle interval);

  /// Refresh per-vault temperatures from the RC solver after a thermal
  /// step and track the running peak (no-op without the stacked backend).
  void update_vault_thermal();

  /// Sampling boundary (now_ == next_thermal_cycle_): close the interval's
  /// power books, step the RC model, let the governor and the vault remap
  /// policy react.
  void thermal_boundary();

  /// Account the final partial interval and stop throttle accounting.
  void thermal_finalize();

  /// Dynamic energy accumulated so far by every component, in the same
  /// per-component order collect_result() uses (so the two agree to the
  /// last bit).  Used for interval deltas via EnergyLedger::delta_since.
  void accumulate_dynamic_energy(power::EnergyLedger& ledger) const;

  // -- fault subsystem plumbing (only reached when fault_sched_ is set) --

  /// Promote a deferred hard fault once no drain is in flight, then inject
  /// every fault event due by now_.
  void fault_poll();

  /// Execute the degradation policy's reaction to one fault event.
  void apply_fault(const fault::FaultEvent& ev);

  void mark_degraded() {
    if (first_degraded_cycle_ == kNeverCycle) first_degraded_cycle_ = now_;
  }

  /// Evaluate the watchdog at a check boundary; throws WatchdogError.
  void watchdog_poll();

  // -- observability plumbing (all no-ops when cfg_.obs is all-off) --

  /// Tail metrics sample at the run's final cycle (if not already on a
  /// boundary) so short runs export at least one row.
  void obs_finalize();

  /// One metrics row at now_: every interval counter, read from the
  /// components' stats (the one place the metric names are spelled).
  void sample_metrics();

  /// Monotone count of real forward progress (instructions, L2/DRAM
  /// traffic, delivered messages) — frozen exactly when the run is wedged.
  std::uint64_t progress_signature() const;

  /// Per-core / per-bank parked-state dump for watchdog and deadlock
  /// diagnostics (syncs the cores first).
  std::string progress_dump();

  // -- what every loop iteration reads, declared ahead of cfg_ so that a
  //    config edit never moves it --

  /// The scheduler, fixed at construction: event mode ticks only the due
  /// cores and jumps over cycles in which nothing can happen.
  const bool event_driven_;
  bool cores_frozen_ = false;   ///< clock-held (governor or drain)
  bool governor_hold_ = false;  ///< governor demands held cores
  bool run_failed_ = false;     ///< unrecoverable topology
  bool obs_hist_ = false;       ///< record latency histograms this run
  Cycle now_ = 0;
  Cycle frozen_until_ = 0;      ///< reprogramming delay after apply
  // Subsystem boundaries; kNeverCycle while the subsystem is off.
  Cycle next_thermal_cycle_ = kNeverCycle;
  Cycle next_metrics_cycle_ = kNeverCycle;
  Cycle next_fault_cycle_ = kNeverCycle;     ///< next schedule entry's cycle
  Cycle next_watchdog_cycle_ = kNeverCycle;  ///< watchdog_->next_check_cycle()
  std::optional<core::PowerState> drain_target_;  ///< reconfiguration drain
  /// A thermal vault swap waiting for the same drain (never set together
  /// with drain_target_: the governor and the remap policy defer to an
  /// in-flight drain and re-decide at a later boundary).
  std::optional<dram3d::VaultSwap> pending_vault_swap_;

  std::unique_ptr<mem::MemoryBackend> dram_;
  dram3d::StackedDram* stacked_ = nullptr;  ///< non-null iff cfg_.stacked_dram
  std::unique_ptr<mem::L2System> l2_;
  std::unique_ptr<coherence::CoherenceDirectory> coh_dir_;  ///< sharing runs
  std::unique_ptr<Interconnect> interconnect_;
  core::MotInterconnect* mot_ = nullptr;  ///< non-null when fabric == kMot
  noc::NocNetwork* noc_ = nullptr;        ///< non-null for packet fabrics
  /// Trace sink: unbounded under cfg_.obs.trace, else a bounded
  /// flight-recorder ring on fault runs (which always carry a watchdog);
  /// never for timeout-only watchdogs — the perf guardrail uses those.
  /// shared_ptr because the const collect_result() hands it to SimResult.
  std::shared_ptr<obs::TraceBuffer> trace_;
  std::unique_ptr<obs::PhaseTimer> phase_timer_;

  /// Active cores live contiguously in thread order (the order every
  /// per-core loop and FP accumulation uses), so the per-cycle core sweep
  /// walks a flat arena instead of chasing per-core heap allocations.
  std::vector<cpu::Core> core_arena_;
  std::vector<cpu::Core*> cores_;  ///< by CoreId into the arena; null if gated
  // Per-core work sets by arena slot, kept under both schedulers.
  IndexSet injecting_;  ///< a demand request waits for a fabric slot
  IndexSet acking_;     ///< coherence acknowledgements queued
  IndexSet done_;       ///< trace finished (finished() reads the count)
  std::uint64_t core_ticks_ = 0;
  // The wake set, live only in an event-driven run.
  IndexSet due_;       ///< tick this cycle
  IndexSet spinning_;  ///< asleep at a barrier not yet released
  /// Min-heap of (cycle, slot): compute bursts end and the core is due.
  std::vector<std::pair<Cycle, std::uint32_t>> timed_wakes_;
  /// Slot i's counters are accounted for every cycle before synced_[i].
  std::vector<Cycle> synced_;
  obs::LatencyHistogram l2_latency_;
  obs::LatencyHistogram l2_hit_latency_;

  // -- configuration and per-run setup --
  ClusterConfig cfg_;
  std::unique_ptr<core::MotTimingModel> mot_timing_;
  cpu::BarrierController barriers_;
  std::unique_ptr<workload::Workload> workload_;
  std::vector<std::unique_ptr<workload::SyntheticTrace>> traces_;
  std::vector<CoreId> active_cores_;

  // -- thermal subsystem state (engaged only when cfg_.thermal.enabled) --
  std::unique_ptr<thermal::ThermalModel> thermal_;
  std::unique_ptr<thermal::ThermalGovernor> governor_;
  power::EnergyLedger thermal_prev_snap_;   ///< ledger at the last boundary
  std::vector<std::uint64_t> prev_core_instr_, prev_core_spin_, prev_core_l1_;
  std::vector<std::uint64_t> prev_bank_accesses_;
  Cycle last_thermal_cycle_ = 0;
  std::unique_ptr<dram3d::VaultRemapPolicy> vault_remap_;
  std::vector<double> vault_temp_c_;        ///< per-physical-vault, last sample
  std::vector<double> prev_vault_energy_;   ///< per-vault pJ at last boundary
  double peak_vault_c_ = 0.0;
  std::size_t peak_vault_ = 0;
  Cycle freeze_begin_ = 0;
  std::uint64_t throttled_cycles_ = 0;
  std::uint64_t frozen_at_last_sample_ = 0;  ///< clock-tree gating bookkeeping
  double governor_flush_pj_ = 0.0;          ///< bank-flush reads of demotions
  double clock_tree_pj_ = 0.0;              ///< flat (non-thermal) core static

  // -- fault subsystem state (engaged only when cfg_.fault.enabled) --
  std::unique_ptr<fault::FaultSchedule> fault_sched_;
  std::unique_ptr<fault::DegradationManager> degrade_;
  std::size_t fault_event_idx_ = 0;         ///< next schedule entry to fire
  std::deque<fault::FaultEvent> deferred_faults_;  ///< queued behind a drain
  fault::FaultSummary fault_summary_;
  std::uint64_t drop_invalidates_remaining_ = 0;  ///< directed-test wedge
  Cycle first_degraded_cycle_ = kNeverCycle;
  std::string fail_reason_;
  double fault_repair_pj_ = 0.0;            ///< repair actions (ledger: icn)

  // -- watchdog (engaged when cfg_.watchdog.enabled or faults are on) --
  std::unique_ptr<fault::Watchdog> watchdog_;

  // -- observability state (engaged only via cfg_.obs; see src/obs/) --
  std::shared_ptr<obs::MetricsRegistry> metrics_;
  obs::LatencyHistogram obs_inv_rt_, obs_dram_;
  std::vector<obs::LatencyHistogram> obs_vault_;  ///< stacked runs only
  Cycle drain_begin_ = 0;           ///< start cycle of the pending drain
  std::uint32_t trk_governor_ = 0, trk_fabric_ = 0, trk_fault_ = 0;
  std::uint32_t trk_core_base_ = 0, trk_bank_base_ = 0;
  std::uint32_t trk_dram_ = 0;      ///< "dram vaults" track (stacked runs)
};

/// Canonical paper setup: Table I architecture + the given knobs.
ClusterConfig make_paper_config(const workload::AppProfile& app, Fabric fabric,
                                const core::PowerState& state,
                                mem::DramPreset dram_preset, double scale = 0.25,
                                std::uint64_t seed = 42);

}  // namespace mot3d::cluster
