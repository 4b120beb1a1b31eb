#include "cluster/cluster.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/reconfig.hpp"

namespace mot3d::cluster {

namespace {

/// Events a fault run's flight recorder keeps for the watchdog dump.
constexpr std::size_t kFlightRecorderEvents = 128;

/// Livelock guard: a run still going at this cycle throws.
constexpr Cycle kMaxCycles = 200'000'000;

}  // namespace

const char* scheduler_name(SchedulerMode m) {
  switch (m) {
    case SchedulerMode::kEventDriven: return "event";
    case SchedulerMode::kDenseTick: return "dense";
  }
  return "?";
}

const char* fabric_name(Fabric f) {
  switch (f) {
    case Fabric::kMot: return "3-D MoT";
    case Fabric::kTrueMesh3d: return "True 3-D Mesh";
    case Fabric::kHybridBusMesh: return "3-D Hybrid Bus-Mesh";
    case Fabric::kHybridBusTree: return "3-D Hybrid Bus-Tree";
  }
  return "?";
}

Cluster::Cluster(ClusterConfig cfg)
    : event_driven_(cfg.scheduler == SchedulerMode::kEventDriven),
      cfg_(std::move(cfg)) {
  // ---- derive Table I timing/energy from the CACTI-lite model ----
  const cacti::SramBankResult bank = cacti::evaluate(cfg_.l2_bank_sram);
  cfg_.l2.total_banks = cfg_.total_banks;
  cfg_.l2.bank_capacity_bytes = cfg_.l2_bank_sram.capacity_bytes;
  cfg_.l2.associativity = cfg_.l2_bank_sram.associativity;
  cfg_.l2.line_bytes = cfg_.l2_bank_sram.line_bytes;
  cfg_.l2.access_cycles =
      cacti::access_cycles(cfg_.l2_bank_sram, cfg_.tech.clock_period_ns);
  cfg_.l2.read_energy_pj = bank.read_energy_pj;
  cfg_.l2.write_energy_pj = bank.write_energy_pj;
  cfg_.l2.leakage_mw_per_bank = bank.leakage_mw;
  cfg_.dram.access_latency_ns = mem::dram_latency_ns(cfg_.dram_preset);
  cfg_.floorplan.max_cores = cfg_.total_cores;
  cfg_.floorplan.max_banks = cfg_.total_banks;

  if (cfg_.power_state.total_cores() != cfg_.total_cores ||
      cfg_.power_state.total_banks() != cfg_.total_banks) {
    throw std::invalid_argument("power state does not match cluster shape");
  }
  if (cfg_.fabric != Fabric::kMot &&
      (cfg_.power_state.active_cores() != cfg_.total_cores ||
       cfg_.power_state.active_banks() != cfg_.total_banks)) {
    throw std::invalid_argument(
        "packet-switched baselines only run the full (ungated) configuration");
  }
  // ---- memory system ----
  // DRAM requesters: one Miss-bus slot per bank + one per core (I-refills);
  // every read ends in on_read_done().
  if (cfg_.stacked_dram) {
    auto stacked = std::make_unique<dram3d::StackedDram>(
        cfg_.dram3d, cfg_.total_banks + cfg_.total_cores);
    stacked_ = stacked.get();
    dram_ = std::move(stacked);
  } else {
    dram_ = std::make_unique<mem::DramBackend>(
        cfg_.dram, cfg_.total_banks + cfg_.total_cores);
  }
  dram_->set_read_sink(this);
  l2_ = std::make_unique<mem::L2System>(cfg_.l2, *dram_);
  l2_->set_active_banks(cfg_.power_state.bank_mask());

  // Sharing-pattern workloads engage the directory-MESI subsystem; without
  // one the L2 and cores behave bit-identically to the coherence-free model.
  if (cfg_.app.coherent()) {
    coherence::CoherenceConfig cc;
    cc.total_cores = cfg_.total_cores;
    cc.total_banks = cfg_.total_banks;
    cc.line_bytes = cfg_.l2.line_bytes;
    coh_dir_ = std::make_unique<coherence::CoherenceDirectory>(cc);
    l2_->attach_directory(coh_dir_.get());
  }

  // ---- interconnect ----
  mot_timing_ = std::make_unique<core::MotTimingModel>(cfg_.tech, cfg_.floorplan,
                                                       cfg_.l2_bank_sram);
  if (cfg_.fabric == Fabric::kMot) {
    core::MotInterconnectConfig mic;
    mic.bank_hold_cycles = cfg_.l2.service_cycles;
    auto mot = std::make_unique<core::MotInterconnect>(*mot_timing_,
                                                       cfg_.power_state, mic);
    mot_ = mot.get();
    interconnect_ = std::move(mot);
  } else {
    noc::NocConfig nc;
    nc.num_cores = cfg_.total_cores;
    nc.num_banks = cfg_.total_banks;
    nc.line_bytes = cfg_.l2.line_bytes;
    const power::InterconnectPowerModel pm{phys::WireModel(cfg_.tech)};
    noc::NocTopology topo = noc::NocTopology::kTrueMesh3d;
    if (cfg_.fabric == Fabric::kHybridBusMesh) topo = noc::NocTopology::kHybridBusMesh;
    if (cfg_.fabric == Fabric::kHybridBusTree) topo = noc::NocTopology::kHybridBusTree;
    auto noc = noc::make_noc(topo, nc, pm);
    noc_ = noc.get();
    interconnect_ = std::move(noc);
  }

  // The interconnect batches its deliveries and the scheduler drains them
  // right after its tick (responses first, then requests — see
  // drain_fabric_deliveries()).  The L2 injects responses straight into
  // the transport, no std::function hop.
  l2_->set_transport(interconnect_.get());

  // ---- workload & cores ----
  workload_ = std::make_unique<workload::Workload>(
      cfg_.app, cfg_.power_state.active_cores(), cfg_.scale, cfg_.seed);
  barriers_.set_participants(cfg_.power_state.active_cores());

  cpu::CoreConfig core_cfg;
  core_cfg.l2_banks = cfg_.total_banks;
  cores_.resize(cfg_.total_cores, nullptr);
  traces_.resize(cfg_.total_cores);
  auto ifetch_issue = [this](CoreId c, Addr addr, Cycle now) {
    // Instruction refills ride the Miss bus straight to DRAM (paper §II);
    // requester slots for cores sit after the banks.
    dram_->read(static_cast<std::uint32_t>(cfg_.total_banks + c), addr, now,
                /*tag=*/0);
  };
  // Reserve up front: cores_[] holds raw pointers into the arena, which
  // must therefore never reallocate.
  core_arena_.reserve(cfg_.power_state.active_cores());
  for (std::size_t t = 0; t < cfg_.power_state.active_cores(); ++t) {
    const CoreId c = cfg_.power_state.core_of_thread(t);
    traces_[c] = workload_->make_trace(t);
    core_arena_.emplace_back(c, core_cfg, *traces_[c], barriers_, ifetch_issue);
    cores_[c] = &core_arena_.back();
    if (cfg_.warm_instruction_caches) {
      cores_[c]->warm_l1i(workload::AddressMap::kCodeBase, cfg_.app.code_bytes);
    }
    active_cores_.push_back(c);
  }
  const std::size_t n = core_arena_.size();
  injecting_ = acking_ = done_ = due_ = spinning_ = IndexSet(n);
  synced_.assign(n, 0);
  if (event_driven_) refile_cores();

  // ---- thermal subsystem (opt-in; inert otherwise) ----
  if (cfg_.thermal.enabled) {
    thermal_ = std::make_unique<thermal::ThermalModel>(cfg_.thermal,
                                                       cfg_.floorplan, cfg_.tech);
    governor_ = std::make_unique<thermal::ThermalGovernor>(
        cfg_.thermal.ceiling_c, cfg_.fabric == Fabric::kMot, cfg_.power_state);
    prev_core_instr_.assign(cfg_.total_cores, 0);
    prev_core_spin_.assign(cfg_.total_cores, 0);
    prev_core_l1_.assign(cfg_.total_cores, 0);
    prev_bank_accesses_.assign(cfg_.total_banks, 0);
    next_thermal_cycle_ = cfg_.thermal.sample_interval_cycles;
    if (stacked_ != nullptr) {
      vault_temp_c_.assign(stacked_->num_vaults(), cfg_.thermal.ambient_c);
      prev_vault_energy_.assign(stacked_->num_vaults(), 0.0);
      if (cfg_.vault_remap.enabled) {
        vault_remap_ =
            std::make_unique<dram3d::VaultRemapPolicy>(cfg_.vault_remap);
      }
    }
  }

  // ---- fault injection + watchdog (opt-in; inert otherwise) ----
  if (cfg_.fault.enabled) {
    fault_sched_ = std::make_unique<fault::FaultSchedule>(
        cfg_.fault, mot_ != nullptr, cfg_.total_banks,
        noc_ != nullptr ? noc_->num_routers() : 0);
    degrade_ = std::make_unique<fault::DegradationManager>(
        mot_ != nullptr, stacked_ != nullptr ? stacked_->num_vaults() : 0);
    if (!fault_sched_->events().empty()) {
      next_fault_cycle_ = fault_sched_->events().front().cycle;
    }
  }
  // The watchdog auto-engages on fault runs: a fault schedule can wedge the
  // simulation by construction, so those runs always get progress checks.
  if (cfg_.watchdog.enabled || cfg_.fault.enabled) {
    watchdog_ = std::make_unique<fault::Watchdog>(cfg_.watchdog);
    next_watchdog_cycle_ = watchdog_->next_check_cycle();
  }

  // ---- observability (opt-in; inert otherwise) ----
  // The trace sink engages for full tracing, or as the flight recorder on
  // fault runs, which always carry a progress watchdog: a bounded ring
  // dumped with the parked state.  Timeout-only watchdogs — the perf
  // guardrail's --timeout — never pay for event recording.
  const bool flight_only = !cfg_.obs.trace && cfg_.fault.enabled;
  if (cfg_.obs.trace || flight_only) {
    trace_ = std::make_shared<obs::TraceBuffer>(
        flight_only ? kFlightRecorderEvents : 0);
    trk_governor_ = trace_->add_track("governor");
    trk_fabric_ = trace_->add_track("fabric");
    trk_fault_ = trace_->add_track("faults");
    trk_core_base_ = trace_->track_count();
    for (CoreId c = 0; c < cfg_.total_cores; ++c) {
      trace_->add_track("core " + std::to_string(c));
    }
    trk_bank_base_ = trace_->track_count();
    for (BankId b = 0; b < cfg_.total_banks; ++b) {
      trace_->add_track("l2 bank " + std::to_string(b));
    }
    if (stacked_ != nullptr) trk_dram_ = trace_->add_track("dram vaults");
    interconnect_->set_trace(trace_.get(), trk_fabric_);
    l2_->set_trace(trace_.get(), trk_bank_base_);
  }
  obs_hist_ = cfg_.obs.enabled();
  if (obs_hist_) {
    dram_->set_service_histogram(&obs_dram_);
    if (stacked_ != nullptr) {
      obs_vault_.resize(stacked_->num_vaults());
      stacked_->set_vault_service_histograms(obs_vault_.data());
    }
  }
  if (cfg_.obs.metrics) {
    metrics_ =
        std::make_shared<obs::MetricsRegistry>(cfg_.obs.metrics_epoch_cycles);
    next_metrics_cycle_ = cfg_.obs.metrics_epoch_cycles;
  }
  if (cfg_.obs.phase_timing) {
    phase_timer_ = std::make_unique<obs::PhaseTimer>();
  }
}

Cluster::~Cluster() = default;

void Cluster::on_read_done(std::uint32_t requester, std::uint64_t tag,
                           Addr addr, Cycle now) {
  if (requester < cfg_.total_banks) {
    l2_->on_read_done(requester, tag, addr, now);
  } else {
    const std::size_t i = slot_of(requester - cfg_.total_banks);
    catch_up(i, now + 1);
    core_arena_[i].on_ifetch_refill(addr, now);
    file_core(i);
  }
}

void Cluster::deliver_response(const MemResponse& resp) {
  assert(cores_[resp.core] != nullptr);
  const std::size_t i = slot_of(resp.core);
  if (resp.kind == RespKind::kInvalidate) {
    // Fault injection: a dropped invalidation never reaches the L1 snoop
    // controller, so its ack never returns — the directory transaction
    // wedges (this is the watchdog's directed-test stimulus).
    if (drop_invalidates_remaining_ > 0) {
      --drop_invalidates_remaining_;
      if (trace_ != nullptr) {
        trace_->instant("drop_invalidate", trk_fault_, now_, "core", resp.core,
                        "addr", resp.addr);
      }
      return;
    }
    // Directory control traffic, not a request's answer: no latency
    // sample, and legal in any core state.
    if (trace_ != nullptr) {
      trace_->instant("Invalidate", trk_core_base_ + resp.core, now_, "bank",
                      resp.bank, "addr", resp.addr);
    }
    catch_up(i, now_ + 1);
    core_arena_[i].on_coherence_invalidate(resp, now_);
    acking_.insert(i);
    return;
  }
  const Cycle lat = now_ - resp.issue_cycle;
  l2_latency_.record(lat);
  if (resp.l2_hit) l2_hit_latency_.record(lat);
  if (trace_ != nullptr) {
    trace_->complete(resp_kind_name(resp.kind), trk_core_base_ + resp.core,
                     resp.issue_cycle, lat, "bank", resp.bank, "hit",
                     resp.l2_hit ? 1 : 0);
  }
  catch_up(i, now_ + 1);
  core_arena_[i].on_response(resp, now_);
  file_core(i);
}

void Cluster::drain_fabric_deliveries() {
  // Responses touch core state; requests touch bank queues and directory
  // slices — disjoint within a tick, and within each class the batch
  // preserves delivery order, so draining after the tick models what
  // handling each delivery the moment the fabric made it would.
  const std::vector<MemResponse>& resps = interconnect_->delivered_responses();
  const std::vector<MemRequest>& reqs = interconnect_->delivered_requests();
  if (resps.empty() && reqs.empty()) return;
  for (const MemResponse& resp : resps) deliver_response(resp);
  for (const MemRequest& req : reqs) {
    // Invalidation round-trip: invalidate delivery at the core (the ack's
    // issue cycle) to acknowledgement arrival back at the bank.
    if (req.kind == ReqKind::kInvAck || req.kind == ReqKind::kDataForward) {
      if (obs_hist_) obs_inv_rt_.record(now_ - req.issue_cycle);
      if (trace_ != nullptr) {
        trace_->complete(req_kind_name(req.kind), trk_bank_base_ + req.bank,
                         req.issue_cycle, now_ - req.issue_cycle, "core",
                         req.core, "addr", req.addr);
      }
    }
    l2_->deliver(req, now_);
  }
  interconnect_->clear_deliveries();
}

void Cluster::inject_coherence_acks() {
  // Coherence acknowledgements first: they unblock stalled directory
  // transactions and flow even while the cores' clocks are held (the L1
  // snoop controller is not on the gated core clock).  The queue is not
  // core state, so sleeping cores need no catch-up.
  acking_.for_each([this](std::size_t i) {
    cpu::Core& core = core_arena_[i];
    while (core.pending_coherence() != nullptr &&
           interconnect_->try_inject_request(*core.pending_coherence(), now_)) {
      if (trace_ != nullptr) {
        // Accepted injections only — a failed try is a poll, and polls
        // differ between the schedulers.
        const MemRequest& req = *core.pending_coherence();
        trace_->instant(req_kind_name(req.kind), trk_core_base_ + req.core,
                        now_, "bank", req.bank, "addr", req.addr);
      }
      core.coherence_accepted(now_);
    }
    if (core.pending_coherence() == nullptr) acking_.erase(i);
  });
}

void Cluster::inject_demand_requests() {
  if (cores_frozen_) return;
  injecting_.for_each([this](std::size_t i) {
    cpu::Core& core = core_arena_[i];
    if (!interconnect_->try_inject_request(*core.pending_request(), now_)) {
      return;
    }
    if (trace_ != nullptr) {
      const MemRequest& req = *core.pending_request();
      trace_->instant(req_kind_name(req.kind), trk_core_base_ + req.core,
                      now_, "bank", req.bank, "addr", req.addr);
    }
    catch_up(i, now_ + 1);
    core.injection_accepted(now_);
    file_core(i);
  });
}

void Cluster::file_core(std::size_t i) {
  const cpu::Core& core = core_arena_[i];
  injecting_.assign(i, core.pending_request().has_value());
  if (core.done()) done_.insert(i);
  if (!event_driven_) return;
  const Cycle wake = core.next_event(synced_[i]);
  if (wake <= synced_[i]) {
    due_.insert(i);
    return;
  }
  due_.erase(i);
  if (wake != kNeverCycle) {
    timed_wakes_.emplace_back(wake, static_cast<std::uint32_t>(i));
    std::push_heap(timed_wakes_.begin(), timed_wakes_.end(), std::greater<>{});
  } else if (core.at_barrier()) {
    spinning_.insert(i);
  }
}

void Cluster::tick_due_cores() {
  // Compute bursts ending this cycle join the due set.
  while (!timed_wakes_.empty() && timed_wakes_.front().first <= now_) {
    due_.insert(timed_wakes_.front().second);
    std::pop_heap(timed_wakes_.begin(), timed_wakes_.end(), std::greater<>{});
    timed_wakes_.pop_back();
  }
  due_.for_each([this](std::size_t i) {
    cpu::Core& core = core_arena_[i];
    core.skip(synced_[i], now_);
    core.tick(now_);
    synced_[i] = now_ + 1;
    ++core_ticks_;
    file_core(i);
    // A waiter leaves a released barrier on its next tick, so a core that
    // has just ticked and stands at a released barrier released it.  The
    // waiters after it in arena order tick this same cycle (the walk has
    // not reached them yet), the earlier ones next cycle: the order in
    // which the dense loop sees the release.
    if (core.at_barrier() && due_.contains(i)) {
      spinning_.for_each([this](std::size_t j) { due_.insert(j); });
      spinning_.clear();
    }
  });
}

void Cluster::catch_up(std::size_t i, Cycle to) {
  if (!event_driven_ || cores_frozen_) return;
  core_arena_[i].skip(synced_[i], to);
  synced_[i] = to;
}

void Cluster::sync_cores() {
  for (std::size_t i = 0; i < core_arena_.size(); ++i) catch_up(i, now_);
}

void Cluster::refile_cores() {
  due_.clear();
  spinning_.clear();
  timed_wakes_.clear();
  for (std::size_t i = 0; i < core_arena_.size(); ++i) {
    synced_[i] = now_;
    file_core(i);
  }
}

void Cluster::tick(bool timed) {
  // drain_fabric_deliveries() touches core and bank state but runs on
  // behalf of the fabric's deliveries, so its cost is charged to the
  // fabric phase (documented convention).
  using PT = obs::PhaseTimer;
  PT::clock::time_point mark;
  if (timed) mark = PT::clock::now();
  const auto phase_done = [&](PT::Phase phase) {
    if (!timed) return;
    const PT::clock::time_point t = PT::clock::now();
    phase_timer_->add(phase, mark, t);
    mark = t;
  };
  // Frozen cores are clock-held: no tick, no injection retry.  They are
  // also excluded from event-mode catch-up accounting, so both schedulers
  // see identical (frozen) core statistics.  The dense reference ticks
  // every core; event mode only the due ones.
  if (!cores_frozen_) {
    if (event_driven_) {
      tick_due_cores();
    } else {
      for (std::size_t i = 0; i < core_arena_.size(); ++i) {
        if (core_arena_[i].tick(now_)) file_core(i);
      }
      core_ticks_ += core_arena_.size();
    }
  }
  phase_done(PT::kWorkload);
  inject_coherence_acks();
  phase_done(PT::kCoherence);
  inject_demand_requests();
  // Every visited cycle ticks every component, as the dense loop does: a
  // tick before a component's next event is a no-op by the next-event
  // contract, so no component needs a gate of its own.
  interconnect_->tick(now_);
  drain_fabric_deliveries();
  phase_done(PT::kFabric);
  l2_->tick(now_);
  phase_done(PT::kL2);
  dram_->tick(now_);
  phase_done(PT::kDram);
  ++now_;
}

Cycle Cluster::next_event_cycle() const {
  // Subsystem boundaries are events: the jump must land on them exactly,
  // as the dense loop does.  Each is kNeverCycle while its subsystem is
  // off.  The unfreeze point is time-only: no component event marks it.
  Cycle next = std::min({next_thermal_cycle_, next_metrics_cycle_,
                         next_fault_cycle_, next_watchdog_cycle_,
                         frozen_until_ > now_ ? frozen_until_ : kNeverCycle});
  // A queued coherence ack retries injection every cycle, even while the
  // cores are clock-held (the instruction streams halt, the snoop port
  // does not); so does a waiting demand request while they are not.
  // Otherwise the cores' part is the wake set: a due core, or the
  // earliest end of a compute burst.
  if (!acking_.empty()) return now_;
  if (!cores_frozen_) {
    if (!due_.empty() || !injecting_.empty()) return now_;
    if (!timed_wakes_.empty()) next = std::min(next, timed_wakes_.front().first);
  }
  next = std::min(next, interconnect_->next_event(now_));
  if (next <= now_) return now_;
  next = std::min(next, l2_->next_event(now_));
  if (next <= now_) return now_;
  next = std::min(next, dram_->next_event(now_));
  return std::max(next, now_);
}

bool Cluster::advance(Cycle limit) {
  if (now_ >= kMaxCycles) {
    throw std::runtime_error("simulation exceeded kMaxCycles — livelock?\n" +
                             progress_dump());
  }
  poll();
  if (run_failed_) return false;  // unrecoverable fault: structured outcome
  if (event_driven_) {
    // Whenever nothing can happen this cycle, jump straight to the
    // earliest future event, no further than `limit`.  The jump touches
    // no core: each sleeping core's skipped cycles are batch-accounted
    // (Core::skip) when it is next ticked, messaged or read, so every
    // statistic stays bit-identical to the dense reference.
    const Cycle next = next_event_cycle();
    if (next > now_) {
      if (next == kNeverCycle && !finished()) {
        // A finished run has no future event either: a step past its end
        // just jumps.  With a watchdog engaged its next check is always a
        // future event, so this only fires on watchdog-less wedges.
        throw std::runtime_error(
            "deadlock: no component reports a future event but the run "
            "has not finished\n" +
            progress_dump());
      }
      now_ = std::min({next, limit, kMaxCycles});
      return true;
    }
  }
  tick(phase_timer_ != nullptr && phase_timer_->should_sample());
  return true;
}

void Cluster::step(Cycle cycles) {
  const Cycle end = now_ + std::min(cycles, kNeverCycle - now_);
  while (now_ < end && advance(end)) {
  }
  sync_cores();
}

bool Cluster::finished() const {
  return done_.size() == core_arena_.size() && acking_.empty() &&
         interconnect_->idle() && l2_->idle() && dram_->idle();
}

SimResult Cluster::run() {
  while (!finished() && advance(kNeverCycle)) {
  }
  sync_cores();  // every core's books close at now_
  thermal_finalize();
  obs_finalize();
  SimResult r = collect_result();
  if (r.thermal.unconverged_solves > 0) {
    std::cerr << "warning: " << r.thermal.unconverged_solves
              << " thermal steady-state solve(s) stopped at the "
              << thermal::ThermalRcSolver::kSteadyMaxSweeps
              << "-sweep cap unconverged on a floorplan of "
              << thermal_->floorplan().columns()
              << " columns; the warm start and thermal_steady_peak_c are "
                 "approximate\n";
  }
  return r;
}

void Cluster::poll() {
  // 1) A pending drain completes once the transport is quiescent (the
  //    component tick that emptied it is an event, so both schedulers
  //    poll the cycle after it).
  if (draining()) try_complete_drain();
  // 2) Thermal sampling boundary.
  if (now_ == next_thermal_cycle_) thermal_boundary();
  // 3) Deferred and scheduled faults.
  if (fault_sched_ != nullptr) fault_poll();
  // 4) Cores are clock-held while draining, while the governor demands a
  //    hold, and through the reprogramming delay after a reconfiguration.
  const bool frozen = draining() || governor_hold_ || now_ < frozen_until_;
  if (frozen != cores_frozen_) set_frozen(frozen);
  // 5) Watchdog check boundary.
  if (now_ >= next_watchdog_cycle_) watchdog_poll();
  // 6) Metrics epoch boundary.  Like the thermal boundary it is matched
  //    exactly: the dense loop walks every cycle and the event loop's jump
  //    lands on it (next_event_cycle() includes it).
  if (now_ == next_metrics_cycle_) {
    sync_cores();
    sample_metrics();
    next_metrics_cycle_ = now_ + cfg_.obs.metrics_epoch_cycles;
  }
}

void Cluster::obs_finalize() {
  // Tail sample at the run's final cycle (unless it landed on a boundary)
  // so short runs export at least one row.  Both schedulers finish at the
  // same now_, so the tail row is deterministic too.
  if (metrics_ != nullptr && metrics_->last_sample_cycle() != now_) {
    sample_metrics();
  }
}

void Cluster::sample_metrics() {
  constexpr double kNull = obs::MetricsRegistry::kNull;
  obs::MetricsRegistry& m = *metrics_;
  m.start_row(now_);
  std::uint64_t instructions = 0;
  for (const cpu::Core& core : core_arena_) {
    instructions += core.stats().instructions;
  }
  m.put("cluster.instructions", instructions);
  // An empty latency histogram is put as null, never as the 0.0 its
  // mean and digest read before the first sample.
  const bool no_latency = l2_latency_.count() == 0;
  m.put("cluster.l2_latency_mean", no_latency ? kNull : l2_latency_.mean());
  m.put("cluster.l2_latency_max",
        no_latency ? kNull : static_cast<double>(l2_latency_.digest().max));

  const InterconnectStats& fabric = interconnect_->stats();
  m.put("fabric.requests_delivered", fabric.requests_delivered);
  m.put("fabric.responses_delivered", fabric.responses_delivered);
  m.put("fabric.arbitration_wait_cycles", fabric.arbitration_wait_cycles);
  m.put("fabric.dynamic_energy_pj", interconnect_->dynamic_energy_pj());

  const mem::L2Stats& l2 = l2_->stats();
  m.put("l2.hits", l2.hits);
  m.put("l2.misses", l2.misses);
  m.put("l2.writebacks", l2.writebacks);
  m.put("l2.bank_conflict_cycles", l2.bank_conflict_cycles);
  m.put("l2.dynamic_energy_pj", l2.dynamic_energy_pj);

  const mem::DramStats& dram = dram_->stats();
  m.put("dram.reads", dram.reads);
  m.put("dram.writes", dram.writes);
  m.put("dram.page_hits", dram.page_hits);
  m.put("dram.page_misses", dram.page_misses);
  m.put("dram.total_wait_cycles", dram.total_wait_cycles);
  m.put("dram.dynamic_energy_pj", dram.dynamic_energy_pj);
  if (stacked_ != nullptr) {
    m.put("dram.refreshes", stacked_->total_refreshes());
    m.put("dram.remaps", stacked_->remap_count());
    const std::vector<dram3d::VaultStats>& vaults = stacked_->vault_stats();
    for (std::size_t v = 0; v < vaults.size(); ++v) {
      const std::string vp = "dram.vault" + std::to_string(v);
      m.put(vp + ".accesses", vaults[v].reads + vaults[v].writes);
      m.put(vp + ".row_hits", vaults[v].row_hits);
      m.put(vp + ".refreshes", vaults[v].refreshes);
      m.put(vp + ".energy_pj", vaults[v].energy_pj);
    }
  }

  if (coh_dir_ != nullptr) {
    const coherence::CoherenceStats& coh = coh_dir_->stats();
    m.put("coherence.invalidations", coh.invalidations);
    m.put("coherence.inv_acks", coh.inv_acks);
    m.put("coherence.data_forwards", coh.data_forwards);
    m.put("coherence.upgrades", coh.upgrades);
    m.put("coherence.sharing_misses", coh.sharing_misses);
    m.put("coherence.dir_occupancy", coh_dir_->occupancy());
  }

  if (thermal_ != nullptr) {
    m.put("thermal.peak_c", thermal_->peak_c());
    m.put("thermal.samples", thermal_->samples());
    m.put("thermal.leakage_pj", thermal_->core_static_pj() +
                                    thermal_->l2_static_pj() +
                                    thermal_->icn_static_pj());
  }

  power::EnergyLedger energy;
  accumulate_dynamic_energy(energy);
  using power::Component;
  m.put("energy.core_pj", energy.dynamic_pj(Component::kCore));
  m.put("energy.l1_pj", energy.dynamic_pj(Component::kL1));
  m.put("energy.l2_pj", energy.dynamic_pj(Component::kL2));
  m.put("energy.interconnect_pj", energy.dynamic_pj(Component::kInterconnect));
  m.put("energy.dram_pj", energy.dynamic_pj(Component::kDram));
}

void Cluster::set_frozen(bool frozen) {
  if (frozen == cores_frozen_) return;
  // Held cycles accrue nothing: the cores' books close as the hold
  // begins, and their wakes restart from the cycle it ends.
  if (frozen) sync_cores();
  cores_frozen_ = frozen;
  if (frozen) {
    freeze_begin_ = now_;
  } else {
    throttled_cycles_ += now_ - freeze_begin_;
    if (event_driven_) refile_cores();
  }
}

void Cluster::try_complete_drain() {
  // Two kinds of drain ride the same machinery (mutually exclusive: the
  // governor and the remap policy defer to an in-flight drain): a
  // reconfiguration (apply the power state, pay the ctr reprogramming
  // delay frozen) and a stacked-DRAM vault swap (exchange the logical map,
  // pay the migration freeze).
  if (!draining() || !interconnect_->idle() || !l2_->idle() || !dram_->idle()) {
    return;
  }
  if (drain_target_.has_value()) {
    // Both the thermal governor and the fault-degradation path gate banks
    // through this one drain -> flush -> remap sequence (MoT only: packet
    // fabrics have no reconfiguration path).
    const core::ReconfigCost cost = core::reconfigure(
        *mot_, *l2_, *dram_, coh_dir_.get(), *drain_target_, now_);
    governor_flush_pj_ += cost.flush_energy_pj;
    frozen_until_ = now_ + cost.reprogram_cycles;
    if (trace_ != nullptr) {
      trace_->complete("reconfig_drain", trk_governor_, drain_begin_,
                       now_ - drain_begin_, "reprogram_cycles",
                       cost.reprogram_cycles);
    }
    drain_target_.reset();
  } else {
    stacked_->swap_physical(pending_vault_swap_->hot, pending_vault_swap_->cool,
                            now_);
    frozen_until_ = now_ + dram3d::VaultRemapPolicy::kMigrateFreezeCycles;
    if (trace_ != nullptr) {
      trace_->complete("vault_remap", trk_dram_, drain_begin_,
                       now_ - drain_begin_, "hot", pending_vault_swap_->hot,
                       "cool", pending_vault_swap_->cool);
    }
    pending_vault_swap_.reset();
  }
}

void Cluster::fault_poll() {
  // A hard fault that arrived while an earlier drain was in flight was
  // deferred; re-evaluate it against the *current* state now that the
  // transport is reconfigurable again.  One per poll keeps the drain
  // sequencing simple and deterministic.
  if (!draining() && !deferred_faults_.empty()) {
    const fault::FaultEvent ev = deferred_faults_.front();
    deferred_faults_.pop_front();
    apply_fault(ev);
    try_complete_drain();
  }

  // Fire every scheduled fault due at or before this cycle (the event
  // scheduler lands on each fault cycle exactly; the dense loop walks
  // through it).
  const std::vector<fault::FaultEvent>& evs = fault_sched_->events();
  while (now_ >= next_fault_cycle_) {
    const fault::FaultEvent& ev = evs[fault_event_idx_++];
    next_fault_cycle_ =
        fault_event_idx_ < evs.size() ? evs[fault_event_idx_].cycle : kNeverCycle;
    ++fault_summary_.injected;
    if (trace_ != nullptr) {
      // Recorded at the injection poll, not inside apply_fault(): a bank
      // gate deferred behind a drain re-applies later and would otherwise
      // emit twice.
      trace_->instant(fault::fault_kind_name(ev.kind), trk_fault_, now_,
                      "target", ev.target, "magnitude", ev.magnitude);
    }
    apply_fault(ev);
    // If the fabric happens to be idle the drain completes *now* — waiting
    // for a later poll would desynchronise the schedulers (no component
    // events exist while everything is idle).
    try_complete_drain();
  }
}

void Cluster::apply_fault(const fault::FaultEvent& ev) {
  const core::PowerState& current = mot_ != nullptr ? mot_->state() : cfg_.power_state;
  const fault::DegradeAction act = degrade_->react(ev, current);
  switch (act.kind) {
    case fault::DegradeActionKind::kNone:
      ++fault_summary_.recovered;  // already masked by an earlier action
      break;
    case fault::DegradeActionKind::kDegradeMotBank:
      assert(mot_ != nullptr);
      mot_->add_bank_fault_penalty(act.unit, act.penalty_cycles);
      fault_repair_pj_ += fault::kRepairEnergyPj;
      ++fault_summary_.recovered;
      mark_degraded();
      break;
    case fault::DegradeActionKind::kThrottleRouter:
      assert(noc_ != nullptr);
      noc_->set_router_throttle(act.unit, act.penalty_cycles);
      fault_repair_pj_ += fault::kRepairEnergyPj;
      ++fault_summary_.recovered;
      mark_degraded();
      break;
    case fault::DegradeActionKind::kDropInvalidate:
      // Not a degradation the cluster can mask — it either wedges the run
      // (watchdog fires) or the line was not being invalidated anyway.
      drop_invalidates_remaining_ += ev.magnitude == 0 ? 1 : ev.magnitude;
      break;
    case fault::DegradeActionKind::kGateBanks:
      if (draining()) {
        // A drain is already in flight (thermal governor or an earlier
        // fault); queue this one behind it and re-react later.
        deferred_faults_.push_back(ev);
        return;
      }
      assert(act.target.has_value());
      ++fault_summary_.recovered;
      ++fault_summary_.bank_gate_events;
      fault_repair_pj_ += fault::kRepairEnergyPj;
      mark_degraded();
      drain_target_ = act.target;
      drain_begin_ = now_;
      break;
    case fault::DegradeActionKind::kFailVault: {
      assert(stacked_ != nullptr);
      std::string note;
      if (stacked_->fail_vault(act.unit, now_, &note)) {
        ++fault_summary_.recovered;
        fault_repair_pj_ += fault::kRepairEnergyPj;
        mark_degraded();
        if (trace_ != nullptr) {
          trace_->instant("vault_fail", trk_dram_, now_, "vault", act.unit);
        }
      } else {
        ++fault_summary_.unrecoverable;
        run_failed_ = true;
        fail_reason_ = fault::fault_kind_name(ev.kind) +
                       (" on unit " + std::to_string(ev.target)) + ": " + note;
      }
      break;
    }
    case fault::DegradeActionKind::kUnrecoverable:
      ++fault_summary_.unrecoverable;
      run_failed_ = true;
      fail_reason_ = fault::fault_kind_name(ev.kind) +
                     (" on unit " + std::to_string(ev.target)) + ": " + act.note;
      break;
  }
}

void Cluster::watchdog_poll() {
  sync_cores();
  const fault::WatchdogVerdict verdict =
      watchdog_->poll(now_, progress_signature());
  next_watchdog_cycle_ = watchdog_->next_check_cycle();
  switch (verdict) {
    case fault::WatchdogVerdict::kOk:
      break;
    case fault::WatchdogVerdict::kStalled:
      throw fault::WatchdogError(
          "watchdog: no forward progress for " +
          std::to_string(watchdog_->stall_checks()) + " consecutive checks (" +
          std::to_string(watchdog_->check_interval_cycles()) +
          " cycles each) at cycle " + std::to_string(now_) + "\n" +
          progress_dump());
    case fault::WatchdogVerdict::kDeadlineExceeded:
      throw fault::WatchdogError(
          "watchdog: wall-clock deadline of " +
          std::to_string(watchdog_->wall_deadline_seconds()) +
          " s exceeded at cycle " + std::to_string(now_) + "\n" +
          progress_dump());
  }
}

std::uint64_t Cluster::progress_signature() const {
  // Counts only *work*: instructions retired and memory traffic serviced.
  // Stall/spin/idle cycle counters advance even while wedged and must not
  // contribute, or a wedge would look like progress.
  std::uint64_t sig = 0;
  for (const cpu::Core& core : core_arena_) {
    const cpu::CoreStats& st = core.stats();
    sig += st.instructions + st.l2_requests;
  }
  const mem::L2Stats& l2s = l2_->stats();
  sig += l2s.hits + l2s.misses + l2s.writebacks;
  const mem::DramStats& ds = dram_->stats();
  sig += ds.reads + ds.writes;
  const InterconnectStats& is = interconnect_->stats();
  sig += is.requests_delivered + is.responses_delivered;
  return sig;
}

std::string Cluster::progress_dump() {
  sync_cores();
  std::ostringstream os;
  os << "-- parked state at cycle " << now_ << " --\n";
  for (CoreId c : active_cores_) {
    const cpu::Core& core = *cores_[c];
    os << "  core " << c << ": " << core.state_name() << ", "
       << core.stats().instructions << " instr";
    if (core.pending_request().has_value()) os << ", request waiting to inject";
    if (core.pending_coherence() != nullptr) os << ", coherence msg pending";
    os << "\n";
  }
  for (BankId b = 0; b < cfg_.total_banks; ++b) {
    if (!l2_->active_banks()[b]) continue;
    const mem::L2System::BankDebug dbg = l2_->bank_debug(b);
    if (dbg.in_queue == 0 && dbg.out_queue == 0 && dbg.misses == 0 &&
        !dbg.coh_stalled) {
      continue;
    }
    os << "  bank " << b << ": in=" << dbg.in_queue << " out=" << dbg.out_queue
       << " misses=" << dbg.misses;
    if (dbg.coh_stalled) {
      os << " coh-stalled (" << dbg.coh_acks_remaining << " acks outstanding)";
    }
    os << "\n";
  }
  os << "  transport: icn " << (interconnect_->idle() ? "idle" : "busy")
     << ", l2 " << (l2_->idle() ? "idle" : "busy") << ", dram "
     << (dram_->idle() ? "idle" : "busy")
     << (cores_frozen_ ? ", cores clock-held" : "");
  if (trace_ != nullptr && trace_->recorded() > 0) {
    os << "\n" << trace_->flight_dump(kFlightRecorderEvents);
  }
  return os.str();
}

void Cluster::thermal_boundary() {
  thermal_sample_interval();
  if (!draining()) {
    const thermal::GovernorDecision d = governor_->decide(thermal_->peak_c());
    if (d.reconfigure.has_value() && mot_ != nullptr &&
        !(*d.reconfigure == mot_->state())) {
      drain_target_ = d.reconfigure;
      drain_begin_ = now_;
      if (trace_ != nullptr) {
        trace_->instant("demote", trk_governor_, now_, "peak_c_x100",
                        static_cast<std::uint64_t>(thermal_->peak_c() * 100.0),
                        "banks", d.reconfigure->active_banks());
      }
    }
    if (trace_ != nullptr && d.hold_cores && !governor_hold_) {
      trace_->instant("core_hold", trk_governor_, now_, "peak_c_x100",
                      static_cast<std::uint64_t>(thermal_->peak_c() * 100.0));
    }
    governor_hold_ = d.hold_cores;
  }
  update_vault_thermal();
  if (vault_remap_ != nullptr && !draining() && !run_failed_) {
    std::vector<bool> alive(stacked_->num_vaults());
    for (std::size_t v = 0; v < alive.size(); ++v) {
      alive[v] = stacked_->vault_alive(v);
    }
    const std::optional<dram3d::VaultSwap> swap =
        vault_remap_->decide(vault_temp_c_, alive, now_);
    if (swap.has_value()) {
      pending_vault_swap_ = swap;
      drain_begin_ = now_;
      if (trace_ != nullptr) {
        trace_->instant("vault_too_hot", trk_dram_, now_, "hot", swap->hot,
                        "cool", swap->cool);
      }
    }
  }
  // If the transport happens to be idle at the decision boundary the
  // drain is already complete: apply it *now*, in the poll itself.
  // Waiting for a later poll would desynchronise the schedulers — the
  // event loop sees no component events while everything is idle and
  // would only look again at the next sampling boundary.
  try_complete_drain();
  next_thermal_cycle_ = now_ + cfg_.thermal.sample_interval_cycles;
}

void Cluster::update_vault_thermal() {
  if (stacked_ == nullptr) return;
  const thermal::ThermalFloorplan& flp = thermal_->floorplan();
  for (std::size_t v = 0; v < vault_temp_c_.size(); ++v) {
    vault_temp_c_[v] = thermal_->solver().tile_c(flp.vault_tile(v));
    if (stacked_->vault_alive(v) && vault_temp_c_[v] > peak_vault_c_) {
      peak_vault_c_ = vault_temp_c_[v];
      peak_vault_ = v;
    }
  }
}

void Cluster::thermal_sample_interval() {
  sync_cores();
  const Cycle interval = now_ - last_thermal_cycle_;
  if (interval > 0) {
    power::EnergyLedger snap;
    accumulate_dynamic_energy(snap);
    const power::EnergyLedger delta = snap.delta_since(thermal_prev_snap_);
    thermal_prev_snap_ = snap;
    thermal_->advance(thermal_build_sources(delta, interval), interval);
    // The clock tree is switching power, flat in temperature, and it
    // stops toggling while the cores are clock-held — charge it only for
    // the interval's unheld cycles (leakage keeps running either way).
    const std::uint64_t frozen_total =
        throttled_cycles_ + (cores_frozen_ ? now_ - freeze_begin_ : 0);
    const std::uint64_t frozen_in_interval = frozen_total - frozen_at_last_sample_;
    frozen_at_last_sample_ = frozen_total;
    clock_tree_pj_ += static_cast<double>(active_cores_.size()) *
                      cfg_.core_power.clock_tree_mw *
                      static_cast<double>(interval - frozen_in_interval);
  }
  last_thermal_cycle_ = now_;
}

thermal::ThermalSources Cluster::thermal_build_sources(
    const power::EnergyLedger& delta, Cycle interval) {
  const thermal::ThermalFloorplan& flp = thermal_->floorplan();
  thermal::ThermalSources src = thermal_->make_sources();
  const power::CorePowerModel core_model(cfg_.core_power);
  // pJ over `interval` 1 ns cycles -> watts.
  const double pj_to_w = 1e-3 / static_cast<double>(interval);

  // Cores: per-core dynamic energy from per-core counter deltas (finer
  // placement than the component ledger gives); leakage at reference
  // temperature — the model's fixed point applies the temperature law.
  // Coherence invalidations probe the L1D array, as the ledger charges
  // them (accumulate_dynamic_energy).
  for (CoreId c : active_cores_) {
    const cpu::CoreStats& st = cores_[c]->stats();
    const std::uint64_t l1 =
        cores_[c]->l1_accesses() + st.invalidations_received;
    const std::uint64_t d_instr = st.instructions - prev_core_instr_[c];
    const std::uint64_t d_spin = st.spin_cycles - prev_core_spin_[c];
    const std::uint64_t d_l1 = l1 - prev_core_l1_[c];
    prev_core_instr_[c] = st.instructions;
    prev_core_spin_[c] = st.spin_cycles;
    prev_core_l1_[c] = l1;
    const double pj =
        static_cast<double>(d_instr) * cfg_.core_power.energy_per_instr_pj +
        core_model.spin_pj(d_spin) +
        static_cast<double>(d_l1) * cfg_.core_power.energy_per_l1_access_pj;
    const std::size_t tile = flp.core_tile(c);
    src.dynamic_w[tile] += pj * pj_to_w;
    src.core_leak_ref_w[tile] += cfg_.core_power.leakage_mw * 1e-3;
  }

  // L2: the ledger's component delta, distributed over banks in proportion
  // to each bank's access-count delta (a bank gated mid-interval still
  // owns the heat it produced); equal split over powered banks when idle.
  const std::vector<bool>& banks_on = l2_->active_banks();
  std::vector<std::uint64_t> d_acc(cfg_.total_banks, 0);
  std::uint64_t total_acc = 0;
  std::size_t banks_active = 0;
  for (BankId b = 0; b < cfg_.total_banks; ++b) {
    const std::uint64_t acc = l2_->bank_cache_stats(b).accesses();
    d_acc[b] = acc - prev_bank_accesses_[b];
    prev_bank_accesses_[b] = acc;
    total_acc += d_acc[b];
    if (banks_on[b]) ++banks_active;
  }
  const double l2_pj = delta.dynamic_pj(power::Component::kL2);
  for (BankId b = 0; b < cfg_.total_banks; ++b) {
    const std::size_t tile = flp.bank_tile(b);
    if (total_acc > 0) {
      if (d_acc[b] > 0) {
        src.dynamic_w[tile] += l2_pj *
                               (static_cast<double>(d_acc[b]) /
                                static_cast<double>(total_acc)) *
                               pj_to_w;
      }
    } else if (banks_on[b] && banks_active > 0) {
      src.dynamic_w[tile] +=
          l2_pj / static_cast<double>(banks_active) * pj_to_w;
    }
    if (banks_on[b]) {
      src.l2_leak_ref_w[tile] += cfg_.l2.leakage_mw_per_bank * 1e-3;
    }
  }

  // Interconnect: spread across the channel tiles of the active span (the
  // Fig. 5 span shrink concentrates the channel's heat after gating).
  const core::PowerState& state =
      mot_ != nullptr ? mot_->state() : cfg_.power_state;
  const std::vector<std::size_t> chan =
      flp.channel_tiles(state.active_cores(), state.active_banks());
  const double icn_pj = delta.dynamic_pj(power::Component::kInterconnect);
  const double icn_leak_w = interconnect_->leakage_mw() * 1e-3;
  const double n_chan = static_cast<double>(chan.size());
  for (std::size_t tile : chan) {
    src.dynamic_w[tile] += icn_pj / n_chan * pj_to_w;
    src.icn_leak_ref_w[tile] += icn_leak_w / n_chan;
  }
  if (stacked_ != nullptr) {
    // Stacked DRAM is *in* the package: each vault's energy delta heats
    // the stacked-tier tile it is bonded onto (refresh and migration
    // energy included — they dissipate in the vault too).
    const std::vector<dram3d::VaultStats>& vs = stacked_->vault_stats();
    for (std::size_t v = 0; v < vs.size(); ++v) {
      const double d_pj = vs[v].energy_pj - prev_vault_energy_[v];
      prev_vault_energy_[v] = vs[v].energy_pj;
      if (d_pj > 0.0) src.dynamic_w[flp.vault_tile(v)] += d_pj * pj_to_w;
    }
  }
  // The constant-latency DRAM is off-cluster: its energy never enters the
  // stack.
  return src;
}

void Cluster::thermal_finalize() {
  if (thermal_ == nullptr) return;
  thermal_sample_interval();  // the partial tail since the last boundary
  set_frozen(false);          // close throttle accounting
}

void Cluster::accumulate_dynamic_energy(power::EnergyLedger& ledger) const {
  const power::CorePowerModel core_model(cfg_.core_power);
  for (CoreId c : active_cores_) {
    const cpu::Core& core = *cores_[c];
    ledger.add_dynamic(power::Component::kCore,
                       static_cast<double>(core.stats().instructions) *
                           cfg_.core_power.energy_per_instr_pj);
    ledger.add_dynamic(power::Component::kCore,
                       core_model.spin_pj(core.stats().spin_cycles));
    ledger.add_dynamic(power::Component::kL1,
                       static_cast<double>(core.l1_accesses()) *
                           cfg_.core_power.energy_per_l1_access_pj);
    // Coherence invalidations probe (and possibly read out) the L1D array;
    // zero in non-coherent runs, so legacy ledgers are unchanged.
    ledger.add_dynamic(power::Component::kL1,
                       static_cast<double>(core.stats().invalidations_received) *
                           cfg_.core_power.energy_per_l1_access_pj);
  }
  ledger.add_dynamic(power::Component::kL2,
                     l2_->stats().dynamic_energy_pj + governor_flush_pj_);
  // Repair actions (switch reprogramming pulses, link retraining) are
  // charged to the interconnect: that is the silicon doing the recovering.
  ledger.add_dynamic(power::Component::kInterconnect,
                     interconnect_->dynamic_energy_pj() + fault_repair_pj_);
  ledger.add_dynamic(power::Component::kDram, dram_->stats().dynamic_energy_pj);
}

SimResult Cluster::collect_result() const {
  SimResult r;
  r.app = cfg_.app.name;
  r.fabric = fabric_name(cfg_.fabric);
  r.power_state = cfg_.power_state.name();
  r.dram_latency_ns = cfg_.dram.access_latency_ns;
  r.cycles = now_;
  r.l2_latency = l2_latency_;
  r.l2_hit_latency = l2_hit_latency_;
  r.l2 = l2_->stats();
  r.dram = dram_->stats();
  r.interconnect = interconnect_->stats();
  r.l2_resident_lines = l2_->resident_lines();

  // Per-bank hit-rate spread over active banks that saw traffic.
  bool any_bank = false;
  for (BankId b = 0; b < cfg_.total_banks; ++b) {
    if (!l2_->active_banks()[b]) continue;
    const mem::CacheStats& bs = l2_->bank_cache_stats(b);
    if (bs.accesses() == 0) continue;
    const double hr = 1.0 - bs.miss_rate();
    if (!any_bank) {
      r.l2_bank_hit_rate_min = r.l2_bank_hit_rate_max = hr;
      any_bank = true;
    } else {
      r.l2_bank_hit_rate_min = std::min(r.l2_bank_hit_rate_min, hr);
      r.l2_bank_hit_rate_max = std::max(r.l2_bank_hit_rate_max, hr);
    }
  }
  r.l2_bank_hit_rate_spread = r.l2_bank_hit_rate_max - r.l2_bank_hit_rate_min;

  if (coh_dir_ != nullptr) {
    r.coherence_enabled = true;
    r.coherence = coh_dir_->stats();
    r.coh_dir_entries = coh_dir_->occupancy();
  }

  if (cfg_.fault.enabled) {
    r.fault = fault_summary_;
    r.fault.enabled = true;
    r.fault.outcome = run_failed_
                          ? "failed"
                          : (first_degraded_cycle_ != kNeverCycle ? "degraded"
                                                                  : "ok");
    r.fault.fail_reason = fail_reason_;
    r.fault.degraded_cycles =
        first_degraded_cycle_ == kNeverCycle ? 0 : now_ - first_degraded_cycle_;
    r.fault.repair_energy_pj =
        fault_repair_pj_ + (mot_ != nullptr ? mot_->fault_retry_pj() : 0.0);
  }

  const power::CorePowerModel core_model(cfg_.core_power);
  std::uint64_t l1d_miss = 0, l1d_acc = 0, l1i_miss = 0, l1i_acc = 0;
  for (CoreId c : active_cores_) {
    const cpu::Core& core = *cores_[c];
    r.cores.push_back(core.stats());
    r.instructions += core.stats().instructions;
    l1d_miss += core.l1d_stats().misses();
    l1d_acc += core.l1d_stats().accesses();
    l1i_miss += core.l1i_stats().misses();
    l1i_acc += core.l1i_stats().accesses();
  }
  r.l1d_miss_rate =
      l1d_acc == 0 ? 0.0 : static_cast<double>(l1d_miss) / static_cast<double>(l1d_acc);
  r.l1i_miss_rate =
      l1i_acc == 0 ? 0.0 : static_cast<double>(l1i_miss) / static_cast<double>(l1i_acc);

  accumulate_dynamic_energy(r.energy);
  if (thermal_ != nullptr) {
    // Static energy was integrated interval-by-interval at the converged
    // tile temperatures (run() finalises the tail before collecting); the
    // clock tree stays a flat term — it is switching power, not leakage.
    r.energy.add_static(power::Component::kCore,
                        thermal_->core_static_pj() + clock_tree_pj_);
    r.energy.add_static(power::Component::kL2, thermal_->l2_static_pj());
    r.energy.add_static(power::Component::kInterconnect,
                        thermal_->icn_static_pj());
    r.thermal = thermal_->summary();
    const thermal::GovernorStats& gs = governor_->stats();
    r.thermal.throttle_events = gs.throttle_events;
    r.thermal.bank_gate_events = gs.bank_gate_events;
    r.thermal.core_hold_events = gs.core_hold_events;
    r.thermal.throttled_cycles = throttled_cycles_;
  } else {
    for (std::size_t i = 0; i < active_cores_.size(); ++i) {
      r.energy.add_static(power::Component::kCore, core_model.static_pj(now_));
    }
    r.energy.add_static(power::Component::kL2,
                        l2_->leakage_mw() * static_cast<double>(now_));
    r.energy.add_static(power::Component::kInterconnect,
                        interconnect_->leakage_mw() * static_cast<double>(now_));
  }

  if (stacked_ != nullptr) {
    r.dram3d.enabled = true;
    r.dram3d.vaults = stacked_->num_vaults();
    r.dram3d.alive_vaults = stacked_->alive_vaults();
    r.dram3d.row_hits = stacked_->stats().page_hits;
    r.dram3d.row_misses = stacked_->stats().page_misses;
    r.dram3d.refreshes = stacked_->total_refreshes();
    r.dram3d.remaps = stacked_->remap_count();
    r.dram3d.vault_faults = stacked_->vault_fault_count();
    r.dram3d.remap_enabled = cfg_.vault_remap.enabled;
    r.dram3d.peak_vault_c = peak_vault_c_;
    r.dram3d.peak_vault = peak_vault_;
  }

  if (obs_hist_) {
    r.obs.enabled = true;
    r.obs.l2_rt = l2_latency_.digest();
    r.obs.inv_rt = obs_inv_rt_.digest();
    r.obs.dram_service = obs_dram_.digest();
    for (const obs::LatencyHistogram& h : obs_vault_) {
      r.obs.dram_vault_service.push_back(h.digest());
    }
  }
  // The trace rides along only for full-trace runs: flight-recorder rings
  // exist for the watchdog dump and must not alter fault-run reporting.
  if (cfg_.obs.trace) r.trace = trace_;
  if (metrics_ != nullptr) r.metrics = metrics_;
  if (phase_timer_ != nullptr) r.phase_seconds = phase_timer_->totals();
  r.core_ticks = core_ticks_;

  r.edp_pj_s = r.energy.edp_pj_s(now_);
  r.avg_power_w = r.energy.average_power_w(now_);
  return r;
}

ClusterConfig make_paper_config(const workload::AppProfile& app, Fabric fabric,
                                const core::PowerState& state,
                                mem::DramPreset dram_preset, double scale,
                                std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.app = app;
  cfg.fabric = fabric;
  cfg.power_state = state;
  // The cluster shape follows the power state's physical shape, so one
  // factory covers both the Table I cluster (16x32) and the scale-out
  // configurations (256x512 and beyond).
  cfg.total_cores = state.total_cores();
  cfg.total_banks = state.total_banks();
  cfg.dram_preset = dram_preset;
  cfg.scale = scale;
  cfg.seed = seed;
  return cfg;
}

}  // namespace mot3d::cluster
