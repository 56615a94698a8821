//! The hypervisor run loop: binds VMs, a scheduler and the simulated machine.
//!
//! Time advances in fixed ticks (10 ms in Xen). Every tick the hypervisor
//! asks the scheduler to place runnable vCPUs on cores, runs the chosen
//! vCPUs for one tick on the simulated machine (which is where LLC
//! contention physically happens), then feeds the per-vCPU execution reports
//! back into the scheduler for accounting.

use crate::lifecycle::VcpuState;
use crate::scheduler::{Scheduler, TickReport};
use crate::vm::{VcpuId, VmConfig, VmId, VmReport};
use kyoto_sim::engine::{ExecSlot, OpQueue, SimEngine};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, Machine};
use kyoto_sim::workload::Workload;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors raised by the hypervisor API.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum HypervisorError {
    /// `add_vm` was called with a number of workloads different from the
    /// configured vCPU count.
    WorkloadCountMismatch {
        /// Configured vCPUs.
        expected: usize,
        /// Provided workloads.
        provided: usize,
    },
    /// A VM configuration pins a vCPU to a core that does not exist.
    InvalidPinning {
        /// The offending core index.
        core: usize,
    },
    /// A VM configuration's pinning list is `Some` but names no core.
    /// ([`VmConfig::pinned_to`] with an empty list leaves a VM unpinned;
    /// only a direct write to the public `pinning` field gets here.)
    EmptyPinning,
    /// The referenced VM does not exist.
    UnknownVm {
        /// The VM id.
        vm: VmId,
    },
    /// Every VM id (1 to 65535) has been handed out once; ids are never
    /// reused, so this hypervisor admits no further VM.
    VmIdsExhausted,
}

impl fmt::Display for HypervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HypervisorError::WorkloadCountMismatch { expected, provided } => write!(
                f,
                "expected {expected} workloads (one per vCPU) but {provided} were provided"
            ),
            HypervisorError::InvalidPinning { core } => {
                write!(f, "vCPU pinned to non-existent core {core}")
            }
            HypervisorError::EmptyPinning => write!(f, "VM pinned to an empty core list"),
            HypervisorError::UnknownVm { vm } => write!(f, "unknown VM {vm}"),
            HypervisorError::VmIdsExhausted => {
                write!(f, "all {} VM ids have been handed out", u16::MAX)
            }
        }
    }
}

impl Error for HypervisorError {}

/// Timing configuration of the hypervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HypervisorConfig {
    /// Tick duration in milliseconds (Xen: 10 ms).
    pub tick_ms: u64,
    /// Ticks per scheduler time slice (Xen: 3, i.e. a 30 ms slice).
    pub ticks_per_slice: u32,
    /// Record a per-vCPU, per-tick history (needed by the trace figures,
    /// Fig. 2 and Fig. 5; costs memory on long runs).
    pub record_history: bool,
    /// Execute each tick through [`SimEngine::run_slots_parallel`] instead of
    /// [`SimEngine::run_slots`]. Both run the same batched body, split into
    /// socket components; this switch only puts two or more components on
    /// their own threads. Simulation results are bit-identical either way
    /// (the per-socket op order is the same); only wall-clock time changes,
    /// so this is purely a throughput switch for multi-socket scenarios.
    pub parallel_engine: bool,
}

impl Default for HypervisorConfig {
    fn default() -> Self {
        HypervisorConfig {
            tick_ms: 10,
            ticks_per_slice: 3,
            record_history: false,
            parallel_engine: false,
        }
    }
}

impl HypervisorConfig {
    /// Enables per-tick history recording.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Sets the tick duration in milliseconds.
    pub fn with_tick_ms(mut self, tick_ms: u64) -> Self {
        self.tick_ms = tick_ms.max(1);
        self
    }

    /// Enables or disables socket-parallel engine execution
    /// (see [`HypervisorConfig::parallel_engine`]).
    pub fn with_parallel_engine(mut self, parallel: bool) -> Self {
        self.parallel_engine = parallel;
        self
    }
}

/// The pieces [`Hypervisor::take_vm`] extracts for a live migration. A
/// clone is a deep copy, workload execution state included; it checkpoints
/// VMs that are in flight between hypervisors.
#[derive(Clone)]
pub struct TakenVm {
    /// The VM's configuration (pinning and all — the control plane
    /// re-places it before re-adding).
    pub config: VmConfig,
    /// The per-vCPU workloads, execution state intact. The ops the source's
    /// engine had fetched from a workload but not yet executed (fewer than
    /// 64) are not part of that state: extraction discards them, so the
    /// stream resumes just past them.
    pub workloads: Vec<Box<dyn Workload>>,
    /// The VM's final execution report on the source hypervisor.
    pub report: VmReport,
    /// Cache lines (all levels) the extraction invalidated at the source —
    /// the warm state the VM must rebuild wherever it lands.
    pub flushed_lines: u64,
    /// Per-vCPU lifecycle states at extraction time. Extraction happens
    /// between ticks, so each entry is Ready or Blocked — a Blocked vCPU
    /// stays Blocked across the migration and only wakes when the VM's wake
    /// source fires at the destination.
    pub vcpu_states: Vec<VcpuState>,
    /// The VM-local wake clock at extraction time. Unlike the report
    /// counters (which restart per residency), the wake clock travels with
    /// the VM so its wake-event stream continues bit-identically.
    pub wake_clock: u64,
}

/// One row of the per-tick execution history.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TickSample {
    /// Tick index (0-based).
    pub tick: u64,
    /// The vCPU this sample describes.
    pub vcpu: VcpuId,
    /// Whether the vCPU was scheduled during the tick.
    pub scheduled: bool,
    /// Cycles consumed during the tick (0 when not scheduled).
    pub consumed_cycles: u64,
    /// Counter delta of the tick (all-zero when not scheduled).
    pub pmc_delta: PmcSet,
}

#[derive(Clone)]
struct VcpuRuntime {
    id: VcpuId,
    workload: Box<dyn Workload>,
    /// The ops fetched from `workload` but not executed; it rides in the
    /// vCPU's slot each tick, so the stream continues across ticks.
    queue: OpQueue,
    pmcs: PmcSet,
    cycles_run: u64,
    ticks_scheduled: u64,
    state: VcpuState,
    ticks_blocked: u64,
    blocked_cycles: u64,
}

#[derive(Clone)]
struct VmRuntime {
    id: VmId,
    config: VmConfig,
    vcpus: Vec<VcpuRuntime>,
    ticks_elapsed: u64,
    /// VM-local tick counter the wake source is keyed on. Unlike
    /// `ticks_elapsed` it survives `take_vm`/`admit_vm`, so wake events keep
    /// their schedule across migrations.
    wake_clock: u64,
}

/// The hypervisor: VMs + a scheduler + the simulated machine.
///
/// A clone deep-copies machine state, scheduler, VMs and their workloads'
/// execution progress, and continues bit-identically to the original:
/// the foundation of fleet checkpointing.
#[derive(Clone)]
pub struct Hypervisor<S: Scheduler> {
    engine: SimEngine,
    scheduler: S,
    config: HypervisorConfig,
    vms: Vec<VmRuntime>,
    /// The id the next VM gets. Wider than [`VmId`] so that handing out the
    /// last id (65535) cannot wrap to the reserved owner 0.
    next_vm_id: u32,
    tick: u64,
    history: Vec<TickSample>,
    /// Divides the per-tick cycle budget; 1 for a healthy machine. The fleet
    /// layer raises it to model a degraded (slowed-down) cell.
    budget_divisor: u64,
}

impl<S: Scheduler> fmt::Debug for Hypervisor<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hypervisor")
            .field("scheduler", &self.scheduler.name())
            .field("vms", &self.vms.len())
            .field("tick", &self.tick)
            .finish()
    }
}

impl<S: Scheduler> Hypervisor<S> {
    /// Creates a hypervisor managing `machine` with `scheduler`.
    pub fn new(machine: Machine, scheduler: S, config: HypervisorConfig) -> Self {
        Hypervisor {
            engine: SimEngine::new(machine),
            scheduler,
            config,
            vms: Vec::new(),
            next_vm_id: 1,
            tick: 0,
            history: Vec::new(),
            budget_divisor: 1,
        }
    }

    /// The hypervisor's timing configuration.
    pub fn config(&self) -> HypervisorConfig {
        self.config
    }

    /// Cycle budget of one tick on one core, for a healthy machine
    /// (divisor 1).
    pub fn cycles_per_tick(&self) -> u64 {
        self.engine.machine().config().freq_khz * self.config.tick_ms
    }

    /// The effective per-tick cycle budget after degradation: the nominal
    /// budget divided by [`Hypervisor::cycle_budget_divisor`], floored at
    /// one cycle so a degraded machine still makes progress.
    pub fn effective_cycles_per_tick(&self) -> u64 {
        (self.cycles_per_tick() / self.budget_divisor).max(1)
    }

    /// The current cycle-budget divisor (1 = healthy).
    pub fn cycle_budget_divisor(&self) -> u64 {
        self.budget_divisor
    }

    /// Degrades (or restores) the machine's per-tick cycle budget: every
    /// tick runs with `1/divisor` of the nominal cycles. Models a slowed-down
    /// host (thermal throttling, a failing disk stalling dom0, a noisy
    /// co-tenant outside the simulation). `divisor` is clamped to at least 1;
    /// pass 1 to restore full speed.
    pub fn set_cycle_budget_divisor(&mut self, divisor: u64) {
        self.budget_divisor = divisor.max(1);
    }

    /// The underlying simulation engine.
    pub fn engine(&self) -> &SimEngine {
        &self.engine
    }

    /// Mutable access to the underlying simulation engine (e.g. to enable
    /// shadow attribution before starting a run).
    pub fn engine_mut(&mut self) -> &mut SimEngine {
        &mut self.engine
    }

    /// The scheduler.
    pub fn scheduler(&self) -> &S {
        &self.scheduler
    }

    /// Mutable access to the scheduler (e.g. to reconfigure a Kyoto permit).
    pub fn scheduler_mut(&mut self) -> &mut S {
        &mut self.scheduler
    }

    /// Elapsed ticks since construction.
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// Elapsed simulated milliseconds since construction.
    pub fn elapsed_ms(&self) -> u64 {
        self.tick * self.config.tick_ms
    }

    /// Recorded per-tick history (empty unless
    /// [`HypervisorConfig::record_history`] is set).
    pub fn history(&self) -> &[TickSample] {
        &self.history
    }

    /// Creates a VM with one workload per vCPU and registers its vCPUs with
    /// the scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`HypervisorError::WorkloadCountMismatch`] when the number of
    /// workloads differs from `config.vcpus`,
    /// [`HypervisorError::EmptyPinning`] when `config.pinning` is an empty
    /// list, [`HypervisorError::InvalidPinning`] when a pinned core does not
    /// exist,
    /// and [`HypervisorError::VmIdsExhausted`] once ids 1 to 65535 have all
    /// been handed out (each id is issued at most once).
    pub fn add_vm(
        &mut self,
        config: VmConfig,
        workloads: Vec<Box<dyn Workload>>,
    ) -> Result<VmId, HypervisorError> {
        if workloads.len() != config.vcpus {
            return Err(HypervisorError::WorkloadCountMismatch {
                expected: config.vcpus,
                provided: workloads.len(),
            });
        }
        if let Some(pinning) = &config.pinning {
            if pinning.is_empty() {
                return Err(HypervisorError::EmptyPinning);
            }
            let num_cores = self.engine.machine().num_cores();
            if let Some(core) = pinning.iter().find(|c| c.0 >= num_cores) {
                return Err(HypervisorError::InvalidPinning { core: core.0 });
            }
        }
        let vm_id =
            VmId(u16::try_from(self.next_vm_id).map_err(|_| HypervisorError::VmIdsExhausted)?);
        self.next_vm_id += 1;
        // Pre-size per-owner cache counters so the simulation hot path never
        // grows them while this VM runs.
        self.engine.machine_mut().register_owner(vm_id.0);
        let mut vcpus = Vec::with_capacity(workloads.len());
        for (index, workload) in workloads.into_iter().enumerate() {
            let vcpu_id = VcpuId::new(vm_id, index as u32);
            self.scheduler.add_vcpu(vcpu_id, &config);
            vcpus.push(VcpuRuntime {
                id: vcpu_id,
                workload,
                queue: OpQueue::default(),
                pmcs: PmcSet::default(),
                cycles_run: 0,
                ticks_scheduled: 0,
                state: VcpuState::Ready,
                ticks_blocked: 0,
                blocked_cycles: 0,
            });
        }
        self.vms.push(VmRuntime {
            id: vm_id,
            config,
            vcpus,
            ticks_elapsed: 0,
            wake_clock: 0,
        });
        Ok(vm_id)
    }

    /// Convenience wrapper for single-vCPU VMs (the common case in the
    /// paper's experiments).
    ///
    /// # Errors
    ///
    /// Same as [`Hypervisor::add_vm`].
    pub fn add_vm_with(
        &mut self,
        config: VmConfig,
        workload: Box<dyn Workload>,
    ) -> Result<VmId, HypervisorError> {
        self.add_vm(config.with_vcpus(1), vec![workload])
    }

    /// Destroys a VM: unregisters its vCPUs and flushes its cache lines.
    ///
    /// # Errors
    ///
    /// Returns [`HypervisorError::UnknownVm`] when the VM does not exist.
    pub fn remove_vm(&mut self, vm: VmId) -> Result<(), HypervisorError> {
        self.take_vm(vm).map(drop)
    }

    /// Removes a VM like [`Hypervisor::remove_vm`] but hands its pieces back
    /// instead of dropping them: the configuration, the per-vCPU workloads
    /// (with their execution state intact) and the final execution report.
    /// Each vCPU's op queue is dropped, discarding its fewer than 64
    /// fetched-but-unexecuted ops.
    ///
    /// This is the extraction half of a live migration: a control plane
    /// re-adds the returned config and workloads to another hypervisor, where
    /// the VM arrives with a *cold* cache (its lines were flushed here and
    /// nothing travels with it), so the post-migration warm-up penalty
    /// emerges from the simulation itself.
    ///
    /// # Errors
    ///
    /// Returns [`HypervisorError::UnknownVm`] when the VM does not exist.
    pub fn take_vm(&mut self, vm: VmId) -> Result<TakenVm, HypervisorError> {
        let Some(pos) = self.vms.iter().position(|v| v.id == vm) else {
            return Err(HypervisorError::UnknownVm { vm });
        };
        let report = self.report(vm).expect("VM exists");
        let runtime = self.vms.remove(pos);
        let mut workloads = Vec::with_capacity(runtime.vcpus.len());
        let mut vcpu_states = Vec::with_capacity(runtime.vcpus.len());
        for vcpu in runtime.vcpus {
            self.scheduler.remove_vcpu(vcpu.id);
            vcpu_states.push(vcpu.state);
            workloads.push(vcpu.workload);
        }
        let flushed_lines = self.engine.machine_mut().flush_owner(vm.0);
        if let Some(shadow) = self.engine.shadow_mut() {
            shadow.remove_owner(vm.0)
        }
        Ok(TakenVm {
            config: runtime.config,
            workloads,
            report,
            flushed_lines,
            vcpu_states,
            wake_clock: runtime.wake_clock,
        })
    }

    /// Admits the pieces a [`Hypervisor::take_vm`] on another hypervisor
    /// extracted — the arrival half of a live migration, mirroring the
    /// extraction half. The workloads resume where the source's engine last
    /// fetched from them, past the fewer than 64 fetched-but-unexecuted ops
    /// [`Hypervisor::take_vm`] discarded; nothing of the VM's cache
    /// footprint arrives with them, so the first post-admission ticks
    /// re-fetch the working set through a cold cache.
    /// The lifecycle payload is restored too: a vCPU that was Blocked at the
    /// source arrives Blocked here, and the VM's wake clock continues where
    /// it stopped, so pending wake events fire at the same VM-local tick
    /// they would have fired at without the migration.
    ///
    /// The source-side report and flushed-line count travel inside `taken`
    /// for the control plane's bookkeeping but play no role here.
    ///
    /// # Errors
    ///
    /// Same as [`Hypervisor::add_vm`] (the configuration's pinning must be
    /// valid on *this* machine — re-place before admitting when topologies
    /// differ).
    pub fn admit_vm(&mut self, taken: TakenVm) -> Result<VmId, HypervisorError> {
        let TakenVm {
            config,
            workloads,
            vcpu_states,
            wake_clock,
            ..
        } = taken;
        let vm_id = self.add_vm(config, workloads)?;
        let vm = self.vms.last_mut().expect("add_vm just pushed this VM");
        debug_assert_eq!(vm.id, vm_id);
        vm.wake_clock = wake_clock;
        for (vcpu, state) in vm.vcpus.iter_mut().zip(vcpu_states) {
            vcpu.state = state;
            if !state.is_runnable() {
                self.scheduler.set_runnable(vcpu.id, false);
            }
        }
        Ok(vm_id)
    }

    /// The ids of every VM currently managed, in creation order.
    pub fn vm_ids(&self) -> Vec<VmId> {
        self.vms.iter().map(|v| v.id).collect()
    }

    /// Looks a VM up by its configured name.
    pub fn vm_by_name(&self, name: &str) -> Option<VmId> {
        self.vms
            .iter()
            .find(|v| v.config.name == name)
            .map(|v| v.id)
    }

    /// Runs the machine for `ticks` scheduler ticks.
    pub fn run_ticks(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step_tick();
        }
    }

    /// Runs the machine for `ms` simulated milliseconds (rounded down to
    /// whole ticks, at least one).
    pub fn run_ms(&mut self, ms: u64) {
        let ticks = (ms / self.config.tick_ms).max(1);
        self.run_ticks(ticks);
    }

    /// Executes a single scheduler tick.
    pub fn step_tick(&mut self) {
        let cycles_per_tick = self.effective_cycles_per_tick();
        let tick = self.tick;
        let tick_ms = self.config.tick_ms;
        let record_history = self.config.record_history;
        let parallel_engine = self.config.parallel_engine;

        // Phase 0: wake delivery. Blocked vCPUs whose VM's wake source fires
        // at the current VM-local wake clock become Ready *before* placement,
        // so a woken vCPU can be picked this very tick. Wake events are a
        // pure function of (source, wake clock, vCPU index) — see
        // [`crate::lifecycle::WakeSource`] — so this phase is deterministic
        // and independent of scheduling history.
        let wake_trace_on = self.engine.trace().is_enabled();
        let wake_ts = if wake_trace_on {
            self.engine.elapsed_cycles()
        } else {
            0
        };
        for vm in self.vms.iter_mut() {
            let Some(source) = vm.config.wake_source.as_ref() else {
                continue;
            };
            let wake_clock = vm.wake_clock;
            for vcpu in vm.vcpus.iter_mut() {
                if vcpu.state == VcpuState::Blocked
                    && source.fires(wake_clock, vcpu.id.index as usize)
                {
                    vcpu.state = VcpuState::Ready;
                    vcpu.workload.on_wake();
                    self.scheduler.set_runnable(vcpu.id, true);
                    if wake_trace_on {
                        self.engine.trace_mut().instant_with(
                            "hv",
                            "vm.wake",
                            wake_ts,
                            format!("vm={} vcpu={}", vcpu.id.vm.0, vcpu.id.index),
                        );
                    }
                }
            }
        }

        // Phase 1: placement. Ask the scheduler, core by core, which vCPU
        // runs next. A vCPU runs on at most one core per tick. Blocked
        // vCPUs are filtered out here: the scheduler only ever sees
        // runnable candidates. Every vCPU has one flat index in VM order,
        // and `placed` records the core it runs on this tick.
        let num_vcpus = self.vms.iter().map(|vm| vm.vcpus.len()).sum();
        let mut placed: Vec<Option<CoreId>> = vec![None; num_vcpus];
        let mut picks: Vec<(CoreId, VcpuId)> = Vec::new();
        let mut candidates: Vec<VcpuId> = Vec::new();
        let mut candidate_flat: Vec<usize> = Vec::new();
        for core in (0..self.engine.machine().num_cores()).map(CoreId) {
            candidates.clear();
            candidate_flat.clear();
            let vcpus = self
                .vms
                .iter()
                .flat_map(|vm| vm.vcpus.iter().map(move |vcpu| (&vm.config, vcpu)));
            for (flat, (config, vcpu)) in vcpus.enumerate() {
                let allowed = match config.pinned_core(vcpu.id.index) {
                    Some(pinned) => pinned == core,
                    None => true,
                };
                if allowed && vcpu.state.is_runnable() && placed[flat].is_none() {
                    candidates.push(vcpu.id);
                    candidate_flat.push(flat);
                }
            }
            let Some(chosen) = self.scheduler.pick_next(core, &candidates) else {
                continue;
            };
            // A scheduler picks among its candidates (see
            // `Scheduler::pick_next`); a pick outside them is ignored.
            if let Some(i) = candidates.iter().position(|&vcpu| vcpu == chosen) {
                placed[candidate_flat[i]] = Some(core);
                picks.push((core, chosen));
            }
        }

        // Phase 2: execution. Build one slot per placed vCPU, in VM order,
        // and let the engine interleave them over the shared machine.
        let Hypervisor {
            engine,
            scheduler,
            vms,
            history,
            ..
        } = self;

        // Scheduler decisions become trace instants on the `hv` track, in
        // core order, timestamped at the engine's simulated clock *before*
        // the tick's execution (the instant marks when the decision was
        // made). One branch when tracing is off.
        let trace_on = engine.trace().is_enabled();
        if trace_on {
            let ts = engine.elapsed_cycles();
            for (core, vcpu) in &picks {
                engine.trace_mut().instant_with(
                    "hv",
                    "hv.pick",
                    ts,
                    format!("core={} vm={} vcpu={}", core.0, vcpu.vm.0, vcpu.index),
                );
            }
            engine
                .trace_mut()
                .counter_add("hv.picks", picks.len() as u64);
        }

        let mut slots: Vec<ExecSlot<'_>> = Vec::with_capacity(picks.len());
        let mut slot_vcpus: Vec<VcpuId> = Vec::with_capacity(picks.len());
        let mut shadow_before: Vec<Option<u64>> = Vec::with_capacity(picks.len());
        let mut flat = 0;
        for vm in vms.iter_mut() {
            let vm_id = vm.id;
            let numa_node = vm.config.numa_node;
            for vcpu in vm.vcpus.iter_mut() {
                let core = placed[flat];
                flat += 1;
                let Some(core) = core else {
                    continue;
                };
                vcpu.state = VcpuState::Running;
                let overrides = scheduler.overrides(vcpu.id);
                let mut slot = ExecSlot::new(core, vm_id.0, vcpu.workload.as_mut())
                    .with_force_remote(overrides.force_remote);
                if let Some(node) = numa_node {
                    slot = slot.with_data_node(node);
                }
                // The vCPU's op queue rides in its slot, so the stream
                // continues where the vCPU's last tick stopped, on
                // whichever core it runs now.
                slot.queue = std::mem::take(&mut vcpu.queue);
                shadow_before.push(engine.shadow().map(|s| s.solo_misses(vm_id.0)));
                slot_vcpus.push(vcpu.id);
                slots.push(slot);
            }
        }
        let reports = if parallel_engine {
            engine.run_slots_parallel(&mut slots, cycles_per_tick)
        } else {
            engine.run_slots(&mut slots, cycles_per_tick)
        };
        let mut queues: Vec<OpQueue> = slots.into_iter().map(|slot| slot.queue).collect();

        // Phase 3: accounting.
        let mut scheduled_info: Vec<(VcpuId, TickReport)> = Vec::with_capacity(reports.len());
        for (i, vcpu_id) in slot_vcpus.iter().enumerate() {
            let report = &reports[i];
            let shadow_delta = match (shadow_before[i], engine.shadow()) {
                (Some(before), Some(shadow)) => {
                    Some(shadow.solo_misses(vcpu_id.vm.0).saturating_sub(before))
                }
                _ => None,
            };
            let tick_report = TickReport {
                consumed_cycles: report.consumed_cycles,
                budget_cycles: cycles_per_tick,
                pmc_delta: report.pmc_delta,
                pollution_events: report.pollution_events,
                shadow_llc_misses: shadow_delta,
                tick_ms,
            };
            scheduled_info.push((*vcpu_id, tick_report));
        }

        for (vcpu_id, tick_report) in &scheduled_info {
            let punishments_before = if trace_on {
                scheduler.punishments(*vcpu_id)
            } else {
                0
            };
            scheduler.account(*vcpu_id, tick_report);
            if trace_on {
                // Punishment decisions (Kyoto descheduling) surface as
                // instants with the per-tick delta of the scheduler's
                // cumulative punishment count.
                let delta = scheduler
                    .punishments(*vcpu_id)
                    .saturating_sub(punishments_before);
                if delta > 0 {
                    let ts = engine.elapsed_cycles();
                    engine.trace_mut().instant_with(
                        "hv",
                        "hv.punish",
                        ts,
                        format!("vm={} vcpu={} n={}", vcpu_id.vm.0, vcpu_id.index, delta),
                    );
                    engine.trace_mut().counter_add("hv.punishments", delta);
                }
            }
        }

        let end_ts = if trace_on { engine.elapsed_cycles() } else { 0 };
        // Slots, reports and `scheduled_info` were built in VM order, so a
        // running slot counter hands each placed vCPU back its slot's queue
        // and report.
        let mut flat = 0;
        let mut next_slot = 0;
        for vm in vms.iter_mut() {
            vm.ticks_elapsed += 1;
            let mut vm_blocked_cycles = 0u64;
            for vcpu in vm.vcpus.iter_mut() {
                let slot = placed[flat].is_some().then(|| {
                    next_slot += 1;
                    next_slot - 1
                });
                flat += 1;
                if let Some(i) = slot {
                    vcpu.queue = std::mem::take(&mut queues[i]);
                }
                let scheduled = slot.map(|i| &scheduled_info[i]);
                if let Some((_, tick_report)) = scheduled {
                    vcpu.pmcs += tick_report.pmc_delta;
                    vcpu.cycles_run += tick_report.consumed_cycles;
                    vcpu.ticks_scheduled += 1;
                }
                if record_history {
                    history.push(TickSample {
                        tick,
                        vcpu: vcpu.id,
                        scheduled: scheduled.is_some(),
                        consumed_cycles: scheduled.map(|(_, r)| r.consumed_cycles).unwrap_or(0),
                        pmc_delta: scheduled.map(|(_, r)| r.pmc_delta).unwrap_or_default(),
                    });
                }
                // Lifecycle epilogue. A vCPU that ran this tick either
                // blocks (the workload executed a WFI) or is preempted back
                // to Ready — the tick boundary always ends its quantum. A
                // vCPU that stayed Blocked through the whole tick accrues
                // blocked time but is never charged cycles: the engine
                // never saw it.
                if vcpu.state == VcpuState::Running {
                    if vcpu.workload.wants_block() {
                        vcpu.state = VcpuState::Blocked;
                        scheduler.set_runnable(vcpu.id, false);
                        if trace_on {
                            engine.trace_mut().instant_with(
                                "hv",
                                "vm.block",
                                end_ts,
                                format!("vm={} vcpu={}", vcpu.id.vm.0, vcpu.id.index),
                            );
                        }
                    } else {
                        vcpu.state = VcpuState::Ready;
                    }
                } else if vcpu.state == VcpuState::Blocked {
                    vcpu.ticks_blocked += 1;
                    vcpu.blocked_cycles += cycles_per_tick;
                    vm_blocked_cycles += cycles_per_tick;
                }
            }
            if trace_on && vm_blocked_cycles > 0 {
                engine
                    .trace_mut()
                    .counter_add(&format!("vm{}.blocked_cycles", vm.id.0), vm_blocked_cycles);
            }
            vm.wake_clock += 1;
        }

        scheduler.on_tick(tick);
        self.tick += 1;
    }

    /// The current lifecycle state of a vCPU, or `None` for an unknown id.
    /// Between ticks this is always `Ready` or `Blocked` (`Running` only
    /// exists inside [`Hypervisor::step_tick`]).
    pub fn vcpu_state(&self, vcpu: VcpuId) -> Option<VcpuState> {
        self.vms
            .iter()
            .find(|v| v.id == vcpu.vm)?
            .vcpus
            .iter()
            .find(|v| v.id == vcpu)
            .map(|v| v.state)
    }

    /// The VM-local wake clock (ticks since the VM was first created,
    /// surviving migration), or `None` for an unknown VM.
    pub fn wake_clock(&self, vm: VmId) -> Option<u64> {
        self.vms.iter().find(|v| v.id == vm).map(|v| v.wake_clock)
    }

    /// The execution report of one VM.
    pub fn report(&self, vm: VmId) -> Option<VmReport> {
        let runtime = self.vms.iter().find(|v| v.id == vm)?;
        let mut pmcs = PmcSet::default();
        let mut cycles_run = 0;
        let mut ticks_scheduled = 0;
        let mut punishments = 0;
        let mut ticks_blocked = 0;
        let mut blocked_cycles = 0;
        for vcpu in &runtime.vcpus {
            pmcs += vcpu.pmcs;
            cycles_run += vcpu.cycles_run;
            ticks_scheduled += vcpu.ticks_scheduled;
            punishments += self.scheduler.punishments(vcpu.id);
            ticks_blocked += vcpu.ticks_blocked;
            blocked_cycles += vcpu.blocked_cycles;
        }
        Some(VmReport {
            vm,
            name: runtime.config.name.clone(),
            pmcs,
            cycles_run,
            ticks_scheduled,
            ticks_elapsed: runtime.ticks_elapsed,
            punishments,
            ticks_blocked,
            blocked_cycles,
        })
    }

    /// Execution reports of every VM, in creation order.
    pub fn reports(&self) -> Vec<VmReport> {
        self.vms
            .iter()
            .filter_map(|vm| self.report(vm.id))
            .collect()
    }

    /// The per-tick history restricted to one vCPU.
    pub fn history_of(&self, vcpu: VcpuId) -> Vec<TickSample> {
        self.history
            .iter()
            .copied()
            .filter(|sample| sample.vcpu == vcpu)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::{CreditConfig, CreditScheduler};
    use crate::pisces::PiscesScheduler;
    use kyoto_sim::topology::MachineConfig;
    use kyoto_sim::workload::ComputeOnly;
    use kyoto_workloads::spec::{SpecApp, SpecWorkload};
    use kyoto_workloads::synthetic::Streaming;

    const SCALE: u64 = 64;

    fn machine() -> Machine {
        Machine::new(MachineConfig::scaled_paper_machine(SCALE))
    }

    fn xen_hypervisor(machine: Machine) -> Hypervisor<CreditScheduler> {
        let hconfig = HypervisorConfig::default();
        let cycles_per_tick = machine.config().freq_khz * hconfig.tick_ms;
        let scheduler = CreditScheduler::new(CreditConfig::new(
            machine.num_cores(),
            cycles_per_tick,
            hconfig.ticks_per_slice,
        ));
        Hypervisor::new(machine, scheduler, hconfig)
    }

    #[test]
    fn add_vm_validates_workload_count_and_pinning() {
        let mut hv = xen_hypervisor(machine());
        let err = hv
            .add_vm(
                VmConfig::new("x").with_vcpus(2),
                vec![Box::new(ComputeOnly::new(1))],
            )
            .unwrap_err();
        assert!(matches!(
            err,
            HypervisorError::WorkloadCountMismatch {
                expected: 2,
                provided: 1
            }
        ));
        let err = hv
            .add_vm_with(
                VmConfig::new("y").pinned_to(vec![CoreId(99)]),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap_err();
        assert!(matches!(err, HypervisorError::InvalidPinning { core: 99 }));
        assert!(err.to_string().contains("99"));
    }

    #[test]
    fn vm_ids_are_unique_and_lookup_by_name_works() {
        let mut hv = xen_hypervisor(machine());
        let a = hv
            .add_vm_with(VmConfig::new("gcc"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        let b = hv
            .add_vm_with(VmConfig::new("lbm"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(hv.vm_by_name("gcc"), Some(a));
        assert_eq!(hv.vm_by_name("nope"), None);
        assert_eq!(hv.vm_ids(), vec![a, b]);
    }

    #[test]
    fn vm_ids_are_issued_once_each_and_then_exhausted() {
        // One-set caches keep the 65534 flushes cheap.
        let mut hv = xen_hypervisor(Machine::new(MachineConfig::scaled_paper_machine(1 << 16)));
        let vm = |name: &str| (VmConfig::new(name), Box::new(ComputeOnly::new(1)));
        let (config, workload) = vm("live");
        let live = hv.add_vm_with(config, workload).unwrap();
        assert_eq!(live, VmId(1));
        for id in 2..=u16::MAX {
            let (config, workload) = vm("churn");
            let churn = hv.add_vm_with(config, workload).unwrap();
            assert_eq!(churn, VmId(id));
            hv.take_vm(churn).unwrap();
        }
        let (config, workload) = vm("one too many");
        assert_eq!(
            hv.add_vm_with(config, workload),
            Err(HypervisorError::VmIdsExhausted)
        );
        assert_eq!(hv.vm_ids(), vec![live]);
    }

    #[test]
    fn a_single_vm_gets_the_whole_machine() {
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(VmConfig::new("solo"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        hv.run_ticks(6);
        let report = hv.report(vm).unwrap();
        assert_eq!(report.ticks_elapsed, 6);
        assert_eq!(report.ticks_scheduled, 6, "a lone VM should run every tick");
        assert!((report.ipc() - 1.0).abs() < 1e-9);
        assert!(report.cycles_run >= 6 * hv.cycles_per_tick());
    }

    #[test]
    fn unknown_vm_report_is_none_and_remove_errors() {
        let mut hv = xen_hypervisor(machine());
        assert!(hv.report(VmId(42)).is_none());
        assert!(matches!(
            hv.remove_vm(VmId(42)),
            Err(HypervisorError::UnknownVm { .. })
        ));
    }

    #[test]
    fn pinned_vms_share_a_core_in_alternation() {
        let mut hv = xen_hypervisor(machine());
        let a = hv
            .add_vm_with(
                VmConfig::new("a").pinned_to(vec![CoreId(0)]),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap();
        let b = hv
            .add_vm_with(
                VmConfig::new("b").pinned_to(vec![CoreId(0)]),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap();
        hv.run_ticks(30);
        let ra = hv.report(a).unwrap();
        let rb = hv.report(b).unwrap();
        // Both share core 0: each runs roughly half of the ticks.
        assert_eq!(ra.ticks_scheduled + rb.ticks_scheduled, 30);
        assert!(
            ra.ticks_scheduled >= 12 && ra.ticks_scheduled <= 18,
            "{}",
            ra.ticks_scheduled
        );
        assert!(
            rb.ticks_scheduled >= 12 && rb.ticks_scheduled <= 18,
            "{}",
            rb.ticks_scheduled
        );
    }

    #[test]
    fn unpinned_vms_spread_across_cores() {
        let mut hv = xen_hypervisor(machine());
        let mut vms = Vec::new();
        for i in 0..4 {
            vms.push(
                hv.add_vm_with(
                    VmConfig::new(format!("vm{i}")),
                    Box::new(ComputeOnly::new(1)),
                )
                .unwrap(),
            );
        }
        hv.run_ticks(10);
        for vm in vms {
            let report = hv.report(vm).unwrap();
            assert_eq!(
                report.ticks_scheduled, 10,
                "4 VMs on 4 cores should all run every tick"
            );
        }
    }

    #[test]
    fn caps_limit_cpu_share() {
        let mut hv = xen_hypervisor(machine());
        let capped = hv
            .add_vm_with(
                VmConfig::new("capped").with_cap_percent(30),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap();
        hv.run_ticks(60);
        let report = hv.report(capped).unwrap();
        let share = report.cpu_share();
        assert!(
            share < 0.5,
            "a 30% cap must keep CPU share well below 1.0, got {share}"
        );
        assert!(
            share > 0.1,
            "the capped VM must still make progress, got {share}"
        );
    }

    #[test]
    fn history_records_every_vcpu_every_tick_when_enabled() {
        let m = machine();
        let hconfig = HypervisorConfig::default().with_history();
        let cycles_per_tick = m.config().freq_khz * hconfig.tick_ms;
        let scheduler = CreditScheduler::new(CreditConfig::new(
            m.num_cores(),
            cycles_per_tick,
            hconfig.ticks_per_slice,
        ));
        let mut hv = Hypervisor::new(m, scheduler, hconfig);
        let a = hv
            .add_vm_with(VmConfig::new("a"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        hv.add_vm_with(VmConfig::new("b"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        hv.run_ticks(5);
        assert_eq!(hv.history().len(), 10, "2 vCPUs x 5 ticks");
        let a_history = hv.history_of(VcpuId::new(a, 0));
        assert_eq!(a_history.len(), 5);
        assert!(a_history.iter().all(|s| s.scheduled));
    }

    #[test]
    fn contention_emerges_between_parallel_vms() {
        // A gcc-like sensitive VM co-located with an lbm-like disruptor on
        // the same socket runs slower than alone: the core phenomenon of the
        // paper (Section 2.2), emerging from the shared LLC model.
        let solo_ipc = {
            let mut hv = xen_hypervisor(machine());
            let vm = hv
                .add_vm_with(
                    VmConfig::new("gcc").pinned_to(vec![CoreId(0)]),
                    Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, 1)),
                )
                .unwrap();
            hv.run_ticks(30);
            hv.report(vm).unwrap().ipc()
        };
        let contended_ipc = {
            let mut hv = xen_hypervisor(machine());
            let vm = hv
                .add_vm_with(
                    VmConfig::new("gcc").pinned_to(vec![CoreId(0)]),
                    Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, 1)),
                )
                .unwrap();
            hv.add_vm_with(
                VmConfig::new("lbm").pinned_to(vec![CoreId(1)]),
                Box::new(SpecWorkload::new(SpecApp::Lbm, SCALE, 2)),
            )
            .unwrap();
            hv.run_ticks(30);
            hv.report(vm).unwrap().ipc()
        };
        assert!(
            contended_ipc < solo_ipc * 0.95,
            "LLC contention should degrade the sensitive VM (solo {solo_ipc:.3}, contended {contended_ipc:.3})"
        );
    }

    #[test]
    fn remove_vm_releases_cache_and_scheduler_state() {
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(
                VmConfig::new("victim"),
                Box::new(Streaming::new(1 << 20, 1)),
            )
            .unwrap();
        hv.run_ticks(3);
        assert!(hv.report(vm).is_some());
        hv.remove_vm(vm).unwrap();
        assert!(hv.report(vm).is_none());
        assert_eq!(
            hv.engine()
                .machine()
                .llc_occupancy_of(kyoto_sim::topology::SocketId(0), vm.0),
            0
        );
    }

    #[test]
    fn take_vm_returns_config_workloads_and_report() {
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(
                VmConfig::new("mover").pinned_to(vec![CoreId(0)]),
                Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, 7)),
            )
            .unwrap();
        hv.run_ticks(5);
        let taken = hv.take_vm(vm).unwrap();
        assert_eq!(taken.config.name, "mover");
        assert_eq!(taken.workloads.len(), 1);
        assert_eq!(taken.report.ticks_elapsed, 5);
        assert!(taken.report.pmcs.instructions > 0);
        assert!(
            taken.flushed_lines > 0,
            "a VM that ran for 5 ticks has warm cache state to drop"
        );
        assert!(hv.report(vm).is_none());
        assert_eq!(
            hv.engine()
                .machine()
                .llc_occupancy_of(kyoto_sim::topology::SocketId(0), vm.0),
            0,
            "extraction flushes the source cache"
        );
        // The extracted pieces can be admitted to another hypervisor and the
        // workload keeps executing (its state travels; its cache does not).
        let mut dest = xen_hypervisor(machine());
        let new = dest.admit_vm(taken).unwrap();
        dest.run_ticks(3);
        let report = dest.report(new).unwrap();
        assert_eq!(report.name, "mover");
        assert!(report.pmcs.instructions > 0);
    }

    #[test]
    fn admit_vm_rejects_invalid_pinning_on_the_new_machine() {
        // A VM pinned to core 3 of the 4-core paper machine cannot be
        // admitted onto a smaller machine without re-placement.
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(
                VmConfig::new("pinned").pinned_to(vec![CoreId(3)]),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap();
        hv.run_ticks(2);
        let taken = hv.take_vm(vm).unwrap();
        let small = MachineConfig::scaled_paper_machine(SCALE).with_cores_per_socket(2);
        let mut dest = xen_hypervisor(Machine::new(small));
        assert!(matches!(
            dest.admit_vm(taken),
            Err(HypervisorError::InvalidPinning { core: 3 })
        ));
    }

    #[test]
    fn an_empty_pinning_list_is_a_typed_error_not_a_panicking_tick() {
        let empty = || VmConfig {
            pinning: Some(Vec::new()),
            ..VmConfig::new("empty")
        };
        let mut hv = xen_hypervisor(machine());
        assert_eq!(
            hv.add_vm(empty(), vec![Box::new(ComputeOnly::new(1))]),
            Err(HypervisorError::EmptyPinning)
        );
        // The arrival half of a migration goes through the same check.
        let vm = hv
            .add_vm_with(VmConfig::new("mover"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        let mut taken = hv.take_vm(vm).unwrap();
        taken.config = empty();
        assert!(matches!(
            hv.admit_vm(taken),
            Err(HypervisorError::EmptyPinning)
        ));
        // Nothing was admitted, so ticks run; the builder still reads an
        // empty list as unpinned.
        hv.run_ticks(2);
        let unpinned = hv
            .add_vm_with(
                VmConfig::new("unpinned").pinned_to(vec![]),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap();
        hv.run_ticks(2);
        assert!(hv.report(unpinned).unwrap().pmcs.instructions > 0);
    }

    #[test]
    fn pisces_hypervisor_runs_enclaves_in_parallel() {
        let m = machine();
        let scheduler = PiscesScheduler::new(m.num_cores());
        let mut hv = Hypervisor::new(m, scheduler, HypervisorConfig::default());
        let a = hv
            .add_vm_with(VmConfig::new("hpc-a"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        let b = hv
            .add_vm_with(VmConfig::new("hpc-b"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        hv.run_ticks(10);
        assert_eq!(hv.report(a).unwrap().ticks_scheduled, 10);
        assert_eq!(hv.report(b).unwrap().ticks_scheduled, 10);
    }

    #[test]
    fn parallel_engine_ticks_match_the_serial_engine() {
        // Same VMs on the two-socket machine, one hypervisor running the
        // serial engine and one the socket-parallel engine: every VM report
        // (PMCs included) must be identical, because the parallel path
        // preserves per-socket op order exactly.
        let run = |parallel: bool| {
            let machine = Machine::new(MachineConfig::scaled_paper_numa_machine(SCALE));
            let hconfig = HypervisorConfig::default().with_parallel_engine(parallel);
            let cycles_per_tick = machine.config().freq_khz * hconfig.tick_ms;
            let scheduler = CreditScheduler::new(CreditConfig::new(
                machine.num_cores(),
                cycles_per_tick,
                hconfig.ticks_per_slice,
            ));
            let mut hv = Hypervisor::new(machine, scheduler, hconfig);
            hv.engine_mut().enable_shadow_attribution().unwrap();
            for (i, core) in [0usize, 1, 4, 5].iter().enumerate() {
                hv.add_vm_with(
                    VmConfig::new(format!("vm{i}")).pinned_to(vec![CoreId(*core)]),
                    Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, i as u64)),
                )
                .unwrap();
            }
            hv.run_ticks(8);
            let reports: Vec<VmReport> = hv.reports();
            let shadow: Vec<u64> = hv
                .vm_ids()
                .iter()
                .map(|vm| hv.engine().shadow().unwrap().solo_misses(vm.0))
                .collect();
            (reports, shadow)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn budget_divisor_degrades_and_restores_throughput() {
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(VmConfig::new("slowpoke"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        assert_eq!(hv.effective_cycles_per_tick(), hv.cycles_per_tick());
        hv.run_ticks(4);
        let healthy = hv.report(vm).unwrap().cycles_run;

        hv.set_cycle_budget_divisor(4);
        assert_eq!(hv.cycle_budget_divisor(), 4);
        assert_eq!(hv.effective_cycles_per_tick(), hv.cycles_per_tick() / 4);
        hv.run_ticks(4);
        let degraded = hv.report(vm).unwrap().cycles_run - healthy;
        assert!(
            degraded < healthy / 2,
            "a /4 budget must at least halve per-window cycles ({degraded} vs {healthy})"
        );

        hv.set_cycle_budget_divisor(0); // clamps to 1 — full speed again
        assert_eq!(hv.cycle_budget_divisor(), 1);
        hv.run_ticks(4);
        let restored = hv.report(vm).unwrap().cycles_run - healthy - degraded;
        assert!(restored >= healthy, "{restored} vs {healthy}");
    }

    #[test]
    fn try_clone_continues_bit_identically() {
        let mut hv = xen_hypervisor(machine());
        for (i, app) in [SpecApp::Gcc, SpecApp::Lbm].iter().enumerate() {
            hv.add_vm_with(
                VmConfig::new(format!("vm{i}")).pinned_to(vec![CoreId(i)]),
                Box::new(SpecWorkload::new(*app, SCALE, i as u64)),
            )
            .unwrap();
        }
        hv.run_ticks(5);
        let mut copy = hv.clone();
        assert_eq!(copy.current_tick(), hv.current_tick());
        assert_eq!(copy.reports(), hv.reports());
        hv.run_ticks(7);
        copy.run_ticks(7);
        assert_eq!(
            copy.reports(),
            hv.reports(),
            "a clone must continue exactly like the original"
        );
        // Divergence after the fork stays confined to the copy.
        copy.run_ticks(1);
        assert_ne!(copy.reports(), hv.reports());
    }

    #[test]
    fn a_vcpu_op_stream_continues_across_ticks() {
        // gcc and mcf time-share core 0, so each vCPU's op stream is cut at
        // tick boundaries and resumed on a later tick. Replaying the
        // recorded schedule on a bare engine, with one slot per VM reused
        // across calls, must give each VM the same counters: a queue the
        // hypervisor lost between ticks would skip ops.
        let apps = [SpecApp::Gcc, SpecApp::Mcf];
        let spec = |i: usize| SpecWorkload::new(apps[i], SCALE, i as u64);
        let mut hv = crate::xen_hypervisor(machine(), HypervisorConfig::default().with_history());
        let vms: Vec<VmId> = (0..apps.len())
            .map(|i| {
                hv.add_vm_with(
                    VmConfig::new(format!("vm{i}")).pinned_to(vec![CoreId(0)]),
                    Box::new(spec(i)),
                )
                .unwrap()
            })
            .collect();
        hv.run_ticks(60);

        let mut engine = SimEngine::new(machine());
        let mut workloads: Vec<SpecWorkload> = (0..apps.len()).map(spec).collect();
        let mut slots: Vec<ExecSlot<'_>> = workloads
            .iter_mut()
            .zip(&vms)
            .map(|(workload, vm)| ExecSlot::new(CoreId(0), vm.0, workload))
            .collect();
        let scheduled: Vec<&TickSample> = hv.history().iter().filter(|s| s.scheduled).collect();
        assert_eq!(scheduled.len(), 60, "core 0 runs one vCPU every tick");
        for sample in scheduled {
            let i = vms.iter().position(|vm| *vm == sample.vcpu.vm).unwrap();
            engine.run_slots(
                std::slice::from_mut(&mut slots[i]),
                hv.effective_cycles_per_tick(),
            );
        }
        for (slot, vm) in slots.iter().zip(&vms) {
            let report = hv.report(*vm).unwrap();
            assert!((1..60).contains(&report.ticks_scheduled));
            assert_eq!(report.pmcs, slot.pmcs, "{}", report.name);
        }
    }

    /// A WFI-style workload: emits `burst_ops` compute ops, then asks to
    /// block until woken (each wake grants a fresh burst). With bursts below
    /// the engine's fetch chunk the whole burst drains during the first
    /// scheduled tick, so the vCPU runs exactly one tick per wake.
    #[derive(Clone)]
    struct Wfi {
        burst_ops: u32,
        remaining: u32,
    }

    impl Wfi {
        fn new(burst_ops: u32) -> Self {
            Wfi {
                burst_ops,
                remaining: burst_ops,
            }
        }
    }

    impl Workload for Wfi {
        fn next_op(&mut self) -> kyoto_sim::workload::Op {
            self.remaining = self.remaining.saturating_sub(1);
            kyoto_sim::workload::Op::Compute { cycles: 1 }
        }
        fn name(&self) -> &str {
            "wfi"
        }
        fn working_set_bytes(&self) -> u64 {
            0
        }
        fn wants_block(&self) -> bool {
            self.remaining == 0
        }
        fn on_wake(&mut self) {
            self.remaining = self.burst_ops;
        }
    }

    #[test]
    fn a_wfi_vm_without_wake_source_sleeps_forever() {
        use crate::lifecycle::VcpuState;
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(VmConfig::new("sleepy"), Box::new(Wfi::new(8)))
            .unwrap();
        hv.run_ticks(10);
        let report = hv.report(vm).unwrap();
        assert_eq!(hv.vcpu_state(VcpuId::new(vm, 0)), Some(VcpuState::Blocked));
        assert_eq!(
            report.ticks_scheduled, 1,
            "one burst, then WFI with no wakes"
        );
        assert_eq!(report.ticks_blocked, 9);
        assert_eq!(report.ticks_elapsed, 10);
        assert!((report.blocked_fraction() - 0.9).abs() < 1e-12);
        assert_eq!(
            report.blocked_cycles,
            9 * hv.cycles_per_tick(),
            "blocked ticks are tracked but never charged"
        );
        assert!(
            report.cycles_run <= hv.cycles_per_tick(),
            "a blocked vCPU accrues zero engine cycles"
        );
    }

    #[test]
    fn periodic_wakes_run_one_tick_per_period() {
        use crate::lifecycle::WakeSource;
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(
                VmConfig::new("interactive")
                    .with_wake_source(WakeSource::new(1).with_timer_period(4)),
                Box::new(Wfi::new(8)),
            )
            .unwrap();
        hv.run_ticks(16);
        let report = hv.report(vm).unwrap();
        // Runs at wake-clock 0 (initially Ready), then at every periodic
        // wake: ticks 4, 8 and 12.
        assert_eq!(report.ticks_scheduled, 4);
        assert_eq!(report.ticks_blocked, 12);
    }

    #[test]
    fn a_blocked_vcpu_frees_its_core_for_others() {
        use crate::lifecycle::WakeSource;
        let mut hv = xen_hypervisor(machine());
        let sleepy = hv
            .add_vm_with(
                VmConfig::new("sleepy")
                    .pinned_to(vec![CoreId(0)])
                    .with_wake_source(WakeSource::new(1).with_timer_period(5)),
                Box::new(Wfi::new(8)),
            )
            .unwrap();
        let busy = hv
            .add_vm_with(
                VmConfig::new("busy").pinned_to(vec![CoreId(0)]),
                Box::new(ComputeOnly::new(1)),
            )
            .unwrap();
        hv.run_ticks(20);
        let rs = hv.report(sleepy).unwrap();
        let rb = hv.report(busy).unwrap();
        assert_eq!(
            rs.ticks_scheduled + rb.ticks_scheduled,
            20,
            "core 0 never idles while a runnable vCPU exists"
        );
        assert!(rs.ticks_scheduled >= 1);
        assert!(
            rb.ticks_scheduled > 10,
            "the busy VM must get the core whenever its neighbour sleeps, got {}",
            rb.ticks_scheduled
        );
    }

    #[test]
    fn migration_preserves_blocked_state_and_wake_clock() {
        use crate::lifecycle::{VcpuState, WakeSource};
        let mut hv = xen_hypervisor(machine());
        let vm = hv
            .add_vm_with(
                VmConfig::new("mig").with_wake_source(WakeSource::new(2).with_timer(10)),
                Box::new(Wfi::new(8)),
            )
            .unwrap();
        hv.run_ticks(5); // runs tick 0, blocks, sleeps ticks 1..4
        let taken = hv.take_vm(vm).unwrap();
        assert_eq!(taken.vcpu_states, vec![VcpuState::Blocked]);
        assert_eq!(taken.wake_clock, 5);

        let mut dest = xen_hypervisor(machine());
        let new = dest.admit_vm(taken).unwrap();
        assert_eq!(
            dest.vcpu_state(VcpuId::new(new, 0)),
            Some(VcpuState::Blocked)
        );
        assert_eq!(dest.wake_clock(new), Some(5));
        dest.run_ticks(5); // wake clock 5..9: the tick-10 timer is still pending
        assert_eq!(
            dest.vcpu_state(VcpuId::new(new, 0)),
            Some(VcpuState::Blocked)
        );
        assert_eq!(dest.report(new).unwrap().ticks_scheduled, 0);
        dest.run_ticks(1); // wake clock 10: the timer fires at its original VM-local tick
        assert_eq!(dest.report(new).unwrap().ticks_scheduled, 1);
    }

    #[test]
    fn elapsed_time_advances_with_ticks() {
        let mut hv = xen_hypervisor(machine());
        hv.add_vm_with(VmConfig::new("a"), Box::new(ComputeOnly::new(1)))
            .unwrap();
        hv.run_ms(100);
        assert_eq!(hv.current_tick(), 10);
        assert_eq!(hv.elapsed_ms(), 100);
    }
}
