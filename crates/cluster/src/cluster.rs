//! The cluster: N independent machine+hypervisor cells under one
//! deterministic, epoch-driven control plane.
//!
//! # Ownership model
//!
//! Each [`Cell`] *owns* its simulated machine, engine and KS4Xen hypervisor
//! outright — cells share no state whatsoever. An epoch runs every cell for
//! [`ClusterConfig::epoch_ticks`] scheduler ticks; because the cells are
//! disjoint, the cluster can execute them serially or one-per-scoped-thread
//! ([`ClusterConfig::parallel_cells`]) with **bit-identical** results — the
//! same split-borrow argument that made socket-parallel engine execution
//! safe, applied one level up. The only cross-cell communication is the
//! control plane between epochs: snapshot → plan → apply, all single
//! threaded and pure.
//!
//! # Migration mechanics
//!
//! Applying a [`MigrationPlan`] extracts each VM from its source hypervisor
//! ([`Hypervisor::take_vm`]: workload state travels, cache lines are
//! flushed) and queues it as an arrival on the destination cell. At the
//! start of the next epoch the destination first runs
//! [`MigrationCostModel::downtime_ticks`](crate::planner::MigrationCostModel)
//! ticks *without* the arrival (the stop-and-copy blackout), then adds it —
//! pinned to a free core — for the rest of the epoch, where it re-fetches
//! its whole working set through a cold cache. Downtime is therefore charged
//! exactly once per move, and the cold-cache penalty emerges from the LLC
//! simulation instead of being a constant.
//!
//! # Faults and recovery
//!
//! With a [`FaultPlan`] installed ([`Cluster::install_faults`]) the epoch
//! boundary also applies deterministic faults (see [`crate::faults`]):
//! crashed cells orphan their VMs into a bounded exponential-backoff retry
//! queue (re-admission goes through the normal admission path and charges
//! the arrival blackout), slowed-down cells run with a divided cycle
//! budget, and planned migrations can abort at the source, in flight, or at
//! the destination — always rolling the VM back to its source cell so no VM
//! is ever lost or duplicated (the conservation property test pins this).
//! Without a plan installed the fault path is never entered.
//!
//! # Checkpoint / restore
//!
//! [`Cluster::checkpoint`] deep-clones the entire fleet — machine state,
//! hypervisors, in-flight arrivals, the retry queue, counters and history —
//! into a [`FleetCheckpoint`], which wraps the copy;
//! [`Cluster::restore`] hands the copy back, and it resumes
//! **bit-identically** (property-tested across policies and planner modes).

use crate::checkpoint::FleetCheckpoint;
use crate::error::ClusterError;
use crate::events::{EventSchedule, FleetEvent};
use crate::faults::{AbortPoint, FaultCounts, FaultEvent, FaultPlan, RecoveryParams};
use crate::planner::{
    ConsolidationPolicy, MigrationMove, MigrationPlan, MigrationPlanner, PlannerConfig,
};
use crate::snapshot::{CellId, CellSnapshot, ClusterSnapshot, FleetVmId, VmSnapshot};
use kyoto_core::ks4::{ks4xen_hypervisor, Ks4Xen};
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::hypervisor::{Hypervisor, HypervisorConfig, TakenVm};
use kyoto_hypervisor::lifecycle::VcpuState;
use kyoto_hypervisor::vm::{VcpuId, VmConfig, VmId, VmReport};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig, SocketId};
use kyoto_sim::workload::Workload;
use kyoto_trace::{TraceConfig, TraceSink};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Control-cursor positions reserved per epoch: at every epoch boundary the
/// cursor realigns to `(epoch + 1) * CONTROL_EPOCH_STRIDE`, so boundary
/// spans of different epochs land in disjoint, stably-spaced windows
/// regardless of how many control-plane events each epoch recorded.
const CONTROL_EPOCH_STRIDE: u64 = 1 << 20;

/// Static configuration of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of cells (machines).
    pub cells: usize,
    /// Sockets per cell machine (the paper's per-socket geometry replicated,
    /// as in `MachineConfig::cloud_machine`).
    pub sockets_per_cell: usize,
    /// Machine scale factor (caches, frequency and working sets divided by
    /// this factor), as everywhere else in the reproduction.
    pub scale: u64,
    /// Scheduler ticks per epoch (the control-loop period).
    pub epoch_ticks: u64,
    /// Run each cell's epoch on its own scoped thread. Results are
    /// bit-identical to the serial loop — cells share no state — so this is
    /// purely a wall-clock switch (property-tested).
    pub parallel_cells: bool,
    /// Consolidation policy driving the migration planner.
    pub policy: ConsolidationPolicy,
    /// Planner configuration (migration budget, polluter threshold, cost
    /// model).
    pub planner: PlannerConfig,
    /// Per-cell hypervisor timing.
    pub hypervisor: HypervisorConfig,
    /// Pollution-monitoring strategy of each cell's KS4Xen scheduler.
    pub strategy: MonitoringStrategy,
    /// Whether the cluster and every cell engine record cycle-domain
    /// traces (see `kyoto-trace`). Off by default; the disabled path is a
    /// single branch per record site, bench-gated by `trace_overhead`.
    pub trace: TraceConfig,
}

impl ClusterConfig {
    /// A cluster of `cells` single-socket cells at the given scale, with the
    /// default control loop (6-tick epochs, load-balancing, serial cells).
    pub fn new(cells: usize, scale: u64) -> Self {
        ClusterConfig {
            cells: cells.max(1),
            sockets_per_cell: 1,
            scale: scale.max(1),
            epoch_ticks: 6,
            parallel_cells: false,
            policy: ConsolidationPolicy::LoadBalance,
            planner: PlannerConfig::default(),
            hypervisor: HypervisorConfig::default(),
            strategy: MonitoringStrategy::DirectPmc,
            trace: TraceConfig::Off,
        }
    }

    /// Enables or disables cycle-domain tracing for the cluster and every
    /// cell engine. Tracing never changes simulation results — figures and
    /// telemetry are byte-identical with it on or off (property-tested).
    pub fn with_trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the number of sockets per cell.
    pub fn with_sockets_per_cell(mut self, sockets: usize) -> Self {
        self.sockets_per_cell = sockets.max(1);
        self
    }

    /// Sets the epoch length in scheduler ticks.
    pub fn with_epoch_ticks(mut self, ticks: u64) -> Self {
        self.epoch_ticks = ticks.max(1);
        self
    }

    /// Enables or disables cell-parallel epoch execution.
    pub fn with_parallel_cells(mut self, parallel: bool) -> Self {
        self.parallel_cells = parallel;
        self
    }

    /// Sets the consolidation policy.
    pub fn with_policy(mut self, policy: ConsolidationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the planner configuration.
    pub fn with_planner(mut self, planner: PlannerConfig) -> Self {
        self.planner = planner;
        self
    }

    /// Sets the per-cell hypervisor timing (and its engine-parallelism
    /// switch).
    pub fn with_hypervisor(mut self, hypervisor: HypervisorConfig) -> Self {
        self.hypervisor = hypervisor;
        self
    }

    /// Sets the pollution-monitoring strategy of every cell's KS4Xen
    /// scheduler. With [`MonitoringStrategy::SimulatorAttribution`] each
    /// cell's shadow LLC is enabled, so per-VM pollution estimates are
    /// *solo* miss rates — uninflated by co-runner evictions — which is what
    /// keeps pollution-aware classification stable.
    pub fn with_strategy(mut self, strategy: MonitoringStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The machine configuration of one cell.
    pub fn cell_machine_config(&self) -> MachineConfig {
        MachineConfig::scaled_cloud_machine(self.sockets_per_cell, self.scale)
    }
}

/// A VM arriving on a cell at the next epoch (the in-flight half of a live
/// migration): the pieces `take_vm` extracted at the source, re-placed by
/// the control plane.
pub(crate) struct Arrival {
    pub(crate) fleet: FleetVmId,
    pub(crate) taken: TakenVm,
}

impl Arrival {
    fn try_clone(&self) -> Option<Arrival> {
        Some(Arrival {
            fleet: self.fleet,
            taken: self.taken.try_clone()?,
        })
    }
}

/// One machine of the fleet: a simulated machine plus its own KS4Xen
/// hypervisor. Cells own all their state; the cluster never reaches into a
/// cell while another cell is running.
pub struct Cell {
    pub(crate) id: CellId,
    pub(crate) hv: Hypervisor<Ks4Xen>,
    pub(crate) arrivals: Vec<Arrival>,
    /// Draining for maintenance: the cell accepts no placements and the
    /// planner evacuates it at every epoch boundary until it rejoins.
    pub(crate) draining: bool,
    /// Crashed: the cell runs nothing and accepts nothing until the epoch
    /// this holds (exclusive), at which point it reboots empty.
    pub(crate) down_until: Option<u64>,
    /// Slowed down: the cycle-budget divisor resets to 1 at the epoch this
    /// holds (exclusive).
    pub(crate) slow_until: Option<u64>,
    /// Blackout windows owed to migrations that aborted at this cell after
    /// it committed its handshake ([`AbortPoint::Dest`]): the cell stalls
    /// for the downtime window without admitting anyone.
    pub(crate) phantom_blackouts: u64,
}

impl Cell {
    /// The cell's identifier.
    pub fn id(&self) -> CellId {
        self.id
    }

    /// The cell's hypervisor.
    pub fn hypervisor(&self) -> &Hypervisor<Ks4Xen> {
        &self.hv
    }

    /// Whether the cell is draining for maintenance.
    pub fn is_draining(&self) -> bool {
        self.draining
    }

    /// Whether the cell is down after a crash.
    pub fn is_down(&self) -> bool {
        self.down_until.is_some()
    }

    /// Runs one epoch. Phantom blackouts left by dest-side migration aborts
    /// stall the *whole cell* first (its residents run nowhere during the
    /// stall — the handshake cost of a migration the cell never got); then,
    /// when arrivals are pending, `downtime_ticks` of blackout run without
    /// them (the cost lands on the arriving VM), the arrivals join (in plan
    /// order, through the admit half of the live-migration path), and the
    /// rest of the epoch runs. Returns the local ids handed to the
    /// arrivals. A down cell runs nothing.
    fn run_epoch(
        &mut self,
        epoch_ticks: u64,
        downtime_ticks: u64,
    ) -> Result<Vec<(FleetVmId, VmId)>, ClusterError> {
        if self.down_until.is_some() {
            debug_assert!(
                self.arrivals.is_empty() && self.phantom_blackouts == 0,
                "a down cell can hold no pending work"
            );
            return Ok(Vec::new());
        }
        let span_start = self.hv.engine().elapsed_cycles();
        let arrivals = std::mem::take(&mut self.arrivals);
        let phantoms = std::mem::take(&mut self.phantom_blackouts);
        let stall = (downtime_ticks * phantoms).min(epoch_ticks);
        let remaining = epoch_ticks - stall;
        let mut placed = Vec::with_capacity(arrivals.len());
        if arrivals.is_empty() {
            self.hv.run_ticks(remaining);
        } else {
            let blackout = downtime_ticks.min(remaining);
            self.hv.run_ticks(blackout);
            for arrival in arrivals {
                let local =
                    self.hv
                        .admit_vm(arrival.taken)
                        .map_err(|source| ClusterError::Admission {
                            cell: self.id,
                            vm: arrival.fleet,
                            source,
                        })?;
                placed.push((arrival.fleet, local));
            }
            self.hv.run_ticks(remaining - blackout);
        }
        // The whole epoch body becomes one span on the cell engine's own
        // cycle clock, enclosing the per-batch `engine.run_slots` spans it
        // ran (its self-time in the profile rollup is the cell's
        // stall/blackout overhead).
        let engine = self.hv.engine_mut();
        if engine.trace().is_enabled() {
            let dur = engine.elapsed_cycles() - span_start;
            engine
                .trace_mut()
                .span("engine", "cell.epoch", span_start, dur);
        }
        Ok(placed)
    }
}

/// Lifetime counters of a fleet VM, accumulated across every cell it lived
/// on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct Totals {
    pmcs: PmcSet,
    cycles_run: u64,
    ticks_scheduled: u64,
    ticks_elapsed: u64,
    punishments: u64,
    ticks_blocked: u64,
}

impl Totals {
    fn of(report: &VmReport) -> Totals {
        Totals {
            pmcs: report.pmcs,
            cycles_run: report.cycles_run,
            ticks_scheduled: report.ticks_scheduled,
            ticks_elapsed: report.ticks_elapsed,
            punishments: report.punishments,
            ticks_blocked: report.ticks_blocked,
        }
    }

    fn plus(mut self, other: Totals) -> Totals {
        self.pmcs += other.pmcs;
        self.cycles_run += other.cycles_run;
        self.ticks_scheduled += other.ticks_scheduled;
        self.ticks_elapsed += other.ticks_elapsed;
        self.punishments += other.punishments;
        self.ticks_blocked += other.ticks_blocked;
        self
    }

    fn minus(self, earlier: Totals) -> Totals {
        Totals {
            pmcs: self.pmcs.delta_since(&earlier.pmcs),
            cycles_run: self.cycles_run.saturating_sub(earlier.cycles_run),
            ticks_scheduled: self.ticks_scheduled.saturating_sub(earlier.ticks_scheduled),
            ticks_elapsed: self.ticks_elapsed.saturating_sub(earlier.ticks_elapsed),
            punishments: self.punishments.saturating_sub(earlier.punishments),
            ticks_blocked: self.ticks_blocked.saturating_sub(earlier.ticks_blocked),
        }
    }
}

/// Control-plane state of one fleet VM.
#[derive(Debug, Clone)]
pub(crate) struct FleetVm {
    id: FleetVmId,
    name: String,
    cell: CellId,
    /// Local id on the current cell; `None` while in flight between cells
    /// or orphaned by a crash.
    local: Option<VmId>,
    core: usize,
    working_set_bytes: u64,
    /// Totals accumulated on cells the VM has since left.
    carried: Totals,
    /// Fleet-wide totals at the last epoch boundary (for epoch deltas).
    last: Totals,
    migrations: u64,
    /// Cache lines dropped at sources by this VM's migrations.
    flushed_lines: u64,
    /// Cluster tick at which the VM was added (so VMs arriving mid-run get
    /// a correct wall-clock denominator).
    added_at_tick: u64,
    /// Waiting in the crash-recovery retry queue: the VM claims no cell
    /// resources (core, snapshot slot, occupancy) until re-admitted.
    orphaned: bool,
}

/// One crash-orphaned VM waiting in the retry queue: the pieces `take_vm`
/// salvaged from the crashed cell, plus the backoff bookkeeping.
pub(crate) struct Orphan {
    pub(crate) fleet: FleetVmId,
    pub(crate) taken: TakenVm,
    /// Epoch of the crash that orphaned the VM (re-admission latency is
    /// measured from here).
    pub(crate) crashed_at: u64,
    /// Failed re-admission attempts so far.
    pub(crate) attempts: u32,
    /// Next epoch at which admission is retried (exponential backoff).
    pub(crate) next_attempt: u64,
}

impl Orphan {
    fn try_clone(&self) -> Option<Orphan> {
        Some(Orphan {
            fleet: self.fleet,
            taken: self.taken.try_clone()?,
            crashed_at: self.crashed_at,
            attempts: self.attempts,
            next_attempt: self.next_attempt,
        })
    }
}

/// What the fleet-dynamics events of one epoch boundary did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// VMs admitted by arrival events.
    pub arrivals: u64,
    /// Arrivals rejected because every cell was draining or full.
    pub rejected_arrivals: u64,
    /// VMs removed by departure events.
    pub departures: u64,
    /// Cells that began draining.
    pub drains: u64,
    /// Cells that rejoined.
    pub joins: u64,
}

/// Aggregate of one cell over one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellEpochStats {
    /// The cell.
    pub cell: CellId,
    /// Whether the cell was draining at the epoch boundary.
    pub draining: bool,
    /// Whether the cell was down (crashed) at the epoch boundary.
    pub down: bool,
    /// VMs resident at the epoch boundary.
    pub vms: usize,
    /// Instructions its VMs retired during the epoch.
    pub instructions: u64,
    /// LLC misses of its VMs during the epoch.
    pub llc_misses: u64,
    /// Punishments its VMs received during the epoch.
    pub punishments: u64,
    /// Summed pollution rate (misses per CPU-ms) of its VMs.
    pub pollution_rate: f64,
}

/// What one epoch did: per-cell aggregates plus the migrations planned at
/// its boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: u64,
    /// Per-cell aggregates, in cell order.
    pub cells: Vec<CellEpochStats>,
    /// Migrations planned at this epoch's boundary (they materialise during
    /// the next epoch).
    pub migrations: Vec<MigrationMove>,
    /// Fleet-dynamics events applied at the boundary *before* this epoch
    /// ran (all-zero for epochs driven without an event stream).
    pub events: EventCounts,
    /// Faults injected and recoveries performed at the boundary *before*
    /// this epoch ran (all-zero without an installed [`FaultPlan`]).
    pub faults: FaultCounts,
}

/// Fleet-wide execution report of one VM, spanning every cell it lived on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetVmReport {
    /// The VM.
    pub vm: FleetVmId,
    /// Its configured name.
    pub name: String,
    /// The cell currently hosting it.
    pub cell: CellId,
    /// Cumulative counters across all cells.
    pub pmcs: PmcSet,
    /// Cycles scheduled across all cells.
    pub cycles_run: u64,
    /// Ticks during which the VM ran, across all cells.
    pub ticks_scheduled: u64,
    /// Ticks the VM existed on *some* cell (excludes migration downtime).
    pub ticks_resident: u64,
    /// Wall-clock ticks of the cluster since the VM could first run
    /// (includes migration downtime — the denominator for fleet-level
    /// throughput).
    pub cluster_ticks: u64,
    /// Punishments across all cells.
    pub punishments: u64,
    /// Times the VM was live-migrated.
    pub migrations: u64,
    /// Warm cache lines the VM's migrations dropped at their source cells —
    /// the footprint it had to re-fetch cold on arrival.
    pub flushed_lines: u64,
    /// Ticks the VM spent Blocked (WFI) across all cells — no cycles are
    /// charged for these, whatever cell the VM slept on.
    pub ticks_blocked: u64,
}

impl FleetVmReport {
    /// Instructions per cycle while scheduled.
    pub fn ipc(&self) -> f64 {
        self.pmcs.ipc()
    }

    /// Instructions retired per elapsed *cluster* tick — migration downtime
    /// lowers this, which is exactly the cost the planner must amortise.
    pub fn instructions_per_tick(&self) -> f64 {
        if self.cluster_ticks == 0 {
            0.0
        } else {
            self.pmcs.instructions as f64 / self.cluster_ticks as f64
        }
    }

    /// Measured pollution in LLC misses per CPU-millisecond.
    pub fn llc_misses_per_cpu_ms(&self, freq_khz: u64) -> f64 {
        if self.pmcs.unhalted_core_cycles == 0 {
            0.0
        } else {
            self.pmcs.llc_misses as f64 * freq_khz as f64 / self.pmcs.unhalted_core_cycles as f64
        }
    }
}

/// The fleet: cells + control plane.
pub struct Cluster {
    pub(crate) config: ClusterConfig,
    pub(crate) planner: MigrationPlanner,
    pub(crate) cells: Vec<Cell>,
    pub(crate) vms: Vec<FleetVm>,
    /// Final reports of VMs that departed the fleet (or were permanently
    /// rejected after a crash), in departure order.
    pub(crate) departed: Vec<FleetVmReport>,
    /// Crash-orphaned VMs waiting for re-admission, in orphaning order.
    pub(crate) retry: Vec<Orphan>,
    /// The installed fault plan, if any. `None` keeps the fault path
    /// entirely out of the epoch loop.
    pub(crate) faults: Option<FaultPlan>,
    pub(crate) next_fleet_id: u32,
    /// Monotonic index handed to the arrival spawner (also counts rejected
    /// arrivals, so the spawned stream is independent of admission luck).
    pub(crate) arrival_index: u64,
    pub(crate) epoch: u64,
    pub(crate) total_migrations: u64,
    pub(crate) total_arrivals: u64,
    pub(crate) total_departures: u64,
    pub(crate) rejected_arrivals: u64,
    /// Lifetime fault/recovery totals (sums of the per-epoch
    /// [`EpochReport::faults`] counts).
    pub(crate) total_faults: FaultCounts,
    /// Summed re-admission latency (epochs from crash to re-queue) of every
    /// readmitted orphan, for the mean latency metric.
    pub(crate) readmission_latency_epochs: u64,
    pub(crate) history: Vec<EpochReport>,
    pub(crate) freq_khz: u64,
    /// The cluster-level trace sink: boundary-phase spans and fault/event
    /// instants in the control-cursor domain, plus every cell engine's
    /// per-epoch trace absorbed under a `cellN.` prefix — always in
    /// cell-id order after all cells finish, so serial and cell-parallel
    /// epochs merge byte-identically.
    pub(crate) trace: TraceSink,
    /// Monotone control-plane clock (in "operations", not cycles): the
    /// timestamp domain of boundary spans and control-plane instants.
    /// Realigned to an epoch-proportional base at every boundary (see
    /// [`CONTROL_EPOCH_STRIDE`]); bumped once per recorded control event.
    pub(crate) control_cursor: u64,
}

/// Builds one cell's hypervisor (shared by construction and post-crash
/// reboot, so a rebooted cell is indistinguishable from a fresh one).
fn build_cell_hv(config: &ClusterConfig, machine_config: &MachineConfig) -> Hypervisor<Ks4Xen> {
    let mut hv = ks4xen_hypervisor(
        Machine::new(machine_config.clone()),
        config.hypervisor,
        config.strategy,
    );
    if matches!(config.strategy, MonitoringStrategy::SimulatorAttribution) {
        hv.engine_mut()
            .enable_shadow_attribution()
            // kyoto-lint: allow(cluster-no-panic): Machine::new above already validated this exact LLC geometry
            .expect("valid LLC geometry");
    }
    // Enabled here — the one construction path — so a cell rebooted after
    // a crash traces exactly like a fresh one.
    if config.trace.is_on() {
        hv.engine_mut().trace_mut().enable();
    }
    hv
}

/// `config` re-placed by the control plane: pinned to `core` of its cell,
/// with no NUMA node (placement is the control plane's job).
fn placed_on(config: VmConfig, core: usize) -> VmConfig {
    VmConfig {
        pinning: Some(vec![CoreId(core)]),
        numa_node: None,
        ..config
    }
}

impl Cluster {
    /// Builds an empty cluster of `config.cells` identical cells.
    pub fn new(config: ClusterConfig) -> Self {
        let machine_config = config.cell_machine_config();
        let freq_khz = machine_config.freq_khz;
        let cells = (0..config.cells)
            .map(|i| Cell {
                id: CellId(i),
                hv: build_cell_hv(&config, &machine_config),
                arrivals: Vec::new(),
                draining: false,
                down_until: None,
                slow_until: None,
                phantom_blackouts: 0,
            })
            .collect();
        Cluster {
            planner: MigrationPlanner::new(config.planner),
            trace: TraceSink::new(config.trace),
            control_cursor: 0,
            config,
            cells,
            vms: Vec::new(),
            departed: Vec::new(),
            retry: Vec::new(),
            faults: None,
            next_fleet_id: 1,
            arrival_index: 0,
            epoch: 0,
            total_migrations: 0,
            total_arrivals: 0,
            total_departures: 0,
            rejected_arrivals: 0,
            total_faults: FaultCounts::default(),
            readmission_latency_epochs: 0,
            history: Vec::new(),
            freq_khz,
        }
    }

    /// Installs (or replaces) the fault plan driving crash/slowdown/abort
    /// injection at every subsequent epoch boundary. Without a plan the
    /// fault machinery is never entered.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// The cluster-level trace sink (control-plane spans plus absorbed
    /// per-cell engine traces; empty and disabled unless the configuration
    /// enabled tracing).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the cluster trace sink. Upper layers (the
    /// kyoto-service control plane) record their control-plane events
    /// here, in the same control-cursor timestamp domain.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Advances the control-plane trace cursor by one event slot and
    /// returns the new position — the timestamp an upper layer stamps on
    /// a control-plane span it records via [`Cluster::trace_mut`].
    /// Instants go through [`Cluster::control_instant`].
    pub fn trace_cursor_bump(&mut self) -> u64 {
        self.control_cursor += 1;
        self.control_cursor
    }

    /// Records a control-plane instant `name` on `track` at the next
    /// control-cursor position, with the argument `arg` builds. With
    /// tracing off it does nothing: the cursor stays put and `arg` is never
    /// called. Pass `String::new` for an instant without an argument.
    pub fn control_instant(&mut self, track: &str, name: &str, arg: impl FnOnce() -> String) {
        if self.trace.is_enabled() {
            let ts = self.trace_cursor_bump();
            self.trace.instant_with(track, name, ts, arg());
        }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Number of cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Physical cores of one cell.
    pub fn cores_per_cell(&self) -> usize {
        self.config.cell_machine_config().num_cores()
    }

    /// The cells, in id order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Elapsed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Elapsed cluster ticks (every cell advances in lock-step).
    pub fn elapsed_ticks(&self) -> u64 {
        self.epoch * self.config.epoch_ticks
    }

    /// Total migrations applied since construction.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// VMs admitted by arrival events since construction (excludes VMs
    /// added directly through [`Cluster::add_vm`]).
    pub fn total_arrivals(&self) -> u64 {
        self.total_arrivals
    }

    /// VMs removed by departure events since construction.
    pub fn total_departures(&self) -> u64 {
        self.total_departures
    }

    /// Arrival events rejected because every cell was draining or full.
    pub fn rejected_arrivals(&self) -> u64 {
        self.rejected_arrivals
    }

    /// Whether `cell` is draining for maintenance.
    ///
    /// # Panics
    ///
    /// Panics when `cell` does not exist.
    pub fn is_draining(&self, cell: CellId) -> bool {
        self.cells[cell.0].draining
    }

    /// Whether `cell` is down after a crash.
    ///
    /// # Panics
    ///
    /// Panics when `cell` does not exist.
    pub fn is_down(&self, cell: CellId) -> bool {
        self.cells[cell.0].is_down()
    }

    /// Lifetime fault and recovery totals (sums of the per-epoch
    /// [`EpochReport::faults`] counts).
    pub fn total_faults(&self) -> FaultCounts {
        self.total_faults
    }

    /// Crash-orphaned VMs currently waiting in the re-admission retry
    /// queue.
    pub fn orphan_count(&self) -> usize {
        self.retry.len()
    }

    /// Mean epochs from crash to successful re-admission across every
    /// readmitted orphan so far (`None` until one has been readmitted).
    pub fn mean_readmission_latency_epochs(&self) -> Option<f64> {
        if self.total_faults.readmitted == 0 {
            None
        } else {
            Some(self.readmission_latency_epochs as f64 / self.total_faults.readmitted as f64)
        }
    }

    /// Starts or stops draining `cell`. A draining cell accepts no churn
    /// arrivals and no planner moves, and the planner evacuates its
    /// resident VMs (via the live-migration path) at every epoch boundary
    /// until the cell is empty or rejoins.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownCell`] when `cell` does not exist.
    pub fn set_draining(&mut self, cell: CellId, draining: bool) -> Result<(), ClusterError> {
        if cell.0 >= self.cells.len() {
            return Err(ClusterError::UnknownCell { cell });
        }
        self.cells[cell.0].draining = draining;
        Ok(())
    }

    /// Total warm cache lines dropped at source cells by every migration so
    /// far — the fleet-wide cold-cache bill of the consolidation policy.
    pub fn total_flushed_lines(&self) -> u64 {
        self.vms.iter().map(|vm| vm.flushed_lines).sum()
    }

    /// Per-epoch history.
    pub fn history(&self) -> &[EpochReport] {
        &self.history
    }

    /// Creates a single-vCPU VM on `cell`, pinned to the cell's lowest free
    /// core. `config`'s pinning and NUMA node are overridden by the cluster
    /// (placement is the control plane's job); its name, weight, cap and
    /// `llc_cap` permit are kept.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownCell`] when `cell` does not exist;
    /// [`ClusterError::Admission`] when the cell's hypervisor refuses the
    /// placement.
    pub fn add_vm(
        &mut self,
        cell: CellId,
        config: VmConfig,
        workload: Box<dyn Workload>,
    ) -> Result<FleetVmId, ClusterError> {
        if cell.0 >= self.cells.len() {
            return Err(ClusterError::UnknownCell { cell });
        }
        let fleet = FleetVmId(self.next_fleet_id);
        let core = self.free_core(cell);
        let working_set_bytes = workload.working_set_bytes();
        let config = placed_on(config.with_vcpus(1), core);
        let name = config.name.clone();
        let local = self.cells[cell.0]
            .hv
            .add_vm(config, vec![workload])
            .map_err(|source| ClusterError::Admission {
                cell,
                vm: fleet,
                source,
            })?;
        self.next_fleet_id += 1;
        self.vms.push(FleetVm {
            id: fleet,
            name,
            cell,
            local: Some(local),
            core,
            working_set_bytes,
            carried: Totals::default(),
            last: Totals::default(),
            migrations: 0,
            flushed_lines: 0,
            added_at_tick: self.elapsed_ticks(),
            orphaned: false,
        });
        Ok(fleet)
    }

    /// Lowest core of `cell` not claimed by a resident or in-flight VM
    /// (wraps into time-sharing when the cell is overfull). Orphaned VMs
    /// claim nothing.
    fn free_core(&self, cell: CellId) -> usize {
        let cores = self.cores_per_cell();
        let used: Vec<usize> = self
            .vms
            .iter()
            .filter(|vm| vm.cell == cell && !vm.orphaned)
            .map(|vm| vm.core)
            .collect();
        (0..cores)
            .find(|core| !used.contains(core))
            .unwrap_or(used.len() % cores.max(1))
    }

    /// The position of fleet VM `fleet` in `vms`.
    fn vm_index(&self, fleet: FleetVmId) -> Result<usize, ClusterError> {
        self.vms
            .iter()
            .position(|vm| vm.id == fleet)
            .ok_or(ClusterError::UnknownVm { vm: fleet })
    }

    /// Takes the VM at `vms[index]` off its cell — the one path every VM
    /// leaving a cell goes through (a migration, its rollback, a crash, a
    /// departure). The cell's hypervisor extracts it (cache lines flushed,
    /// workload state kept), and its totals there and the lines flushed are
    /// charged to its lifetime counters. Afterwards the VM has no local id
    /// until [`Cluster::send`] queues it on a cell.
    ///
    /// Departures and crashes extract only resident VMs, so a VM that is
    /// not resident can only come from a migration plan, and it surfaces as
    /// [`ClusterError::InvalidPlan`].
    fn extract(&mut self, index: usize) -> Result<TakenVm, ClusterError> {
        let vm = &mut self.vms[index];
        let (fleet, cell) = (vm.id, vm.cell);
        let local = vm.local.take().ok_or_else(|| ClusterError::InvalidPlan {
            reason: format!("move of {fleet:?}: VM is not resident"),
        })?;
        let taken = self.cells[cell.0]
            .hv
            .take_vm(local)
            .map_err(|source| ClusterError::Hypervisor { cell, source })?;
        let vm = &mut self.vms[index];
        vm.carried = vm.carried.plus(Totals::of(&taken.report));
        vm.flushed_lines += taken.flushed_lines;
        Ok(taken)
    }

    /// Sends the extracted VM at `vms[index]` to `cell`, pinned to `core` —
    /// the one path every VM joining a cell from elsewhere goes through (a
    /// migration, its rollback, a re-admitted orphan). It arrives at the
    /// start of the next epoch, after the downtime blackout.
    fn send(&mut self, index: usize, mut taken: TakenVm, cell: CellId, core: usize) {
        taken.config = placed_on(taken.config, core);
        let vm = &mut self.vms[index];
        vm.cell = cell;
        vm.core = core;
        vm.orphaned = false;
        let fleet = vm.id;
        self.cells[cell.0].arrivals.push(Arrival { fleet, taken });
    }

    /// Runs one epoch: the fault boundary fires first (recoveries, then the
    /// [`FaultPlan`]'s faults, then the orphan retry queue), every cell
    /// executes `epoch_ticks` (serially or on scoped threads,
    /// bit-identically), then the control plane snapshots the fleet, plans
    /// migrations under the configured policy and applies them — minus any
    /// move an injected [`FaultEvent::MigrationAbort`] claims (arrivals
    /// materialise during the *next* epoch). Returns the epoch's report.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Admission`] when a cell refuses an arrival it
    /// previously had capacity for, [`ClusterError::InvalidPlan`] when the
    /// planner emits a plan that fails validation — both indicate control-
    /// plane bugs, surfaced instead of panicking the fleet.
    pub fn run_epoch(&mut self) -> Result<&EpochReport, ClusterError> {
        self.run_epoch_after(EventCounts::default())
    }

    /// The body of [`Cluster::run_epoch`]; `events` is what the boundary's
    /// fleet-dynamics events did, recorded in the epoch's report.
    fn run_epoch_after(&mut self, events: EventCounts) -> Result<&EpochReport, ClusterError> {
        // Realign the control-plane clock to this epoch's window. Events
        // recorded *before* this boundary (fleet dynamics, service
        // admissions) keep their earlier positions, so the cursor stays
        // monotone and chronological.
        self.control_cursor = self
            .control_cursor
            .max((self.epoch + 1) * CONTROL_EPOCH_STRIDE);
        let mut faults = FaultCounts::default();
        let aborts = self.apply_fault_boundary(&mut faults)?;
        let epoch_ticks = self.config.epoch_ticks;
        let downtime = self.planner.config().cost.downtime_ticks;
        let parallel = self.config.parallel_cells && self.cells.len() >= 2;
        let placements: Vec<Result<Vec<(FleetVmId, VmId)>, ClusterError>> = if parallel {
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .cells
                    .iter_mut()
                    .map(|cell| scope.spawn(move || cell.run_epoch(epoch_ticks, downtime)))
                    .collect();
                handles
                    .into_iter()
                    // kyoto-lint: allow(cluster-no-panic): join() only errs if the child panicked; re-raising that panic is the correct propagation
                    .map(|handle| handle.join().expect("cell epoch thread"))
                    .collect()
            })
        } else {
            self.cells
                .iter_mut()
                .map(|cell| cell.run_epoch(epoch_ticks, downtime))
                .collect()
        };
        for placed in placements {
            for (fleet, local) in placed? {
                let vm = self
                    .vms
                    .iter_mut()
                    .find(|vm| vm.id == fleet)
                    .ok_or(ClusterError::UnknownVm { vm: fleet })?;
                vm.local = Some(local);
            }
        }
        self.absorb_cell_traces();
        let snapshot = self.snapshot_and_advance();
        let plan = self.planner.plan(&snapshot, self.config.policy);
        if let Err(reason) = plan.validate(&snapshot) {
            return Err(ClusterError::InvalidPlan { reason });
        }
        self.apply(&plan, &aborts, &mut faults)?;
        self.total_faults.accumulate(&faults);
        self.history.push(EpochReport {
            epoch: self.epoch,
            cells: snapshot
                .cells
                .iter()
                .map(|cell| CellEpochStats {
                    cell: cell.cell,
                    draining: cell.draining,
                    down: cell.down,
                    vms: cell.vms.len(),
                    instructions: cell.vms.iter().map(|vm| vm.instructions).sum(),
                    llc_misses: cell.vms.iter().map(|vm| vm.llc_misses).sum(),
                    punishments: cell.vms.iter().map(|vm| vm.punishments).sum(),
                    pollution_rate: cell.pollution_rate(),
                })
                .collect(),
            migrations: plan.moves,
            events,
            faults,
        });
        self.record_boundary_trace();
        self.epoch += 1;
        // kyoto-lint: allow(cluster-no-panic): history.push above makes last() infallible
        Ok(self.history.last().expect("just pushed"))
    }

    /// Drains each cell engine's per-epoch trace into the cluster sink
    /// under a `cellN.` prefix — strictly in cell-id order, after every
    /// cell has finished the epoch, so the serial and cell-parallel paths
    /// merge byte-identically (property-tested).
    fn absorb_cell_traces(&mut self) {
        if !self.trace.is_enabled() {
            return;
        }
        for (index, cell) in self.cells.iter_mut().enumerate() {
            let drained = cell.hv.engine_mut().trace_mut().drain();
            self.trace.absorb(&drained, &format!("cell{index}."));
        }
    }

    /// Records the just-pushed epoch's boundary phases as spans in the
    /// control-cursor domain — fault handling, planning, plan application
    /// (with one `cluster.migrate` instant per planned move) and the
    /// retry queue, wrapped in one `cluster.boundary` span — plus the
    /// control-plane counters. Phase durations are `1 + <operation
    /// count>`, so span widths read as operation volume.
    fn record_boundary_trace(&mut self) {
        if !self.trace.is_enabled() {
            return;
        }
        let Some(report) = self.history.last() else {
            return;
        };
        let migrations = report.migrations.clone();
        let faults = report.faults;
        let epoch = report.epoch;
        let start = self.control_cursor + 1;
        let mut cursor = start;

        let fault_ops = faults.crashes
            + faults.recoveries
            + faults.slowdowns
            + faults.aborted_migrations()
            + faults.orphaned;
        let fault_dur = 1 + fault_ops;
        self.trace.span_with(
            "cluster",
            "cluster.faults",
            cursor,
            fault_dur,
            format!(
                "crashes={} recoveries={} slowdowns={} aborts={}",
                faults.crashes,
                faults.recoveries,
                faults.slowdowns,
                faults.aborted_migrations()
            ),
        );
        cursor += fault_dur;

        let plan_dur = 1 + migrations.len() as u64;
        self.trace.span_with(
            "cluster",
            "planner.plan",
            cursor,
            plan_dur,
            format!("moves={}", migrations.len()),
        );
        cursor += plan_dur;

        let apply_start = cursor;
        for mv in &migrations {
            cursor += 1;
            self.trace.instant_with(
                "cluster",
                "cluster.migrate",
                cursor,
                format!("vm={} from={} to={}", mv.vm.0, mv.from.0, mv.to.0),
            );
        }
        cursor += 1;
        self.trace.span(
            "cluster",
            "cluster.apply",
            apply_start,
            cursor - apply_start,
        );

        let retry_ops = faults.readmitted + faults.retry_backoffs + faults.rejected_orphans;
        let retry_dur = 1 + retry_ops;
        self.trace.span_with(
            "cluster",
            "cluster.retry",
            cursor,
            retry_dur,
            format!(
                "readmitted={} backoffs={} rejected={}",
                faults.readmitted, faults.retry_backoffs, faults.rejected_orphans
            ),
        );
        cursor += retry_dur;

        self.trace.span_with(
            "cluster",
            "cluster.boundary",
            start,
            cursor - start,
            format!("epoch={epoch}"),
        );
        self.control_cursor = cursor;

        self.trace.counter_add("cluster.epochs", 1);
        self.trace
            .counter_add("cluster.migrations", migrations.len() as u64);
        self.trace.counter_add("cluster.crashes", faults.crashes);
        self.trace
            .counter_add("cluster.aborted_migrations", faults.aborted_migrations());
        self.trace
            .counter_add("cluster.readmitted", faults.readmitted);
    }

    /// Runs `epochs` epochs, stopping at the first error.
    pub fn run_epochs(&mut self, epochs: u64) -> Result<(), ClusterError> {
        for _ in 0..epochs {
            self.run_epoch()?;
        }
        Ok(())
    }

    /// Applies fleet-dynamics events at this epoch boundary, then runs one
    /// epoch. `spawn` supplies the configuration and workload of each
    /// arrival, keyed by a monotonic arrival index (counted across the
    /// cluster's lifetime, rejected arrivals included) so the arrival
    /// stream is a pure function of the index sequence.
    ///
    /// Event semantics, applied in list order:
    ///
    /// * [`FleetEvent::CellDrain`]/[`FleetEvent::CellJoin`] toggle the
    ///   cell's draining flag (evacuation itself is the planner's job at
    ///   the epoch boundary that follows the epoch run);
    /// * [`FleetEvent::VmDeparture`] folds its `pick` onto the resident
    ///   population (`pick % population`, fleet-id order), archives the
    ///   victim's final report and removes it through the extraction path
    ///   (cache lines flushed at the source);
    /// * [`FleetEvent::VmArrival`] admits a new VM onto the open cell with
    ///   the most free cores (ties toward the lowest id), or rejects it
    ///   loudly in the counters when every cell is draining or full.
    ///
    /// # Example
    ///
    /// Drive one epoch with an inline event list — an arrival spawned from
    /// the arrival index, then a scripted departure:
    ///
    /// ```
    /// use kyoto_cluster::cluster::{Cluster, ClusterConfig};
    /// use kyoto_cluster::events::FleetEvent;
    /// use kyoto_hypervisor::vm::VmConfig;
    /// use kyoto_workloads::spec::{SpecApp, SpecWorkload};
    ///
    /// let mut cluster = Cluster::new(ClusterConfig::new(2, 256).with_epoch_ticks(4));
    /// let events = [FleetEvent::VmArrival, FleetEvent::VmDeparture { pick: 3 }];
    /// let report = cluster
    ///     .run_epoch_with_events(&events, &mut |index| {
    ///         (
    ///             VmConfig::new(format!("vm-{index}")),
    ///             Box::new(SpecWorkload::new(SpecApp::Gcc, 256, 0xf1ee7 + index)) as _,
    ///         )
    ///     })
    ///     .unwrap();
    /// assert_eq!(report.events.arrivals, 1);
    /// assert_eq!(report.events.departures, 1); // the arrival departed again
    /// assert_eq!(cluster.epoch(), 1);
    /// ```
    pub fn run_epoch_with_events(
        &mut self,
        events: &[FleetEvent],
        spawn: &mut dyn FnMut(u64) -> (VmConfig, Box<dyn Workload>),
    ) -> Result<&EpochReport, ClusterError> {
        let mut counts = EventCounts::default();
        for &event in events {
            self.apply_event(event, spawn, &mut counts)?;
        }
        self.run_epoch_after(counts)
    }

    /// Runs `epochs` epochs under `schedule`, applying each epoch's events
    /// at its boundary (see [`Cluster::run_epoch_with_events`]).
    pub fn run_epochs_with_schedule(
        &mut self,
        schedule: &EventSchedule,
        epochs: u64,
        spawn: &mut dyn FnMut(u64) -> (VmConfig, Box<dyn Workload>),
    ) -> Result<(), ClusterError> {
        for _ in 0..epochs {
            let events = schedule.events_for_epoch(self.epoch);
            self.run_epoch_with_events(&events, spawn)?;
        }
        Ok(())
    }

    /// Applies one fleet-dynamics event. Referencing a cell that does not
    /// exist is a schedule-configuration bug; silently dropping the event
    /// would quietly measure a different scenario, so it surfaces as
    /// [`ClusterError::UnknownCell`].
    fn apply_event(
        &mut self,
        event: FleetEvent,
        spawn: &mut dyn FnMut(u64) -> (VmConfig, Box<dyn Workload>),
        counts: &mut EventCounts,
    ) -> Result<(), ClusterError> {
        match event {
            FleetEvent::CellDrain(cell) => {
                if cell.0 >= self.cells.len() {
                    return Err(ClusterError::UnknownCell { cell });
                }
                if !self.cells[cell.0].draining {
                    self.cells[cell.0].draining = true;
                    counts.drains += 1;
                    self.control_instant("cluster", "cluster.drain", || format!("cell={}", cell.0));
                }
            }
            FleetEvent::CellJoin(cell) => {
                if cell.0 >= self.cells.len() {
                    return Err(ClusterError::UnknownCell { cell });
                }
                // Joining clears the draining flag only: a crashed cell
                // stays down until its reboot epoch regardless of joins.
                if self.cells[cell.0].draining {
                    self.cells[cell.0].draining = false;
                    counts.joins += 1;
                    self.control_instant("cluster", "cluster.join", || format!("cell={}", cell.0));
                }
            }
            FleetEvent::VmDeparture { pick } => {
                if self.depart_vm(pick)? {
                    counts.departures += 1;
                    self.control_instant("cluster", "cluster.depart", String::new);
                }
            }
            FleetEvent::VmArrival => {
                let index = self.arrival_index;
                self.arrival_index += 1;
                let (config, workload) = spawn(index);
                match self.admission_cell() {
                    Some(cell) => {
                        self.add_vm(cell, config, workload)?;
                        counts.arrivals += 1;
                        self.total_arrivals += 1;
                        self.control_instant("cluster", "cluster.arrival", || {
                            format!("cell={}", cell.0)
                        });
                    }
                    None => {
                        counts.rejected_arrivals += 1;
                        self.rejected_arrivals += 1;
                        self.control_instant("cluster", "cluster.reject_arrival", String::new);
                    }
                }
            }
        }
        Ok(())
    }

    /// The admission target for a churn arrival or an orphan re-admission:
    /// the open (neither draining nor down) cell with the most free cores,
    /// ties toward the lowest id. `None` when every cell is draining, down
    /// or full.
    ///
    /// Public so external admission controllers (the `kyoto-service`
    /// control plane) can reproduce the cluster's own placement choice —
    /// and veto or re-rank it — before committing a request.
    pub fn admission_cell(&self) -> Option<CellId> {
        let cores = self.cores_per_cell();
        let occupancy = self.occupancies();
        (0..self.cells.len())
            .filter(|&c| {
                !self.cells[c].draining && !self.cells[c].is_down() && occupancy[c] < cores
            })
            .max_by_key(|&c| (cores - occupancy[c], std::cmp::Reverse(c)))
            .map(CellId)
    }

    /// Removes the VM a departure event selects: `pick % population` over
    /// the resident *and orphaned* VMs in fleet-id order (a customer can
    /// cancel a VM that is waiting out a crash; it leaves the retry queue
    /// with its report archived). In-flight VMs (mid-migration) are not
    /// candidates. Returns `Ok(false)` on an empty fleet.
    ///
    /// Public so request/reply fronts (the `kyoto-service` control plane)
    /// can serve a `DepartVm` request between epochs with the same
    /// fold-onto-population semantics as [`FleetEvent::VmDeparture`].
    pub fn depart_vm(&mut self, pick: u64) -> Result<bool, ClusterError> {
        let candidates: Vec<usize> = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, vm)| vm.local.is_some() || vm.orphaned)
            .map(|(index, _)| index)
            .collect();
        if candidates.is_empty() {
            return Ok(false);
        }
        let index = candidates[(pick % candidates.len() as u64) as usize];
        let fleet = self.vms[index].id;
        let report = self
            .report(fleet)
            .ok_or(ClusterError::UnknownVm { vm: fleet })?;
        if self.vms[index].orphaned {
            // The VM never made it back from its crash: drop its retry
            // entry along with it.
            self.retry.retain(|orphan| orphan.fleet != fleet);
        } else {
            // Extraction flushes the VM's cache lines at the source; the
            // pieces leave the fleet, so nothing is re-admitted anywhere.
            self.extract(index)?;
        }
        self.vms.remove(index);
        self.departed.push(report);
        self.total_departures += 1;
        Ok(true)
    }

    /// The fleet at the last epoch boundary (epoch deltas relative to the
    /// boundary before it). Does not advance any bookkeeping — both the
    /// control loop (via the private `snapshot_and_advance`) and external
    /// observers share this one builder, so the planner can never see a
    /// different snapshot shape than a caller of `snapshot()`.
    pub fn snapshot(&self) -> ClusterSnapshot {
        let cores = self.cores_per_cell();
        let mut cells: Vec<CellSnapshot> = self
            .cells
            .iter()
            .map(|cell| CellSnapshot {
                cell: cell.id,
                cores,
                draining: cell.draining,
                down: cell.is_down(),
                vms: Vec::new(),
            })
            .collect();
        for vm in self.vms.iter().filter(|vm| !vm.orphaned) {
            cells[vm.cell.0].vms.push(self.vm_snapshot(vm, vm.last));
        }
        ClusterSnapshot {
            epoch: self.epoch,
            cells,
        }
    }

    /// Lifetime totals of a VM: cells it left plus its current residence.
    fn current_totals(&self, vm: &FleetVm) -> Totals {
        let current = vm
            .local
            .and_then(|local| self.cells[vm.cell.0].hv.report(local))
            .map(|report| Totals::of(&report))
            .unwrap_or_default();
        vm.carried.plus(current)
    }

    fn vm_snapshot(&self, vm: &FleetVm, since: Totals) -> VmSnapshot {
        let delta = self.current_totals(vm).minus(since);
        let raw_rate = if delta.pmcs.unhalted_core_cycles == 0 {
            0.0
        } else {
            delta.pmcs.llc_misses as f64 * self.freq_khz as f64
                / delta.pmcs.unhalted_core_cycles as f64
        };
        // Prefer the scheduler's smoothed Equation-1 estimate: it honours
        // the monitoring strategy, so under shadow attribution it reports
        // the VM's *solo* pollution, uninflated by co-runner evictions —
        // the stable signal the pollution-aware planner needs. Raw epoch
        // counters are the fallback for VMs the scheduler has not yet
        // estimated (e.g. just arrived from a migration).
        let pollution_rate = vm
            .local
            .and_then(|local| {
                self.cells[vm.cell.0]
                    .hv
                    .scheduler()
                    .measured_llc_cap(VcpuId::new(local, 0))
            })
            .unwrap_or(raw_rate);
        // What flush_owner would invalidate if the VM migrated now — the
        // cost-aware planner's cold-cache refill estimate.
        let resident_lines = vm
            .local
            .map(|local| {
                let machine = self.cells[vm.cell.0].hv.engine().machine();
                (0..machine.num_sockets())
                    .map(|socket| machine.llc_occupancy_of(SocketId(socket), local.0))
                    .sum()
            })
            .unwrap_or(0);
        let blocked_fraction = if delta.ticks_elapsed == 0 {
            0.0
        } else {
            delta.ticks_blocked as f64 / delta.ticks_elapsed as f64
        };
        VmSnapshot {
            vm: vm.id,
            name: vm.name.clone(),
            pollution_rate,
            punishments: delta.punishments,
            instructions: delta.pmcs.instructions,
            llc_misses: delta.pmcs.llc_misses,
            ipc: delta.pmcs.ipc(),
            working_set_bytes: vm.working_set_bytes,
            resident_lines,
            blocked_fraction,
        }
    }

    /// Takes the epoch snapshot, then moves every VM's "last boundary"
    /// totals forward so the next epoch's deltas start here.
    fn snapshot_and_advance(&mut self) -> ClusterSnapshot {
        let snapshot = self.snapshot();
        let totals: Vec<Totals> = self.vms.iter().map(|vm| self.current_totals(vm)).collect();
        for (vm, total) in self.vms.iter_mut().zip(totals) {
            vm.last = total;
        }
        snapshot
    }

    /// Applies a migration plan: extract each VM from its source cell (cache
    /// flushed, workload state kept) and queue it on the destination, where
    /// it lands on the lowest free core after the downtime blackout.
    ///
    /// `aborts` carries the epoch's injected [`FaultEvent::MigrationAbort`]
    /// picks; each is folded onto the move list at apply time (`pick %
    /// moves`), first claim wins. An aborted move rolls back atomically —
    /// the VM ends the boundary attached to its source cell, never lost or
    /// duplicated — but the cost already sunk is not refunded (see
    /// [`AbortPoint`]). Only completed moves count as migrations.
    ///
    /// A plan naming a VM the fleet does not know, or one that is not
    /// resident on its claimed source cell, indicates a planner bug that
    /// slipped past validation; it surfaces as an error instead of
    /// panicking the fleet.
    fn apply(
        &mut self,
        plan: &MigrationPlan,
        aborts: &[(u64, AbortPoint)],
        counts: &mut FaultCounts,
    ) -> Result<(), ClusterError> {
        let mut claimed: BTreeMap<usize, AbortPoint> = BTreeMap::new();
        if !plan.moves.is_empty() {
            for &(pick, at) in aborts {
                claimed
                    .entry((pick % plan.moves.len() as u64) as usize)
                    .or_insert(at);
            }
        }
        let mut completed = 0u64;
        for (mv_index, mv) in plan.moves.iter().enumerate() {
            match claimed.get(&mv_index).copied() {
                Some(AbortPoint::Source) => {
                    // Pre-copy failed before suspension: the move is simply
                    // cancelled and the VM keeps running at the source.
                    counts.aborted_source += 1;
                    continue;
                }
                Some(at @ (AbortPoint::InFlight | AbortPoint::Dest)) => {
                    // The protocol got as far as extraction, so the rollback
                    // re-admits the VM on its *source* cell and core: it
                    // pays the blackout and arrives with a cold cache — all
                    // the cost of a migration with none of the benefit. The
                    // move never completed, so `migrations` is not
                    // incremented.
                    let index = self.vm_index(mv.vm)?;
                    let taken = self.extract(index)?;
                    let core = self.vms[index].core;
                    self.send(index, taken, mv.from, core);
                    if at == AbortPoint::Dest {
                        // The destination had already committed its blackout
                        // window: it stalls for a handshake it got nothing
                        // for.
                        self.cells[mv.to.0].phantom_blackouts += 1;
                        counts.aborted_dest += 1;
                    } else {
                        counts.aborted_in_flight += 1;
                    }
                }
                None => {
                    let index = self.vm_index(mv.vm)?;
                    let taken = self.extract(index)?;
                    let core = self.free_core(mv.to);
                    self.vms[index].migrations += 1;
                    self.send(index, taken, mv.to, core);
                    completed += 1;
                }
            }
        }
        self.total_migrations += completed;
        Ok(())
    }

    /// Applies the fault boundary of the current epoch: expire slowdowns and
    /// reboot cells whose down time is over, inject the [`FaultPlan`]'s
    /// faults for this epoch (crashes and slowdowns act immediately;
    /// migration-abort picks are collected and returned for
    /// [`Cluster::apply`] to fold onto the plan), then walk the orphan
    /// retry queue. A no-op returning no aborts when no plan is installed.
    fn apply_fault_boundary(
        &mut self,
        counts: &mut FaultCounts,
    ) -> Result<Vec<(u64, AbortPoint)>, ClusterError> {
        let Some(plan) = &self.faults else {
            return Ok(Vec::new());
        };
        let params = plan.recovery();
        let planned = plan.faults_for_epoch(self.epoch);
        let epoch = self.epoch;
        for index in 0..self.cells.len() {
            if self.cells[index]
                .down_until
                .is_some_and(|until| epoch >= until)
            {
                // The machine finished rebooting: it rejoins empty (its
                // hypervisor was rebuilt fresh at crash time).
                self.cells[index].down_until = None;
                counts.recoveries += 1;
                self.control_instant("cluster", "cluster.recover", || format!("cell={index}"));
            }
            if self.cells[index]
                .slow_until
                .is_some_and(|until| epoch >= until)
            {
                self.cells[index].slow_until = None;
                self.cells[index].hv.set_cycle_budget_divisor(1);
            }
        }
        let mut aborts = Vec::new();
        for fault in planned {
            match fault {
                FaultEvent::CellCrash { pick } => {
                    let up: Vec<usize> = (0..self.cells.len())
                        .filter(|&c| !self.cells[c].is_down())
                        .collect();
                    if up.is_empty() {
                        continue;
                    }
                    let victim = up[(pick % up.len() as u64) as usize];
                    self.crash_cell_now(CellId(victim), params, counts)?;
                }
                FaultEvent::CellSlowdown { pick } => {
                    let up: Vec<usize> = (0..self.cells.len())
                        .filter(|&c| !self.cells[c].is_down())
                        .collect();
                    if up.is_empty() {
                        continue;
                    }
                    let victim_index = up[(pick % up.len() as u64) as usize];
                    let victim = &mut self.cells[victim_index];
                    victim.hv.set_cycle_budget_divisor(params.slowdown_factor);
                    victim.slow_until = Some(epoch + params.slowdown_epochs);
                    counts.slowdowns += 1;
                    self.control_instant("cluster", "cluster.slowdown", || {
                        format!("cell={victim_index} factor={}", params.slowdown_factor)
                    });
                }
                FaultEvent::MigrationAbort { pick, at } => aborts.push((pick, at)),
            }
        }
        self.process_retry_queue(params, counts)?;
        Ok(aborts)
    }

    /// Crashes `cell` right now: resident VMs are extracted (their totals
    /// and flushed lines charged) and orphaned into the retry queue,
    /// in-flight arrivals headed here are orphaned too (their totals were
    /// already charged at extraction), pending phantom blackouts die with
    /// the machine, the hypervisor is rebuilt fresh, and the cell stays
    /// down for the configured number of epochs. The draining flag
    /// survives the crash — a crashed maintenance drain resumes as a drain
    /// after reboot instead of deadlocking.
    fn crash_cell_now(
        &mut self,
        cell: CellId,
        params: RecoveryParams,
        counts: &mut FaultCounts,
    ) -> Result<(), ClusterError> {
        let epoch = self.epoch;
        counts.crashes += 1;
        self.control_instant("cluster", "cluster.crash", || format!("cell={}", cell.0));
        let residents: Vec<usize> = self
            .vms
            .iter()
            .enumerate()
            .filter(|(_, vm)| vm.cell == cell && vm.local.is_some())
            .map(|(index, _)| index)
            .collect();
        for index in residents {
            let taken = self.extract(index)?;
            self.vms[index].orphaned = true;
            counts.orphaned += 1;
            self.retry.push(Orphan {
                fleet: self.vms[index].id,
                taken,
                crashed_at: epoch,
                attempts: 0,
                next_attempt: epoch + 1,
            });
        }
        for arrival in std::mem::take(&mut self.cells[cell.0].arrivals) {
            if let Some(vm) = self.vms.iter_mut().find(|vm| vm.id == arrival.fleet) {
                vm.orphaned = true;
            }
            counts.orphaned += 1;
            self.retry.push(Orphan {
                fleet: arrival.fleet,
                taken: arrival.taken,
                crashed_at: epoch,
                attempts: 0,
                next_attempt: epoch + 1,
            });
        }
        let machine_config = self.config.cell_machine_config();
        let crashed = &mut self.cells[cell.0];
        crashed.phantom_blackouts = 0;
        crashed.slow_until = None;
        crashed.hv = build_cell_hv(&self.config, &machine_config);
        crashed.down_until = Some(epoch + params.down_epochs);
        Ok(())
    }

    /// Walks the orphan retry queue in orphaning order: every due orphan is
    /// re-admitted onto the best open cell (through the normal arrival
    /// path, so the blackout is charged naturally), or backs off
    /// exponentially, or — once its retry budget is exhausted — is
    /// permanently rejected with its final report archived. Nothing is
    /// silently dropped.
    fn process_retry_queue(
        &mut self,
        params: RecoveryParams,
        counts: &mut FaultCounts,
    ) -> Result<(), ClusterError> {
        let epoch = self.epoch;
        let mut index = 0;
        while index < self.retry.len() {
            if self.retry[index].next_attempt > epoch {
                index += 1;
                continue;
            }
            match self.admission_cell() {
                Some(cell) => {
                    let orphan = self.retry.remove(index);
                    let vm = self.vm_index(orphan.fleet)?;
                    let core = self.free_core(cell);
                    self.send(vm, orphan.taken, cell, core);
                    counts.readmitted += 1;
                    self.readmission_latency_epochs += epoch - orphan.crashed_at;
                    self.control_instant("cluster", "cluster.readmit", || {
                        format!("vm={} cell={}", orphan.fleet.0, cell.0)
                    });
                }
                None => {
                    self.retry[index].attempts += 1;
                    if self.retry[index].attempts >= params.max_retries {
                        let orphan = self.retry.remove(index);
                        let report = self
                            .report(orphan.fleet)
                            .ok_or(ClusterError::UnknownVm { vm: orphan.fleet })?;
                        let position = self.vm_index(orphan.fleet)?;
                        self.vms.remove(position);
                        self.departed.push(report);
                        counts.rejected_orphans += 1;
                        self.control_instant("cluster", "cluster.reject_orphan", || {
                            format!("vm={}", orphan.fleet.0)
                        });
                    } else {
                        let attempts = self.retry[index].attempts;
                        self.retry[index].next_attempt = epoch + (1u64 << attempts.min(6));
                        counts.retry_backoffs += 1;
                        let vm = self.retry[index].fleet.0;
                        self.control_instant("cluster", "cluster.retry_backoff", || {
                            format!("vm={vm}")
                        });
                        index += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Checks the fleet's VM-conservation invariants — the property the
    /// fault machinery must never break: every VM ever admitted is
    /// accounted for exactly once (live or departed), the retry queue and
    /// the `orphaned` flags mirror each other, no VM is resident on a down
    /// cell, and every in-flight VM sits in exactly one arrival queue.
    /// Returns a description of the first violation.
    pub fn verify_conservation(&self) -> Result<(), String> {
        for orphan in &self.retry {
            match self.vms.iter().find(|vm| vm.id == orphan.fleet) {
                None => {
                    return Err(format!(
                        "{} is retry-queued but missing from the fleet",
                        orphan.fleet
                    ))
                }
                Some(vm) if !vm.orphaned => {
                    return Err(format!(
                        "{} is retry-queued but not flagged orphaned",
                        vm.id
                    ))
                }
                Some(vm) if vm.local.is_some() => {
                    return Err(format!("{} is both orphaned and resident", vm.id))
                }
                _ => {}
            }
        }
        for vm in self.vms.iter().filter(|vm| vm.orphaned) {
            if !self.retry.iter().any(|orphan| orphan.fleet == vm.id) {
                return Err(format!(
                    "{} is flagged orphaned but missing from the retry queue",
                    vm.id
                ));
            }
        }
        let mut ids: Vec<u32> = self
            .vms
            .iter()
            .map(|vm| vm.id.0)
            .chain(self.departed.iter().map(|report| report.vm.0))
            .collect();
        ids.sort_unstable();
        let assigned = ids.len();
        ids.dedup();
        if ids.len() != assigned {
            return Err("a fleet VM is accounted for twice across live and departed".to_string());
        }
        if assigned as u32 != self.next_fleet_id - 1 {
            return Err(format!(
                "{} fleet ids were assigned but only {assigned} VMs are accounted for",
                self.next_fleet_id - 1
            ));
        }
        for vm in self.vms.iter().filter(|vm| !vm.orphaned) {
            if vm.local.is_none() {
                let queued = self
                    .cells
                    .iter()
                    .flat_map(|cell| cell.arrivals.iter())
                    .filter(|arrival| arrival.fleet == vm.id)
                    .count();
                if queued != 1 {
                    return Err(format!(
                        "{} is in flight but sits in {queued} arrival queues",
                        vm.id
                    ));
                }
            } else if self.cells[vm.cell.0].is_down() {
                return Err(format!("{} is resident on down {}", vm.id, vm.cell));
            }
        }
        Ok(())
    }

    /// Deep-copies the entire fleet — machine state, hypervisors, in-flight
    /// arrivals, the retry queue, counters and history — into a
    /// [`FleetCheckpoint`] that wraps the copy. [`Cluster::restore`] resumes
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Checkpoint`] when a cell's hypervisor hosts a
    /// workload without [`Workload::try_clone_box`] support;
    /// [`ClusterError::UncloneableVm`] when such a workload is travelling
    /// outside any hypervisor (in flight or orphaned).
    pub fn checkpoint(&self) -> Result<FleetCheckpoint, ClusterError> {
        let mut cells = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let hv = cell
                .hv
                .try_clone()
                .map_err(|source| ClusterError::Checkpoint {
                    cell: cell.id,
                    source,
                })?;
            let mut arrivals = Vec::with_capacity(cell.arrivals.len());
            for arrival in &cell.arrivals {
                arrivals.push(
                    arrival
                        .try_clone()
                        .ok_or(ClusterError::UncloneableVm { vm: arrival.fleet })?,
                );
            }
            cells.push(Cell {
                id: cell.id,
                hv,
                arrivals,
                draining: cell.draining,
                down_until: cell.down_until,
                slow_until: cell.slow_until,
                phantom_blackouts: cell.phantom_blackouts,
            });
        }
        let mut retry = Vec::with_capacity(self.retry.len());
        for orphan in &self.retry {
            retry.push(
                orphan
                    .try_clone()
                    .ok_or(ClusterError::UncloneableVm { vm: orphan.fleet })?,
            );
        }
        Ok(FleetCheckpoint(Cluster {
            config: self.config,
            planner: self.planner,
            cells,
            vms: self.vms.clone(),
            departed: self.departed.clone(),
            retry,
            faults: self.faults.clone(),
            next_fleet_id: self.next_fleet_id,
            arrival_index: self.arrival_index,
            epoch: self.epoch,
            total_migrations: self.total_migrations,
            total_arrivals: self.total_arrivals,
            total_departures: self.total_departures,
            rejected_arrivals: self.rejected_arrivals,
            total_faults: self.total_faults,
            readmission_latency_epochs: self.readmission_latency_epochs,
            history: self.history.clone(),
            freq_khz: self.freq_khz,
            trace: self.trace.clone(),
            control_cursor: self.control_cursor,
        }))
    }

    /// Resumes the cluster a [`FleetCheckpoint`] copied. The restored
    /// cluster resumes **bit-identically**: `run(k)` equals
    /// `restore(checkpoint(run(j))).run(k - j)` for every `j <= k`
    /// (property-tested across policies and planner modes).
    pub fn restore(checkpoint: FleetCheckpoint) -> Cluster {
        checkpoint.0
    }

    /// The fleet-wide report of one VM.
    pub fn report(&self, fleet: FleetVmId) -> Option<FleetVmReport> {
        let vm = self.vms.iter().find(|vm| vm.id == fleet)?;
        let total = self.current_totals(vm);
        Some(FleetVmReport {
            vm: vm.id,
            name: vm.name.clone(),
            cell: vm.cell,
            pmcs: total.pmcs,
            cycles_run: total.cycles_run,
            ticks_scheduled: total.ticks_scheduled,
            ticks_resident: total.ticks_elapsed,
            cluster_ticks: self.elapsed_ticks().saturating_sub(vm.added_at_tick),
            punishments: total.punishments,
            migrations: vm.migrations,
            flushed_lines: vm.flushed_lines,
            ticks_blocked: total.ticks_blocked,
        })
    }

    /// The lifecycle state of a fleet VM's vCPU 0 on its current cell, or
    /// `None` while the VM is in flight between cells or crash-orphaned.
    /// Between epochs this is always `Ready` or `Blocked`, and a Blocked
    /// VM stays Blocked across migrations until its wake source fires.
    pub fn vcpu_state(&self, fleet: FleetVmId) -> Option<VcpuState> {
        let vm = self.vms.iter().find(|vm| vm.id == fleet)?;
        let local = vm.local?;
        self.cells[vm.cell.0].hv.vcpu_state(VcpuId::new(local, 0))
    }

    /// The wake-event clock of a fleet VM on its current cell (`None`
    /// while in flight or orphaned). The clock travels with the VM, so
    /// pending timer wakes stay scheduled across migrations and crashes.
    pub fn wake_clock(&self, fleet: FleetVmId) -> Option<u64> {
        let vm = self.vms.iter().find(|vm| vm.id == fleet)?;
        let local = vm.local?;
        self.cells[vm.cell.0].hv.wake_clock(local)
    }

    /// Fleet-wide reports of every VM, in fleet-id order.
    pub fn reports(&self) -> Vec<FleetVmReport> {
        self.vms
            .iter()
            .filter_map(|vm| self.report(vm.id))
            .collect()
    }

    /// Final reports of VMs that departed the fleet, in departure order
    /// (their `cluster_ticks` denominator is frozen at the departure
    /// boundary).
    pub fn departed_reports(&self) -> &[FleetVmReport] {
        &self.departed
    }

    /// Reports of every VM that ever ran on the fleet — departed and live —
    /// in fleet-id order.
    pub fn all_reports(&self) -> Vec<FleetVmReport> {
        let mut reports = self.departed.clone();
        reports.extend(self.reports());
        reports.sort_by_key(|report| report.vm);
        reports
    }

    /// Current VM count per cell (including in-flight arrivals headed
    /// there, excluding orphans — they claim no cell until re-admitted),
    /// in cell order.
    pub fn occupancies(&self) -> Vec<usize> {
        let mut occupancy = vec![0usize; self.cells.len()];
        for vm in self.vms.iter().filter(|vm| !vm.orphaned) {
            occupancy[vm.cell.0] += 1;
        }
        occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyoto_workloads::spec::{SpecApp, SpecWorkload};

    const SCALE: u64 = 256;

    fn workload(app: SpecApp, seed: u64) -> Box<dyn Workload> {
        Box::new(SpecWorkload::new(app, SCALE, seed))
    }

    fn seeded(config: ClusterConfig, vms: usize) -> Cluster {
        let mut cluster = Cluster::new(config);
        let apps = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
        for i in 0..vms {
            let app = apps[i % apps.len()];
            let cell = CellId(i % cluster.num_cells());
            cluster
                .add_vm(
                    cell,
                    VmConfig::new(format!("vm{i}-{}", app.name())),
                    workload(app, 0xf1ee7 + i as u64),
                )
                .unwrap();
        }
        cluster
    }

    #[test]
    fn vms_run_and_report_across_epochs() {
        let mut cluster = seeded(ClusterConfig::new(2, SCALE).with_epoch_ticks(4), 4);
        cluster.run_epochs(2).unwrap();
        assert_eq!(cluster.epoch(), 2);
        assert_eq!(cluster.elapsed_ticks(), 8);
        let reports = cluster.reports();
        assert_eq!(reports.len(), 4);
        for report in &reports {
            assert!(report.pmcs.instructions > 0, "{} never ran", report.vm);
            assert!(report.instructions_per_tick() > 0.0);
        }
        assert_eq!(cluster.history().len(), 2);
    }

    #[test]
    fn load_balance_migrates_from_overfull_to_empty_cells() {
        // All 4 VMs start on cell 0 of a 2-cell cluster: load balancing must
        // even the counts out to 2/2 within a few epochs.
        let config = ClusterConfig::new(2, SCALE)
            .with_epoch_ticks(4)
            .with_policy(ConsolidationPolicy::LoadBalance);
        let mut cluster = Cluster::new(config);
        for i in 0..4 {
            cluster
                .add_vm(
                    CellId(0),
                    VmConfig::new(format!("vm{i}")),
                    workload(SpecApp::Gcc, i as u64),
                )
                .unwrap();
        }
        assert_eq!(cluster.occupancies(), vec![4, 0]);
        cluster.run_epochs(3).unwrap();
        assert_eq!(cluster.occupancies(), vec![2, 2]);
        assert!(cluster.total_migrations() >= 2);
        let migrated: u64 = cluster.reports().iter().map(|r| r.migrations).sum();
        assert_eq!(migrated, cluster.total_migrations());
    }

    #[test]
    fn bin_pack_consolidates_onto_fewer_cells() {
        let config = ClusterConfig::new(3, SCALE)
            .with_epoch_ticks(4)
            .with_policy(ConsolidationPolicy::BinPack);
        let mut cluster = Cluster::new(config);
        // One VM per cell; the machine has 4 cores per cell, so all three
        // fit on one cell.
        for i in 0..3 {
            cluster
                .add_vm(
                    CellId(i),
                    VmConfig::new(format!("vm{i}")),
                    workload(SpecApp::Gcc, i as u64),
                )
                .unwrap();
        }
        cluster.run_epochs(3).unwrap();
        let occupancies = cluster.occupancies();
        let empty = occupancies.iter().filter(|&&n| n == 0).count();
        assert_eq!(
            empty, 2,
            "bin packing should empty two cells: {occupancies:?}"
        );
    }

    #[test]
    fn migration_charges_downtime_exactly_once_per_move() {
        let config = ClusterConfig::new(2, SCALE)
            .with_epoch_ticks(6)
            .with_policy(ConsolidationPolicy::LoadBalance)
            .with_planner(
                PlannerConfig::default()
                    .with_max_moves(1)
                    .with_downtime_ticks(2),
            );
        let mut cluster = Cluster::new(config);
        for i in 0..2 {
            cluster
                .add_vm(
                    CellId(0),
                    VmConfig::new(format!("vm{i}")),
                    workload(SpecApp::Gcc, i as u64),
                )
                .unwrap();
        }
        cluster.run_epochs(3).unwrap();
        let reports = cluster.reports();
        let moved: Vec<_> = reports.iter().filter(|r| r.migrations > 0).collect();
        assert_eq!(moved.len(), 1);
        let report = moved[0];
        assert_eq!(report.migrations, 1);
        // 3 epochs x 6 ticks, minus 2 blackout ticks for the single move.
        assert_eq!(report.cluster_ticks, 18);
        assert_eq!(report.ticks_resident, 16);
        let anchored = reports.iter().find(|r| r.migrations == 0).unwrap();
        assert_eq!(anchored.ticks_resident, 18);
    }

    #[test]
    fn migrated_vm_arrives_with_a_cold_cache() {
        let config = ClusterConfig::new(2, SCALE)
            .with_epoch_ticks(6)
            .with_policy(ConsolidationPolicy::LoadBalance)
            .with_planner(PlannerConfig::default().with_max_moves(1));
        let mut cluster = Cluster::new(config);
        let a = cluster
            .add_vm(CellId(0), VmConfig::new("a"), workload(SpecApp::Gcc, 1))
            .unwrap();
        cluster
            .add_vm(CellId(0), VmConfig::new("b"), workload(SpecApp::Gcc, 2))
            .unwrap();
        cluster.run_epoch().unwrap();
        // The balancer moved the most recent arrival (b) — a stays warm.
        let b = cluster.reports()[1].vm;
        let before = cluster.report(b).unwrap().pmcs.llc_misses;
        cluster.run_epoch().unwrap();
        let after = cluster.report(b).unwrap().pmcs.llc_misses;
        assert!(
            after > before,
            "the migrated VM re-faults its working set through a cold LLC"
        );
        let moved = cluster.report(b).unwrap();
        assert!(
            moved.flushed_lines > 0,
            "extraction must have dropped warm lines at the source"
        );
        assert_eq!(cluster.total_flushed_lines(), moved.flushed_lines);
        assert_eq!(cluster.report(a).unwrap().flushed_lines, 0);
    }

    #[test]
    fn serial_and_parallel_epochs_are_bit_identical() {
        let run = |parallel: bool| {
            let config = ClusterConfig::new(3, SCALE)
                .with_epoch_ticks(5)
                .with_policy(ConsolidationPolicy::LoadBalance)
                .with_parallel_cells(parallel);
            let mut cluster = seeded(config, 6);
            cluster.run_epochs(3).unwrap();
            (cluster.reports(), cluster.history().to_vec())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn vms_added_mid_run_get_a_correct_tick_denominator() {
        let mut cluster = seeded(ClusterConfig::new(2, SCALE).with_epoch_ticks(4), 2);
        cluster.run_epochs(2).unwrap();
        let late = cluster
            .add_vm(CellId(1), VmConfig::new("late"), workload(SpecApp::Gcc, 99))
            .unwrap();
        cluster.run_epochs(1).unwrap();
        let report = cluster.report(late).unwrap();
        assert_eq!(
            report.cluster_ticks, 4,
            "wall-clock denominator starts at arrival, not cluster birth"
        );
        assert_eq!(report.ticks_resident, 4);
        assert!(report.instructions_per_tick() > 0.0);
        let early = &cluster.reports()[0];
        assert_eq!(early.cluster_ticks, 12);
    }

    #[test]
    fn snapshot_is_stable_and_pure() {
        let mut cluster = seeded(ClusterConfig::new(2, SCALE).with_epoch_ticks(4), 4);
        cluster.run_epoch().unwrap();
        let a = cluster.snapshot();
        let b = cluster.snapshot();
        assert_eq!(a, b, "snapshot() must not mutate bookkeeping");
        assert_eq!(a.total_vms(), 4);
        for cell in &a.cells {
            for vm in &cell.vms {
                assert!(
                    vm.resident_lines > 0,
                    "{} ran an epoch and must own warm lines",
                    vm.vm
                );
            }
        }
    }

    #[test]
    fn draining_cells_are_evacuated_and_rejoin() {
        use crate::events::FleetEvent;
        let config = ClusterConfig::new(2, SCALE)
            .with_epoch_ticks(4)
            .with_policy(ConsolidationPolicy::LoadBalance);
        let mut cluster = seeded(config, 2);
        assert_eq!(cluster.occupancies(), vec![1, 1]);
        let mut spawn =
            |_: u64| -> (VmConfig, Box<dyn Workload>) { unreachable!("no arrivals scheduled") };
        cluster
            .run_epoch_with_events(&[FleetEvent::CellDrain(CellId(0))], &mut spawn)
            .unwrap();
        assert!(cluster.is_draining(CellId(0)));
        assert_eq!(
            cluster.history().last().unwrap().events.drains,
            1,
            "the drain is counted"
        );
        // The boundary after the drained epoch plans the evacuation; one
        // more epoch materialises it.
        cluster.run_epoch_with_events(&[], &mut spawn).unwrap();
        assert_eq!(cluster.occupancies(), vec![0, 2], "cell 0 evacuated");
        // Rejoin: load balancing spreads the fleet back out.
        cluster
            .run_epoch_with_events(&[FleetEvent::CellJoin(CellId(0))], &mut spawn)
            .unwrap();
        assert!(!cluster.is_draining(CellId(0)));
        cluster.run_epoch_with_events(&[], &mut spawn).unwrap();
        assert_eq!(cluster.occupancies(), vec![1, 1], "cell 0 repopulated");
    }

    #[test]
    fn departures_archive_final_reports() {
        let mut cluster = seeded(ClusterConfig::new(2, SCALE).with_epoch_ticks(4), 4);
        cluster.run_epoch().unwrap();
        let mut spawn =
            |_: u64| -> (VmConfig, Box<dyn Workload>) { unreachable!("no arrivals scheduled") };
        use crate::events::FleetEvent;
        cluster
            .run_epoch_with_events(&[FleetEvent::VmDeparture { pick: 1 }], &mut spawn)
            .unwrap();
        assert_eq!(cluster.total_departures(), 1);
        assert_eq!(cluster.reports().len(), 3);
        let departed = cluster.departed_reports();
        assert_eq!(departed.len(), 1);
        // pick % 4 = 1 selects the second VM in fleet-id order.
        assert_eq!(departed[0].vm, FleetVmId(2));
        assert!(departed[0].pmcs.instructions > 0);
        assert_eq!(
            departed[0].cluster_ticks, 4,
            "the departed denominator freezes at the departure boundary"
        );
        assert_eq!(cluster.all_reports().len(), 4, "archive + live");
        // The departed VM's cache lines are gone from its source cell
        // (fleet VM 2 was the second add: cell 1, local id 1).
        let machine = cluster.cells()[1].hypervisor().engine().machine();
        let total: u64 = (0..machine.num_sockets())
            .map(|s| machine.llc_occupancy_of(SocketId(s), 1))
            .sum();
        assert_eq!(total, 0, "extraction flushed the departed VM");
    }

    #[test]
    fn arrivals_land_on_the_emptiest_open_cell_or_are_rejected() {
        use crate::events::FleetEvent;
        let config = ClusterConfig::new(2, SCALE).with_epoch_ticks(4);
        let mut cluster = seeded(config, 3); // cell0: 2 VMs, cell1: 1 VM
        let mut spawned = 0u64;
        let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
            spawned += 1;
            (
                VmConfig::new(format!("arrival{index}")),
                workload(SpecApp::Gcc, 0xa0 + index),
            )
        };
        cluster
            .run_epoch_with_events(&[FleetEvent::VmArrival], &mut spawn)
            .unwrap();
        assert_eq!(cluster.total_arrivals(), 1);
        assert_eq!(
            cluster.occupancies(),
            vec![2, 2],
            "the arrival picked the emptier cell"
        );
        // Drain both cells: the next arrival has nowhere to go.
        cluster
            .run_epoch_with_events(
                &[
                    FleetEvent::CellDrain(CellId(0)),
                    FleetEvent::CellDrain(CellId(1)),
                    FleetEvent::VmArrival,
                ],
                &mut spawn,
            )
            .unwrap();
        assert_eq!(cluster.rejected_arrivals(), 1);
        assert_eq!(cluster.total_arrivals(), 1, "no admission while draining");
        assert_eq!(spawned, 2, "the spawner still consumed the index");
    }
}
