//! Deterministic time-stepped simulation engine.
//!
//! The engine executes a set of *slots* — (core, owner, workload) bindings —
//! for a common cycle budget, interleaving their memory accesses over the
//! shared machine in cycle order. This models the two contention modes of
//! Section 2.2 of the paper:
//!
//! * **parallel execution**: slots on different cores of the same socket are
//!   interleaved within the same call, so their access streams compete for
//!   LLC sets concurrently;
//! * **alternative execution**: slots scheduled on the same core in
//!   *successive* calls (as the hypervisor's scheduler time-shares the core)
//!   find the LLC state left behind by the previous occupant.
//!
//! [`SimEngine::run_slots`] and [`SimEngine::run_slots_parallel`] share one
//! batched body. It fetches ops through [`Workload::fill_ops`], splits the
//! batch into socket components (sockets share no cache state) and advances
//! each component's slots in epochs instead of re-scanning every slot per
//! op. Only memory ops are ordering points: the furthest-behind slot runs
//! until its next memory op would no longer be the earliest one, and every
//! run of compute ops in between retires in one pass. A slot whose workload
//! wants to block ([`Workload::wants_block`]), and so only idles, fetches
//! nothing once its queue runs dry: the rest of its budget retires in one
//! step. Compute ops touch only their slot's own counters and memory ops
//! still execute in the reference's `(cycle, slot index)` order within
//! each socket, so the result is bit-identical to the per-op
//! [`SimEngine::run_slots_reference`] path, which is kept as the semantic
//! baseline for equivalence tests and benchmarks. The two entry points
//! differ only in the executor: `run_slots` runs the components one after
//! another on the calling thread against the whole machine,
//! `run_slots_parallel` puts two or more of them on scoped threads, each
//! against its own sockets' views.

use crate::cache::{OwnerId, ADDR_BITS};
use crate::error::SimError;
use crate::hierarchy::{AccessKind, AccessOutcome};
use crate::pmc::PmcSet;
use crate::shadow::ShadowAttribution;
use crate::topology::{AccessRoute, CoreId, Machine, NumaNode, SocketView};
use crate::workload::{Op, Workload, IDLE_OP};
use kyoto_trace::TraceSink;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Ops fetched from a workload per `fill_ops` batch: large enough to
/// amortise the dynamic dispatch, small enough that the ops a queue holds
/// between calls stay negligible in memory.
const OP_CHUNK: usize = 64;

/// An execution binding: a workload running on behalf of `owner` on `core`.
pub struct ExecSlot<'a> {
    /// Core the slot runs on.
    pub core: CoreId,
    /// Owner (VM id) of the memory traffic.
    pub owner: OwnerId,
    /// The workload generating micro-operations.
    pub workload: &'a mut dyn Workload,
    /// NUMA node where the owner's memory lives.
    pub data_node: NumaNode,
    /// When set, every LLC miss pays the remote-memory latency regardless of
    /// placement. Used to model a vCPU migrated away from its memory by the
    /// socket-dedication pollution monitor (Fig. 9).
    pub force_remote: bool,
    /// The workload's fetched-but-unexecuted ops. A batched call consumes
    /// and refills them and leaves the rest here, so a slot reused across
    /// calls continues its op stream where the previous call stopped.
    /// Callers that rebuild slots every call (as the hypervisor does per
    /// tick) move the queue from slot to slot.
    pub queue: OpQueue,
    /// Cumulative counters across every call this slot participated in.
    pub pmcs: PmcSet,
}

impl std::fmt::Debug for ExecSlot<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecSlot")
            .field("core", &self.core)
            .field("owner", &self.owner)
            .field("workload", &self.workload.name())
            .field("data_node", &self.data_node)
            .field("force_remote", &self.force_remote)
            .field("queue", &self.queue)
            .field("pmcs", &self.pmcs)
            .finish()
    }
}

impl<'a> ExecSlot<'a> {
    /// Creates a slot with data local to the core's socket, no forced
    /// remote accesses and an empty op queue.
    pub fn new(core: CoreId, owner: OwnerId, workload: &'a mut dyn Workload) -> Self {
        ExecSlot {
            core,
            owner,
            workload,
            data_node: NumaNode(usize::MAX), // resolved lazily to the core's node
            force_remote: false,
            queue: OpQueue::default(),
            pmcs: PmcSet::default(),
        }
    }

    /// Places the owner's memory on an explicit NUMA node.
    pub fn with_data_node(mut self, node: NumaNode) -> Self {
        self.data_node = node;
        self
    }

    /// Forces LLC misses to pay the remote-memory latency.
    pub fn with_force_remote(mut self, force: bool) -> Self {
        self.force_remote = force;
        self
    }
}

/// Per-slot outcome of one [`SimEngine::run_slots`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantumReport {
    /// Cycles actually consumed (>= the requested budget, because the last
    /// op may overshoot it slightly).
    pub consumed_cycles: u64,
    /// Counter delta produced during this call.
    pub pmc_delta: PmcSet,
    /// Number of LLC fills that evicted another owner's line.
    pub pollution_events: u64,
}

impl QuantumReport {
    /// Instructions per cycle achieved during this quantum.
    pub fn ipc(&self) -> f64 {
        self.pmc_delta.ipc()
    }
}

/// A batched op stream: ops prefetched from a workload in blocks of up to
/// 64 and consumed in order, runs of compute ops in one pass and memory
/// ops one at a time; once it runs dry while the workload wants to block,
/// the rest of the budget as idle ops in one step. It lives in its
/// [`ExecSlot`], so the ops a call fetched but did not execute wait there
/// and the stream continues exactly where it stopped on the next call —
/// batching is invisible to the simulation semantics. Dropping a queue
/// discards those ops (fewer than 64).
#[derive(Debug, Default, Clone)]
pub struct OpQueue {
    buf: Vec<Op>,
    head: usize,
}

impl OpQueue {
    /// Retires the run of compute ops at the head of the stream in one pass
    /// (refilling as needed) and returns the memory op that ends the run,
    /// left unconsumed at the head. Returns `None` once the run reaches
    /// `cycle_budget`; the op that reaches it is retired. Each compute op
    /// costs `max(cycles, 1)` — the clamp of `execute_op`.
    ///
    /// When the queue runs dry and the workload wants to block, the rest of
    /// the budget is idle ops of one cycle each: they retire in one step, and
    /// the queue is left as fetching them chunk by chunk would leave it.
    #[inline]
    fn retire_compute_run(
        &mut self,
        workload: &mut dyn Workload,
        report: &mut QuantumReport,
        cycle_budget: u64,
    ) -> Option<Op> {
        let start = report.consumed_cycles;
        let mut consumed = start;
        let mut retired = 0u64;
        let memory_op = 'run: loop {
            // `consumed < cycle_budget` here: the caller only runs a lane
            // below its budget, and the loop below stops at the budget.
            if self.head == self.buf.len() && !self.refill(workload) {
                let idle_ops = cycle_budget - consumed;
                self.park_idle(idle_ops);
                retired += idle_ops;
                consumed = cycle_budget;
                break 'run None;
            }
            for &op in &self.buf[self.head..] {
                let Op::Compute { cycles } = op else {
                    break 'run Some(op);
                };
                self.head += 1;
                retired += 1;
                consumed += u64::from(cycles.max(1));
                if consumed >= cycle_budget {
                    break 'run None;
                }
            }
        };
        report.consumed_cycles = consumed;
        report.pmc_delta.instructions += retired;
        report.pmc_delta.unhalted_core_cycles += consumed - start;
        memory_op
    }

    /// Fetches the next chunk of the stream, or returns `false` without
    /// fetching when the workload wants to block, which promises idle ops
    /// until its next wake: one question per refill, never one per op.
    fn refill(&mut self, workload: &mut dyn Workload) -> bool {
        if workload.wants_block() {
            return false;
        }
        self.buf.clear();
        self.buf.resize(OP_CHUNK, Op::Compute { cycles: 1 });
        self.head = 0;
        let filled = workload.fill_ops(&mut self.buf);
        self.buf.truncate(filled);
        if self.buf.is_empty() {
            // Defensive: a short-filling workload must still make progress.
            self.buf.push(workload.next_op());
        }
        true
    }

    /// Leaves the queue as retiring `idle_ops` (at least 1) idle ops would
    /// from an empty queue: `⌈idle_ops / 64⌉` chunks fetched, the last one
    /// consumed up to the op that reached the budget. The head decides how
    /// many idle ops run before the burst after the next wake. Out of line,
    /// so the fetch loop of workloads that never block keeps its layout.
    #[cold]
    #[inline(never)]
    fn park_idle(&mut self, idle_ops: u64) {
        self.buf.clear();
        self.buf.resize(OP_CHUNK, IDLE_OP);
        self.head = ((idle_ops - 1) % OP_CHUNK as u64) as usize + 1;
    }
}

/// Memory-access target of the engine's execution loops: the whole machine
/// (the reference path and inline components), or one socket's
/// split-borrowed view or a group of them (components on threads).
/// Monomorphised, so the per-op loop is specialised to each target.
trait AccessMem {
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome;
}

impl AccessMem for Machine {
    #[inline]
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        Machine::access_routed(self, route, addr, kind, owner)
    }
}

impl AccessMem for SocketView<'_> {
    #[inline]
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        SocketView::access_routed(self, route, addr, kind, owner)
    }
}

/// Several sockets' split-borrowed views driven as one: the target of a
/// threaded component whose sockets a shadow-attributed owner couples (it
/// has slots on more than one of them). Single-socket components keep
/// using [`SocketView`] directly, so the common path pays no extra
/// indirection.
struct SocketGroup<'a> {
    views: Vec<SocketView<'a>>,
    /// Socket index -> position in `views` (only the member sockets are
    /// populated; a routed access to any other socket is a grouping bug).
    view_of_socket: Vec<usize>,
}

impl AccessMem for SocketGroup<'_> {
    #[inline]
    fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        let view = self.view_of_socket[route.socket_index()];
        self.views[view].access_routed(route, addr, kind, owner)
    }
}

/// What a component on its own thread runs against: its socket's view, or
/// a [`SocketGroup`] when a shadow owner couples several sockets.
enum ComponentTarget<'a> {
    Socket(SocketView<'a>),
    Group(SocketGroup<'a>),
}

impl<'a> ComponentTarget<'a> {
    /// Takes the views of `sockets` out of `views` (one slot per socket of
    /// the machine).
    fn take(views: &mut [Option<SocketView<'a>>], sockets: &[usize]) -> Self {
        let num_sockets = views.len();
        let mut take = |socket: usize| {
            views[socket]
                .take()
                .expect("each socket belongs to one component")
        };
        if let [socket] = *sockets {
            return ComponentTarget::Socket(take(socket));
        }
        let mut view_of_socket = vec![usize::MAX; num_sockets];
        let views = sockets
            .iter()
            .enumerate()
            .map(|(position, &socket)| {
                view_of_socket[socket] = position;
                take(socket)
            })
            .collect();
        ComponentTarget::Group(SocketGroup {
            views,
            view_of_socket,
        })
    }

    fn run(
        &mut self,
        shadow: &mut Option<ShadowAttribution>,
        lanes: &mut [Lane<'_, '_>],
        cycle_budget: u64,
    ) {
        match self {
            ComponentTarget::Socket(view) => {
                run_epoch_interleaving(view, shadow, lanes, cycle_budget)
            }
            ComponentTarget::Group(group) => {
                run_epoch_interleaving(group, shadow, lanes, cycle_budget)
            }
        }
    }
}

/// One execution component of a batch: the sockets it drives, ascending,
/// and how many of the component-ordered lanes it runs.
struct Component {
    sockets: Vec<usize>,
    lanes: usize,
}

/// One slot's state during a batched call: the slot, its position in the
/// caller's slice, its op queue, its pre-resolved route and memory-level
/// parallelism (both static per slot, hoisted out of the per-op loop) and
/// the report it accumulates. The queue is moved out of the slot for the
/// call and back at the end: the per-op writes then land in the lanes,
/// which are contiguous per component, and not in the caller's slots,
/// where neighbours may run on other sockets' threads.
struct Lane<'s, 'w> {
    slot: &'s mut ExecSlot<'w>,
    index: usize,
    queue: OpQueue,
    route: AccessRoute,
    mlp: f64,
    report: QuantumReport,
}

/// Executes one micro-op for a slot, accumulating its cycle cost, counter
/// deltas and pollution events directly into `report`: the shared cost
/// model of every engine path. A memory op whose address is wider than
/// [`ADDR_BITS`] panics ([`address_out_of_range`]) before it touches any
/// cache.
#[inline]
fn execute_op<M: AccessMem>(
    machine: &mut M,
    shadow: &mut Option<ShadowAttribution>,
    route: AccessRoute,
    owner: OwnerId,
    mem_parallelism: f64,
    op: Op,
    report: &mut QuantumReport,
) {
    match op {
        Op::Compute { cycles } => {
            let cycles = u64::from(cycles.max(1));
            report.consumed_cycles += cycles;
            report.pmc_delta.instructions += 1;
            report.pmc_delta.unhalted_core_cycles += cycles;
        }
        Op::Load { addr } | Op::Store { addr } => {
            if addr >> ADDR_BITS != 0 {
                address_out_of_range(addr);
            }
            let kind = if matches!(op, Op::Store { .. }) {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let outcome = machine.access_routed(route, addr, kind, owner);
            if outcome.level.reached_llc() {
                if let Some(shadow) = shadow.as_mut() {
                    shadow.observe(owner, addr);
                }
            }
            // Memory-level parallelism: streaming workloads overlap
            // independent misses, so the per-access charge of an LLC
            // miss shrinks by the declared parallelism factor.
            let effective_latency = if outcome.level.is_llc_miss() {
                ((f64::from(outcome.latency) / mem_parallelism).round() as u32).max(1)
            } else {
                outcome.latency
            };
            let cycles = u64::from(effective_latency) + 1;
            report.consumed_cycles += cycles;
            let delta = &mut report.pmc_delta;
            delta.instructions += 1;
            delta.unhalted_core_cycles += cycles;
            delta.memory_accesses += 1;
            delta.ilc_misses += u64::from(outcome.level.missed_l1());
            delta.llc_references += u64::from(outcome.level.reached_llc());
            delta.llc_misses += u64::from(outcome.level.is_llc_miss());
            delta.remote_accesses +=
                u64::from(outcome.level == crate::hierarchy::MemLevel::RemoteMemory);
            report.pollution_events += u64::from(outcome.polluted_llc);
        }
    }
}

/// The engine's response to a memory op wider than [`ADDR_BITS`]: such an
/// address could alias another line in the caches, so no path executes it.
#[cold]
#[inline(never)]
fn address_out_of_range(addr: u64) -> ! {
    panic!("memory op address {addr:#x} is wider than {ADDR_BITS} bits")
}

/// The batched/epoch interleaving loop: the batched body runs it once per
/// socket component, against the whole machine inline or against the
/// component's socket view or group on a thread.
///
/// Only memory ops are ordering points. The loop pops the furthest-behind
/// lane from a min-heap on `(consumed_cycles, lane index)` and runs it: a
/// run of compute ops at the head of its stream retires in one pass
/// ([`OpQueue::retire_compute_run`]), and before each memory op the lane
/// compares its `(consumed_cycles, lane index)` with the heap minimum. If
/// it is no longer the minimum it is requeued with the memory op still at
/// the head of its stream. A lane stops once its budget is spent.
///
/// This is bit-identical to the reference path, which advances the
/// furthest-behind slot one op at a time. Compute ops touch only the slot's
/// own counters, so where they fall relative to other slots' ops is
/// unobservable. Memory ops — the only ops that touch cache or shadow
/// state — still execute in increasing `(cycle, slot index)` order, the
/// reference order: every other lane's key in the heap is a lower bound on
/// where its next memory op starts, so a memory op whose key is below the
/// heap minimum precedes them all. The lanes are in ascending slot order,
/// so the lane index breaks ties as the slot index does.
fn run_epoch_interleaving<M: AccessMem>(
    machine: &mut M,
    shadow: &mut Option<ShadowAttribution>,
    lanes: &mut [Lane<'_, '_>],
    cycle_budget: u64,
) {
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
        (0..lanes.len()).map(|i| Reverse((0u64, i))).collect();
    while let Some(Reverse((_, i))) = heap.pop() {
        let (limit_cycles, limit_index) = match heap.peek() {
            Some(Reverse((cycles, index))) => (*cycles, *index),
            None => (cycle_budget, usize::MAX),
        };
        let Lane {
            slot,
            queue,
            route,
            mlp,
            report,
            ..
        } = &mut lanes[i];
        let owner = slot.owner;
        while let Some(op) = queue.retire_compute_run(&mut *slot.workload, report, cycle_budget) {
            let consumed = report.consumed_cycles;
            if consumed > limit_cycles || (consumed == limit_cycles && i > limit_index) {
                heap.push(Reverse((consumed, i)));
                break;
            }
            // Consume the memory op the run left at the head.
            queue.head += 1;
            execute_op(machine, shadow, *route, owner, *mlp, op, report);
            if report.consumed_cycles >= cycle_budget {
                break;
            }
        }
    }
}

/// The time-stepped simulation engine.
///
/// `Clone` deep-copies the whole machine state (cache hierarchies, shadow
/// replay), which is what fleet checkpointing relies on: a cloned engine,
/// driven with copies of the same slots and queues, continues
/// bit-identically to the original. The engine keeps no per-stream state
/// between calls; each op stream's queue lives in its [`ExecSlot`].
#[derive(Debug, Clone)]
pub struct SimEngine {
    machine: Machine,
    shadow: Option<ShadowAttribution>,
    elapsed_cycles: u64,
    /// Worker threads the most recent batched call spawned (0 when it ran
    /// inline). Diagnostics only — lets tests pin which batches actually
    /// parallelise.
    last_parallel_groups: usize,
    /// The cycle-domain trace sink (disabled by default; one enabled-branch
    /// per batched call when off, bench-gated by `trace_overhead`). Cloned
    /// with the engine, so checkpoints carry trace state bit-identically.
    trace: TraceSink,
}

impl SimEngine {
    /// Creates an engine around a machine, without shadow attribution.
    pub fn new(machine: Machine) -> Self {
        SimEngine {
            machine,
            shadow: None,
            elapsed_cycles: 0,
            last_parallel_groups: 0,
            trace: TraceSink::default(),
        }
    }

    /// The engine's trace sink. Disabled by default; when enabled via
    /// [`SimEngine::trace_mut`], every batched call records an
    /// `engine.run_slots` span (timestamped in [`SimEngine::elapsed_cycles`],
    /// the simulated clock), per-batch instruction/LLC-miss counters and a
    /// batch-cycles histogram.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable access to the trace sink — enable recording with
    /// [`TraceSink::enable`], or drain per-epoch data into an upper-layer
    /// sink with [`TraceSink::drain`].
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Worker threads the most recent batched call used: the number of
    /// socket components of a [`SimEngine::run_slots_parallel`] call that
    /// formed two or more, and 0 when the call ran inline (every
    /// [`SimEngine::run_slots`] call, and any batch that forms one component:
    /// fewer than two populated sockets, or every populated socket coupled
    /// by shadow-attributed owners).
    pub fn parallel_groups_last_call(&self) -> usize {
        self.last_parallel_groups
    }

    /// Enables simulator-based pollution attribution (the McSimA+ stand-in):
    /// LLC-level accesses are additionally replayed into per-owner shadow
    /// caches.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] if the machine's LLC
    /// geometry is invalid (cannot happen for a validated machine).
    pub fn enable_shadow_attribution(&mut self) -> Result<(), SimError> {
        if self.shadow.is_none() {
            self.shadow = Some(ShadowAttribution::new(self.machine.config().llc.clone())?);
        }
        Ok(())
    }

    /// The shadow attribution component, if enabled.
    pub fn shadow(&self) -> Option<&ShadowAttribution> {
        self.shadow.as_ref()
    }

    /// Mutable access to the shadow attribution component, if enabled.
    pub fn shadow_mut(&mut self) -> Option<&mut ShadowAttribution> {
        self.shadow.as_mut()
    }

    /// The simulated machine.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the simulated machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Total cycles executed by the busiest slot so far (a logical clock):
    /// the sum over every `run_slots*` call of the largest
    /// [`QuantumReport::consumed_cycles`] that call produced. Because the
    /// last op of a quantum may overshoot the requested budget, this runs
    /// slightly ahead of the sum of budgets; before the fix pinned by
    /// `elapsed_cycles_track_the_busiest_slot` it silently advanced by the
    /// budget instead, under-reporting the overshoot. Both batched entry
    /// points use the same definition (the busiest slot across all sockets).
    pub fn elapsed_cycles(&self) -> u64 {
        self.elapsed_cycles
    }

    /// Runs every slot for `cycle_budget` cycles, interleaving their
    /// execution in cycle order.
    ///
    /// Returns one report per slot, in the order of `slots`. Slots also
    /// accumulate the counter deltas into their own [`ExecSlot::pmcs`].
    ///
    /// The interleaving is epoch-based, with ops pulled in batches
    /// ([`Workload::fill_ops`]) into each slot's [`ExecSlot::queue`], which
    /// keeps the ops the call fetched but did not execute. Only memory ops are
    /// ordering points: the slot that is furthest behind in cycle time
    /// (ties broken by slot index) runs until its next memory op would
    /// start after another slot's current position, retiring each run of
    /// compute ops in one pass. Compute ops touch only the slot's own
    /// counters, and memory ops — the only ops that touch cache or shadow
    /// state — execute in increasing `(cycle, slot index)` order, as when
    /// advancing one op at a time like [`SimEngine::run_slots_reference`].
    /// Every cache state, counter and pollution attribution is therefore
    /// bit-identical to the reference, which property tests assert; only
    /// the bookkeeping cost per op differs.
    ///
    /// Sockets share no cache state, so the batch is split into socket
    /// components (see [`SimEngine::run_slots_parallel`]) that run one after
    /// another on the calling thread, each interleaving only its own slots.
    ///
    /// # Panics
    ///
    /// Panics if a slot references a core that does not exist on the machine
    /// (a programming error in the hypervisor layer), or if a workload emits
    /// a memory op whose address is at or above `2^`[`ADDR_BITS`].
    pub fn run_slots(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
    ) -> Vec<QuantumReport> {
        self.run_batched(slots, cycle_budget, false)
    }

    /// Records one batched call into the trace sink: the `engine.run_slots`
    /// span covering `[start, elapsed)` on the simulated clock, plus PMC
    /// counters and the batch-cycles histogram. A single branch when
    /// tracing is off. The batched body calls this exactly once per call
    /// with the reports in slot order, so traces are byte-identical across
    /// the two entry points.
    fn record_batch_trace(&mut self, start: u64, reports: &[QuantumReport]) {
        if !self.trace.is_enabled() {
            return;
        }
        let dur = self.elapsed_cycles - start;
        self.trace.span("engine", "engine.run_slots", start, dur);
        self.trace.counter_add("engine.batches", 1);
        self.trace.counter_add("engine.cycles", dur);
        let mut instructions = 0u64;
        let mut llc_misses = 0u64;
        for report in reports {
            instructions += report.pmc_delta.instructions;
            llc_misses += report.pmc_delta.llc_misses;
        }
        self.trace.counter_add("engine.instructions", instructions);
        self.trace.counter_add("engine.llc_misses", llc_misses);
        self.trace.hist_record("engine.batch_cycles", dur);
    }

    /// The epilogue of a batched call: folds each lane's counter deltas into
    /// its slot's cumulative PMCs (once per call instead of once per op),
    /// moves each queue back into its slot, advances the logical clock by
    /// the busiest slot's consumed cycles and returns the reports in slot
    /// order.
    fn finish_batched_call(&mut self, lanes: Vec<Lane<'_, '_>>) -> Vec<QuantumReport> {
        let mut reports = vec![QuantumReport::default(); lanes.len()];
        for lane in lanes {
            lane.slot.pmcs += lane.report.pmc_delta;
            lane.slot.queue = lane.queue;
            reports[lane.index] = lane.report;
        }
        self.elapsed_cycles += reports
            .iter()
            .map(|report| report.consumed_cycles)
            .max()
            .unwrap_or(0);
        reports
    }

    /// The semantic reference for [`SimEngine::run_slots`]: advance the
    /// furthest-behind slot by exactly one op per iteration, pulled straight
    /// from the workload with no batching. O(slots) bookkeeping per op —
    /// kept for the equivalence property tests and as the baseline the
    /// substrate benchmarks compare against.
    ///
    /// # Panics
    ///
    /// Panics if a slot references a core that does not exist on the
    /// machine, or if a workload emits a memory op whose address is at or
    /// above `2^`[`ADDR_BITS`].
    pub fn run_slots_reference(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
    ) -> Vec<QuantumReport> {
        let n = slots.len();
        let mut reports = vec![QuantumReport::default(); n];
        if n == 0 || cycle_budget == 0 {
            return reports;
        }
        self.resolve_data_nodes(slots);

        // Interleave in cycle order: always advance the slot that is the
        // furthest behind, scanning linearly (first index wins ties).
        loop {
            let mut next: Option<usize> = None;
            let mut min_cycles = u64::MAX;
            for (i, report) in reports.iter().enumerate() {
                if report.consumed_cycles < cycle_budget && report.consumed_cycles < min_cycles {
                    min_cycles = report.consumed_cycles;
                    next = Some(i);
                }
            }
            let Some(i) = next else { break };

            let slot = &mut slots[i];
            let op = slot.workload.next_op();
            let mlp = slot.workload.mem_parallelism().max(1.0);
            let route = self
                .machine
                .route(slot.core, slot.data_node, slot.force_remote)
                .expect("slot references an unknown core");
            execute_op(
                &mut self.machine,
                &mut self.shadow,
                route,
                slot.owner,
                mlp,
                op,
                &mut reports[i],
            );
        }

        for (slot, report) in slots.iter_mut().zip(&reports) {
            slot.pmcs += report.pmc_delta;
        }
        self.elapsed_cycles += reports
            .iter()
            .map(|report| report.consumed_cycles)
            .max()
            .unwrap_or(0);
        reports
    }

    /// Runs every slot for `cycle_budget` cycles like
    /// [`SimEngine::run_slots`], executing the batch's socket components on
    /// scoped threads.
    ///
    /// Both entry points share one body. It splits the batch into
    /// execution components, normally one per populated socket, and runs the
    /// same epoch interleaving per component; here each threaded component
    /// gets a split-borrowed view of its socket ([`Machine::sockets_mut`]).
    /// Within a socket the
    /// produced op order — and therefore every cache state, counter,
    /// pollution attribution and shadow observation — is bit-identical to
    /// [`SimEngine::run_slots_reference`] over the same slots; only the
    /// cross-socket interleaving in wall-clock time differs, which no
    /// simulation output observes. Here two or more components each get a
    /// thread, with the shadow-attribution state of their owners partitioned
    /// out and merged back in component order after the threads join.
    ///
    /// When shadow attribution is enabled and an owner has slots on several
    /// sockets *in the current batch* (its single shadow cache needs one
    /// interleaving), only the sockets coupled by such owners are merged
    /// into one component — every other populated socket keeps its own.
    /// A batch that forms a single component (fewer than two populated
    /// sockets, or every populated socket coupled) runs inline. Owners that
    /// spanned sockets in *earlier* calls, or that merely have shadow state
    /// but no slot in this batch, never affect the decision.
    ///
    /// # Panics
    ///
    /// Panics if a slot references a core that does not exist on the machine
    /// (a programming error in the hypervisor layer), or if a workload emits
    /// a memory op whose address is at or above `2^`[`ADDR_BITS`].
    pub fn run_slots_parallel(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
    ) -> Vec<QuantumReport> {
        self.run_batched(slots, cycle_budget, true)
    }

    /// The body of [`SimEngine::run_slots`] and
    /// [`SimEngine::run_slots_parallel`]. In order: checks every slot's core
    /// and resolves its route, moves each slot's op queue into its lane,
    /// partitions the batch into socket components
    /// ([`SimEngine::partition`]), runs
    /// [`run_epoch_interleaving`] per component and ends in one epilogue
    /// ([`SimEngine::finish_batched_call`]). With `threads` set, two or more
    /// components run on scoped threads, each against its socket view or
    /// group with partitioned shadow state; otherwise they run inline, one
    /// after another, against the whole machine and the full shadow (their
    /// owners are disjoint whenever shadow attribution is on).
    fn run_batched(
        &mut self,
        slots: &mut [ExecSlot<'_>],
        cycle_budget: u64,
        threads: bool,
    ) -> Vec<QuantumReport> {
        self.last_parallel_groups = 0;
        if slots.is_empty() || cycle_budget == 0 {
            return vec![QuantumReport::default(); slots.len()];
        }
        let trace_start = self.elapsed_cycles;
        self.resolve_data_nodes(slots);

        let mut lanes: Vec<Lane<'_, '_>> = Vec::with_capacity(slots.len());
        for (index, slot) in slots.iter_mut().enumerate() {
            lanes.push(Lane {
                route: self
                    .machine
                    .route(slot.core, slot.data_node, slot.force_remote)
                    .expect("slot references an unknown core"),
                mlp: slot.workload.mem_parallelism().max(1.0),
                queue: std::mem::take(&mut slot.queue),
                report: QuantumReport::default(),
                index,
                slot,
            });
        }
        let components = self.partition(&mut lanes);
        let threaded = threads && components.len() >= 2;
        if threaded {
            self.last_parallel_groups = components.len();
        }

        {
            let SimEngine {
                machine, shadow, ..
            } = self;
            let mut rest = lanes.as_mut_slice();
            let work = components.iter().map(|component| {
                let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(component.lanes);
                rest = tail;
                (component, chunk)
            });
            if threaded {
                let mut views: Vec<Option<SocketView<'_>>> =
                    machine.sockets_mut().map(Some).collect();
                std::thread::scope(|scope| {
                    let workers: Vec<_> = work
                        .map(|(component, chunk)| {
                            let mut target = ComponentTarget::take(&mut views, &component.sockets);
                            let mut part = shadow.as_mut().map(|shadow| {
                                let owners: Vec<OwnerId> =
                                    chunk.iter().map(|lane| lane.slot.owner).collect();
                                shadow.take_partition(&owners)
                            });
                            scope.spawn(move || {
                                target.run(&mut part, chunk, cycle_budget);
                                part
                            })
                        })
                        .collect();
                    // Reabsorb the shadow partitions in component order.
                    for worker in workers {
                        let part = worker.join().expect("socket worker panicked");
                        if let (Some(shadow), Some(part)) = (shadow.as_mut(), part) {
                            shadow.merge(part);
                        }
                    }
                });
            } else {
                // One thread drives every component: the whole machine
                // serves them all, with no split-borrowed views.
                for (_, chunk) in work {
                    run_epoch_interleaving(machine, shadow, chunk, cycle_budget);
                }
            }
        }

        let reports = self.finish_batched_call(lanes);
        self.record_batch_trace(trace_start, &reports);
        reports
    }

    /// Partitions a batch into execution components and orders `lanes` so
    /// each component's lanes are contiguous, ascending in slot order.
    ///
    /// A component is normally one populated socket. With shadow attribution
    /// on and two or more populated sockets, sockets sharing an owner in
    /// this batch are unioned into one component (one shadow cache per
    /// owner needs one interleaving); only owners with slots in the current
    /// batch participate. Components come in ascending order of their
    /// smallest socket. A single-socket batch takes no union-find and no
    /// reordering.
    fn partition(&self, lanes: &mut [Lane<'_, '_>]) -> Vec<Component> {
        let socket_of = |lane: &Lane<'_, '_>| lane.route.socket_index();
        let first = socket_of(&lanes[0]);
        if lanes.iter().all(|lane| socket_of(lane) == first) {
            return vec![Component {
                sockets: vec![first],
                lanes: lanes.len(),
            }];
        }
        let num_sockets = self.machine.num_sockets();
        let mut lanes_on = vec![0usize; num_sockets];
        for lane in lanes.iter() {
            lanes_on[socket_of(lane)] += 1;
        }
        // Union-find over sockets, by smaller root: a set's root is its
        // smallest socket.
        let mut parent: Vec<usize> = (0..num_sockets).collect();
        fn find(parent: &mut [usize], mut socket: usize) -> usize {
            while parent[socket] != socket {
                parent[socket] = parent[parent[socket]];
                socket = parent[socket];
            }
            socket
        }
        if self.shadow.is_some() {
            let mut owner_socket: HashMap<OwnerId, usize> = HashMap::with_capacity(lanes.len());
            for lane in lanes.iter() {
                let socket = socket_of(lane);
                if let Some(&previous) = owner_socket.get(&lane.slot.owner) {
                    let a = find(&mut parent, previous);
                    let b = find(&mut parent, socket);
                    parent[a.max(b)] = a.min(b);
                } else {
                    owner_socket.insert(lane.slot.owner, socket);
                }
            }
        }
        let mut component_of = vec![usize::MAX; num_sockets];
        let mut components: Vec<Component> = Vec::new();
        for socket in (0..num_sockets).filter(|&socket| lanes_on[socket] > 0) {
            let root = find(&mut parent, socket);
            if root == socket {
                component_of[socket] = components.len();
                components.push(Component {
                    sockets: Vec::new(),
                    lanes: 0,
                });
            } else {
                component_of[socket] = component_of[root];
            }
            let component = &mut components[component_of[socket]];
            component.sockets.push(socket);
            component.lanes += lanes_on[socket];
        }
        // A stable sort keeps ascending slot order inside each component.
        lanes.sort_by_key(|lane| component_of[socket_of(lane)]);
        components
    }

    /// Resolves lazy data-node placement and validates slot cores.
    fn resolve_data_nodes(&self, slots: &mut [ExecSlot<'_>]) {
        for slot in slots.iter_mut() {
            let node = self
                .machine
                .numa_node_of(slot.core)
                .expect("slot references an unknown core");
            if slot.data_node.0 == usize::MAX {
                slot.data_node = node;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::MachineConfig;
    use crate::workload::{ComputeOnly, FixedSequence};

    fn engine() -> SimEngine {
        SimEngine::new(Machine::new(MachineConfig::scaled_paper_machine(64)))
    }

    #[test]
    fn empty_slots_or_zero_budget_are_noops() {
        let mut e = engine();
        assert!(e.run_slots(&mut [], 1000).is_empty());
        let mut wl = ComputeOnly::new(1);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 0);
        assert_eq!(reports[0].consumed_cycles, 0);
    }

    #[test]
    fn compute_only_reaches_ipc_one() {
        let mut e = engine();
        let mut wl = ComputeOnly::new(1);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 10_000);
        assert!(reports[0].consumed_cycles >= 10_000);
        assert!((reports[0].ipc() - 1.0).abs() < 1e-9);
        assert_eq!(reports[0].pmc_delta.llc_misses, 0);
    }

    #[test]
    fn memory_ops_cost_hierarchy_latency() {
        let mut e = engine();
        let mut wl = FixedSequence::new("one-line", vec![Op::Load { addr: 0 }]);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 1_000);
        let pmc = reports[0].pmc_delta;
        // First access misses everywhere (~181 cycles) then hits L1 (5 cycles).
        assert_eq!(pmc.llc_misses, 1);
        assert!(pmc.instructions > 100);
        assert!(reports[0].consumed_cycles >= 1_000);
    }

    /// Runs one slot replaying a load of `addr` (with shadow attribution on,
    /// so the shadow replay sees the address too) through the batched body
    /// or the reference.
    fn run_load(addr: u64, reference: bool) -> QuantumReport {
        let mut e = engine();
        e.enable_shadow_attribution().unwrap();
        let mut wl = FixedSequence::new("wide", vec![Op::Load { addr }]);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        let slots = std::slice::from_mut(&mut slot);
        let mut reports = if reference {
            e.run_slots_reference(slots, 1_000)
        } else {
            e.run_slots(slots, 1_000)
        };
        reports.remove(0)
    }

    #[test]
    #[should_panic(expected = "is wider than 52 bits")]
    fn run_slots_rejects_an_address_at_addr_bits() {
        run_load(1 << ADDR_BITS, false);
    }

    #[test]
    #[should_panic(expected = "is wider than 52 bits")]
    fn run_slots_reference_rejects_an_address_at_addr_bits() {
        run_load(1 << ADDR_BITS, true);
    }

    #[test]
    fn the_widest_legal_address_runs_on_both_paths() {
        for reference in [false, true] {
            let report = run_load((1 << ADDR_BITS) - 1, reference);
            assert_eq!(report.pmc_delta.llc_misses, 1);
            assert!(report.pmc_delta.instructions > 100);
        }
    }

    #[test]
    fn all_slots_consume_the_full_budget() {
        let mut e = engine();
        let mut fast = ComputeOnly::new(1);
        let mut slow = FixedSequence::new(
            "mem",
            vec![Op::Load { addr: 0 }, Op::Load { addr: 1 << 20 }],
        );
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut fast),
            ExecSlot::new(CoreId(1), 2, &mut slow),
        ];
        let reports = e.run_slots(&mut slots, 5_000);
        for report in &reports {
            assert!(report.consumed_cycles >= 5_000);
            // Overshoot is bounded by the cost of a single op.
            assert!(report.consumed_cycles < 5_000 + 400);
        }
    }

    #[test]
    fn parallel_slots_on_same_socket_contend_for_the_llc() {
        // A "sensitive" workload whose working set fits the LLC but not the
        // L2, co-run with a streaming "disruptive" workload.
        let config = MachineConfig::scaled_paper_machine(64);
        let llc_lines = config.llc.num_lines();
        let sensitive_lines: Vec<Op> = (0..llc_lines / 2)
            .map(|i| Op::Load { addr: i * 64 })
            .collect();

        let solo_misses = {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            let mut wl = FixedSequence::new("sensitive", sensitive_lines.clone());
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
            // Warm up, then measure.
            e.run_slots(std::slice::from_mut(&mut slot), 200_000);
            slot.pmcs = PmcSet::default();
            let r = e.run_slots(std::slice::from_mut(&mut slot), 200_000);
            r[0].pmc_delta.llc_misses
        };

        let contended_misses = {
            let mut e = SimEngine::new(Machine::new(config));
            let mut wl = FixedSequence::new("sensitive", sensitive_lines);
            let disruptor_ops: Vec<Op> = (0..4096u64)
                .map(|i| Op::Load {
                    addr: (1 << 30) + i * 64,
                })
                .collect();
            let mut dis = FixedSequence::new("disruptor", disruptor_ops).with_mem_parallelism(8.0);
            let mut slots = vec![
                ExecSlot::new(CoreId(0), 1, &mut wl),
                ExecSlot::new(CoreId(1), 2, &mut dis),
            ];
            e.run_slots(&mut slots, 200_000);
            slots[0].pmcs = PmcSet::default();
            let r = e.run_slots(&mut slots, 200_000);
            r[0].pmc_delta.llc_misses
        };

        assert!(
            contended_misses > solo_misses * 2,
            "co-running a streaming disruptor should inflate LLC misses (solo={solo_misses}, contended={contended_misses})"
        );
    }

    #[test]
    fn force_remote_increases_remote_access_count() {
        let mut e = SimEngine::new(Machine::new(MachineConfig::scaled_paper_numa_machine(64)));
        let ops: Vec<Op> = (0..512u64).map(|i| Op::Load { addr: i * 4096 }).collect();
        let mut wl = FixedSequence::new("mem", ops);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl).with_force_remote(true);
        let reports = e.run_slots(std::slice::from_mut(&mut slot), 50_000);
        assert!(reports[0].pmc_delta.remote_accesses > 0);
        assert_eq!(
            reports[0].pmc_delta.remote_accesses,
            reports[0].pmc_delta.llc_misses
        );
    }

    #[test]
    fn shadow_attribution_tracks_solo_misses_under_contention() {
        let config = MachineConfig::scaled_paper_machine(64);
        let mut e = SimEngine::new(Machine::new(config.clone()));
        e.enable_shadow_attribution().unwrap();
        // Small reused set for owner 1, huge stream for owner 2.
        let reused: Vec<Op> = (0..64u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let stream: Vec<Op> = (0..100_000u64)
            .map(|i| Op::Load {
                addr: (1 << 32) + i * 64,
            })
            .collect();
        let mut wl1 = FixedSequence::new("reused", reused);
        let mut wl2 = FixedSequence::new("stream", stream).with_mem_parallelism(8.0);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut wl1),
            ExecSlot::new(CoreId(1), 2, &mut wl2),
        ];
        e.run_slots(&mut slots, 300_000);
        let shadow = e.shadow().unwrap();
        // In the shared LLC owner 1 suffers from owner 2's stream, but its
        // shadow (solo) miss count stays at the cold-miss level.
        assert!(shadow.solo_misses(1) <= 64 * 3);
        assert!(shadow.solo_misses(2) > 1000);
        assert!(slots[0].pmcs.llc_misses >= shadow.solo_misses(1));
    }

    #[test]
    fn pollution_events_are_reported_for_the_polluter() {
        let config = MachineConfig::scaled_paper_machine(64);
        let llc_lines = config.llc.num_lines();
        let mut e = SimEngine::new(Machine::new(config));
        let victim_ops: Vec<Op> = (0..llc_lines / 2)
            .map(|i| Op::Load { addr: i * 64 })
            .collect();
        let stream: Vec<Op> = (0..1_000_000u64)
            .map(|i| Op::Load {
                addr: (1 << 32) + i * 64,
            })
            .collect();
        let mut victim = FixedSequence::new("victim", victim_ops);
        let mut polluter = FixedSequence::new("polluter", stream).with_mem_parallelism(8.0);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut victim),
            ExecSlot::new(CoreId(1), 2, &mut polluter),
        ];
        // Warm the LLC with the victim, then let both run.
        e.run_slots(&mut slots[..1], 200_000);
        let reports = e.run_slots(&mut slots, 200_000);
        assert!(
            reports[1].pollution_events > 0,
            "the streaming owner should evict victim lines"
        );
    }

    #[test]
    fn mem_parallelism_speeds_up_streaming_workloads() {
        let ops: Vec<Op> = (0..100_000u64)
            .map(|i| Op::Load { addr: i * 4096 })
            .collect();
        let run = |mlp: f64| -> u64 {
            let mut e = engine();
            let mut wl = FixedSequence::new("stream", ops.clone()).with_mem_parallelism(mlp);
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
            let r = e.run_slots(std::slice::from_mut(&mut slot), 100_000);
            r[0].pmc_delta.llc_misses
        };
        let dependent = run(1.0);
        let streaming = run(8.0);
        assert!(
            streaming > dependent * 3,
            "an MLP of 8 should let the stream touch far more lines per cycle (dependent={dependent}, streaming={streaming})"
        );
    }

    #[test]
    fn elapsed_cycles_accumulate() {
        let mut e = engine();
        let mut wl = ComputeOnly::new(1);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        e.run_slots(std::slice::from_mut(&mut slot), 1000);
        e.run_slots(std::slice::from_mut(&mut slot), 500);
        // One-cycle compute ops land exactly on the budget, so the logical
        // clock equals the sum of budgets here.
        assert_eq!(e.elapsed_cycles(), 1500);
    }

    #[test]
    fn elapsed_cycles_track_the_busiest_slot() {
        // Memory ops overshoot the budget (the last op completes), so the
        // logical clock must advance by the busiest slot's consumed cycles,
        // not by the requested budget.
        let mut e = engine();
        let mut fast = ComputeOnly::new(1);
        let mut slow = FixedSequence::new(
            "mem",
            (0..64u64).map(|i| Op::Load { addr: i * 4096 }).collect(),
        );
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut fast),
            ExecSlot::new(CoreId(1), 2, &mut slow),
        ];
        let reports = e.run_slots(&mut slots, 1_000);
        let busiest = reports.iter().map(|r| r.consumed_cycles).max().unwrap();
        assert!(busiest > 1_000, "a memory op must overshoot the budget");
        assert_eq!(e.elapsed_cycles(), busiest);
        // The reference path uses the same semantics.
        let mut e = engine();
        let mut slow = FixedSequence::new(
            "mem",
            (0..64u64).map(|i| Op::Load { addr: i * 4096 }).collect(),
        );
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut slow);
        let reports = e.run_slots_reference(std::slice::from_mut(&mut slot), 1_000);
        assert_eq!(e.elapsed_cycles(), reports[0].consumed_cycles);
    }

    #[test]
    fn ilc_misses_count_l2_hits_too() {
        // L1D at scale 64: 512 B, 8-way, 64 B lines => 1 set. Ten distinct
        // lines overflow it but fit the 4 KiB L2, so re-touching them misses
        // L1 and hits L2: each such access is an ILC miss but not an LLC
        // reference.
        let mut e = engine();
        let lines: Vec<Op> = (0..10u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut wl = FixedSequence::new("l2-resident", lines);
        let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
        e.run_slots(std::slice::from_mut(&mut slot), 50_000);
        let pmcs = slot.pmcs;
        assert!(
            pmcs.ilc_misses > pmcs.llc_references,
            "L2 hits must count as ILC misses (ilc={}, llc_refs={})",
            pmcs.ilc_misses,
            pmcs.llc_references
        );
        assert!(pmcs.ilc_misses <= pmcs.memory_accesses);
    }

    fn lcg_ops(seed: u64, count: usize) -> Vec<Op> {
        let mut state = seed | 1;
        (0..count)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let draw = state >> 33;
                match draw % 4 {
                    0 => Op::Compute {
                        cycles: (draw / 4 % 7 + 1) as u32,
                    },
                    1 => Op::Store {
                        addr: (draw / 4 % 4096) * 64,
                    },
                    _ => Op::Load {
                        addr: (draw / 4 % 4096) * 64,
                    },
                }
            })
            .collect()
    }

    /// Runs the same four-slot, two-socket scenario through `run_slots` and
    /// `run_slots_parallel` and asserts identical observable state.
    fn assert_parallel_matches_serial(shadow: bool) {
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let run = |parallel: bool| {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            if shadow {
                e.enable_shadow_attribution().unwrap();
            }
            let mut workloads: Vec<FixedSequence> = (0..4)
                .map(|w| {
                    FixedSequence::new(format!("wl{w}"), lcg_ops(w as u64 + 1, 2048))
                        .with_mem_parallelism(1.0 + w as f64)
                })
                .collect();
            // Slots 0,1 on socket 0 (cores 0,1); slots 2,3 on socket 1
            // (cores 4,5). They are reused, so each stream continues from
            // round to round.
            let mut slots: Vec<ExecSlot<'_>> = workloads
                .iter_mut()
                .enumerate()
                .map(|(w, wl)| {
                    let core = CoreId(if w < 2 { w } else { w + 2 });
                    ExecSlot::new(core, w as OwnerId + 1, wl)
                })
                .collect();
            let mut all_reports = Vec::new();
            for round in 0..3 {
                let reports = if parallel {
                    e.run_slots_parallel(&mut slots, 8_000 + round * 1_000)
                } else {
                    e.run_slots(&mut slots, 8_000 + round * 1_000)
                };
                all_reports.push(reports);
            }
            let llc0 = e.machine().llc_stats(crate::topology::SocketId(0)).unwrap();
            let llc1 = e.machine().llc_stats(crate::topology::SocketId(1)).unwrap();
            let shadow_misses: Vec<u64> = (1..=4)
                .map(|owner| e.shadow().map(|s| s.solo_misses(owner)).unwrap_or(0))
                .collect();
            (all_reports, llc0, llc1, shadow_misses, e.elapsed_cycles())
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn parallel_path_matches_serial_across_sockets() {
        assert_parallel_matches_serial(false);
    }

    #[test]
    fn parallel_path_matches_serial_with_shadow_attribution() {
        assert_parallel_matches_serial(true);
    }

    #[test]
    fn parallel_path_falls_back_on_a_single_socket() {
        // All slots on socket 0: one component, which the parallel entry
        // point runs inline, still correctly.
        let mut e = engine();
        let mut a = ComputeOnly::new(1);
        let mut b = ComputeOnly::new(2);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(1), 2, &mut b),
        ];
        let reports = e.run_slots_parallel(&mut slots, 5_000);
        assert!(reports.iter().all(|r| r.consumed_cycles >= 5_000));
        assert_eq!(e.parallel_groups_last_call(), 0);
    }

    #[test]
    fn parallel_path_falls_back_when_an_owner_spans_sockets_with_shadow() {
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let mut e = SimEngine::new(Machine::new(config));
        e.enable_shadow_attribution().unwrap();
        let ops: Vec<Op> = (0..256u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut a = FixedSequence::new("a", ops.clone());
        let mut b = FixedSequence::new("b", ops);
        // Owner 1 has slots on both sockets: its one shadow cache couples
        // them into one component, which runs inline on a socket group.
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(4), 1, &mut b),
        ];
        let reports = e.run_slots_parallel(&mut slots, 5_000);
        assert!(reports.iter().all(|r| r.consumed_cycles >= 5_000));
        assert_eq!(e.parallel_groups_last_call(), 0);
        assert!(e.shadow().unwrap().solo_misses(1) > 0);
    }

    #[test]
    fn spanning_owner_with_shadow_merges_only_its_sockets() {
        // 4-socket machine, shadow on. Owner 1 spans sockets 0 and 1: those
        // two sockets must share a thread (one shadow cache), but sockets 2
        // and 3 keep their own threads — the batch must NOT collapse into
        // one component. Results stay bit-identical to `run_slots`.
        let config = MachineConfig::scaled_cloud_machine(4, 64);
        let cps = config.cores_per_socket;
        let ops = |seed: u64| lcg_ops(seed, 2048);
        let run = |parallel: bool| {
            let mut e = SimEngine::new(Machine::new(config.clone()));
            e.enable_shadow_attribution().unwrap();
            let mut workloads: Vec<FixedSequence> = (0..4)
                .map(|w| FixedSequence::new(format!("wl{w}"), ops(w as u64 + 1)))
                .collect();
            let mut iter = workloads.iter_mut();
            let cores = [0, cps, 2 * cps, 3 * cps];
            let owners = [1u16, 1, 2, 3];
            let mut slots: Vec<ExecSlot<'_>> = cores
                .iter()
                .zip(owners)
                .map(|(&core, owner)| ExecSlot::new(CoreId(core), owner, iter.next().unwrap()))
                .collect();
            let reports = if parallel {
                e.run_slots_parallel(&mut slots, 20_000)
            } else {
                e.run_slots(&mut slots, 20_000)
            };
            let groups = e.parallel_groups_last_call();
            let shadow: Vec<u64> = (1..=3)
                .map(|o| e.shadow().unwrap().solo_misses(o))
                .collect();
            let llc: Vec<_> = (0..4)
                .map(|s| e.machine().llc_stats(crate::topology::SocketId(s)).unwrap())
                .collect();
            (reports, shadow, llc, e.elapsed_cycles(), groups)
        };
        let (s_reports, s_shadow, s_llc, s_elapsed, s_groups) = run(false);
        let (p_reports, p_shadow, p_llc, p_elapsed, p_groups) = run(true);
        assert_eq!(s_groups, 0, "run_slots runs its components inline");
        assert_eq!(
            p_groups, 3,
            "sockets {{0,1}} merge, sockets 2 and 3 stay independent"
        );
        assert_eq!(s_reports, p_reports);
        assert_eq!(s_shadow, p_shadow);
        assert_eq!(s_llc, p_llc);
        assert_eq!(s_elapsed, p_elapsed);
    }

    #[test]
    fn owner_span_check_only_sees_the_current_batch() {
        // Call 1: owner 1 spans both sockets with shadow on -> one component,
        // run inline. Call 2: every owner (including owner 1, which
        // still has shadow state from call 1) is confined to one socket ->
        // the batch must parallelise; history must not force a fallback.
        let config = MachineConfig::scaled_paper_numa_machine(64);
        let mut e = SimEngine::new(Machine::new(config));
        e.enable_shadow_attribution().unwrap();
        let ops: Vec<Op> = (0..512u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let mut a = FixedSequence::new("a", ops.clone());
        let mut b = FixedSequence::new("b", ops.clone());
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(4), 1, &mut b),
        ];
        e.run_slots_parallel(&mut slots, 5_000);
        assert_eq!(
            e.parallel_groups_last_call(),
            0,
            "a spanning owner couples both sockets: one component, run inline"
        );
        drop(slots);
        let mut c = FixedSequence::new("c", ops);
        let mut slots = vec![
            ExecSlot::new(CoreId(0), 1, &mut a),
            ExecSlot::new(CoreId(4), 2, &mut c),
        ];
        let reports = e.run_slots_parallel(&mut slots, 5_000);
        assert_eq!(
            e.parallel_groups_last_call(),
            2,
            "owner 1's earlier span (and its shadow state) must not serialise a batch where every owner sits on one socket"
        );
        assert!(reports.iter().all(|r| r.consumed_cycles >= 5_000));
        assert!(e.shadow().unwrap().solo_misses(1) > 0);
    }

    #[test]
    fn op_buffers_carry_across_calls_per_tag() {
        // A FixedSequence visiting distinct lines: if the slot's queue lost
        // the prefetched-but-unexecuted ops between calls, the visited
        // address sequence would skip lines and the total distinct-line
        // count of three short calls would diverge from one long call.
        let ops: Vec<Op> = (0..1024u64).map(|i| Op::Load { addr: i * 64 }).collect();
        let run = |budgets: &[u64]| -> u64 {
            let mut e = engine();
            let mut wl = FixedSequence::new("seq", ops.clone());
            let mut slot = ExecSlot::new(CoreId(0), 1, &mut wl);
            for &budget in budgets {
                e.run_slots(std::slice::from_mut(&mut slot), budget);
            }
            e.machine()
                .socket(crate::topology::SocketId(0))
                .unwrap()
                .llc()
                .stats()
                .accesses
        };
        let split = run(&[3_000, 3_000, 3_000]);
        let joined = run(&[9_000]);
        // Each extra call can overshoot by at most one op, so the two runs
        // stay within a few accesses of each other.
        assert!(
            split.abs_diff(joined) <= 4,
            "split={split}, joined={joined}"
        );
    }
}
