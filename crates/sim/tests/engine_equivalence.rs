//! Equivalence of the engine's two batched entry points with the per-op
//! reference.
//!
//! `SimEngine::run_slots` and `SimEngine::run_slots_parallel` share one
//! batched body: op fetching in chunks, the batch split into socket
//! components, epoch interleaving per component. `run_slots` runs the
//! components one after another on the calling thread, `run_slots_parallel`
//! puts two or more of them on scoped threads. `SimEngine::run_slots_reference`
//! advances one op at a time with a linear furthest-behind scan. All three
//! must be *bit-identical*: same `QuantumReport`s, same cumulative slot
//! PMCs, same per-socket LLC `CacheStats` and per-owner occupancy/miss
//! attribution, same shadow (solo) misses, same logical clock — across
//! budgets, slot counts, machines of 1/2/4/8 sockets (placements spreading
//! slots across every socket, and one in which an owner has slots on two
//! sockets, so shadow attribution couples them into one component), and the
//! paper's execution modes (parallel co-scheduling and alternative
//! time-sharing over successive calls, which exercises op queues moved
//! from call to call). The properties draw from two op streams: mostly
//! memory ops, and long compute runs between memory bursts. The second
//! covers the batched body's one-pass retirement of compute runs: runs that
//! cross the 64-op fetch chunk and runs that end at the budget.
//!
//! Sleepers (a burst, then idle padding until a wake) pin the one-step
//! retirement of idle runs: with `Workload::wants_block` shown, the batched
//! body stops fetching once a drained sleeper's queue runs dry; with it
//! hidden, it fetches and retires every idle op. Both must leave every
//! counter, cache and op queue identical, call after call. (Only the
//! hypervisor parks a vCPU on `wants_block`; these tests drive the engine
//! alone.)

use kyoto_sim::cache::OwnerId;
use kyoto_sim::engine::{ExecSlot, OpQueue, SimEngine};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig, SocketId};
use kyoto_sim::workload::{Op, Workload, IDLE_OP};
use kyoto_sim::{CacheStats, QuantumReport};
use proptest::prelude::*;

/// One step of the LCG both test generators draw from: the high 31 bits
/// of the next state.
fn lcg_draw(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A deterministic mixed load/store/compute generator (LCG-driven) so the
/// test does not depend on the higher-level `kyoto-workloads` crate.
#[derive(Debug, Clone)]
struct LcgWorkload {
    state: u64,
    lines: u64,
    mem_parallelism: f64,
}

impl LcgWorkload {
    fn new(seed: u64, lines: u64, mem_parallelism: f64) -> Self {
        LcgWorkload {
            state: seed | 1,
            lines: lines.max(1),
            mem_parallelism,
        }
    }
}

impl Workload for LcgWorkload {
    fn next_op(&mut self) -> Op {
        let draw = lcg_draw(&mut self.state);
        let line = (draw / 16) % self.lines;
        match draw % 16 {
            0..=2 => Op::Compute {
                cycles: (draw / 16 % 13 + 1) as u32,
            },
            3..=5 => Op::Store { addr: line * 64 },
            _ => Op::Load { addr: line * 64 },
        }
    }

    fn name(&self) -> &str {
        "lcg"
    }

    fn working_set_bytes(&self) -> u64 {
        self.lines * 64
    }

    fn mem_parallelism(&self) -> f64 {
        self.mem_parallelism
    }
}

/// A bursty generator: runs of 0-200 compute ops, some of them
/// `Op::Compute { cycles: 0 }` (charged as one cycle), between bursts of
/// 1-8 loads and stores. `LcgWorkload` emits compute ops only one at a
/// time; these runs cross the engine's 64-op fetch chunk and reach the
/// budget mid-run.
#[derive(Debug, Clone)]
struct BurstyWorkload {
    state: u64,
    lines: u64,
    mem_parallelism: f64,
    compute_left: u64,
    memory_left: u64,
}

impl BurstyWorkload {
    fn new(seed: u64, lines: u64, mem_parallelism: f64) -> Self {
        BurstyWorkload {
            state: seed | 1,
            lines: lines.max(1),
            mem_parallelism,
            compute_left: 0,
            memory_left: 0,
        }
    }
}

impl Workload for BurstyWorkload {
    fn next_op(&mut self) -> Op {
        if self.compute_left == 0 && self.memory_left == 0 {
            let draw = lcg_draw(&mut self.state);
            self.compute_left = draw % 201;
            self.memory_left = draw / 201 % 8 + 1;
        }
        let draw = lcg_draw(&mut self.state);
        if self.compute_left > 0 {
            self.compute_left -= 1;
            return Op::Compute {
                cycles: (draw % 4) as u32,
            };
        }
        self.memory_left -= 1;
        let addr = (draw / 4) % self.lines * 64;
        if draw.is_multiple_of(4) {
            Op::Store { addr }
        } else {
            Op::Load { addr }
        }
    }

    fn name(&self) -> &str {
        "bursty"
    }

    fn working_set_bytes(&self) -> u64 {
        self.lines * 64
    }

    fn mem_parallelism(&self) -> f64 {
        self.mem_parallelism
    }
}

/// A sleep-mostly generator: `burst_ops` ops of an inner stream, then idle
/// padding with `wants_block()` true until `on_wake` re-arms the burst.
struct Sleeper {
    inner: Box<dyn Workload>,
    burst_ops: u32,
    remaining: u32,
}

impl Workload for Sleeper {
    fn next_op(&mut self) -> Op {
        if self.remaining == 0 {
            return IDLE_OP;
        }
        self.remaining -= 1;
        self.inner.next_op()
    }

    fn name(&self) -> &str {
        "sleeper"
    }

    fn working_set_bytes(&self) -> u64 {
        self.inner.working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        self.inner.mem_parallelism()
    }

    fn wants_block(&self) -> bool {
        self.remaining == 0
    }

    fn on_wake(&mut self) {
        self.remaining = self.burst_ops;
    }
}

/// Forwards every method except `wants_block`, which keeps its default
/// `false`: the engine then fetches and retires every idle op one by one.
struct HiddenBlock<W>(W);

impl<W: Workload> Workload for HiddenBlock<W> {
    fn next_op(&mut self) -> Op {
        self.0.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        self.0.fill_ops(buf)
    }

    fn name(&self) -> &str {
        self.0.name()
    }

    fn working_set_bytes(&self) -> u64 {
        self.0.working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        self.0.mem_parallelism()
    }

    fn reset(&mut self) {
        self.0.reset()
    }

    fn on_wake(&mut self) {
        self.0.on_wake()
    }

    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        self.0.try_clone_box()
    }
}

/// Which generator drives the workloads of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    /// `LcgWorkload`: mostly memory ops, compute ops one at a time.
    Mixed,
    /// `BurstyWorkload`: long compute runs between memory bursts.
    Bursty,
}

/// One slot blueprint: which core/owner the workload runs on during a call.
#[derive(Debug, Clone, Copy)]
struct SlotSpec {
    core: usize,
    owner: OwnerId,
}

/// Which engine entry point drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EnginePath {
    /// `run_slots_reference`: one op at a time, no batching.
    Reference,
    /// `run_slots`: the batched body, components run inline.
    Batched,
    /// `run_slots_parallel`: the batched body, one thread per component
    /// when there are two or more.
    Parallel,
}

/// Which workloads participate in each successive `run_slots` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// All workloads co-run on distinct cores every call (Section 2.2's
    /// parallel execution). On the two-socket machine the cores straddle
    /// both sockets.
    Parallel,
    /// Workloads take turns on core 0 across calls (alternative execution;
    /// exercises op buffers carried across calls).
    Alternative,
    /// One workload alternates on core 0 while another runs steadily on
    /// another core (the other socket, when there is one).
    Combined,
}

/// Everything a run depends on except the engine path.
#[derive(Debug, Clone)]
struct Scenario {
    mode: Mode,
    seed: u64,
    workload_count: usize,
    budgets: Vec<u64>,
    shadow: bool,
    sockets: usize,
    stream: Stream,
    /// Workload 1 runs under workload 0's owner. In `Mode::Parallel` on a
    /// multi-socket machine that owner has slots on sockets 0 and 1.
    shared_owner: bool,
}

/// Everything observable about a run: per-call reports plus final machine,
/// slot and shadow state (per-socket where the machine has several).
#[derive(Debug, PartialEq)]
struct Observed {
    reports: Vec<Vec<QuantumReport>>,
    pmcs: Vec<PmcSet>,
    llc_stats: Vec<CacheStats>,
    llc_occupancy: Vec<Vec<u64>>,
    llc_misses_of: Vec<Vec<u64>>,
    shadow_misses: Vec<u64>,
    elapsed_cycles: u64,
}

fn participants(scenario: &Scenario, call: usize) -> Vec<(usize, SlotSpec)> {
    let Scenario {
        mode,
        workload_count,
        sockets,
        shared_owner,
        ..
    } = *scenario;
    // On multi-socket machines (4 cores per socket), spread the parallel
    // placements across every socket round-robin: workload `w` runs on
    // socket `w % sockets`. Every workload keeps a fixed core and owner, so
    // an owner spans sockets only when `shared_owner` gives workloads 0 and
    // 1 (sockets 0 and 1) the same one.
    let core_of = |w: usize| (w % sockets) * 4 + w / sockets;
    let spec = |w: usize, core: usize| SlotSpec {
        core,
        owner: if shared_owner && w == 1 {
            1
        } else {
            w as OwnerId + 1
        },
    };
    match mode {
        Mode::Parallel => (0..workload_count)
            .map(|w| (w, spec(w, core_of(w))))
            .collect(),
        Mode::Alternative => {
            let w = call % workload_count;
            vec![(w, spec(w, 0))]
        }
        Mode::Combined => {
            let w = call % (workload_count - 1).max(1);
            let steady = workload_count - 1;
            vec![
                (w, spec(w, 0)),
                (steady, spec(steady, if sockets > 1 { 4 } else { 1 })),
            ]
        }
    }
}

/// Workload `w` of a run drawing from `stream`. Working sets straddle the
/// LLC so hits, misses and cross-owner evictions all occur.
fn stream_workload(stream: Stream, seed: u64, w: usize, llc_lines: u64) -> Box<dyn Workload> {
    let seed = seed.wrapping_add(w as u64).wrapping_mul(0x9e3779b9) | 1;
    let lines = llc_lines / 2 + (w as u64 + 1) * llc_lines / 3;
    let mlp = 1.0 + w as f64 * 2.0;
    match stream {
        Stream::Mixed => Box::new(LcgWorkload::new(seed, lines, mlp)),
        Stream::Bursty => Box::new(BurstyWorkload::new(seed, lines, mlp)),
    }
}

/// An engine with shadow attribution as asked, on `sockets` sockets.
/// `cloud_machine(1)` and `cloud_machine(2)` are exactly the paper's
/// single-socket and two-socket machines; larger counts replicate the same
/// per-socket geometry.
fn engine_for(sockets: usize, shadow: bool) -> SimEngine {
    let mut engine = SimEngine::new(Machine::new(MachineConfig::scaled_cloud_machine(
        sockets, 256,
    )));
    if shadow {
        engine.enable_shadow_attribution().unwrap();
    }
    engine
}

fn run_path(path: EnginePath, scenario: &Scenario) -> Observed {
    let Scenario {
        seed,
        workload_count,
        shadow,
        sockets,
        stream,
        ..
    } = *scenario;
    let mut engine = engine_for(sockets, shadow);
    let llc_lines = engine.machine().config().llc.num_lines();
    let mut workloads: Vec<Box<dyn Workload>> = (0..workload_count)
        .map(|w| stream_workload(stream, seed, w, llc_lines))
        .collect();
    let mut pmcs = vec![PmcSet::default(); workload_count];
    // One op queue per workload, moved into its slot for each call and
    // back out afterwards, as the hypervisor does per vCPU.
    let mut queues = vec![OpQueue::default(); workload_count];
    let mut reports = Vec::with_capacity(scenario.budgets.len());

    for (call, &budget) in scenario.budgets.iter().enumerate() {
        let selected = participants(scenario, call);
        let mut remaining: Vec<&mut Box<dyn Workload>> = workloads.iter_mut().collect();
        // Pull the selected workloads out in index order so each call can
        // borrow several of them mutably at once. Each stream's queue
        // belongs to its workload, so two workloads sharing an owner keep
        // their own.
        let mut slots: Vec<ExecSlot<'_>> = Vec::new();
        let mut slot_workload_indices = Vec::new();
        for &(w, spec) in selected.iter().rev() {
            let workload = remaining.remove(w);
            let mut slot = ExecSlot::new(CoreId(spec.core), spec.owner, workload.as_mut());
            slot.queue = std::mem::take(&mut queues[w]);
            slots.push(slot);
            slot_workload_indices.push(w);
        }
        slots.reverse();
        slot_workload_indices.reverse();
        reports.push(match path {
            EnginePath::Batched => engine.run_slots(&mut slots, budget),
            EnginePath::Reference => engine.run_slots_reference(&mut slots, budget),
            EnginePath::Parallel => engine.run_slots_parallel(&mut slots, budget),
        });
        for (slot, &w) in slots.into_iter().zip(&slot_workload_indices) {
            pmcs[w] += slot.pmcs;
            queues[w] = slot.queue;
        }
    }

    observe(&engine, reports, pmcs)
}

/// Everything observable after a run whose workloads accumulated `pmcs`,
/// owned by owners 1 to `pmcs.len()`.
fn observe(engine: &SimEngine, reports: Vec<Vec<QuantumReport>>, pmcs: Vec<PmcSet>) -> Observed {
    let workload_count = pmcs.len();
    let num_sockets = engine.machine().num_sockets();
    let mut llc_stats = Vec::with_capacity(num_sockets);
    let mut llc_occupancy = Vec::with_capacity(num_sockets);
    let mut llc_misses_of = Vec::with_capacity(num_sockets);
    for s in 0..num_sockets {
        let llc = engine.machine().socket(SocketId(s)).unwrap().llc();
        llc_stats.push(llc.stats());
        llc_occupancy.push(
            (0..=workload_count as OwnerId)
                .map(|owner| llc.occupancy_of(owner))
                .collect(),
        );
        llc_misses_of.push(
            (0..=workload_count as OwnerId)
                .map(|owner| llc.misses_of(owner))
                .collect(),
        );
    }
    Observed {
        reports,
        pmcs,
        llc_stats,
        llc_occupancy,
        llc_misses_of,
        shadow_misses: (0..=workload_count as OwnerId)
            .map(|owner| {
                engine
                    .shadow()
                    .map(|shadow| shadow.solo_misses(owner))
                    .unwrap_or(0)
            })
            .collect(),
        elapsed_cycles: engine.elapsed_cycles(),
    }
}

/// A run of sleepers, each on its own core of the two-socket machine, beside
/// one steady `LcgWorkload` whose memory traffic they interleave with.
#[derive(Debug, Clone)]
struct SleeperScenario {
    seed: u64,
    /// The inner stream of every sleeper's bursts.
    stream: Stream,
    /// Per sleeper: its burst length, and whether it starts awake (else its
    /// first call is idle from the first op).
    sleepers: Vec<(u32, bool)>,
    /// Per call: the budget, and which slots `on_wake` reaches before the
    /// call (ignored before the first).
    calls: Vec<(u64, Vec<bool>)>,
    shadow: bool,
}

/// Runs a sleeper scenario with `wants_block` shown (`hinted`) or hidden
/// behind [`HiddenBlock`]. Returns what the run observed and every slot's
/// op queue, as `Debug` text, after every call.
fn run_sleepers(
    path: EnginePath,
    hinted: bool,
    scenario: &SleeperScenario,
) -> (Observed, Vec<String>) {
    let mut engine = engine_for(2, scenario.shadow);
    let llc_lines = engine.machine().config().llc.num_lines();
    let mut workloads: Vec<Box<dyn Workload>> = Vec::new();
    for (w, &(burst_ops, awake)) in scenario.sleepers.iter().enumerate() {
        let sleeper = Sleeper {
            inner: stream_workload(scenario.stream, scenario.seed, w, llc_lines),
            burst_ops,
            remaining: if awake { burst_ops } else { 0 },
        };
        workloads.push(if hinted {
            Box::new(sleeper)
        } else {
            Box::new(HiddenBlock(sleeper))
        });
    }
    let steady = workloads.len();
    workloads.push(stream_workload(
        Stream::Mixed,
        scenario.seed,
        steady,
        llc_lines,
    ));
    // Slot `w` on socket `w % 2`, and one owner per slot.
    let mut slots: Vec<ExecSlot<'_>> = workloads
        .iter_mut()
        .enumerate()
        .map(|(w, workload)| {
            ExecSlot::new(
                CoreId(w % 2 * 4 + w / 2),
                w as OwnerId + 1,
                workload.as_mut(),
            )
        })
        .collect();
    let mut reports = Vec::with_capacity(scenario.calls.len());
    let mut queues = Vec::new();
    for (call, (budget, wakes)) in scenario.calls.iter().enumerate() {
        if call > 0 {
            for (slot, _) in slots.iter_mut().zip(wakes).filter(|(_, &wake)| wake) {
                slot.workload.on_wake();
            }
        }
        reports.push(match path {
            EnginePath::Batched => engine.run_slots(&mut slots, *budget),
            EnginePath::Reference => engine.run_slots_reference(&mut slots, *budget),
            EnginePath::Parallel => engine.run_slots_parallel(&mut slots, *budget),
        });
        queues.extend(slots.iter().map(|slot| format!("{:?}", slot.queue)));
    }
    let pmcs = slots.iter().map(|slot| slot.pmcs).collect();
    (observe(&engine, reports, pmcs), queues)
}

/// A scenario of the mixed stream in which every owner has one workload.
fn mixed(
    mode: Mode,
    seed: u64,
    workload_count: usize,
    budgets: Vec<u64>,
    shadow: bool,
    sockets: usize,
) -> Scenario {
    Scenario {
        mode,
        seed,
        workload_count,
        budgets,
        shadow,
        sockets,
        stream: Stream::Mixed,
        shared_owner: false,
    }
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Parallel),
        Just(Mode::Alternative),
        Just(Mode::Combined),
    ]
}

fn arb_stream() -> impl Strategy<Value = Stream> {
    prop_oneof![Just(Stream::Mixed), Just(Stream::Bursty)]
}

fn arb_flag() -> impl Strategy<Value = bool> {
    prop_oneof![Just(false), Just(true)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The batched/epoch path and the per-op reference produce identical
    /// simulations: reports, PMCs, LLC statistics, per-owner attribution
    /// and shadow misses all match exactly — on the single-socket and the
    /// two-socket machine, for both streams.
    #[test]
    fn batched_path_is_bit_identical_to_reference(
        mode in arb_mode(),
        seed in 0u64..1_000_000,
        workload_count in 2usize..4,
        budgets in prop::collection::vec(500u64..30_000, 1..5),
        shadow in prop_oneof![Just(false), Just(true)],
        sockets in prop_oneof![Just(1usize), Just(2)],
        stream in arb_stream(),
    ) {
        let scenario = Scenario {
            stream,
            ..mixed(mode, seed, workload_count, budgets, shadow, sockets)
        };
        let batched = run_path(EnginePath::Batched, &scenario);
        let reference = run_path(EnginePath::Reference, &scenario);
        prop_assert_eq!(batched, reference);
    }

    /// The socket-parallel path matches the per-op reference exactly, with
    /// multi-socket placements (slots straddling both sockets run on
    /// separate threads), shadow attribution on and off, and both execution
    /// modes — including Alternative, which degenerates to a single
    /// populated socket and runs inline. Both streams.
    #[test]
    fn parallel_path_is_bit_identical_to_reference(
        mode in arb_mode(),
        seed in 0u64..1_000_000,
        workload_count in 2usize..4,
        budgets in prop::collection::vec(500u64..30_000, 1..5),
        shadow in prop_oneof![Just(false), Just(true)],
        stream in arb_stream(),
    ) {
        let scenario = Scenario {
            stream,
            ..mixed(mode, seed, workload_count, budgets, shadow, 2)
        };
        let parallel = run_path(EnginePath::Parallel, &scenario);
        let reference = run_path(EnginePath::Reference, &scenario);
        prop_assert_eq!(parallel, reference);
    }

    /// Per-socket bit-identity holds past two sockets: on 4- and 8-socket
    /// cloud machines, with enough slots to populate many sockets at once,
    /// both entry points — components on threads and components run
    /// inline — still reproduce the reference exactly: the determinism
    /// guarantee behind the cloudscale scenario.
    #[test]
    fn parallel_path_is_bit_identical_at_4_and_8_sockets(
        mode in arb_mode(),
        seed in 0u64..1_000_000,
        workload_count in 4usize..10,
        budgets in prop::collection::vec(500u64..20_000, 1..4),
        shadow in prop_oneof![Just(false), Just(true)],
        sockets in prop_oneof![Just(4usize), Just(8)],
        stream in arb_stream(),
    ) {
        let scenario = Scenario {
            stream,
            ..mixed(mode, seed, workload_count, budgets, shadow, sockets)
        };
        let reference = run_path(EnginePath::Reference, &scenario);
        prop_assert_eq!(&run_path(EnginePath::Parallel, &scenario), &reference);
        prop_assert_eq!(run_path(EnginePath::Batched, &scenario), reference);
    }

    /// An owner with slots on two sockets (a VM whose vCPUs straddle
    /// sockets 0 and 1), with shadow attribution on and off, on 2-, 4- and
    /// 8-socket machines: both entry points reproduce the reference. With
    /// shadow on, the owner's one shadow cache couples the two sockets into
    /// one component, run against a multi-socket group, while any further
    /// socket keeps its own component. The budgets are large enough for the
    /// owner's streams to wrap its shadow cache, so the order of its
    /// accesses across the two sockets decides its shadow misses.
    #[test]
    fn an_owner_spanning_sockets_is_bit_identical_to_reference(
        seed in 0u64..1_000_000,
        workload_count in 2usize..7,
        budgets in prop::collection::vec(20_000u64..150_000, 1..4),
        shadow in prop_oneof![Just(false), Just(true)],
        sockets in prop_oneof![Just(2usize), Just(4), Just(8)],
        stream in arb_stream(),
    ) {
        let scenario = Scenario {
            stream,
            shared_owner: true,
            ..mixed(Mode::Parallel, seed, workload_count, budgets, shadow, sockets)
        };
        let reference = run_path(EnginePath::Reference, &scenario);
        prop_assert_eq!(&run_path(EnginePath::Parallel, &scenario), &reference);
        prop_assert_eq!(run_path(EnginePath::Batched, &scenario), reference);
    }

    /// A single slot driven to large budgets (the tight single-slot epoch
    /// loop) also matches the reference exactly.
    #[test]
    fn single_slot_epochs_match_reference(
        seed in 0u64..1_000_000,
        budgets in prop::collection::vec(10_000u64..200_000, 1..4),
        stream in arb_stream(),
    ) {
        let scenario = Scenario {
            stream,
            ..mixed(Mode::Parallel, seed, 1, budgets, false, 1)
        };
        let batched = run_path(EnginePath::Batched, &scenario);
        let reference = run_path(EnginePath::Reference, &scenario);
        prop_assert_eq!(batched, reference);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Idle runs retire in one step exactly as fetched padding would: the
    /// hinted and the hidden sleepers give identical reports, slot PMCs,
    /// LLC statistics and per-owner counts, shadow misses and clock, and
    /// identical op queues after every call, through both entry points,
    /// with shadow attribution on and off and wakes on a random subset of
    /// slots between calls. The queues are compared directly because a
    /// wrong head only shows at the next wake, in how many leftover idle
    /// ops run before the new burst. Budgets are `64k - 1`, `64k` and
    /// `64k + 1`: a sleeper that starts asleep retires exactly its first
    /// budget as idle ops, just below, on and just above a chunk boundary.
    /// Without wakes between calls, the stream is what the per-op
    /// reference steps through, so the hinted runs also equal it.
    #[test]
    fn idle_runs_retire_like_fetched_padding(
        seed in 0u64..1_000_000,
        stream in arb_stream(),
        sleepers in prop::collection::vec((1u32..300, arb_flag()), 1..5),
        calls in prop::collection::vec(
            (1u64..160, 0u64..3, prop::collection::vec(arb_flag(), 5)),
            2..6,
        ),
        shadow in arb_flag(),
    ) {
        let calls = calls
            .into_iter()
            .map(|(chunks, offset, wakes)| (64 * chunks + offset - 1, wakes))
            .collect();
        let scenario = SleeperScenario { seed, stream, sleepers, calls, shadow };
        for path in [EnginePath::Batched, EnginePath::Parallel] {
            prop_assert_eq!(
                run_sleepers(path, true, &scenario),
                run_sleepers(path, false, &scenario),
                "{:?}",
                path
            );
        }
        let mut unwoken = scenario;
        for (_, wakes) in &mut unwoken.calls {
            wakes.fill(false);
        }
        let (reference, _) = run_sleepers(EnginePath::Reference, true, &unwoken);
        for path in [EnginePath::Batched, EnginePath::Parallel] {
            prop_assert_eq!(&run_sleepers(path, true, &unwoken).0, &reference, "{:?}", path);
        }
    }
}

/// Non-property smoke check: the op queue moved between calls really
/// continues the stream (a workload interrupted mid-chunk resumes where the
/// engine stopped consuming, not where the prefetch stopped).
#[test]
fn op_queues_preserve_the_stream_across_calls() {
    let many_small_budgets: Vec<u64> = (0..12).map(|i| 700 + i * 137).collect();
    let one_big_budget = vec![many_small_budgets.iter().sum::<u64>()];
    let run = |budgets: Vec<u64>| {
        let scenario = mixed(Mode::Parallel, 99, 2, budgets, false, 1);
        run_path(EnginePath::Batched, &scenario)
    };
    let split = run(many_small_budgets);
    let joined = run(one_big_budget);
    // Not bit-identical (quantum boundaries differ: each call lets every
    // slot overshoot its budget by at most one op) but the same op streams
    // were consumed, so instruction counts must be very close.
    for (a, b) in split.pmcs.iter().zip(&joined.pmcs) {
        let (low, high) = (
            a.instructions.min(b.instructions),
            a.instructions.max(b.instructions),
        );
        assert!(
            high > 0 && high - low < high / 10,
            "stream diverged: {low} vs {high} instructions"
        );
    }
}
