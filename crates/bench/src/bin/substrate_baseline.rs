//! Measures the simulation substrate and writes `BENCH_substrate.json`, or
//! gates a written one.
//!
//! This binary is the repository's one measurement harness. It times the
//! layers underneath every scenario (`Cache::access`, the shadow replay of
//! `ShadowAttribution::observe`, workload op generation, the
//! `SimEngine::run_slots` paths, the credit scheduler's pick, whole-fleet
//! cluster epochs) with one best-of helper and records their throughput,
//! plus the speedups between paths, through [`kyoto_bench::ledger`] (see
//! `DESIGN.md` for how to read the file).
//!
//! ```text
//! cargo run --release -p kyoto-bench --bin substrate_baseline
//! cargo run --release -p kyoto-bench --bin substrate_baseline -- --stdout
//! cargo run --release -p kyoto-bench --bin substrate_baseline -- --check BENCH_substrate.json
//! ```
//!
//! `--check [FILE]` (default `BENCH_substrate.json`) gates a written file
//! against [`kyoto_bench::ledger::GATES`]: exit 0 when every gate passes,
//! 1 when any fails (each failure printed as `section.key value < floor
//! [layer]`), 2 when the file is unreadable, malformed or incomplete. Any
//! other argument exits 2 with the usage line before anything is timed or
//! written.

use kyoto_bench::bench_config;
use kyoto_bench::ledger::{self, Ledger, ScalingPoint, Section};
use kyoto_bench::legacy::{
    legacy_run_slots, LegacyCache, LegacyMachine, LegacySlot, LegacySpecWorkload,
};
use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::events::{EventSchedule, EventScheduleConfig};
use kyoto_cluster::faults::{FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_experiments::cloudscale;
use kyoto_experiments::config::ExperimentConfig;
use kyoto_hypervisor::credit::{CreditConfig, CreditScheduler};
use kyoto_hypervisor::placement::PlacementPolicy;
use kyoto_hypervisor::scheduler::Scheduler;
use kyoto_hypervisor::vm::{VcpuId, VmConfig, VmId};
use kyoto_sim::cache::{Cache, CacheConfig};
use kyoto_sim::engine::{ExecSlot, SimEngine};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::shadow::ShadowAttribution;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig};
use kyoto_sim::workload::{ComputeOnly, Op, Workload};
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use std::hint::black_box;
use std::iter::zip;
use std::time::Instant;

/// Timed repetitions; the best (fastest) one is reported to suppress
/// scheduling noise.
const REPS: usize = 9;

/// Simulated cycles per slot of every engine-row `run_slots` call.
const BUDGET: u64 = 100_000;

/// Epochs each cluster-row repetition runs.
const EPOCHS: u64 = 4;

const CYCLES: &str = "Msimcycles/s";

const USAGE: &str = "usage: substrate_baseline [--stdout | --check [FILE]]";

/// Runs `work` on a fresh `setup()` state per call, `amount` units per
/// call, and returns the best units/second over [`REPS`] timed calls after
/// one untimed warm-up. Only `work` is timed: building the state and
/// dropping it stay outside the clock.
fn best_rate<S>(amount: f64, mut setup: impl FnMut() -> S, mut work: impl FnMut(&mut S)) -> f64 {
    work(&mut setup());
    let mut best = f64::MIN;
    for _ in 0..REPS {
        let mut state = setup();
        let start = Instant::now();
        work(&mut state);
        best = best.max(amount / start.elapsed().as_secs_f64());
    }
    best
}

/// Million calls per second of `op`, called `count` times (with the call
/// index) per repetition.
fn op_rate(count: usize, mut op: impl FnMut(usize)) -> f64 {
    best_rate(count as f64 / 1e6, || (), |_| (0..count).for_each(&mut op))
}

/// Million lookups per second of `access` on `cache`, over the
/// `(address, owner)` stream `stream(i)`.
fn lookup_rate<C, R>(
    mut cache: C,
    access: impl Fn(&mut C, u64, u16) -> R,
    stream: impl Fn(u64) -> (u64, u16),
) -> f64 {
    let mut i = 0u64;
    op_rate(200_000, |_| {
        let (addr, owner) = stream(i);
        black_box(access(&mut cache, addr, owner));
        i += 1;
    })
}

/// Million ops per second the engine's fetch path draws from an lbm
/// stream: one `fill_ops` into a 64-op buffer (the engine's chunk) per
/// call, through `&mut dyn Workload`.
fn fill_rate(scale: u64) -> f64 {
    let mut lbm = SpecWorkload::new(SpecApp::Lbm, scale, 1);
    let workload = black_box(&mut lbm as &mut dyn Workload);
    let mut buf = [Op::Compute { cycles: 0 }; 64];
    let fills = op_rate(4096, |_| {
        black_box(workload.fill_ops(&mut buf));
    });
    fills * buf.len() as f64
}

/// Million picks per second of the credit scheduler choosing among 16
/// vCPUs for one of 4 cores.
fn pick_rate() -> f64 {
    let mut scheduler = CreditScheduler::new(CreditConfig::new(4, 100_000, 3));
    let vcpus: Vec<VcpuId> = (0..16).map(|i| VcpuId::new(VmId(i + 1), 0)).collect();
    for (i, vcpu) in vcpus.iter().enumerate() {
        scheduler.add_vcpu(*vcpu, &VmConfig::new(format!("vm{i}")));
    }
    op_rate(100_000, |i| {
        black_box(scheduler.pick_next(CoreId(i % 4), &vcpus));
    })
}

fn gcc(slots: usize, scale: u64) -> Vec<SpecWorkload> {
    (0..slots)
        .map(|i| SpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect()
}

/// Four one-cycle compute streams that never block: the batched path
/// fetches them 64 ops at a time and retires each run of compute ops in one
/// pass, where the reference steps them one op at a time. (Drained
/// sleepers, which want to block, retire a whole budget in one step, so a
/// row of them would time only a call's fixed cost.)
fn compute_runs() -> Vec<ComputeOnly> {
    vec![ComputeOnly::new(1); 4]
}

/// An engine entry point (and trace switch) the engine rows time.
#[derive(Clone, Copy, PartialEq)]
enum EnginePath {
    /// `run_slots` with the trace sink off (the default).
    Batched,
    /// `run_slots` with every batch traced; the sink is drained inside the
    /// timed region, so the rate includes the full traced cost.
    Traced,
    /// The frozen per-op `run_slots_reference`.
    Reference,
    /// `run_slots_parallel`: socket components on threads.
    Parallel,
}

/// Million simulated cycles per second of one `BUDGET`-cycle batch of
/// `workloads` through `path` on `machine`, slot `i` on core
/// `(i % sockets) * cores_per_socket + i / sockets`, so the slots spread
/// evenly over the sockets. The slots are built once, so every repetition
/// continues each op stream where the last one stopped. The batched,
/// reference and parallel paths give bit-identical results (the engine's
/// equivalence properties), so their ratios are pure wall-clock speedups.
fn engine_rate<W: Workload>(machine: MachineConfig, workloads: &mut [W], path: EnginePath) -> f64 {
    let (sockets, cores_per_socket) = (machine.sockets, machine.cores_per_socket);
    let mut engine = SimEngine::new(Machine::new(machine));
    if path == EnginePath::Traced {
        engine.trace_mut().enable();
    }
    let amount = (BUDGET * workloads.len() as u64) as f64 / 1e6;
    let mut slot_refs: Vec<ExecSlot<'_>> = workloads
        .iter_mut()
        .enumerate()
        .map(|(i, w)| {
            let core = (i % sockets) * cores_per_socket + i / sockets;
            ExecSlot::new(CoreId(core), i as u16 + 1, w)
        })
        .collect();
    best_rate(
        amount,
        || (),
        |_| {
            let reports = match path {
                EnginePath::Batched | EnginePath::Traced => {
                    engine.run_slots(&mut slot_refs, BUDGET)
                }
                EnginePath::Reference => engine.run_slots_reference(&mut slot_refs, BUDGET),
                EnginePath::Parallel => engine.run_slots_parallel(&mut slot_refs, BUDGET),
            };
            black_box(reports);
            if path == EnginePath::Traced {
                // Keep the sink from growing across repetitions.
                black_box(engine.trace_mut().drain());
            }
        },
    )
}

/// [`engine_rate`] of the frozen seed hot path (`kyoto_bench::legacy`) on
/// the single-socket machine.
fn seed_engine_rate(slots: usize, scale: u64) -> f64 {
    let mut machine = LegacyMachine::new(MachineConfig::scaled_paper_machine(scale));
    let mut workloads: Vec<LegacySpecWorkload> = (0..slots)
        .map(|i| LegacySpecWorkload::new(SpecApp::Gcc, scale, i as u64))
        .collect();
    best_rate(
        (BUDGET * slots as u64) as f64 / 1e6,
        || (),
        |_| {
            let mut slot_refs: Vec<LegacySlot<'_>> = workloads
                .iter_mut()
                .enumerate()
                .map(|(i, w)| LegacySlot {
                    core: CoreId(i),
                    owner: i as u16 + 1,
                    workload: w,
                    pmcs: PmcSet::default(),
                })
                .collect();
            black_box(legacy_run_slots(&mut machine, &mut slot_refs, BUDGET));
        },
    )
}

/// One point of the parallel-engine scaling curve: a cloudscale cell of
/// `sockets` sockets and two VMs per socket (hypervisor, placement and
/// engine, construction included), run with the serial and the
/// socket-parallel engine. The simulation outputs of the two runs are
/// bit-identical; only the wall-clock differs.
fn scaling_point(config: &ExperimentConfig, sockets: usize) -> ScalingPoint {
    let vms = sockets * 2;
    let [serial_secs, parallel_secs] = [false, true].map(|parallel| {
        let config = config.with_parallel_engine(parallel);
        let cell = || cloudscale::run_cell(&config, sockets, vms, PlacementPolicy::RoundRobin);
        1.0 / best_rate(1.0, || (), |_| drop(black_box(cell())))
    });
    let speedup = serial_secs / parallel_secs;
    ScalingPoint {
        sockets,
        vms,
        serial_secs,
        parallel_secs,
        speedup,
    }
}

/// A cluster from `config` seeded with two gcc-like VMs per cell.
fn seeded_cluster(config: ClusterConfig) -> Cluster {
    let mut cluster = Cluster::new(config);
    for i in 0..config.cells * 2 {
        cluster
            .add_vm(
                CellId(i % config.cells),
                VmConfig::new(format!("vm{i}")),
                Box::new(SpecWorkload::new(SpecApp::Gcc, config.scale, i as u64)),
            )
            .expect("seeding stays within cell capacity");
    }
    cluster
}

/// Wall-clock rate (epochs/second) of the cluster control loop on a fleet
/// of `cells` single-socket cells (two gcc-like VMs each), with cell epochs
/// executed serially or one-per-scoped-thread, optionally with a zero-rate
/// [`FaultPlan`] installed. Each repetition builds its cluster untimed and
/// times only the epochs. Serial and parallel runs are bit-identical
/// (`kyoto-cluster`'s property tests), and a zero-rate plan schedules no
/// faults, so both ratios are pure wall-clock costs.
fn cluster_epoch_rate(cells: usize, scale: u64, parallel: bool, zero_rate_plan: bool) -> f64 {
    let config = ClusterConfig::new(cells, scale)
        .with_epoch_ticks(5)
        .with_policy(ConsolidationPolicy::LoadBalance)
        .with_parallel_cells(parallel);
    best_rate(
        EPOCHS as f64,
        || {
            let mut cluster = seeded_cluster(config);
            if zero_rate_plan {
                cluster.install_faults(FaultPlan::new(FaultPlanConfig::new(0xFA17)));
            }
            cluster
        },
        |cluster| {
            cluster.run_epochs(EPOCHS).expect("bench run is fault-free");
            black_box(cluster.reports());
        },
    )
}

/// Wall-clock rate (epochs/second) of the cluster control loop under full
/// fleet dynamics: a churning fleet of `cells` single-socket cells (two
/// gcc-like VMs each at the start, one arrival and ~0.5 departures per
/// epoch, a drain/join cycle on the last cell) planned by the cost-aware
/// pollution-aware planner, with cell epochs serial or
/// one-per-scoped-thread. Construction is untimed, as in
/// [`cluster_epoch_rate`]; event application is pure control-plane work
/// between epochs, so the two modes stay bit-identical.
fn fleet_churn_epoch_rate(cells: usize, scale: u64, parallel: bool) -> f64 {
    let schedule = EventSchedule::new(
        EventScheduleConfig::new(0xbe9c)
            .with_arrival_rate(1.0)
            .with_departure_rate(0.5)
            .with_drain(1, CellId(cells - 1))
            .with_join(3, CellId(cells - 1)),
    );
    let config = ClusterConfig::new(cells, scale)
        .with_epoch_ticks(5)
        .with_policy(ConsolidationPolicy::PollutionAware)
        .with_planner(
            PlannerConfig::default()
                .with_polluter_threshold(200.0)
                .with_cost_aware(true),
        )
        .with_parallel_cells(parallel);
    let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
        (
            VmConfig::new(format!("churn{index}")),
            Box::new(SpecWorkload::new(SpecApp::Lbm, scale, 0xc0 + index)),
        )
    };
    best_rate(
        EPOCHS as f64,
        || seeded_cluster(config),
        |cluster| {
            cluster
                .run_epochs_with_schedule(&schedule, EPOCHS, &mut spawn)
                .expect("bench run is fault-free");
            black_box(cluster.all_reports());
        },
    )
}

/// Times every row and assembles the ledger.
fn measure(config: &ExperimentConfig) -> Ledger {
    let scale = config.scale;
    let mut ledger = Ledger {
        scale,
        seed: config.seed,
        cycle_budget: BUDGET,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        ..Ledger::default()
    };

    // Cache lookups: a hit-heavy stream cycling 4096 lines of one owner and
    // a miss-heavy stream of fresh lines from four owners, on the current
    // cache and on the frozen seed cache (div/mod split, per-eviction Vec,
    // growing tables).
    let geometry = CacheConfig::new(640 * 1024, 20, 64);
    let cache = || Cache::new(geometry.clone()).expect("valid cache geometry");
    let seed_cache = || LegacyCache::new(geometry.clone());
    let hit = |i: u64| ((i % 4096) * 64, 1);
    let miss = |i: u64| (i * 64, (i % 4) as u16 + 1);
    let lookups = [
        lookup_rate(cache(), Cache::access, hit),
        lookup_rate(cache(), Cache::access, miss),
        lookup_rate(seed_cache(), LegacyCache::access, hit),
        lookup_rate(seed_cache(), LegacyCache::access, miss),
    ];
    let streams = [
        "hit_heavy",
        "miss_heavy",
        "hit_heavy_seed",
        "miss_heavy_seed",
    ];
    for (stream, rate) in zip(streams, lookups) {
        ledger.row(format!("cache_access_{stream}"), "Mops/s", rate);
    }
    // The shadow replay behind simulator-based attribution: a miss-heavy
    // stream of fresh lines from eight owners, each into its own shadow LLC.
    let shadow = ShadowAttribution::new(geometry.clone()).expect("valid cache geometry");
    let observe = |shadow: &mut ShadowAttribution, addr, owner| shadow.observe(owner, addr);
    let eight_owners = |i: u64| (i * 64, (i % 8) as u16 + 1);
    let rate = lookup_rate(shadow, observe, eight_owners);
    ledger.row("shadow_observe", "Mops/s", rate);
    ledger.row("workload_fill_ops_lbm", "Mops/s", fill_rate(scale));

    // The engine on the single-socket machine: batched vs per-op reference
    // vs the frozen seed path, then compute runs.
    let single = || MachineConfig::scaled_paper_machine(scale);
    let mut batched_vs_reference = Vec::new();
    let mut optimized_vs_seed = Vec::new();
    let mut untraced_4slots = f64::NAN;
    for (slots, suffix) in [(1, "1slot"), (2, "2slots"), (4, "4slots")] {
        let batched = engine_rate(single(), &mut gcc(slots, scale), EnginePath::Batched);
        let reference = engine_rate(single(), &mut gcc(slots, scale), EnginePath::Reference);
        let seed = seed_engine_rate(slots, scale);
        for (path, rate) in zip(["batched", "reference", "seed"], [batched, reference, seed]) {
            ledger.row(format!("run_slots_{path}_{suffix}"), CYCLES, rate);
        }
        batched_vs_reference.push((format!("{slots}_slots"), batched / reference));
        optimized_vs_seed.push((format!("{slots}_slots"), batched / seed));
        untraced_4slots = batched;
    }
    let batched = engine_rate(single(), &mut compute_runs(), EnginePath::Batched);
    let reference = engine_rate(single(), &mut compute_runs(), EnginePath::Reference);
    for (path, rate) in zip(["batched", "reference"], [batched, reference]) {
        ledger.row(format!("run_slots_{path}_4compute"), CYCLES, rate);
    }
    batched_vs_reference.push(("4_compute".to_string(), batched / reference));

    // Trace-plane overhead on the 4-slot batched scenario: explicitly-off
    // tracing must be indistinguishable from the plain batched row
    // (`off_vs_untraced` ~1.0, gated), and `off_vs_on` records what full
    // span/counter recording costs.
    let off = engine_rate(single(), &mut gcc(4, scale), EnginePath::Batched);
    let on = engine_rate(single(), &mut gcc(4, scale), EnginePath::Traced);
    for (mode, rate) in zip(["off", "on"], [off, on]) {
        ledger.row(format!("run_slots_trace_{mode}_4slots"), CYCLES, rate);
    }
    let trace = vec![
        ("off_vs_untraced".to_string(), off / untraced_4slots),
        ("off_vs_on".to_string(), off / on),
    ];

    // Socket components inline (`run_slots`, the "serial" rows) vs on
    // threads (`run_slots_parallel`): 2/4/8 slots on the two-socket NUMA
    // machine, then two slots per socket on 4- and 8-socket cloud machines.
    // The speedups need as many hardware threads as sockets to approach
    // the socket count; `parallel_bench_threads` records what the host had.
    let mut socket_rates = |machine: MachineConfig, slots: usize, suffix: String| {
        let serial = engine_rate(machine.clone(), &mut gcc(slots, scale), EnginePath::Batched);
        let parallel = engine_rate(machine, &mut gcc(slots, scale), EnginePath::Parallel);
        for (mode, rate) in zip(["serial", "parallel"], [serial, parallel]) {
            ledger.row(format!("run_slots_{mode}_{suffix}"), CYCLES, rate);
        }
        parallel / serial
    };
    let mut two_sockets = Vec::new();
    for slots in [2, 4, 8] {
        let machine = MachineConfig::scaled_paper_numa_machine(scale);
        let speedup = socket_rates(machine, slots, format!("2sockets_{slots}slots"));
        two_sockets.push((format!("{slots}_slots"), speedup));
    }
    let mut cloud = Vec::new();
    for sockets in [4, 8] {
        let machine = MachineConfig::scaled_cloud_machine(sockets, scale);
        let speedup = socket_rates(machine, 2 * sockets, format!("{sockets}sockets"));
        cloud.push((format!("{sockets}_sockets"), speedup));
    }
    let scaling_curve = [1, 2, 4, 8].map(|sockets| scaling_point(config, sockets));

    ledger.row("credit_pick_next_16vcpus", "Mpicks/s", pick_rate());

    // Cluster control loop: whole-fleet epochs, serial vs cell-parallel,
    // then under churn (arrivals, departures, a drain/join cycle,
    // cost-aware planning).
    let mut cluster = Vec::new();
    for cells in [4, 8] {
        let serial = cluster_epoch_rate(cells, scale, false, false);
        let parallel = cluster_epoch_rate(cells, scale, true, false);
        for (mode, rate) in zip(["serial", "parallel"], [serial, parallel]) {
            let name = format!("cluster_epoch_{mode}_{cells}cells");
            ledger.row(name, "epochs/s", rate);
        }
        cluster.push((format!("{cells}_cells"), parallel / serial));
    }
    let serial = fleet_churn_epoch_rate(6, scale, false);
    let parallel = fleet_churn_epoch_rate(6, scale, true);
    for (mode, rate) in zip(["serial", "parallel"], [serial, parallel]) {
        ledger.row(format!("fleet_churn_epoch_{mode}_6cells"), "epochs/s", rate);
    }
    let churn = vec![("6_cells".to_string(), parallel / serial)];

    // Fault machinery overhead: the same epoch loop with a zero-rate
    // FaultPlan installed vs no plan at all. The ratio isolates the fault
    // boundary's bookkeeping cost (~1.0 expected, gated).
    let bare = cluster_epoch_rate(4, scale, false, false);
    let planned = cluster_epoch_rate(4, scale, false, true);
    for (plan, rate) in zip(["no_fault_plan", "zero_rate_plan"], [bare, planned]) {
        ledger.row(format!("cluster_epoch_{plan}_4cells"), "epochs/s", rate);
    }
    let fault = vec![("zero_rate_plan_vs_no_plan".to_string(), planned / bare)];

    ledger.sections = vec![
        Section::new("batched_vs_reference_speedup", batched_vs_reference),
        Section::new("optimized_vs_seed_speedup", optimized_vs_seed),
        Section::new("parallel_vs_serial_speedup_2sockets", two_sockets),
        Section::new("parallel_vs_serial_speedup_cloud", cloud),
        Section::new("cluster_epoch_parallel_vs_serial", cluster),
        Section::new("fault_machinery_overhead", fault),
        Section::new("trace_overhead", trace),
        Section::new("fleet_churn_parallel_vs_serial", churn),
    ];
    ledger.scaling_curve = scaling_curve.into();
    ledger
}

/// Printed when the ledger's host had a single hardware thread.
const SKIP_WARNING: &str = "\
##############################################################################
# WARNING: parallel-speedup assertions SKIPPED                               #
# The bench host had a single hardware thread (parallel_bench_threads == 1), #
# so parallel speedups are structurally ~1.0x and assert nothing. Re-run     #
# substrate_baseline on a multi-core host to gate parallel performance.      #
##############################################################################";

/// Gates the ledger at `path`; returns the exit code.
fn check(path: &str) -> i32 {
    let verdict = ledger::floors_from_env().and_then(|floors| {
        let ledger = Ledger::read(path.as_ref())?;
        ledger::check(&ledger, &floors)
    });
    let verdict = match verdict {
        Ok(verdict) => verdict,
        Err(error) => {
            eprintln!("error: {path}: {error}");
            return 2;
        }
    };
    if !verdict.skipped.is_empty() {
        eprintln!("\n{SKIP_WARNING}");
        for gate in &verdict.skipped {
            eprintln!("skipped: {} [{}]", gate.section, gate.layer);
        }
        eprintln!();
    }
    for outcome in &verdict.outcomes {
        if outcome.passed() {
            println!("ok: {outcome}");
        } else {
            eprintln!("{outcome}");
        }
    }
    let failed = verdict.failures().count();
    match failed {
        0 => println!("bench gate OK ({path})"),
        _ => eprintln!("bench gate FAILED: {failed} gated value(s) below their floor"),
    }
    i32::from(failed > 0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let write = match args[..] {
        [] => true,
        ["--stdout"] => false,
        ["--check"] => std::process::exit(check("BENCH_substrate.json")),
        ["--check", path] if !path.starts_with("--") => std::process::exit(check(path)),
        _ => {
            eprintln!("error: unexpected arguments {args:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let json = measure(&bench_config()).to_json();
    print!("{json}");
    if write {
        std::fs::write("BENCH_substrate.json", &json).expect("write BENCH_substrate.json");
        eprintln!("[baseline written to BENCH_substrate.json]");
    }
}
