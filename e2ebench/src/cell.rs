//! The two single-hypervisor workloads: `kyoto-cell` and
//! `interactive-oversub`. A step is one `Hypervisor::step_tick`.

use crate::digest::Digest;
use crate::session::{
    calibration_config, derive_seed, ratio, Outcome, Samples, Session, StepCall, Workload,
};
use crate::spans::{SpanId, Spans};
use kyoto::core::ks4::{ks4xen_hypervisor, Ks4Xen};
use kyoto::core::monitor::MonitoringStrategy;
use kyoto::experiments::harness::calibrate_permits;
use kyoto::hypervisor::{Hypervisor, HypervisorConfig, VmConfig, VmReport, WakeSource};
use kyoto::sim::topology::{CoreId, Machine, MachineConfig, NumaNode};
use kyoto::workloads::interactive::Interactive;
use kyoto::workloads::spec::{SpecApp, SpecWorkload};
use std::collections::BTreeMap;

/// Machine scale of `kyoto-cell` (the quick fidelity of `figures`).
const SCALE: u64 = 128;

/// Seed streams (see [`derive_seed`]).
const VM_STREAM: u64 = 1;
const WAKE_STREAM: u64 = 2;

/// `kyoto-cell`: one VM pinned per core of the 2-socket NUMA machine.
/// Each socket hosts two sensitive VMs and two polluters.
const CELL_LAYOUT: [SpecApp; 8] = [
    SpecApp::Gcc,
    SpecApp::Lbm,
    SpecApp::Omnetpp,
    SpecApp::Milc,
    SpecApp::Soplex,
    SpecApp::Mcf,
    SpecApp::Povray,
    SpecApp::Blockie,
];

/// Paper-scale permit (thousands of misses/ms) every `kyoto-cell` VM books:
/// the paper's Fig. 5 `250k`, converted by `calibrate_permits`.
const CELL_PERMIT_PAPER_KILO: f64 = 250.0;

/// Whether `kyoto-cell` runs the socket-parallel engine (2 workers on the
/// 2-socket machine). Off: on the 2-thread host it was tuned on, 2 workers
/// spread `sim_mips` and `step_p50_ms` by 12-13% of the median across
/// seeds, the serial engine by 3-5%.
const CELL_PARALLEL_ENGINE: bool = false;

pub const KYOTO_CELL: Workload = Workload {
    name: "kyoto-cell",
    step_call: StepCall::HypervisorTick,
    warmup_steps: 8,
    measured_steps: 1000,
    build: build_kyoto_cell,
};

/// `interactive-oversub`: sleep-mostly services per core of the
/// single-socket machine, sharing the core with one lbm batch polluter.
const SLEEPERS_PER_CORE: usize = 6;
const SLEEPER_APPS: [SpecApp; 6] = [
    SpecApp::Gcc,
    SpecApp::Omnetpp,
    SpecApp::Soplex,
    SpecApp::Povray,
    SpecApp::Hmmer,
    SpecApp::Bzip,
];
/// Machine scale of `interactive-oversub`. At 512 a tick costs about a
/// quarter of what it does at 128, so a 1000-step session lasts under two
/// seconds and a run holds a dozen or more: the median over sessions then
/// rides out the host's bursts of slow steps, which at scale 128 (seven
/// seconds a session) hit half the sessions and doubled their p99.
const OVERSUB_SCALE: u64 = 512;
/// Inner ops granted per wake.
const BURST_OPS: u32 = 48;
/// Periodic wake timer of every sleeper, in ticks.
const WAKE_PERIOD_TICKS: u64 = 8;
/// Per-tick wake-interrupt probability of every sleeper.
const WAKE_INTERRUPT_RATE: f64 = 0.05;
/// Tick length.
const OVERSUB_TICK_MS: u64 = 2;
/// Paper-scale permits (thousands): generous for the sleepers, tight for
/// the lbm polluters.
const SLEEPER_PERMIT_PAPER_KILO: f64 = 250.0;
const BATCH_PERMIT_PAPER_KILO: f64 = 50.0;

pub const INTERACTIVE_OVERSUB: Workload = Workload {
    name: "interactive-oversub",
    step_call: StepCall::HypervisorTick,
    warmup_steps: 16,
    measured_steps: 1000,
    build: build_interactive_oversub,
};

/// A hypervisor plus what its checks need.
struct CellSession {
    hv: Hypervisor<Ks4Xen>,
    /// Socket of each VM, in creation order.
    sockets: Vec<usize>,
    sockets_total: usize,
    /// Whether each VM is a batch polluter, in creation order.
    polluters: Vec<bool>,
    /// The mechanism the workload must show.
    mechanism: fn(&BTreeMap<&'static str, f64>) -> Result<(), String>,
    baseline: Vec<VmReport>,
    /// Trace counters at the end of warm-up (traced sessions only).
    baseline_counters: BTreeMap<&'static str, u64>,
    ticks_at_start: u64,
}

/// Engine and hypervisor counters a traced session reads back.
const TRACE_COUNTERS: [&str; 5] = [
    "engine.batches",
    "engine.instructions",
    "engine.llc_misses",
    "hv.picks",
    "hv.punishments",
];

impl CellSession {
    /// `vms` lists `(socket, is_polluter)` per VM, in creation order.
    fn new(
        hv: Hypervisor<Ks4Xen>,
        vms: Vec<(usize, bool)>,
        mechanism: fn(&BTreeMap<&'static str, f64>) -> Result<(), String>,
    ) -> Self {
        CellSession {
            sockets_total: hv.engine().machine().num_sockets(),
            sockets: vms.iter().map(|&(socket, _)| socket).collect(),
            polluters: vms.iter().map(|&(_, polluter)| polluter).collect(),
            mechanism,
            baseline: Vec::new(),
            baseline_counters: BTreeMap::new(),
            ticks_at_start: 0,
            hv,
        }
    }

    fn counter_snapshot(&self) -> BTreeMap<&'static str, u64> {
        let trace = self.hv.engine().trace();
        TRACE_COUNTERS
            .iter()
            .map(|&name| (name, trace.counter_value(name)))
            .collect()
    }
}

impl Session for CellSession {
    fn step(&mut self) -> Result<(), String> {
        self.hv.step_tick();
        Ok(())
    }

    fn instructions(&self) -> u64 {
        self.hv.reports().iter().map(|r| r.pmcs.instructions).sum()
    }

    fn start_measuring(&mut self) {
        self.baseline = self.hv.reports();
        self.baseline_counters = self.counter_snapshot();
        self.ticks_at_start = self.hv.current_tick();
    }

    fn finish(
        &mut self,
        _spans: &mut Spans,
        _parent: SpanId,
        _samples: &mut Samples,
    ) -> Result<Outcome, String> {
        let reports = self.hv.reports();
        let mut digest = Digest::default();
        for report in &reports {
            digest
                .str(&report.name)
                .pmcs(&report.pmcs)
                .u64(report.punishments)
                .u64(report.ticks_blocked)
                .u64(report.ticks_scheduled)
                .u64(report.cycles_run);
        }

        let sum = |f: fn(&VmReport) -> u64, only_polluters: bool| -> f64 {
            reports
                .iter()
                .zip(&self.baseline)
                .zip(&self.polluters)
                .filter(|(_, &polluter)| polluter || !only_polluters)
                .map(|((after, before), _)| (f(after) - f(before)) as f64)
                .sum()
        };
        let instructions = sum(|r| r.pmcs.instructions, false);
        let llc_references = sum(|r| r.pmcs.llc_references, false);
        let llc_misses = sum(|r| r.pmcs.llc_misses, false);
        let picks = sum(|r| r.ticks_scheduled, false);
        let punishments = sum(|r| r.punishments, false);
        let ticks = (self.hv.current_tick() - self.ticks_at_start) as f64;
        let mut per_socket = vec![0.0f64; self.sockets_total.max(1)];
        for ((after, before), &socket) in reports.iter().zip(&self.baseline).zip(&self.sockets) {
            per_socket[socket] += (after.pmcs.instructions - before.pmcs.instructions) as f64;
        }
        let busiest = per_socket.iter().copied().fold(0.0, f64::max);
        let mean = per_socket.iter().sum::<f64>() / per_socket.len() as f64;

        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        counts.insert("sim.instructions", instructions);
        counts.insert("sim.cycles", sum(|r| r.pmcs.unhalted_core_cycles, false));
        counts.insert("sim.llc_references", llc_references);
        counts.insert("sim.llc_misses", llc_misses);
        counts.insert("sim.llc_miss_ratio", ratio(llc_misses, llc_references));
        counts.insert("sim.socket_imbalance", ratio(busiest, mean));
        counts.insert(
            "workloads.blocked_fraction",
            ratio(
                sum(|r| r.ticks_blocked, false),
                sum(|r| r.ticks_elapsed, false),
            ),
        );
        counts.insert("hypervisor.picks", picks);
        counts.insert("hypervisor.picks_per_tick", ratio(picks, ticks));
        counts.insert("core.punishments", punishments);
        counts.insert(
            "core.punished_share",
            ratio(
                sum(|r| r.punishments, true),
                sum(|r| r.ticks_scheduled, true),
            ),
        );

        if self.hv.engine().trace().is_enabled() {
            let now = self.counter_snapshot();
            let delta = |name: &str| (now[name] - self.baseline_counters[name]) as f64;
            counts.insert("sim.batches", delta("engine.batches"));
            for (counter, metric) in [
                ("engine.instructions", "sim.instructions"),
                ("engine.llc_misses", "sim.llc_misses"),
                ("hv.picks", "hypervisor.picks"),
                ("hv.punishments", "core.punishments"),
            ] {
                if delta(counter) != counts[metric] {
                    return Err(format!(
                        "trace counter {counter} = {} disagrees with {metric} = {}",
                        delta(counter),
                        counts[metric]
                    ));
                }
            }
        }
        (self.mechanism)(&counts)?;
        Ok(Outcome {
            digest: digest.value(),
            counts,
        })
    }
}

fn build_kyoto_cell(seed: u64, traced: bool) -> Result<Box<dyn Session>, String> {
    let permit = calibrate_permits(&calibration_config(SCALE)).paper_kilo(CELL_PERMIT_PAPER_KILO);
    let mut hv = ks4xen_hypervisor(
        Machine::new(MachineConfig::scaled_paper_numa_machine(SCALE)),
        HypervisorConfig::default().with_parallel_engine(CELL_PARALLEL_ENGINE),
        MonitoringStrategy::DirectPmc,
    );
    if traced {
        hv.engine_mut().trace_mut().enable();
    }
    let per_socket = hv.engine().machine().config().cores_per_socket;
    let mut vms = Vec::new();
    for (core, app) in CELL_LAYOUT.into_iter().enumerate() {
        let socket = core / per_socket;
        let vm = VmConfig::new(format!("{}-core{core}", app.name()))
            .pinned_to(vec![CoreId(core)])
            .on_numa_node(NumaNode(socket))
            .with_llc_cap(permit);
        let workload = SpecWorkload::new(app, SCALE, derive_seed(seed, VM_STREAM, core as u64));
        hv.add_vm_with(vm, Box::new(workload))
            .map_err(|e| e.to_string())?;
        // Odd cores host the polluters (lbm, milc, mcf, blockie).
        vms.push((socket, core % 2 == 1));
    }
    Ok(Box::new(CellSession::new(hv, vms, |counts| {
        if counts["core.punishments"] > 0.0 {
            Ok(())
        } else {
            Err("kyoto-cell: KS4Xen punished no polluter".to_string())
        }
    })))
}

fn build_interactive_oversub(seed: u64, traced: bool) -> Result<Box<dyn Session>, String> {
    let calibration = calibrate_permits(&calibration_config(OVERSUB_SCALE));
    let generous = calibration.paper_kilo(SLEEPER_PERMIT_PAPER_KILO);
    let tight = calibration.paper_kilo(BATCH_PERMIT_PAPER_KILO);
    let mut hv = ks4xen_hypervisor(
        Machine::new(MachineConfig::scaled_paper_machine(OVERSUB_SCALE)),
        HypervisorConfig::default().with_tick_ms(OVERSUB_TICK_MS),
        MonitoringStrategy::DirectPmc,
    );
    if traced {
        hv.engine_mut().trace_mut().enable();
    }
    let cores = hv.engine().machine().num_cores();
    let mut vms = Vec::new();
    for core in 0..cores {
        for k in 0..SLEEPERS_PER_CORE {
            let index = (core * SLEEPERS_PER_CORE + k) as u64;
            let app = SLEEPER_APPS[k % SLEEPER_APPS.len()];
            let wake = WakeSource::new(derive_seed(seed, WAKE_STREAM, index))
                .with_timer_period(WAKE_PERIOD_TICKS)
                .with_interrupt_rate(WAKE_INTERRUPT_RATE);
            let vm = VmConfig::new(format!("svc-{}-core{core}", app.name()))
                .pinned_to(vec![CoreId(core)])
                .with_llc_cap(generous)
                .with_wake_source(wake);
            let inner = SpecWorkload::new(app, OVERSUB_SCALE, derive_seed(seed, VM_STREAM, index));
            hv.add_vm_with(vm, Box::new(Interactive::new(inner, BURST_OPS)))
                .map_err(|e| e.to_string())?;
            vms.push((0, false));
        }
        let index = (cores * SLEEPERS_PER_CORE + core) as u64;
        let vm = VmConfig::new(format!("batch-lbm-core{core}"))
            .pinned_to(vec![CoreId(core)])
            .with_llc_cap(tight);
        let workload = SpecWorkload::new(
            SpecApp::Lbm,
            OVERSUB_SCALE,
            derive_seed(seed, VM_STREAM, index),
        );
        hv.add_vm_with(vm, Box::new(workload))
            .map_err(|e| e.to_string())?;
        vms.push((0, true));
    }
    Ok(Box::new(CellSession::new(hv, vms, |counts| {
        if counts["workloads.blocked_fraction"] > 0.0 {
            Ok(())
        } else {
            Err("interactive-oversub: no vCPU ever blocked".to_string())
        }
    })))
}
