//! `fleet-service`: a `FleetService` in front of a faulted multi-cell
//! cluster. A step is one `FleetService::run_epoch`.

use crate::digest::Digest;
use crate::session::{
    calibration_config, derive_seed, ratio, Outcome, Samples, Session, StepCall, Workload,
};
use crate::spans::{SpanId, Spans};
use kyoto::cluster::{
    CellId, Cluster, ClusterConfig, ConsolidationPolicy, FaultCounts, FaultEvent, FaultPlan,
    FaultPlanConfig, FleetVmReport, MigrationPlanner, PlannerConfig, TraceConfig,
};
use kyoto::core::monitor::MonitoringStrategy;
use kyoto::experiments::harness::calibrate_permits;
use kyoto::hypervisor::{HypervisorConfig, VmConfig};
use kyoto::service::admission::BoundaryView;
use kyoto::service::{
    AdmissionConfig, AdmissionController, AdmissionLedger, AdmissionPolicy, FleetService,
    RequestTrace, RequestTraceConfig, ServiceConfig, ServiceRequest,
};
use kyoto::sim::workload::Workload as SimWorkload;
use kyoto::workloads::spec::{SpecApp, SpecWorkload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Duration;

/// Cells behind the service, single-socket each.
const CELLS: usize = 8;
/// Machine scale: small cells, so epoch boundaries come often.
const SCALE: u64 = 512;
/// Ticks per epoch.
const EPOCH_TICKS: u64 = 1;
/// VMs seeded per cell before the trace starts (cells have 4 cores).
const INITIAL_VMS_PER_CELL: usize = 3;
/// The application mix cycled over seeded and arriving VMs: sensitive and
/// disruptive apps alternate.
const MIX: [SpecApp; 6] = [
    SpecApp::Gcc,
    SpecApp::Lbm,
    SpecApp::Omnetpp,
    SpecApp::Mcf,
    SpecApp::Soplex,
    SpecApp::Blockie,
];
/// Paper-scale permit (thousands) every VM books.
const PERMIT_PAPER_KILO: f64 = 250.0;
/// Planner polluter threshold, in calibrated permits.
const POLLUTER_THRESHOLD_PERMITS: f64 = 1.0;
/// Per-cell contention budget of the admission gate, in calibrated permits.
const CONTENTION_LIMIT_PERMITS: f64 = 3.0;
const QUEUE_CAPACITY: usize = 4;
/// Expected requests per epoch. The fleet turns over every 30 or so
/// epochs, so one session averages its size and mix over many states and
/// every seed sees about the same fleet.
const PLACE_RATE: f64 = 1.6;
const DEPART_RATE: f64 = 1.0;
const QUERY_RATE: f64 = 0.5;
/// Expected faults per epoch. Crashes are scripted (see [`CRASHES`]).
const SLOWDOWN_RATE: f64 = 0.02;
const ABORT_RATE: f64 = 0.2;
/// Cell crashes per session, spread evenly over the timed epochs, each on
/// a seeded cell, so every seed reboots the same number of cells.
const CRASHES: u64 = 4;
/// The service checkpoints itself every this many epochs.
const CHECKPOINT_EVERY: u64 = 25;

const WARMUP_EPOCHS: u64 = 5;
const MEASURED_EPOCHS: u64 = 1000;

/// Seed streams (see [`derive_seed`]).
const VM_STREAM: u64 = 11;
const REQUEST_STREAM: u64 = 12;
const FAULT_STREAM: u64 = 13;

pub const FLEET_SERVICE: Workload = Workload {
    name: "fleet-service",
    step_call: StepCall::ServiceEpoch,
    warmup_steps: WARMUP_EPOCHS,
    measured_steps: MEASURED_EPOCHS,
    build,
};

/// Supplies each VM's configuration and workload, keyed by its index in
/// the fleet's arrival order (seeded VMs first).
struct Spawner {
    seed: u64,
    permit: f64,
    initial: u64,
}

impl Spawner {
    fn spawn(&self, index: u64) -> (VmConfig, Box<dyn SimWorkload>) {
        let app = MIX[(index % MIX.len() as u64) as usize];
        let workload = SpecWorkload::new(app, SCALE, derive_seed(self.seed, VM_STREAM, index));
        (
            VmConfig::new(format!("fvm{index}-{}", app.name())).with_llc_cap(self.permit),
            Box::new(workload),
        )
    }
}

struct FleetSession {
    service: FleetService,
    spawner: Spawner,
    planner: MigrationPlanner,
    admission: AdmissionConfig,
    /// Lifetime per-VM totals, fault totals and ledger at the end of
    /// warm-up.
    baseline: (Vec<FleetVmReport>, FaultCounts, AdmissionLedger, u64),
    epoch_at_start: u64,
    batches_at_start: u64,
    /// Whether warm-up has ended.
    measuring: bool,
    /// Longest admission queue left at a boundary of the measured epochs.
    queued_peak: u64,
}

fn build(seed: u64, traced: bool) -> Result<Box<dyn Session>, String> {
    let permit = calibrate_permits(&calibration_config(SCALE)).paper_kilo(PERMIT_PAPER_KILO);
    let planner = PlannerConfig::default()
        .with_max_moves(4)
        .with_polluter_threshold(POLLUTER_THRESHOLD_PERMITS * permit)
        .with_cost_aware(true);
    let cluster_config = ClusterConfig::new(CELLS, SCALE)
        .with_epoch_ticks(EPOCH_TICKS)
        .with_policy(ConsolidationPolicy::PollutionAware)
        .with_parallel_cells(false)
        .with_hypervisor(HypervisorConfig::default())
        .with_strategy(MonitoringStrategy::SimulatorAttribution)
        .with_planner(planner)
        .with_trace(if traced {
            TraceConfig::On
        } else {
            TraceConfig::Off
        });
    let mut cluster = Cluster::new(cluster_config);
    let mut faults = FaultPlanConfig::new(derive_seed(seed, FAULT_STREAM, 0))
        .with_slowdown_rate(SLOWDOWN_RATE)
        .with_abort_rate(ABORT_RATE)
        .with_down_epochs(3);
    for k in 0..CRASHES {
        faults = faults.with_scripted(
            WARMUP_EPOCHS + (2 * k + 1) * MEASURED_EPOCHS / (2 * CRASHES),
            FaultEvent::CellCrash {
                pick: derive_seed(seed, FAULT_STREAM, 1 + k),
            },
        );
    }
    cluster.install_faults(FaultPlan::new(faults));
    let initial = CELLS * INITIAL_VMS_PER_CELL;
    let spawner = Spawner {
        seed,
        permit,
        initial: initial as u64,
    };
    for i in 0..initial {
        let (vm, workload) = spawner.spawn(i as u64);
        cluster
            .add_vm(CellId(i / INITIAL_VMS_PER_CELL), vm, workload)
            .map_err(|e| e.to_string())?;
    }

    // The request trace travels as a user's trace file would: rendered to
    // text and parsed back.
    let epochs = WARMUP_EPOCHS + MEASURED_EPOCHS;
    let drained = CellId(CELLS - 1);
    let generated = RequestTrace::new(
        RequestTraceConfig::new(derive_seed(seed, REQUEST_STREAM, 0), epochs)
            .with_place_rate(PLACE_RATE)
            .with_depart_rate(DEPART_RATE)
            .with_query_rate(QUERY_RATE)
            .with_scripted(epochs / 3, ServiceRequest::DrainCell(drained))
            .with_scripted(2 * epochs / 3, ServiceRequest::JoinCell(drained)),
    );
    let trace = RequestTrace::parse(&generated.render()).map_err(|e| e.to_string())?;
    if trace != generated {
        return Err("request trace changed in the render/parse round trip".to_string());
    }

    let admission = AdmissionConfig {
        policy: AdmissionPolicy::ContentionAware {
            limit: CONTENTION_LIMIT_PERMITS * permit,
        },
        queue_capacity: QUEUE_CAPACITY,
    };
    let service = FleetService::new(
        cluster,
        trace,
        ServiceConfig {
            admission,
            checkpoint_every: Some(CHECKPOINT_EVERY),
        },
    );
    Ok(Box::new(FleetSession {
        service,
        spawner,
        planner: MigrationPlanner::new(planner),
        admission,
        baseline: (
            Vec::new(),
            FaultCounts::default(),
            AdmissionLedger::default(),
            0,
        ),
        epoch_at_start: 0,
        batches_at_start: 0,
        measuring: false,
        queued_peak: 0,
    }))
}

fn is_polluter(report: &FleetVmReport) -> bool {
    SpecApp::DISRUPTIVE_VMS
        .iter()
        .any(|app| report.name.ends_with(&format!("-{}", app.name())))
}

fn us(took: Duration) -> f64 {
    took.as_secs_f64() * 1e6
}

impl FleetSession {
    fn batches(&self) -> u64 {
        self.service
            .cluster()
            .trace()
            .sum_counters_with_suffix(".engine.batches")
    }
}

impl Session for FleetSession {
    fn step(&mut self) -> Result<(), String> {
        let FleetSession {
            service, spawner, ..
        } = self;
        let spawn = &mut |index| spawner.spawn(spawner.initial + index);
        service.run_epoch(spawn).map_err(|e| e.to_string())?;
        if self.measuring {
            // `queue_len` is the queue left at this boundary; the ledger's
            // own `queue_peak` also spans warm-up.
            self.queued_peak = self.queued_peak.max(service.ledger().queue_len);
        }
        Ok(())
    }

    fn instructions(&self) -> u64 {
        self.service
            .cluster()
            .all_reports()
            .iter()
            .map(|r| r.pmcs.instructions)
            .sum()
    }

    fn start_measuring(&mut self) {
        let cluster = self.service.cluster();
        self.baseline = (
            cluster.all_reports(),
            cluster.total_faults(),
            *self.service.ledger(),
            cluster.total_migrations(),
        );
        self.epoch_at_start = cluster.epoch();
        self.batches_at_start = self.batches();
        self.measuring = true;
    }

    fn probe(&mut self, spans: &mut Spans, step: SpanId, samples: &mut Samples) {
        let service = &self.service;
        let cluster = service.cluster();
        let (snapshot, took) = spans.time("cluster.snapshot", Some(step), || cluster.snapshot());
        samples
            .entry("cluster.snapshot_us")
            .or_default()
            .push(us(took));
        let (plan, took) = spans.time("cluster.plan", Some(step), || {
            self.planner.plan(&snapshot, cluster.config().policy)
        });
        black_box(plan);
        samples.entry("cluster.plan_us").or_default().push(us(took));

        // The next boundary's placements, decided against this snapshot.
        let places = service
            .trace()
            .requests_for_epoch(service.epoch())
            .iter()
            .filter(|r| matches!(r, ServiceRequest::PlaceVm))
            .count() as u64;
        let mut controller = AdmissionController::new(self.admission);
        let (_, took) = spans.time("service.admission", Some(step), || {
            let mut view = BoundaryView::of(&snapshot);
            for index in 0..places {
                black_box(controller.decide(index, &mut view));
            }
        });
        samples
            .entry("service.admission_us")
            .or_default()
            .push(us(took));

        let (reply, took) = spans.time("service.query_telemetry", Some(step), || {
            service.query_telemetry()
        });
        black_box(reply);
        samples
            .entry("service.query_us")
            .or_default()
            .push(us(took));

        if service.epoch().is_multiple_of(CHECKPOINT_EVERY) {
            let (checkpoint, took) =
                spans.time("service.checkpoint", Some(step), || service.checkpoint());
            drop(black_box(checkpoint));
            samples
                .entry("cluster.checkpoint_ms")
                .or_default()
                .push(took.as_secs_f64() * 1e3);
        }
    }

    fn finish(
        &mut self,
        spans: &mut Spans,
        parent: SpanId,
        samples: &mut Samples,
    ) -> Result<Outcome, String> {
        let service = &self.service;
        let cluster = service.cluster();
        service.verify_conservation()?;
        let (telemetry, took) = spans.time("service.render", Some(parent), || {
            service.telemetry().render()
        });
        samples
            .entry("service.render_ms")
            .or_default()
            .push(took.as_secs_f64() * 1e3);

        let reports = cluster.all_reports();
        let ledger = *service.ledger();
        let mut digest = Digest::default();
        for report in &reports {
            digest
                .u64(u64::from(report.vm.0))
                .str(&report.name)
                .u64(report.cell.0 as u64)
                .pmcs(&report.pmcs)
                .u64(report.punishments)
                .u64(report.ticks_blocked)
                .u64(report.ticks_scheduled)
                .u64(report.migrations)
                .u64(report.flushed_lines);
        }
        for epoch in cluster.history() {
            digest.u64(epoch.epoch);
            for mv in &epoch.migrations {
                digest
                    .u64(u64::from(mv.vm.0))
                    .u64(mv.from.0 as u64)
                    .u64(mv.to.0 as u64);
            }
            digest_faults(&mut digest, &epoch.faults);
        }
        for value in ledger_fields(&ledger) {
            digest.u64(value);
        }
        digest.str(&telemetry);

        // Per-layer counts over the measured epochs. VMs are matched by
        // fleet id; one that arrived during the window starts from zero.
        let (before_reports, before_faults, before_ledger, before_migrations) = &self.baseline;
        let before: BTreeMap<u32, &FleetVmReport> =
            before_reports.iter().map(|r| (r.vm.0, r)).collect();
        let delta = |f: fn(&FleetVmReport) -> u64, only_polluters: bool| -> f64 {
            reports
                .iter()
                .filter(|r| !only_polluters || is_polluter(r))
                .map(|r| (f(r) - before.get(&r.vm.0).map_or(0, |b| f(b))) as f64)
                .sum()
        };
        let epochs = cluster.epoch() - self.epoch_at_start;
        let mut per_cell = vec![0.0f64; cluster.num_cells()];
        for epoch in &cluster.history()[self.epoch_at_start as usize..] {
            for cell in &epoch.cells {
                per_cell[cell.cell.0] += cell.instructions as f64;
            }
        }
        let busiest = per_cell.iter().copied().fold(0.0, f64::max);
        let mean = per_cell.iter().sum::<f64>() / per_cell.len() as f64;
        let faults = cluster.total_faults();
        let llc_references = delta(|r| r.pmcs.llc_references, false);
        let llc_misses = delta(|r| r.pmcs.llc_misses, false);
        let picks = delta(|r| r.ticks_scheduled, false);
        let requested = (ledger.requested - before_ledger.requested) as f64;
        let admitted = (ledger.admitted - before_ledger.admitted) as f64;
        let rejected = (ledger.rejected() - before_ledger.rejected()) as f64;

        let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
        counts.insert("sim.instructions", delta(|r| r.pmcs.instructions, false));
        counts.insert("sim.cycles", delta(|r| r.pmcs.unhalted_core_cycles, false));
        counts.insert("sim.llc_references", llc_references);
        counts.insert("sim.llc_misses", llc_misses);
        counts.insert("sim.llc_miss_ratio", ratio(llc_misses, llc_references));
        counts.insert("sim.socket_imbalance", ratio(busiest, mean));
        counts.insert(
            "workloads.blocked_fraction",
            ratio(
                delta(|r| r.ticks_blocked, false),
                delta(|r| r.ticks_resident, false),
            ),
        );
        counts.insert("hypervisor.picks", picks);
        counts.insert(
            "hypervisor.picks_per_tick",
            ratio(
                picks,
                (epochs * EPOCH_TICKS * cluster.num_cells() as u64) as f64,
            ),
        );
        counts.insert("core.punishments", delta(|r| r.punishments, false));
        counts.insert(
            "core.punished_share",
            ratio(
                delta(|r| r.punishments, true),
                delta(|r| r.ticks_scheduled, true),
            ),
        );
        counts.insert(
            "cluster.migrations",
            (cluster.total_migrations() - before_migrations) as f64,
        );
        counts.insert("cluster.flushed_lines", delta(|r| r.flushed_lines, false));
        counts.insert(
            "cluster.crashes",
            (faults.crashes - before_faults.crashes) as f64,
        );
        counts.insert(
            "cluster.aborted_migrations",
            (faults.aborted_migrations() - before_faults.aborted_migrations()) as f64,
        );
        counts.insert(
            "cluster.readmitted",
            (faults.readmitted - before_faults.readmitted) as f64,
        );
        counts.insert("service.requested", requested);
        counts.insert("service.admitted", admitted);
        counts.insert("service.queued_peak", self.queued_peak as f64);
        counts.insert("service.rejected", rejected);
        counts.insert("service.admit_ratio", ratio(admitted, requested));

        let sink = cluster.trace();
        if sink.is_enabled() {
            counts.insert(
                "sim.batches",
                (self.batches() - self.batches_at_start) as f64,
            );
            for (counter, expected) in [
                ("cluster.crashes", faults.crashes),
                ("cluster.readmitted", faults.readmitted),
                ("service.requested", ledger.requested),
                ("service.admitted", ledger.admitted),
                ("service.rejected", ledger.rejected()),
            ] {
                if sink.counter_value(counter) != expected {
                    return Err(format!(
                        "trace counter {counter} = {} disagrees with the ledgers ({expected})",
                        sink.counter_value(counter)
                    ));
                }
            }
        }

        for (metric, what) in [
            ("cluster.migrations", "migrations"),
            ("service.queued_peak", "queued requests"),
            ("service.rejected", "rejections"),
            ("cluster.crashes", "crashes"),
        ] {
            if counts[metric] <= 0.0 {
                return Err(format!("fleet-service: no {what} in the measured epochs"));
            }
        }
        Ok(Outcome {
            digest: digest.value(),
            counts,
        })
    }
}

fn digest_faults(digest: &mut Digest, faults: &FaultCounts) {
    for value in [
        faults.crashes,
        faults.recoveries,
        faults.slowdowns,
        faults.aborted_source,
        faults.aborted_in_flight,
        faults.aborted_dest,
        faults.orphaned,
        faults.readmitted,
        faults.retry_backoffs,
        faults.rejected_orphans,
    ] {
        digest.u64(value);
    }
}

fn ledger_fields(ledger: &AdmissionLedger) -> [u64; 12] {
    [
        ledger.requested,
        ledger.admitted,
        ledger.admitted_from_queue,
        ledger.rejected_saturated,
        ledger.rejected_contention,
        ledger.queue_len,
        ledger.queue_peak,
        ledger.departures_served,
        ledger.departures_noop,
        ledger.drains,
        ledger.joins,
        ledger.queries,
    ]
}
