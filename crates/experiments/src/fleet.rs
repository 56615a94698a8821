//! Fleet scenario: the Kyoto principle at cluster scale.
//!
//! Every paper figure runs one machine; the `cloudscale` scenario grew that
//! to one *big* machine. This scenario models the level a cloud provider
//! actually operates: a fleet of independent machines (cells) whose VMs are
//! live-migrated between epochs by a consolidation policy. It sweeps cell
//! count × VM count × policy and reports, per sweep cell:
//!
//! * the migration count and the downtime it inflicted,
//! * mean degradation (vs a solo run) of the *sensitive* VMs and of the
//!   *disruptive* VMs separately,
//! * total Kyoto punishments, and
//! * per-cell PMC aggregates of the final epoch (the consolidated steady
//!   state).
//!
//! The headline comparison: the **pollution-aware** policy — which reads
//! per-VM PMC/punishment data and co-locates polluters away from sensitive
//! VMs — must yield measurably lower sensitive-VM degradation than plain
//! load-balancing, which spreads VM *counts* evenly and thereby gives almost
//! every sensitive VM a polluting neighbour.
//!
//! The sweep also carries the **churn** half (rendered standalone by
//! `figures --scenario churn`): a fleet under seeded VM arrival/departure
//! streams and a scripted drain/join maintenance cycle, swept over
//! arrival rate × policy × planner mode. Its headline is the cost-aware
//! planner ([`PlannerConfig::with_cost_aware`]) cutting total migration
//! downtime below the fixed-budget planner's at equal-or-better
//! sensitive-VM degradation.
//!
//! Determinism: all policies start from the same arrival-order seeding, the
//! event schedule is a pure function of `(seed, epoch)`, the control loop
//! is epoch-driven and pure, and cells share no state — so the rendered
//! table is byte-identical whether cells run serially or one per scoped
//! thread (`--parallel-engine` flips both engine- and cell-level
//! parallelism here; the CI determinism gate diffs the two), and whether
//! sweep cells fan out over `--jobs` worker threads or not.

use crate::config::ExperimentConfig;
use crate::harness::{calibrate_permits, run_jobs};
use kyoto_cluster::cluster::{CellEpochStats, Cluster, ClusterConfig};
use kyoto_cluster::events::{EventSchedule, EventScheduleConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_metrics::degradation::degradation_percent;
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::SpecApp;
use serde::{Deserialize, Serialize};

/// The application mix cycled across the fleet's VMs: strict alternation of
/// cache-sensitive and disruptive apps, so every policy faces the same
/// polluter density.
pub const FLEET_MIX: [SpecApp; 6] = [
    SpecApp::Gcc,
    SpecApp::Lbm,
    SpecApp::Omnetpp,
    SpecApp::Mcf,
    SpecApp::Soplex,
    SpecApp::Blockie,
];

/// Whether `app` counts as sensitive (victim) rather than disruptive
/// (polluter) in the report.
pub(crate) fn is_sensitive(app: SpecApp) -> bool {
    SpecApp::SENSITIVE_VMS.contains(&app)
}

/// The sweep a fleet run covers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSweep {
    /// Cell (machine) counts to build.
    pub cell_counts: Vec<usize>,
    /// VMs per cell (the sweep cell's VM count is `cells * this`).
    pub vms_per_cell: Vec<usize>,
    /// Consolidation policies to compare on every sweep cell.
    pub policies: Vec<ConsolidationPolicy>,
    /// Control-loop epochs each run executes.
    pub epochs: u64,
    /// Scheduler ticks per epoch.
    pub epoch_ticks: u64,
    /// Paper-scale pollution permit (in thousands) booked by every VM, as in
    /// Fig. 5's `250k`.
    pub permit_paper_kilo: f64,
    /// The churn sweep riding along (fleet dynamics: VM arrival/departure
    /// streams, a scripted drain/join cycle, and the fixed-budget vs
    /// cost-aware planner comparison). `None` runs the static sweep only.
    pub churn: Option<ChurnSweep>,
}

impl FleetSweep {
    /// The standard sweep: 2/4/8 cells × 2/3 VMs per cell, every policy,
    /// seven 6-tick epochs, 250k permits, plus the standard churn sweep.
    pub fn standard() -> Self {
        FleetSweep {
            cell_counts: vec![2, 4, 8],
            vms_per_cell: vec![2, 3],
            policies: ConsolidationPolicy::ALL.to_vec(),
            epochs: 7,
            epoch_ticks: 6,
            permit_paper_kilo: 250.0,
            churn: Some(ChurnSweep::standard()),
        }
    }

    /// A small sweep for tests and the CI determinism gate: 2/4 cells, two
    /// VMs per cell, every policy, four 4-tick epochs, plus the small churn
    /// sweep.
    pub fn small() -> Self {
        FleetSweep {
            cell_counts: vec![2, 4],
            vms_per_cell: vec![2],
            policies: ConsolidationPolicy::ALL.to_vec(),
            epochs: 4,
            epoch_ticks: 4,
            permit_paper_kilo: 250.0,
            churn: Some(ChurnSweep::small()),
        }
    }

    /// Total ticks one run covers.
    pub fn total_ticks(&self) -> u64 {
        self.epochs * self.epoch_ticks
    }
}

/// The churn sweep a fleet run covers: arrival rate × policy × cost-model
/// on/off, under a seeded departure stream and one scripted drain/join
/// maintenance cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnSweep {
    /// Cells (machines) in the churning fleet.
    pub cells: usize,
    /// VMs seeded per cell before churn begins.
    pub initial_vms_per_cell: usize,
    /// Expected VM arrivals per epoch — the sweep axis.
    pub arrival_rates: Vec<f64>,
    /// Expected VM departures per epoch (fixed across the sweep).
    pub departure_rate: f64,
    /// Consolidation policies to compare at every arrival rate.
    pub policies: Vec<ConsolidationPolicy>,
    /// Planner modes to compare: `false` = fixed move budget, `true` =
    /// cost-aware gate.
    pub cost_modes: Vec<bool>,
    /// Control-loop epochs each run executes.
    pub epochs: u64,
    /// Scheduler ticks per epoch.
    pub epoch_ticks: u64,
    /// Epoch boundary at which the last cell starts draining.
    pub drain_epoch: u64,
    /// Epoch boundary at which it rejoins.
    pub join_epoch: u64,
    /// Seed of the arrival/departure event streams.
    pub seed: u64,
}

impl ChurnSweep {
    /// The standard churn sweep: a 4-cell fleet seeded at 2 VMs per cell,
    /// arrival rates 0.5 and 1.5 per epoch against 0.5 departures, every
    /// policy in both planner modes, eight 6-tick epochs with the last cell
    /// draining at epoch 2 and rejoining at epoch 5.
    pub fn standard() -> Self {
        ChurnSweep {
            cells: 4,
            initial_vms_per_cell: 2,
            arrival_rates: vec![0.5, 1.5],
            departure_rate: 0.5,
            policies: ConsolidationPolicy::ALL.to_vec(),
            cost_modes: vec![false, true],
            epochs: 8,
            epoch_ticks: 6,
            drain_epoch: 2,
            join_epoch: 5,
            seed: 0xC0FFEE,
        }
    }

    /// A small churn sweep for tests and the CI determinism gate: 3 cells,
    /// one arrival rate, three policies, both planner modes, five 4-tick
    /// epochs with a drain/join cycle.
    pub fn small() -> Self {
        ChurnSweep {
            cells: 3,
            initial_vms_per_cell: 2,
            arrival_rates: vec![1.0],
            departure_rate: 0.5,
            policies: vec![
                ConsolidationPolicy::LoadBalance,
                ConsolidationPolicy::PollutionAware,
                ConsolidationPolicy::PollutionAwareDensity,
            ],
            cost_modes: vec![false, true],
            epochs: 5,
            epoch_ticks: 4,
            drain_epoch: 1,
            join_epoch: 3,
            seed: 0xC0FFEE,
        }
    }
}

/// One sweep cell: a fleet size, a VM population and a policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetCell {
    /// Cells (machines) in the fleet.
    pub cells: usize,
    /// VMs across the fleet.
    pub vms: usize,
    /// Consolidation policy driving the planner.
    pub policy: ConsolidationPolicy,
    /// Live migrations the control plane applied over the run.
    pub migrations: u64,
    /// Blackout ticks those migrations inflicted in total.
    pub downtime_ticks: u64,
    /// Mean degradation (percent vs solo) of the sensitive VMs.
    pub sensitive_degradation_pct: f64,
    /// Mean degradation (percent vs solo) of the disruptive VMs.
    pub disruptive_degradation_pct: f64,
    /// Total Kyoto punishments across the fleet.
    pub punishments: u64,
    /// Per-cell aggregates of the final epoch (the consolidated state).
    pub final_epoch: Vec<CellEpochStats>,
}

impl FleetCell {
    /// Fleet-wide instructions retired during the final epoch.
    pub fn final_epoch_instructions(&self) -> u64 {
        self.final_epoch.iter().map(|c| c.instructions).sum()
    }
}

/// One churn sweep point: an arrival rate, a policy and a planner mode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnCell {
    /// Expected arrivals per epoch.
    pub arrival_rate: f64,
    /// Consolidation policy driving the planner.
    pub policy: ConsolidationPolicy,
    /// Whether the cost-aware gate was on.
    pub cost_aware: bool,
    /// Live migrations the control plane applied over the run.
    pub migrations: u64,
    /// Blackout ticks those migrations inflicted in total.
    pub downtime_ticks: u64,
    /// VMs admitted by arrival events.
    pub arrivals: u64,
    /// VMs removed by departure events.
    pub departures: u64,
    /// Arrivals rejected (fleet full or draining).
    pub rejected_arrivals: u64,
    /// VMs resident when the run ended.
    pub final_vms: usize,
    /// Mean degradation (percent vs solo) of every sensitive VM that ever
    /// ran, departed VMs included.
    pub sensitive_degradation_pct: f64,
    /// Mean degradation (percent vs solo) of every disruptive VM that ever
    /// ran.
    pub disruptive_degradation_pct: f64,
    /// Total Kyoto punishments across the fleet's lifetime.
    pub punishments: u64,
}

/// The churn dataset: fleet dynamics under every (rate, policy, planner
/// mode) combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChurnResult {
    /// Cells in the churning fleet.
    pub cells: usize,
    /// VMs seeded before churn began.
    pub initial_vms: usize,
    /// Expected departures per epoch.
    pub departure_rate: f64,
    /// Epoch at which the last cell drained / rejoined.
    pub drain_join: (u64, u64),
    /// Paper-scale permit booked by every VM.
    pub permit_paper_kilo: f64,
    /// Every sweep point: rate outer, policy middle, planner mode inner
    /// (fixed budget first, cost-aware second).
    pub rows: Vec<ChurnCell>,
}

impl ChurnResult {
    /// The sweep point for a rate / policy / planner mode, if present.
    pub fn row(
        &self,
        arrival_rate: f64,
        policy: ConsolidationPolicy,
        cost_aware: bool,
    ) -> Option<&ChurnCell> {
        self.rows.iter().find(|r| {
            (r.arrival_rate - arrival_rate).abs() < 1e-12
                && r.policy == policy
                && r.cost_aware == cost_aware
        })
    }

    /// Renders the churn table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Fleet churn: arrival-rate x policy x planner-mode sweep ({} cells, {} initial VMs, {:.2} departures/epoch, drain@{} join@{}, {}k permits)\n",
            self.cells,
            self.initial_vms,
            self.departure_rate,
            self.drain_join.0,
            self.drain_join.1,
            self.permit_paper_kilo,
        );
        for row in &self.rows {
            out.push_str(&format!(
                "  rate {:.2}  {:<17} {:<10}  migrations {:>2} (downtime {:>2} ticks)  arr {:>2} dep {:>2} rej {:>2}  vms {:>2}  degradation sens {:5.1}% / dis {:5.1}%  punish {:>5}\n",
                row.arrival_rate,
                row.policy.label(),
                if row.cost_aware { "cost-aware" } else { "fixed" },
                row.migrations,
                row.downtime_ticks,
                row.arrivals,
                row.departures,
                row.rejected_arrivals,
                row.final_vms,
                row.sensitive_degradation_pct,
                row.disruptive_degradation_pct,
                row.punishments,
            ));
        }
        out
    }
}

/// The fleet dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetResult {
    /// Paper-scale permit booked by every VM.
    pub permit_paper_kilo: f64,
    /// Every sweep cell, cell-count outer, VM-count middle, policy inner.
    pub cells: Vec<FleetCell>,
    /// The churn sweep, when the fleet sweep carried one.
    pub churn: Option<ChurnResult>,
}

impl FleetResult {
    /// The sweep cell for a fleet size / VM count / policy, if present.
    pub fn cell(
        &self,
        cells: usize,
        vms: usize,
        policy: ConsolidationPolicy,
    ) -> Option<&FleetCell> {
        self.cells
            .iter()
            .find(|c| c.cells == cells && c.vms == vms && c.policy == policy)
    }

    /// Renders the sweep table.
    pub fn to_table(&self) -> String {
        let mut out = format!(
            "Fleet: cell-count x VM-count x policy sweep ({}k permits, live migration)\n",
            self.permit_paper_kilo
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "  {} cells, {:>2} VMs, {:<15}  migrations {:>2} (downtime {:>2} ticks)  degradation sens {:5.1}% / dis {:5.1}%  punish {:>5}\n",
                cell.cells,
                cell.vms,
                cell.policy.label(),
                cell.migrations,
                cell.downtime_ticks,
                cell.sensitive_degradation_pct,
                cell.disruptive_degradation_pct,
                cell.punishments,
            ));
            for stats in &cell.final_epoch {
                out.push_str(&format!(
                    "    {}{}: {} vms  instr {:>9}  llc_miss {:>7}  punish {:>4}  pollution {:8.1}/ms\n",
                    stats.cell,
                    if stats.draining { " (draining)" } else { "" },
                    stats.vms,
                    stats.instructions,
                    stats.llc_misses,
                    stats.punishments,
                    stats.pollution_rate,
                ));
            }
        }
        if let Some(churn) = &self.churn {
            out.push_str(&churn.to_table());
        }
        out
    }
}

/// Derives the per-VM seed salt: VMs of the same app share a workload stream
/// (they run on disjoint machines), which lets every app's solo baseline be
/// measured once.
pub(crate) fn app_salt(index: usize) -> u64 {
    0xf1ee7 + (index % FLEET_MIX.len()) as u64
}

/// Builds the cluster configuration for one sweep cell.
fn cluster_config(
    config: &ExperimentConfig,
    sweep: &FleetSweep,
    cells: usize,
    policy: ConsolidationPolicy,
    polluter_threshold: f64,
) -> ClusterConfig {
    ClusterConfig::new(cells, config.scale)
        .with_epoch_ticks(sweep.epoch_ticks)
        .with_policy(policy)
        // `--parallel-engine` flips both levels: cell-parallel cluster
        // epochs here, and the socket-parallel engine inside each cell via
        // the hypervisor config below.
        .with_parallel_cells(config.parallel_engine)
        .with_hypervisor(config.hypervisor_config())
        // Shadow attribution (as in Fig. 5): pollution estimates are *solo*
        // miss rates, so a victim whose misses are inflated by a polluting
        // neighbour is never misclassified as a polluter itself.
        .with_strategy(MonitoringStrategy::SimulatorAttribution)
        .with_planner(
            PlannerConfig::default()
                .with_max_moves(4)
                .with_polluter_threshold(polluter_threshold),
        )
}

/// Measures each app's solo throughput (instructions per tick, same epoch
/// count, one VM alone on one cell) — the degradation baseline.
fn solo_baselines(
    config: &ExperimentConfig,
    sweep: &FleetSweep,
    permit: f64,
    polluter_threshold: f64,
) -> Vec<(SpecApp, f64)> {
    FLEET_MIX
        .iter()
        .enumerate()
        .map(|(index, &app)| {
            let mut cluster = Cluster::new(cluster_config(
                config,
                sweep,
                1,
                ConsolidationPolicy::LoadBalance,
                polluter_threshold,
            ));
            let vm = cluster
                .add_vm(
                    CellId(0),
                    VmConfig::new(format!("solo-{}", app.name())).with_llc_cap(permit),
                    Box::new(config.workload(app, app_salt(index))),
                )
                .expect("cell 0 admits the solo VM");
            cluster
                .run_epochs(sweep.epochs)
                .expect("solo run is fault-free");
            let report = cluster.report(vm).expect("solo VM exists");
            (app, report.instructions_per_tick())
        })
        .collect()
}

/// Calibrated inputs shared by every cell of one sweep run: the simulated
/// permit each VM books, the pollution rate above which the planner counts
/// a VM as a polluter, and the per-app solo throughput baselines.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepCalibration {
    /// Simulated permit (misses per CPU-ms) each VM books.
    pub permit: f64,
    /// Planner classification threshold (misses per CPU-ms).
    pub polluter_threshold: f64,
    /// Solo instructions-per-tick of each app in [`FLEET_MIX`].
    pub baselines: Vec<(SpecApp, f64)>,
}

/// Runs one sweep cell: seed `cells * vms_per_cell` VMs across the fleet in
/// arrival order (VMs fill one cell, then the next — the placement a cloud's
/// admission path produces, which leaves every cell with a
/// sensitive/disruptive blend), run the control loop, and fold the outcome
/// into a [`FleetCell`].
pub fn run_cell(
    config: &ExperimentConfig,
    sweep: &FleetSweep,
    cells: usize,
    vms_per_cell: usize,
    policy: ConsolidationPolicy,
    calibration: &SweepCalibration,
) -> FleetCell {
    let vm_count = cells * vms_per_cell;
    let mut cluster = Cluster::new(cluster_config(
        config,
        sweep,
        cells,
        policy,
        calibration.polluter_threshold,
    ));
    let mut apps = Vec::with_capacity(vm_count);
    for i in 0..vm_count {
        let app = FLEET_MIX[i % FLEET_MIX.len()];
        apps.push(app);
        cluster
            .add_vm(
                CellId((i / vms_per_cell).min(cells - 1)),
                VmConfig::new(format!("fvm{i}-{}", app.name())).with_llc_cap(calibration.permit),
                Box::new(config.workload(app, app_salt(i))),
            )
            .expect("seeding stays within cell capacity");
    }
    cluster
        .run_epochs(sweep.epochs)
        .expect("sweep run is fault-free");

    let downtime_per_move = cluster.config().planner.cost.downtime_ticks;
    let reports = cluster.reports();
    let mut sensitive = (0usize, 0.0f64);
    let mut disruptive = (0usize, 0.0f64);
    let mut punishments = 0u64;
    for (report, &app) in reports.iter().zip(&apps) {
        punishments += report.punishments;
        let solo = calibration
            .baselines
            .iter()
            .find(|(a, _)| *a == app)
            .map(|(_, t)| *t)
            .expect("baseline for every app in the mix");
        let degradation = degradation_percent(solo, report.instructions_per_tick());
        if is_sensitive(app) {
            sensitive.0 += 1;
            sensitive.1 += degradation;
        } else {
            disruptive.0 += 1;
            disruptive.1 += degradation;
        }
    }
    let mean = |(count, sum): (usize, f64)| if count == 0 { 0.0 } else { sum / count as f64 };
    FleetCell {
        cells,
        vms: vm_count,
        policy,
        migrations: cluster.total_migrations(),
        downtime_ticks: cluster.total_migrations() * downtime_per_move,
        sensitive_degradation_pct: mean(sensitive),
        disruptive_degradation_pct: mean(disruptive),
        punishments,
        final_epoch: cluster
            .history()
            .last()
            .map(|epoch| epoch.cells.clone())
            .unwrap_or_default(),
    }
}

/// Calibrates a sweep run: converts the paper permit to simulated units and
/// measures the per-app solo baselines.
pub fn calibrate_sweep(config: &ExperimentConfig, sweep: &FleetSweep) -> SweepCalibration {
    let permit = calibrate_permits(config).paper_kilo(sweep.permit_paper_kilo);
    // A VM polluting beyond its booked permit counts as a polluter even
    // before the scheduler catches it punishing.
    let polluter_threshold = permit;
    SweepCalibration {
        permit,
        polluter_threshold,
        baselines: solo_baselines(config, sweep, permit, polluter_threshold),
    }
}

/// The app behind a fleet VM, recovered from its configured name (every
/// fleet VM is named `...-<app>`). Lets churn runs fold live *and departed*
/// VM reports back onto their solo baselines.
pub(crate) fn app_of_report(name: &str) -> SpecApp {
    *FLEET_MIX
        .iter()
        .find(|app| name.ends_with(&format!("-{}", app.name())))
        .expect("fleet VM names carry their app")
}

/// Runs one churn sweep point: seed the fleet in arrival order, drive
/// `churn.epochs` epochs under the seeded arrival/departure streams and the
/// scripted drain/join cycle, and fold every VM that ever ran (departed
/// included) into a [`ChurnCell`].
pub fn run_churn_cell(
    config: &ExperimentConfig,
    churn: &ChurnSweep,
    arrival_rate: f64,
    policy: ConsolidationPolicy,
    cost_aware: bool,
    calibration: &SweepCalibration,
) -> ChurnCell {
    let cluster_config = ClusterConfig::new(churn.cells, config.scale)
        .with_epoch_ticks(churn.epoch_ticks)
        .with_policy(policy)
        .with_parallel_cells(config.parallel_engine)
        .with_hypervisor(config.hypervisor_config())
        .with_strategy(MonitoringStrategy::SimulatorAttribution)
        .with_planner(
            PlannerConfig::default()
                .with_max_moves(4)
                .with_polluter_threshold(calibration.polluter_threshold)
                .with_cost_aware(cost_aware),
        );
    let mut cluster = Cluster::new(cluster_config);
    let initial = churn.cells * churn.initial_vms_per_cell;
    for i in 0..initial {
        let app = FLEET_MIX[i % FLEET_MIX.len()];
        cluster
            .add_vm(
                CellId(i / churn.initial_vms_per_cell),
                VmConfig::new(format!("fvm{i}-{}", app.name())).with_llc_cap(calibration.permit),
                Box::new(config.workload(app, app_salt(i))),
            )
            .expect("seeding stays within cell capacity");
    }
    let drained = CellId(churn.cells - 1);
    let schedule = EventSchedule::new(
        EventScheduleConfig::new(churn.seed)
            .with_arrival_rate(arrival_rate)
            .with_departure_rate(churn.departure_rate)
            .with_drain(churn.drain_epoch, drained)
            .with_join(churn.join_epoch, drained),
    );
    let permit = calibration.permit;
    let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
        let k = initial + index as usize;
        let app = FLEET_MIX[k % FLEET_MIX.len()];
        (
            VmConfig::new(format!("fvm{k}-{}", app.name())).with_llc_cap(permit),
            Box::new(config.workload(app, app_salt(k))),
        )
    };
    cluster
        .run_epochs_with_schedule(&schedule, churn.epochs, &mut spawn)
        .expect("churn run is fault-free");

    let downtime_per_move = cluster.config().planner.cost.downtime_ticks;
    let mut sensitive = (0usize, 0.0f64);
    let mut disruptive = (0usize, 0.0f64);
    let mut punishments = 0u64;
    for report in cluster.all_reports() {
        punishments += report.punishments;
        let app = app_of_report(&report.name);
        let solo = calibration
            .baselines
            .iter()
            .find(|(a, _)| *a == app)
            .map(|(_, t)| *t)
            .expect("baseline for every app in the mix");
        let degradation = degradation_percent(solo, report.instructions_per_tick());
        if is_sensitive(app) {
            sensitive.0 += 1;
            sensitive.1 += degradation;
        } else {
            disruptive.0 += 1;
            disruptive.1 += degradation;
        }
    }
    let mean = |(count, sum): (usize, f64)| if count == 0 { 0.0 } else { sum / count as f64 };
    ChurnCell {
        arrival_rate,
        policy,
        cost_aware,
        migrations: cluster.total_migrations(),
        downtime_ticks: cluster.total_migrations() * downtime_per_move,
        arrivals: cluster.total_arrivals(),
        departures: cluster.total_departures(),
        rejected_arrivals: cluster.rejected_arrivals(),
        final_vms: cluster.reports().len(),
        sensitive_degradation_pct: mean(sensitive),
        disruptive_degradation_pct: mean(disruptive),
        punishments,
    }
}

/// Runs the churn sweep with its points spread over up to `jobs` scoped
/// worker threads.
fn run_churn_sweep(
    config: &ExperimentConfig,
    churn: &ChurnSweep,
    permit_paper_kilo: f64,
    calibration: &SweepCalibration,
    jobs: usize,
) -> ChurnResult {
    let mut specs: Vec<(f64, ConsolidationPolicy, bool)> = Vec::new();
    for &rate in &churn.arrival_rates {
        for &policy in &churn.policies {
            for &cost_aware in &churn.cost_modes {
                specs.push((rate, policy, cost_aware));
            }
        }
    }
    let rows = run_jobs(specs.len(), jobs, |index| {
        let (rate, policy, cost_aware) = specs[index];
        run_churn_cell(config, churn, rate, policy, cost_aware, calibration)
    });
    ChurnResult {
        cells: churn.cells,
        initial_vms: churn.cells * churn.initial_vms_per_cell,
        departure_rate: churn.departure_rate,
        drain_join: (churn.drain_epoch, churn.join_epoch),
        permit_paper_kilo,
        rows,
    }
}

/// Runs the full sweep described by `sweep` — the static consolidation
/// cells plus the churn sweep when one is configured — with the
/// independent sweep cells spread over up to `jobs` scoped worker threads
/// (`jobs <= 1` runs serially; the output is byte-identical either way).
pub fn run_with_sweep_jobs(
    config: &ExperimentConfig,
    sweep: &FleetSweep,
    jobs: usize,
) -> FleetResult {
    let calibration = calibrate_sweep(config, sweep);
    let mut specs: Vec<(usize, usize, ConsolidationPolicy)> = Vec::new();
    for &cell_count in &sweep.cell_counts {
        for &vms_per_cell in &sweep.vms_per_cell {
            for &policy in &sweep.policies {
                specs.push((cell_count, vms_per_cell, policy));
            }
        }
    }
    let cells = run_jobs(specs.len(), jobs, |index| {
        let (cell_count, vms_per_cell, policy) = specs[index];
        run_cell(
            config,
            sweep,
            cell_count,
            vms_per_cell,
            policy,
            &calibration,
        )
    });
    let churn = sweep
        .churn
        .as_ref()
        .map(|churn| run_churn_sweep(config, churn, sweep.permit_paper_kilo, &calibration, jobs));
    FleetResult {
        permit_paper_kilo: sweep.permit_paper_kilo,
        cells,
        churn,
    }
}

/// Runs the full sweep described by `sweep` on the calling thread.
pub fn run_with_sweep(config: &ExperimentConfig, sweep: &FleetSweep) -> FleetResult {
    run_with_sweep_jobs(config, sweep, 1)
}

/// Runs only the churn half of `sweep` (the `figures --scenario churn`
/// target), with its points spread over up to `jobs` worker threads.
/// Returns `None` when the sweep carries no churn component.
pub fn run_churn_with_jobs(
    config: &ExperimentConfig,
    sweep: &FleetSweep,
    jobs: usize,
) -> Option<ChurnResult> {
    let churn = sweep.churn.as_ref()?;
    let calibration = calibrate_sweep(config, sweep);
    Some(run_churn_sweep(
        config,
        churn,
        sweep.permit_paper_kilo,
        &calibration,
        jobs,
    ))
}

/// Runs the standard fleet sweep.
pub fn run(config: &ExperimentConfig) -> FleetResult {
    run_with_sweep(config, &FleetSweep::standard())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 11,
            warmup_ticks: 2,
            measure_ticks: 5,
            parallel_engine: false,
        }
    }

    #[test]
    fn sweep_covers_every_cell_and_policy() {
        let sweep = FleetSweep {
            churn: None,
            ..FleetSweep::small()
        };
        let result = run_with_sweep(&tiny_config(), &sweep);
        assert_eq!(result.cells.len(), 8, "2 fleet sizes x 4 policies");
        for policy in ConsolidationPolicy::ALL {
            let cell = result.cell(4, 8, policy).expect("4-cell sweep cell");
            assert_eq!(cell.final_epoch.len(), 4);
            assert!(cell.final_epoch_instructions() > 0);
        }
        let table = result.to_table();
        assert!(table.contains("pollution-aware"));
        assert!(table.contains("pollution-density"));
        assert!(table.contains("4 cells"));
        assert!(table.contains("cell3"));
    }

    #[test]
    fn pollution_aware_beats_load_balancing_for_sensitive_vms() {
        // The acceptance claim of the subsystem: with the same fleet, same
        // VMs and same seeds, co-locating polluters away from sensitive VMs
        // must measurably reduce the sensitive VMs' aggregate degradation
        // relative to count-balancing.
        let sweep = FleetSweep {
            churn: None,
            ..FleetSweep::small()
        };
        let result = run_with_sweep(&tiny_config(), &sweep);
        let balanced = result
            .cell(4, 8, ConsolidationPolicy::LoadBalance)
            .expect("load-balance cell");
        let aware = result
            .cell(4, 8, ConsolidationPolicy::PollutionAware)
            .expect("pollution-aware cell");
        assert!(
            aware.sensitive_degradation_pct < balanced.sensitive_degradation_pct - 1.0,
            "pollution-aware ({:.1}%) must beat load-balance ({:.1}%) by a visible margin",
            aware.sensitive_degradation_pct,
            balanced.sensitive_degradation_pct
        );
        assert!(
            aware.migrations > 0,
            "separation requires actual migrations"
        );
    }

    #[test]
    fn runs_are_deterministic_and_cell_parallelism_changes_nothing() {
        let sweep = FleetSweep::small();
        let serial = run_with_sweep(&tiny_config(), &sweep);
        let rerun = run_with_sweep(&tiny_config(), &sweep);
        assert_eq!(serial, rerun, "same config, same bytes");
        let parallel = run_with_sweep(&tiny_config().with_parallel_engine(true), &sweep);
        assert_eq!(serial, parallel, "cell-parallel epochs are bit-identical");
        assert_eq!(serial.to_table(), parallel.to_table());
        assert!(serial.churn.is_some(), "small sweep carries the churn half");
    }

    #[test]
    fn sweep_worker_threads_change_no_bytes() {
        let sweep = FleetSweep::small();
        let serial = run_with_sweep_jobs(&tiny_config(), &sweep, 1);
        let threaded = run_with_sweep_jobs(&tiny_config(), &sweep, 4);
        assert_eq!(serial, threaded);
        assert_eq!(serial.to_table(), threaded.to_table());
    }

    #[test]
    fn churn_sweep_covers_every_point_and_reports_dynamics() {
        let sweep = FleetSweep::small();
        let churn = run_churn_with_jobs(&tiny_config(), &sweep, 1).expect("churn configured");
        assert_eq!(churn.rows.len(), 6, "1 rate x 3 policies x 2 modes");
        let table = churn.to_table();
        assert!(table.contains("Fleet churn"));
        assert!(table.contains("cost-aware"));
        assert!(table.contains("fixed"));
        for row in &churn.rows {
            assert!(
                row.arrivals + row.departures > 0,
                "churn must actually happen: {row:?}"
            );
            assert!(row.final_vms > 0, "the fleet must survive: {row:?}");
        }
    }

    #[test]
    fn cost_aware_lowers_downtime_without_hurting_sensitive_vms_somewhere() {
        // The PR's acceptance claim: at least one churn sweep point must
        // show the cost-aware planner beating the fixed-budget planner on
        // total downtime at equal-or-better sensitive degradation.
        let sweep = FleetSweep::small();
        let churn = run_churn_with_jobs(&tiny_config(), &sweep, 1).expect("churn configured");
        let churn_sweep = sweep.churn.as_ref().unwrap();
        let mut witnessed = false;
        for &rate in &churn_sweep.arrival_rates {
            for &policy in &churn_sweep.policies {
                let fixed = churn.row(rate, policy, false).expect("fixed row");
                let aware = churn.row(rate, policy, true).expect("cost-aware row");
                assert!(
                    aware.downtime_ticks <= fixed.downtime_ticks,
                    "cost-aware may never inflict more downtime ({policy:?} @ {rate})"
                );
                if aware.downtime_ticks < fixed.downtime_ticks
                    && aware.sensitive_degradation_pct <= fixed.sensitive_degradation_pct + 0.05
                {
                    witnessed = true;
                }
            }
        }
        assert!(
            witnessed,
            "no sweep point shows the cost-aware win: {:#?}",
            churn.rows
        );
    }

    #[test]
    fn density_cap_keeps_separation_paying_at_three_vms_per_cell() {
        // Pins the DESIGN.md inversion fix: at 3+ VMs per 4-core cell,
        // plain separation concentrates the sensitive VMs until they
        // degrade each other; the density-capped policy must hold
        // sensitive degradation at or below the load-balance baseline.
        let sweep = FleetSweep {
            churn: None,
            ..FleetSweep::small()
        };
        let config = tiny_config();
        let calibration = calibrate_sweep(&config, &sweep);
        let balanced = run_cell(
            &config,
            &sweep,
            4,
            3,
            ConsolidationPolicy::LoadBalance,
            &calibration,
        );
        let density = run_cell(
            &config,
            &sweep,
            4,
            3,
            ConsolidationPolicy::PollutionAwareDensity,
            &calibration,
        );
        assert!(
            density.sensitive_degradation_pct <= balanced.sensitive_degradation_pct + 0.05,
            "density-aware ({:.2}%) must not lose to load-balance ({:.2}%) at 3 VMs/cell",
            density.sensitive_degradation_pct,
            balanced.sensitive_degradation_pct
        );
    }
}
