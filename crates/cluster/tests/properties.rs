//! Property-based tests of the cluster subsystem's determinism claims:
//!
//! 1. the migration planner is a pure function — equal snapshots give equal
//!    plans — and every plan it emits is valid (resident VMs only, no VM
//!    moved twice, no destination pushed past its core capacity, no
//!    destination draining);
//! 2. serial and cell-parallel cluster epochs are **bit-identical** across
//!    every consolidation policy and cell count (each cell owns all its
//!    state, so thread scheduling cannot leak into results) — including
//!    under full fleet dynamics (seeded arrival/departure churn plus
//!    scripted drain/join maintenance events);
//! 3. the cost-aware planner is a strict refinement of the fixed-budget
//!    planner: its plan is a subset of the fixed-budget plan (so its total
//!    downtime can never exceed it), and drain evacuations are never gated.

use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::events::{EventSchedule, EventScheduleConfig};
use kyoto_cluster::faults::{FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, MigrationPlanner, PlannerConfig};
use kyoto_cluster::snapshot::{CellId, CellSnapshot, ClusterSnapshot, FleetVmId, VmSnapshot};
use kyoto_core::monitor::{MonitoringStrategy, SocketDedicationConfig};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use proptest::prelude::*;

fn arb_policy() -> impl Strategy<Value = ConsolidationPolicy> {
    prop_oneof![
        Just(ConsolidationPolicy::LoadBalance),
        Just(ConsolidationPolicy::BinPack),
        Just(ConsolidationPolicy::PollutionAware),
        Just(ConsolidationPolicy::PollutionAwareDensity),
    ]
}

fn arb_strategy() -> impl Strategy<Value = MonitoringStrategy> {
    prop_oneof![
        Just(MonitoringStrategy::DirectPmc),
        Just(MonitoringStrategy::SimulatorAttribution),
        Just(MonitoringStrategy::SocketDedication(
            SocketDedicationConfig::default()
        )),
    ]
}

/// Builds a snapshot from generated raw material: cell count, cores per
/// cell, a draining mask, and per-VM (cell choice, pollution rate,
/// punishments) triples.
fn snapshot_with_drains(
    cells: usize,
    cores: usize,
    draining_mask: u32,
    vms: &[(usize, f64, u64)],
) -> ClusterSnapshot {
    let mut cell_snapshots: Vec<CellSnapshot> = (0..cells)
        .map(|i| CellSnapshot {
            cell: CellId(i),
            cores,
            draining: draining_mask & (1 << i) != 0,
            down: false,
            vms: Vec::new(),
        })
        .collect();
    for (i, &(cell_choice, pollution_rate, punishments)) in vms.iter().enumerate() {
        let cell = cell_choice % cells;
        cell_snapshots[cell].vms.push(VmSnapshot {
            vm: FleetVmId(i as u32 + 1),
            name: format!("fvm{}", i + 1),
            pollution_rate,
            punishments,
            instructions: 1_000 + i as u64,
            llc_misses: (pollution_rate * 10.0) as u64,
            ipc: 1.0,
            working_set_bytes: 64 * 1024,
            resident_lines: (pollution_rate * 2.0) as u64 + i as u64 * 16,
            blocked_fraction: 0.0,
        });
    }
    ClusterSnapshot {
        epoch: 0,
        cells: cell_snapshots,
    }
}

fn snapshot_from(cells: usize, cores: usize, vms: &[(usize, f64, u64)]) -> ClusterSnapshot {
    snapshot_with_drains(cells, cores, 0, vms)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plans are deterministic and valid for any snapshot shape — draining
    /// cells included: every move references a resident VM at its true
    /// cell, no VM moves twice, no destination is pushed past its capacity
    /// or is draining, and the per-epoch move budget holds. Covers the
    /// fixed-budget and the cost-aware planner.
    #[test]
    fn plans_are_deterministic_valid_and_never_overcommit(
        cells in 1usize..6,
        cores in 1usize..5,
        max_moves in 1usize..8,
        threshold in 0.0f64..1500.0,
        draining_mask in 0u32..64,
        cost_aware in 0u32..2,
        policy in arb_policy(),
        vms in prop::collection::vec((0usize..6, 0.0f64..2000.0, 0u64..4), 0..16),
    ) {
        let snapshot = snapshot_with_drains(cells, cores, draining_mask, &vms);
        let planner = MigrationPlanner::new(
            PlannerConfig::default()
                .with_max_moves(max_moves)
                .with_polluter_threshold(threshold)
                .with_cost_aware(cost_aware == 1),
        );
        let plan = planner.plan(&snapshot, policy);
        let again = planner.plan(&snapshot, policy);
        prop_assert_eq!(&plan, &again, "planner must be pure");
        prop_assert!(plan.len() <= max_moves, "move budget exceeded");
        if let Err(violation) = plan.validate(&snapshot) {
            prop_assert!(false, "invalid plan under {:?}: {}", policy, violation);
        }
        for mv in &plan.moves {
            prop_assert!(
                !snapshot.cells[mv.to.0].draining,
                "{:?} evacuates into a draining cell under {:?}",
                mv,
                policy
            );
        }
    }

    /// The cost-aware plan is a subset of the fixed-budget plan for the
    /// same snapshot and policy — so its total downtime can never exceed
    /// the fixed-budget planner's — and it keeps every drain evacuation the
    /// fixed-budget planner found room for.
    #[test]
    fn cost_aware_is_a_subset_of_the_fixed_budget_plan(
        cells in 2usize..6,
        cores in 1usize..5,
        max_moves in 1usize..8,
        threshold in 0.0f64..1500.0,
        draining_mask in 0u32..64,
        savings_per_tick in 0.0f64..500.0,
        policy in arb_policy(),
        vms in prop::collection::vec((0usize..6, 0.0f64..2000.0, 0u64..4), 0..16),
    ) {
        let snapshot = snapshot_with_drains(cells, cores, draining_mask, &vms);
        let base = PlannerConfig::default()
            .with_max_moves(max_moves)
            .with_polluter_threshold(threshold)
            .with_savings_per_tick(savings_per_tick);
        let fixed = MigrationPlanner::new(base).plan(&snapshot, policy);
        let cost_aware =
            MigrationPlanner::new(base.with_cost_aware(true)).plan(&snapshot, policy);
        let cost = base.cost;
        prop_assert!(
            cost_aware.total_downtime_ticks(&cost) <= fixed.total_downtime_ticks(&cost),
            "cost-aware inflicted more downtime: {:?} vs {:?}",
            cost_aware,
            fixed
        );
        for mv in &cost_aware.moves {
            prop_assert!(
                fixed.moves.contains(mv),
                "{:?} is not in the fixed-budget plan {:?}",
                mv,
                fixed
            );
        }
        for mv in &fixed.moves {
            if snapshot.cells[mv.from.0].draining {
                prop_assert!(
                    cost_aware.moves.contains(mv),
                    "evacuation {:?} was cost-gated",
                    mv
                );
            }
        }
    }

    /// Load balancing never increases the occupancy spread, whatever the
    /// starting placement.
    #[test]
    fn load_balance_narrows_the_occupancy_spread(
        cells in 2usize..5,
        vms in prop::collection::vec((0usize..5, 0.0f64..100.0, 0u64..1), 1..12),
    ) {
        let snapshot = snapshot_from(cells, 4, &vms);
        let planner = MigrationPlanner::new(PlannerConfig::default().with_max_moves(8));
        let plan = planner.plan(&snapshot, ConsolidationPolicy::LoadBalance);
        let mut occupancy: Vec<i64> =
            snapshot.cells.iter().map(|c| c.occupancy() as i64).collect();
        let spread_before =
            occupancy.iter().max().unwrap() - occupancy.iter().min().unwrap();
        for mv in &plan.moves {
            occupancy[mv.from.0] -= 1;
            occupancy[mv.to.0] += 1;
        }
        let spread_after =
            occupancy.iter().max().unwrap() - occupancy.iter().min().unwrap();
        prop_assert!(
            spread_after <= spread_before.max(1),
            "spread grew: {} -> {} ({:?})",
            spread_before,
            spread_after,
            plan
        );
    }
}

proptest! {
    // End-to-end cluster runs are costly; a handful of cases over the full
    // policy x cell-count grid is plenty because any divergence is
    // deterministic, not probabilistic.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Serial and cell-parallel epochs produce bit-identical fleet reports
    /// and epoch histories across policies, cell counts and seedings.
    #[test]
    fn serial_and_parallel_cluster_epochs_are_bit_identical(
        cells in 2usize..5,
        vm_count in 2usize..9,
        policy in arb_policy(),
        seed in 0u64..1_000,
    ) {
        let apps = [
            SpecApp::Gcc,
            SpecApp::Lbm,
            SpecApp::Omnetpp,
            SpecApp::Mcf,
            SpecApp::Soplex,
            SpecApp::Milc,
        ];
        let run = |parallel: bool| {
            let config = ClusterConfig::new(cells, 256)
                .with_epoch_ticks(3)
                .with_policy(policy)
                .with_planner(
                    PlannerConfig::default()
                        .with_max_moves(3)
                        .with_polluter_threshold(200.0),
                )
                .with_parallel_cells(parallel);
            let mut cluster = Cluster::new(config);
            for i in 0..vm_count {
                let app = apps[i % apps.len()];
                cluster
                    .add_vm(
                        CellId(i % cells),
                        VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                        Box::new(SpecWorkload::new(app, 256, seed.wrapping_add(i as u64))),
                    )
                    .unwrap();
            }
            cluster.run_epochs(3).unwrap();
            (
                cluster.reports(),
                cluster.history().to_vec(),
                cluster.occupancies(),
                cluster.total_migrations(),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// Serial and cell-parallel epochs stay bit-identical under full fleet
    /// dynamics: seeded arrival/departure churn plus a scripted drain/join
    /// cycle, across every consolidation policy (cost-aware planning on, so
    /// the gate is exercised too). Event application is control-plane work
    /// between epochs — single-threaded either way — so thread scheduling
    /// must not be able to leak into any report, occupancy or counter.
    #[test]
    fn churn_epochs_are_bit_identical_serial_vs_parallel(
        cells in 2usize..5,
        initial_vms in 2usize..7,
        policy in arb_policy(),
        seed in 0u64..1_000,
        arrival_rate in 0.0f64..2.0,
        departure_rate in 0.0f64..1.5,
    ) {
        let apps = [
            SpecApp::Gcc,
            SpecApp::Lbm,
            SpecApp::Omnetpp,
            SpecApp::Mcf,
            SpecApp::Soplex,
            SpecApp::Milc,
        ];
        let drained = CellId(cells - 1);
        let schedule = EventSchedule::new(
            EventScheduleConfig::new(seed)
                .with_arrival_rate(arrival_rate)
                .with_departure_rate(departure_rate)
                .with_drain(1, drained)
                .with_join(3, drained),
        );
        let run = |parallel: bool| {
            let config = ClusterConfig::new(cells, 256)
                .with_epoch_ticks(3)
                .with_policy(policy)
                .with_planner(
                    PlannerConfig::default()
                        .with_max_moves(3)
                        .with_polluter_threshold(200.0)
                        .with_cost_aware(true),
                )
                .with_parallel_cells(parallel);
            let mut cluster = Cluster::new(config);
            for i in 0..initial_vms {
                let app = apps[i % apps.len()];
                cluster
                    .add_vm(
                        CellId(i % cells),
                        VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                        Box::new(SpecWorkload::new(app, 256, seed.wrapping_add(i as u64))),
                    )
                    .unwrap();
            }
            let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
                let app = apps[(index as usize) % apps.len()];
                (
                    VmConfig::new(format!("churn{index}-{}", app.name())).with_llc_cap(50.0),
                    Box::new(SpecWorkload::new(app, 256, seed ^ (0xA11 + index))),
                )
            };
            cluster
                .run_epochs_with_schedule(&schedule, 5, &mut spawn)
                .unwrap();
            (
                cluster.all_reports(),
                cluster.history().to_vec(),
                cluster.occupancies(),
                (
                    cluster.total_migrations(),
                    cluster.total_arrivals(),
                    cluster.total_departures(),
                    cluster.rejected_arrivals(),
                ),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }
}

proptest! {
    // Fault runs stack crashes, rollbacks and retries on top of the epoch
    // loop; a few cases per property cover the policy x planner-mode grid
    // because every divergence or conservation break is deterministic.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// VM conservation holds under injected faults across every policy and
    /// both planner modes: after every epoch, each VM ever admitted is
    /// accounted for exactly once — resident, in flight, orphaned in the
    /// retry queue, or departed with its report archived. Crashes, aborts
    /// and retry rejections never lose or duplicate a VM, and the orphan
    /// ledger balances exactly.
    #[test]
    fn faults_conserve_vms_across_policies_and_planner_modes(
        cells in 2usize..5,
        vm_count in 3usize..9,
        policy in arb_policy(),
        cost_aware in 0u32..2,
        seed in 0u64..1_000,
        crash_rate in 0.0f64..0.8,
        abort_rate in 0.0f64..1.2,
        slowdown_rate in 0.0f64..0.5,
    ) {
        let apps = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
        let config = ClusterConfig::new(cells, 256)
            .with_epoch_ticks(3)
            .with_policy(policy)
            .with_planner(
                PlannerConfig::default()
                    .with_max_moves(3)
                    .with_polluter_threshold(200.0)
                    .with_cost_aware(cost_aware == 1),
            );
        let mut cluster = Cluster::new(config);
        for i in 0..vm_count {
            let app = apps[i % apps.len()];
            cluster
                .add_vm(
                    CellId(i % cells),
                    VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                    Box::new(SpecWorkload::new(app, 256, seed.wrapping_add(i as u64))),
                )
                .unwrap();
        }
        cluster.install_faults(FaultPlan::new(
            FaultPlanConfig::new(seed ^ 0xFA11)
                .with_crash_rate(crash_rate)
                .with_slowdown_rate(slowdown_rate)
                .with_abort_rate(abort_rate)
                .with_down_epochs(2)
                .with_max_retries(3),
        ));
        for epoch in 0..8 {
            cluster.run_epoch().unwrap();
            if let Err(violation) = cluster.verify_conservation() {
                prop_assert!(false, "epoch {}: {}", epoch, violation);
            }
        }
        let faults = cluster.total_faults();
        prop_assert_eq!(
            faults.orphaned,
            faults.readmitted + faults.rejected_orphans + cluster.orphan_count() as u64,
            "the orphan ledger must balance: {:?}",
            faults
        );
    }

    /// Checkpoint/restore is bit-identical: running `k` epochs straight
    /// equals cloning after `j` and resuming the clone for `k - j`, with a
    /// fault plan installed, across every policy, both planner modes and
    /// every monitoring strategy (the shadow caches of simulator
    /// attribution and the socket-dedication state machine are copied
    /// too).
    #[test]
    fn restore_resumes_bit_identically(
        cells in 2usize..4,
        vm_count in 2usize..7,
        policy in arb_policy(),
        cost_aware in 0u32..2,
        strategy in arb_strategy(),
        seed in 0u64..1_000,
        split in 1u64..6,
    ) {
        let apps = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
        let total = 6u64;
        let j = split.min(total - 1);
        let build = || {
            let config = ClusterConfig::new(cells, 256)
                .with_epoch_ticks(3)
                .with_policy(policy)
                .with_planner(
                    PlannerConfig::default()
                        .with_max_moves(3)
                        .with_polluter_threshold(200.0)
                        .with_cost_aware(cost_aware == 1),
                )
                .with_strategy(strategy);
            let mut cluster = Cluster::new(config);
            for i in 0..vm_count {
                let app = apps[i % apps.len()];
                cluster
                    .add_vm(
                        CellId(i % cells),
                        VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                        Box::new(SpecWorkload::new(app, 256, seed.wrapping_add(i as u64))),
                    )
                    .unwrap();
            }
            cluster.install_faults(FaultPlan::new(
                FaultPlanConfig::new(seed ^ 0xC4EC)
                    .with_crash_rate(0.4)
                    .with_abort_rate(0.6)
                    .with_down_epochs(2),
            ));
            cluster
        };
        let mut straight = build();
        straight.run_epochs(total).unwrap();
        let mut first = build();
        first.run_epochs(j).unwrap();
        let mut resumed = first.clone();
        prop_assert_eq!(resumed.epoch(), j);
        resumed.run_epochs(total - j).unwrap();
        prop_assert_eq!(straight.all_reports(), resumed.all_reports());
        prop_assert_eq!(straight.history().to_vec(), resumed.history().to_vec());
        prop_assert_eq!(straight.occupancies(), resumed.occupancies());
        prop_assert_eq!(straight.total_migrations(), resumed.total_migrations());
        prop_assert_eq!(straight.total_faults(), resumed.total_faults());
        prop_assert_eq!(straight.orphan_count(), resumed.orphan_count());
        straight.verify_conservation().unwrap();
        resumed.verify_conservation().unwrap();
    }

    /// Serial and cell-parallel epochs stay bit-identical with a fault plan
    /// injecting crashes, slowdowns and aborts: fault application is
    /// control-plane work between epochs, so thread scheduling must not
    /// leak into any report, counter or retry decision.
    #[test]
    fn fault_epochs_are_bit_identical_serial_vs_parallel(
        cells in 2usize..5,
        vm_count in 2usize..8,
        policy in arb_policy(),
        seed in 0u64..1_000,
        crash_rate in 0.0f64..0.7,
        abort_rate in 0.0f64..1.0,
    ) {
        let apps = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
        let run = |parallel: bool| {
            let config = ClusterConfig::new(cells, 256)
                .with_epoch_ticks(3)
                .with_policy(policy)
                .with_planner(
                    PlannerConfig::default()
                        .with_max_moves(3)
                        .with_polluter_threshold(200.0)
                        .with_cost_aware(true),
                )
                .with_parallel_cells(parallel);
            let mut cluster = Cluster::new(config);
            for i in 0..vm_count {
                let app = apps[i % apps.len()];
                cluster
                    .add_vm(
                        CellId(i % cells),
                        VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                        Box::new(SpecWorkload::new(app, 256, seed.wrapping_add(i as u64))),
                    )
                    .unwrap();
            }
            cluster.install_faults(FaultPlan::new(
                FaultPlanConfig::new(seed ^ 0x5E71A1)
                    .with_crash_rate(crash_rate)
                    .with_slowdown_rate(0.3)
                    .with_abort_rate(abort_rate)
                    .with_down_epochs(2),
            ));
            cluster.run_epochs(7).unwrap();
            cluster.verify_conservation().unwrap();
            (
                cluster.all_reports(),
                cluster.history().to_vec(),
                cluster.occupancies(),
                cluster.total_faults(),
                cluster.orphan_count(),
            )
        };
        prop_assert_eq!(run(false), run(true));
    }
}

proptest! {
    // Trace runs execute three full clusters per case (untraced, traced
    // serial, traced cell-parallel); a handful of cases covers the grid
    // because any divergence is deterministic.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tracing is pure observability: with identical seeds, a traced run's
    /// reports, history and occupancies byte-equal an untraced run's (the
    /// trace plane never perturbs the simulation) — and with a fault plan
    /// installed, the serial and cell-parallel merged traces render
    /// byte-identically (cell sinks are absorbed in cell-id order after
    /// every cell finishes, so thread scheduling cannot leak in).
    #[test]
    fn tracing_never_perturbs_results_and_merges_deterministically(
        cells in 2usize..4,
        vm_count in 2usize..7,
        policy in arb_policy(),
        seed in 0u64..1_000,
    ) {
        use kyoto_cluster::TraceConfig;
        use kyoto_trace::TraceDoc;
        let apps = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
        let run = |parallel: bool, trace: TraceConfig| {
            let config = ClusterConfig::new(cells, 256)
                .with_epoch_ticks(3)
                .with_policy(policy)
                .with_planner(
                    PlannerConfig::default()
                        .with_max_moves(3)
                        .with_polluter_threshold(200.0),
                )
                .with_parallel_cells(parallel)
                .with_trace(trace);
            let mut cluster = Cluster::new(config);
            for i in 0..vm_count {
                let app = apps[i % apps.len()];
                cluster
                    .add_vm(
                        CellId(i % cells),
                        VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                        Box::new(SpecWorkload::new(app, 256, seed.wrapping_add(i as u64))),
                    )
                    .unwrap();
            }
            cluster.install_faults(FaultPlan::new(
                FaultPlanConfig::new(seed ^ 0x7AACE)
                    .with_crash_rate(0.4)
                    .with_abort_rate(0.6)
                    .with_down_epochs(2),
            ));
            cluster.run_epochs(5).unwrap();
            let rendered = TraceDoc::from_sink(cluster.trace()).render();
            (
                (
                    cluster.all_reports(),
                    cluster.history().to_vec(),
                    cluster.occupancies(),
                    cluster.total_faults(),
                ),
                rendered,
            )
        };
        let (untraced, off_render) = run(false, TraceConfig::Off);
        let (serial, serial_render) = run(false, TraceConfig::On);
        let (parallel, parallel_render) = run(true, TraceConfig::On);
        prop_assert_eq!(&untraced, &serial, "tracing must not change results");
        prop_assert_eq!(&serial, &parallel);
        prop_assert_eq!(&serial_render, &parallel_render, "merged traces must not depend on cell parallelism");
        prop_assert!(TraceDoc::parse(&off_render).unwrap().is_empty(), "a disabled sink records nothing");
        prop_assert!(!TraceDoc::parse(&serial_render).unwrap().is_empty(), "an enabled sink records the run");
    }
}

/// A restored cluster's trace continues bit-identically: the checkpoint
/// carries the cluster sink, the control-plane cursor and every cell
/// engine's sink, so `trace(run(k))` equals
/// `trace(restore(checkpoint(run(j))).run(k - j))`.
#[test]
fn restored_cluster_trace_resumes_bit_identically() {
    use kyoto_cluster::TraceConfig;
    use kyoto_trace::TraceDoc;
    let apps = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
    let build = || {
        let config = ClusterConfig::new(3, 256)
            .with_epoch_ticks(3)
            .with_policy(ConsolidationPolicy::PollutionAware)
            .with_planner(
                PlannerConfig::default()
                    .with_max_moves(3)
                    .with_polluter_threshold(200.0),
            )
            .with_trace(TraceConfig::On);
        let mut cluster = Cluster::new(config);
        for i in 0..6 {
            let app = apps[i % apps.len()];
            cluster
                .add_vm(
                    CellId(i % 3),
                    VmConfig::new(format!("vm{i}-{}", app.name())).with_llc_cap(50.0),
                    Box::new(SpecWorkload::new(app, 256, 0xABC + i as u64)),
                )
                .unwrap();
        }
        cluster.install_faults(FaultPlan::new(
            FaultPlanConfig::new(0xC4EC)
                .with_crash_rate(0.4)
                .with_abort_rate(0.6)
                .with_down_epochs(2),
        ));
        cluster
    };
    let mut straight = build();
    straight.run_epochs(6).unwrap();
    let mut first = build();
    first.run_epochs(2).unwrap();
    let mut resumed = first.clone();
    resumed.run_epochs(4).unwrap();
    assert_eq!(
        TraceDoc::from_sink(straight.trace()).render(),
        TraceDoc::from_sink(resumed.trace()).render()
    );
    assert_eq!(straight.all_reports(), resumed.all_reports());
}

/// Builds the lifecycle fixture: one sleep-mostly service (interactive
/// burst, wake timer scripted at `wake_at`) plus one batch VM on cell 0
/// and one batch VM on every other cell. The planner only ever moves VMs
/// for drains (the pollution threshold is unreachable), so migrations in
/// these tests are exactly the ones the test scripts.
fn lifecycle_cluster(cells: usize, epoch_ticks: u64, wake_at: u64, seed: u64) -> Cluster {
    use kyoto_hypervisor::lifecycle::WakeSource;
    use kyoto_workloads::interactive::Interactive;
    let mut cluster = Cluster::new(
        ClusterConfig::new(cells, 256)
            .with_epoch_ticks(epoch_ticks)
            .with_policy(ConsolidationPolicy::PollutionAware)
            .with_planner(
                PlannerConfig::default()
                    .with_max_moves(4)
                    .with_polluter_threshold(1e12),
            ),
    );
    cluster
        .add_vm(
            CellId(0),
            VmConfig::new("sleeper").with_wake_source(WakeSource::new(seed).with_timer(wake_at)),
            Box::new(Interactive::new(
                SpecWorkload::new(SpecApp::Gcc, 256, seed),
                48,
            )),
        )
        .unwrap();
    for cell in 0..cells {
        cluster
            .add_vm(
                CellId(cell),
                VmConfig::new(format!("batch{cell}")),
                Box::new(SpecWorkload::new(SpecApp::Lbm, 256, seed + 1 + cell as u64)),
            )
            .unwrap();
    }
    cluster
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Live migration preserves the vCPU lifecycle exactly: a service that
    /// blocked after its first burst (its wake timer never fires) stays
    /// Blocked through an arbitrary drain-driven migration — it is never
    /// spuriously scheduled, accrues no further cycles, and only its
    /// blocked-tick counter grows — while batch VMs never block at all.
    #[test]
    fn migration_never_disturbs_a_blocked_vm(
        cells in 2usize..4,
        epoch_ticks in 2u64..6,
        drain_epoch in 0u64..3,
        seed in 0u64..1000,
    ) {
        use kyoto_hypervisor::lifecycle::VcpuState;
        let mut cluster = lifecycle_cluster(cells, epoch_ticks, u64::MAX, seed);
        let sleeper = FleetVmId(1);
        let mut last_blocked = 0u64;
        for epoch in 0..6u64 {
            if epoch == drain_epoch {
                cluster.set_draining(CellId(0), true).unwrap();
            }
            cluster.run_epoch().unwrap();
            let report = cluster.report(sleeper).unwrap();
            prop_assert_eq!(
                report.ticks_scheduled, 1,
                "a blocked service must never run again (epoch {})", epoch
            );
            let state = cluster.vcpu_state(sleeper);
            prop_assert!(
                state.is_none() || state == Some(VcpuState::Blocked),
                "between epochs a sleeper is Blocked or in flight, got {:?}",
                state
            );
            prop_assert!(report.ticks_blocked >= last_blocked, "blocked time is monotone");
            last_blocked = report.ticks_blocked;
            for batch in cluster.reports() {
                if batch.vm != sleeper {
                    prop_assert_eq!(batch.ticks_blocked, 0, "batch VMs never block");
                }
            }
        }
        let report = cluster.report(sleeper).unwrap();
        prop_assert!(report.migrations >= 1, "the drain must have evacuated the sleeper");
        prop_assert!(report.ticks_blocked > 0);
        cluster.verify_conservation().unwrap();
    }
}

/// A pending timer wake travels with the VM: the sleeper blocks on cell 0,
/// is evacuated by a drain while asleep, and its timer — scripted at
/// wake-clock 10 — fires on the destination cell at exactly the resident
/// tick the clock reaches 10, not an epoch earlier or later.
#[test]
fn a_pending_wake_survives_migration_and_fires_on_the_destination() {
    use kyoto_hypervisor::lifecycle::VcpuState;
    let mut cluster = lifecycle_cluster(2, 4, 10, 7);
    let sleeper = FleetVmId(1);

    // Epoch 0: the first burst runs one tick, then the vCPU parks.
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.vcpu_state(sleeper), Some(VcpuState::Blocked));
    assert_eq!(cluster.wake_clock(sleeper), Some(4));
    assert_eq!(cluster.report(sleeper).unwrap().ticks_scheduled, 1);

    // Epoch 1 runs with cell 0 draining: at its boundary the sleeper is
    // taken mid-sleep (wake clock 8) and goes in flight.
    cluster.set_draining(CellId(0), true).unwrap();
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.vcpu_state(sleeper), None, "in flight between cells");
    assert_eq!(cluster.report(sleeper).unwrap().migrations, 1);
    assert_eq!(cluster.report(sleeper).unwrap().ticks_scheduled, 1);

    // Epoch 2: one blackout tick, then the sleeper lands on cell 1 still
    // Blocked. Its clock resumes at 8, so the timer fires on this cell's
    // third resident tick (clock 10): exactly one more scheduled tick,
    // after which the drained burst parks the vCPU again.
    cluster.run_epoch().unwrap();
    let report = cluster.report(sleeper).unwrap();
    assert_eq!(
        report.ticks_scheduled, 2,
        "the pending wake fired on arrival's cell"
    );
    assert_eq!(cluster.wake_clock(sleeper), Some(11));
    assert_eq!(cluster.vcpu_state(sleeper), Some(VcpuState::Blocked));
    assert_eq!(
        report.ticks_blocked, 9,
        "3 blocked ticks on cell 0's first epoch, 4 on its second, 2 on cell 1"
    );
    cluster.verify_conservation().unwrap();
}
