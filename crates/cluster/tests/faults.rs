//! Integration tests of the fault-injection and recovery subsystem: cell
//! crashes and reboots, the orphan retry queue (re-admission, backoff,
//! rejection), mid-migration aborts at all three protocol points, crash
//! interactions with churn and maintenance drains, and checkpoints: their
//! error paths, and a restored copy that reads like the original.
//!
//! Everything here uses *scripted* faults so each scenario is exact; the
//! seeded-rate streams are covered by the property tests.

use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::error::ClusterError;
use kyoto_cluster::events::FleetEvent;
use kyoto_cluster::faults::{AbortPoint, FaultEvent, FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_sim::workload::{ComputeOnly, Op, Workload};
use kyoto_workloads::spec::{SpecApp, SpecWorkload};

const SCALE: u64 = 256;

fn workload(seed: u64) -> Box<dyn Workload> {
    Box::new(SpecWorkload::new(SpecApp::Gcc, SCALE, seed))
}

/// A cluster of `cells` cells seeded with `vms` VMs round-robin.
fn seeded(cells: usize, vms: usize) -> Cluster {
    let mut cluster = Cluster::new(ClusterConfig::new(cells, SCALE).with_epoch_ticks(4));
    for i in 0..vms {
        cluster
            .add_vm(
                CellId(i % cells),
                VmConfig::new(format!("vm{i}")),
                workload(0xfa + i as u64),
            )
            .unwrap();
    }
    cluster
}

fn no_arrivals(_: u64) -> (VmConfig, Box<dyn Workload>) {
    unreachable!("no arrivals scheduled")
}

#[test]
fn scripted_crash_orphans_residents_then_readmits_and_reboots() {
    let mut cluster = seeded(2, 4);
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0)
            .with_down_epochs(2)
            .with_scripted(1, FaultEvent::CellCrash { pick: 0 }),
    ));
    cluster.run_epochs(2).unwrap();
    assert!(cluster.is_down(CellId(0)));
    assert_eq!(cluster.total_faults().crashes, 1);
    assert_eq!(cluster.total_faults().orphaned, 2);
    assert_eq!(cluster.orphan_count(), 2);
    assert_eq!(
        cluster.occupancies(),
        vec![0, 2],
        "orphans claim no cell until re-admitted"
    );
    assert_eq!(cluster.reports().len(), 4, "orphans still report");
    cluster.verify_conservation().unwrap();

    // Epoch 2: the orphans' first retry is due; cell 1 has room for both.
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.total_faults().readmitted, 2);
    assert_eq!(cluster.orphan_count(), 0);
    assert_eq!(cluster.occupancies(), vec![0, 4]);
    assert_eq!(cluster.mean_readmission_latency_epochs(), Some(1.0));

    // Epoch 3: the down time (2 epochs from the crash at epoch 1) is over.
    cluster.run_epoch().unwrap();
    assert!(!cluster.is_down(CellId(0)));
    assert_eq!(cluster.total_faults().recoveries, 1);
    cluster.verify_conservation().unwrap();

    // The rebooted cell is a first-class citizen again: load balancing
    // repopulates it.
    cluster.run_epochs(4).unwrap();
    assert!(
        cluster.occupancies()[0] > 0,
        "the rebooted cell is repopulated: {:?}",
        cluster.occupancies()
    );
    cluster.verify_conservation().unwrap();
}

#[test]
fn orphans_back_off_then_are_rejected_with_reports_archived() {
    // Single cell: while it is down there is nowhere to re-admit, so the
    // orphans burn through their retry budget and are rejected — loudly,
    // with their final reports archived.
    let mut cluster = seeded(1, 2);
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0)
            .with_down_epochs(4)
            .with_max_retries(2)
            .with_scripted(1, FaultEvent::CellCrash { pick: 0 }),
    ));
    cluster.run_epochs(5).unwrap();
    let faults = cluster.total_faults();
    assert_eq!(faults.orphaned, 2);
    assert_eq!(
        faults.retry_backoffs, 2,
        "one backoff each before rejection"
    );
    assert_eq!(faults.rejected_orphans, 2);
    assert_eq!(faults.readmitted, 0);
    assert_eq!(cluster.orphan_count(), 0);
    assert_eq!(cluster.reports().len(), 0, "nothing is live");
    assert_eq!(
        cluster.departed_reports().len(),
        2,
        "rejected orphans are archived, never silently dropped"
    );
    assert!(cluster.departed_reports()[0].pmcs.instructions > 0);
    assert_eq!(cluster.all_reports().len(), 2);
    cluster.verify_conservation().unwrap();
}

#[test]
fn departure_can_cancel_a_retry_queued_vm() {
    let mut cluster = seeded(2, 2);
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0).with_scripted(0, FaultEvent::CellCrash { pick: 0 }),
    ));
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.orphan_count(), 1);
    // The departure candidates at the next boundary are [fvm1 (orphaned),
    // fvm2 (resident)] in fleet-id order; pick 0 selects the orphan. Events
    // apply before the fault boundary, so the cancellation beats the
    // orphan's first retry.
    cluster
        .run_epoch_with_events(&[FleetEvent::VmDeparture { pick: 0 }], &mut no_arrivals)
        .unwrap();
    assert_eq!(cluster.total_departures(), 1);
    assert_eq!(
        cluster.orphan_count(),
        0,
        "the retry entry left with the VM"
    );
    assert_eq!(cluster.total_faults().readmitted, 0);
    assert_eq!(cluster.departed_reports().len(), 1);
    assert_eq!(cluster.reports().len(), 1);
    cluster.verify_conservation().unwrap();
}

#[test]
fn join_does_not_resurrect_a_crashed_cell() {
    let mut cluster = seeded(2, 2);
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0)
            .with_down_epochs(3)
            .with_scripted(0, FaultEvent::CellCrash { pick: 0 }),
    ));
    cluster.run_epoch().unwrap();
    assert!(cluster.is_down(CellId(0)));
    // A scheduled CellJoin of the crashed cell toggles the draining flag
    // only: the machine stays down until its reboot epoch.
    cluster
        .run_epoch_with_events(&[FleetEvent::CellJoin(CellId(0))], &mut no_arrivals)
        .unwrap();
    assert!(cluster.is_down(CellId(0)), "a join cannot un-crash a cell");
    cluster.run_epochs(2).unwrap();
    assert!(!cluster.is_down(CellId(0)), "the reboot clock still runs");
    cluster.verify_conservation().unwrap();
}

#[test]
fn crash_during_drain_does_not_deadlock_and_the_drain_survives() {
    let mut cluster = seeded(2, 4);
    cluster.set_draining(CellId(0), true).unwrap();
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0)
            .with_down_epochs(2)
            .with_scripted(1, FaultEvent::CellCrash { pick: 0 }),
    ));
    // The crash beats the evacuation: cell 0's residents are orphaned
    // instead of migrated. The run must settle — orphans re-admit onto
    // cell 1 (admission skips the draining cell even after it reboots).
    cluster.run_epochs(8).unwrap();
    assert!(
        cluster.is_draining(CellId(0)),
        "the drain survives the crash"
    );
    assert!(!cluster.is_down(CellId(0)));
    assert_eq!(cluster.occupancies(), vec![0, 4]);
    assert_eq!(cluster.orphan_count(), 0);
    assert_eq!(
        cluster.total_faults().readmitted,
        cluster.total_faults().orphaned
    );
    cluster.verify_conservation().unwrap();
}

#[test]
fn crash_orphans_an_in_flight_arrival_before_placement() {
    // Epoch 0's boundary plans a balancing move into cell 1; cell 1 then
    // crashes at epoch 1's boundary, before the arrival was ever admitted.
    // The in-flight VM must be orphaned, not lost.
    let config = ClusterConfig::new(2, SCALE)
        .with_epoch_ticks(4)
        .with_policy(ConsolidationPolicy::LoadBalance)
        .with_planner(PlannerConfig::default().with_max_moves(1));
    let mut cluster = Cluster::new(config);
    for i in 0..2 {
        cluster
            .add_vm(
                CellId(0),
                VmConfig::new(format!("vm{i}")),
                workload(i as u64),
            )
            .unwrap();
    }
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0).with_scripted(1, FaultEvent::CellCrash { pick: 1 }),
    ));
    cluster.run_epoch().unwrap();
    assert_eq!(
        cluster.total_migrations(),
        1,
        "the move was planned and applied"
    );
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.total_faults().crashes, 1);
    assert_eq!(
        cluster.total_faults().orphaned,
        1,
        "the un-placed arrival was orphaned"
    );
    assert_eq!(cluster.reports().len(), 2, "no VM was lost");
    cluster.verify_conservation().unwrap();
    // Its retry lands back on cell 0 — the only cell standing.
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.total_faults().readmitted, 1);
    assert_eq!(cluster.occupancies(), vec![2, 0]);
    cluster.verify_conservation().unwrap();
}

#[test]
fn crash_can_race_an_admission_decision_at_the_same_boundary() {
    // A churn arrival is admitted onto the emptiest cell; the *same*
    // boundary then crashes that cell (events apply before faults). The
    // newborn VM must ride the orphan path like any resident.
    let mut cluster = seeded(2, 3); // cell0: 2 VMs, cell1: 1 VM
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0).with_scripted(0, FaultEvent::CellCrash { pick: 1 }),
    ));
    let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
        (
            VmConfig::new(format!("arrival{index}")),
            workload(0xdead + index),
        )
    };
    cluster
        .run_epoch_with_events(&[FleetEvent::VmArrival], &mut spawn)
        .unwrap();
    assert_eq!(cluster.total_arrivals(), 1);
    assert_eq!(
        cluster.total_faults().orphaned,
        2,
        "newborn + prior resident"
    );
    assert_eq!(cluster.reports().len(), 4);
    cluster.verify_conservation().unwrap();
    cluster.run_epochs(3).unwrap();
    assert_eq!(cluster.orphan_count(), 0, "both orphans were readmitted");
    cluster.verify_conservation().unwrap();
}

/// Sets up the canonical abort scenario: 2 VMs on cell 0, load balancing
/// with one move per epoch, and the given abort scripted against the plan
/// of every epoch in `0..epochs` (the balancer retries a failed move at
/// the next boundary, so a single scripted abort only delays it).
fn abort_cluster(at: AbortPoint, epochs: u64) -> Cluster {
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
                workload(i as u64),
            )
            .unwrap();
    }
    let mut plan = FaultPlanConfig::new(0);
    for epoch in 0..epochs {
        plan = plan.with_scripted(epoch, FaultEvent::MigrationAbort { pick: 0, at });
    }
    cluster.install_faults(FaultPlan::new(plan));
    cluster
}

#[test]
fn source_abort_is_a_free_cancel() {
    let mut cluster = abort_cluster(AbortPoint::Source, 2);
    cluster.run_epochs(2).unwrap();
    assert_eq!(cluster.total_faults().aborted_source, 2);
    assert_eq!(cluster.total_migrations(), 0, "cancelled moves never count");
    assert_eq!(cluster.occupancies(), vec![2, 0], "the VM never left");
    // Nothing was suspended, so nobody paid downtime for the aborts.
    for report in cluster.reports() {
        assert_eq!(report.migrations, 0);
        assert_eq!(report.ticks_resident, 12, "no blackout was charged");
    }
    cluster.verify_conservation().unwrap();
    // An abort cancels the attempt, not the policy: once the faults stop,
    // the balancer's next plan goes through.
    cluster.run_epochs(2).unwrap();
    assert_eq!(cluster.total_migrations(), 1);
    assert_eq!(cluster.occupancies(), vec![1, 1]);
}

#[test]
fn in_flight_abort_rolls_back_to_the_source_with_all_the_cost() {
    let mut cluster = abort_cluster(AbortPoint::InFlight, 2);
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.total_faults().aborted_in_flight, 1);
    assert_eq!(cluster.total_migrations(), 0);
    assert_eq!(
        cluster.occupancies(),
        vec![2, 0],
        "the rollback re-queues the VM at its source"
    );
    cluster.verify_conservation().unwrap();
    cluster.run_epoch().unwrap();
    let reports = cluster.reports();
    let victim: Vec<_> = reports.iter().filter(|r| r.ticks_resident < 12).collect();
    assert_eq!(victim.len(), 1, "exactly one VM paid the blackout");
    assert_eq!(
        victim[0].ticks_resident, 10,
        "downtime was charged once per rollback"
    );
    assert_eq!(
        victim[0].migrations, 0,
        "an aborted move is not a migration"
    );
    assert!(
        victim[0].flushed_lines > 0,
        "extraction flushed the source cache before the abort"
    );
    cluster.verify_conservation().unwrap();
}

#[test]
fn dest_abort_additionally_stalls_the_destination() {
    // Give the destination a resident so the phantom blackout has a victim.
    let run = |at: Option<AbortPoint>| {
        let config = ClusterConfig::new(2, SCALE)
            .with_epoch_ticks(6)
            .with_policy(ConsolidationPolicy::LoadBalance)
            .with_planner(
                PlannerConfig::default()
                    .with_max_moves(1)
                    .with_downtime_ticks(2),
            );
        let mut cluster = Cluster::new(config);
        for i in 0..3 {
            cluster
                .add_vm(
                    CellId(0),
                    VmConfig::new(format!("vm{i}")),
                    workload(i as u64),
                )
                .unwrap();
        }
        let bystander = cluster
            .add_vm(CellId(1), VmConfig::new("bystander"), workload(99))
            .unwrap();
        if let Some(at) = at {
            cluster.install_faults(FaultPlan::new(
                FaultPlanConfig::new(0)
                    .with_scripted(0, FaultEvent::MigrationAbort { pick: 0, at }),
            ));
        }
        cluster.run_epochs(2).unwrap();
        cluster.verify_conservation().unwrap();
        (cluster.report(bystander).unwrap(), cluster.total_faults())
    };
    let (clean, _) = run(None);
    let (stalled, faults) = run(Some(AbortPoint::Dest));
    assert_eq!(faults.aborted_dest, 1);
    assert!(
        stalled.pmcs.instructions < clean.pmcs.instructions,
        "the phantom blackout stalls the destination's residents: {} vs {}",
        stalled.pmcs.instructions,
        clean.pmcs.instructions
    );
}

#[test]
fn slowdown_degrades_throughput_then_recovers() {
    let mut cluster = Cluster::new(ClusterConfig::new(1, SCALE).with_epoch_ticks(4));
    cluster
        .add_vm(
            CellId(0),
            VmConfig::new("steady"),
            Box::new(ComputeOnly::new(1)),
        )
        .unwrap();
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0)
            .with_slowdown_factor(4)
            .with_slowdown_epochs(2)
            .with_scripted(1, FaultEvent::CellSlowdown { pick: 0 }),
    ));
    cluster.run_epochs(4).unwrap();
    assert_eq!(cluster.total_faults().slowdowns, 1);
    let per_epoch: Vec<u64> = cluster
        .history()
        .iter()
        .map(|epoch| epoch.cells[0].instructions)
        .collect();
    assert!(
        per_epoch[1] < per_epoch[0] / 2,
        "the divided cycle budget must show up in throughput: {per_epoch:?}"
    );
    assert_eq!(per_epoch[1], per_epoch[2], "the slowdown lasts two epochs");
    assert_eq!(
        per_epoch[3], per_epoch[0],
        "full speed returns when the slowdown expires"
    );
}

#[test]
fn quiet_fleet_reports_no_faults() {
    let mut cluster = seeded(2, 4);
    cluster.run_epochs(3).unwrap();
    assert!(cluster.total_faults().is_quiet());
    assert!(cluster
        .history()
        .iter()
        .all(|epoch| epoch.faults.is_quiet()));
    assert_eq!(cluster.mean_readmission_latency_epochs(), None);
    cluster.verify_conservation().unwrap();
}

/// A workload that opts out of cloning (the `try_clone_box` default), to
/// exercise the checkpoint error paths.
struct Sealed(ComputeOnly);

impl Workload for Sealed {
    fn next_op(&mut self) -> Op {
        self.0.next_op()
    }

    fn name(&self) -> &str {
        "sealed"
    }

    fn working_set_bytes(&self) -> u64 {
        self.0.working_set_bytes()
    }
}

#[test]
fn checkpoint_names_the_cell_hosting_an_uncloneable_workload() {
    let mut cluster = seeded(2, 1);
    cluster
        .add_vm(
            CellId(1),
            VmConfig::new("opaque"),
            Box::new(Sealed(ComputeOnly::new(1))),
        )
        .unwrap();
    cluster.run_epoch().unwrap();
    match cluster.checkpoint() {
        Err(ClusterError::Checkpoint { cell, .. }) => assert_eq!(cell, CellId(1)),
        other => panic!("expected a checkpoint error, got {other:?}"),
    }
}

#[test]
fn checkpoint_names_an_uncloneable_orphan() {
    let mut cluster = Cluster::new(ClusterConfig::new(1, SCALE).with_epoch_ticks(4));
    let vm = cluster
        .add_vm(
            CellId(0),
            VmConfig::new("opaque"),
            Box::new(Sealed(ComputeOnly::new(1))),
        )
        .unwrap();
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0).with_scripted(0, FaultEvent::CellCrash { pick: 0 }),
    ));
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.orphan_count(), 1);
    match cluster.checkpoint() {
        Err(ClusterError::UncloneableVm { vm: offender }) => assert_eq!(offender, vm),
        other => panic!("expected an uncloneable-VM error, got {other:?}"),
    }
}

#[test]
fn checkpoint_round_trips_mid_crash() {
    // Checkpoint while a cell is down and orphans sit in the retry queue:
    // the restored fleet must replay the recovery identically.
    let mut cluster = seeded(2, 4);
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(7)
            .with_down_epochs(3)
            .with_scripted(1, FaultEvent::CellCrash { pick: 0 }),
    ));
    cluster.run_epochs(2).unwrap();
    assert!(cluster.orphan_count() > 0, "checkpoint taken mid-recovery");
    let checkpoint = cluster.checkpoint().unwrap();
    assert_eq!(checkpoint.queued_orphans(), cluster.orphan_count());
    assert_eq!(checkpoint.live_vms(), 4);
    let mut restored = Cluster::restore(checkpoint);
    cluster.run_epochs(4).unwrap();
    restored.run_epochs(4).unwrap();
    assert_eq!(cluster.all_reports(), restored.all_reports());
    assert_eq!(cluster.history(), restored.history());
    assert_eq!(cluster.total_faults(), restored.total_faults());
    cluster.verify_conservation().unwrap();
    restored.verify_conservation().unwrap();
}

/// Every read-only accessor of `restored` answers as `original`'s does.
fn assert_reads_alike(original: &Cluster, restored: &Cluster) {
    use kyoto_trace::TraceDoc;
    assert_eq!(restored.epoch(), original.epoch());
    assert_eq!(restored.total_migrations(), original.total_migrations());
    assert_eq!(restored.total_arrivals(), original.total_arrivals());
    assert_eq!(restored.total_departures(), original.total_departures());
    assert_eq!(restored.rejected_arrivals(), original.rejected_arrivals());
    assert_eq!(restored.total_faults(), original.total_faults());
    assert_eq!(restored.orphan_count(), original.orphan_count());
    assert_eq!(
        restored.mean_readmission_latency_epochs(),
        original.mean_readmission_latency_epochs()
    );
    assert_eq!(
        restored.total_flushed_lines(),
        original.total_flushed_lines()
    );
    assert_eq!(restored.all_reports(), original.all_reports());
    assert_eq!(restored.occupancies(), original.occupancies());
    assert_eq!(restored.snapshot(), original.snapshot());
    assert_eq!(restored.history(), original.history());
    assert_eq!(
        TraceDoc::from_sink(restored.trace()).render(),
        TraceDoc::from_sink(original.trace()).render()
    );
}

/// A restored checkpoint reads exactly like the cluster it copied, before
/// either runs another epoch. It is taken on a traced, churning, faulted
/// fleet while a cell is down, after completed and aborted migrations and
/// a re-admission, with orphans still waiting for a retry, so a field the
/// copy left out shows in some accessor.
#[test]
fn a_restored_checkpoint_reads_like_the_original() {
    use kyoto_cluster::events::{EventSchedule, EventScheduleConfig};
    use kyoto_cluster::TraceConfig;
    let config = ClusterConfig::new(3, SCALE)
        .with_epoch_ticks(3)
        .with_planner(PlannerConfig::default().with_max_moves(3))
        .with_trace(TraceConfig::On);
    let mut cluster = Cluster::new(config);
    for i in 0..6 {
        cluster
            .add_vm(
                CellId(0),
                VmConfig::new(format!("vm{i}")),
                workload(0xc0 + i),
            )
            .unwrap();
    }
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0x5eed)
            .with_abort_rate(0.5)
            .with_down_epochs(4)
            .with_scripted(2, FaultEvent::CellCrash { pick: 0 })
            .with_scripted(6, FaultEvent::CellCrash { pick: 1 }),
    ));
    let schedule = EventSchedule::new(
        EventScheduleConfig::new(0xc4)
            .with_arrival_rate(0.6)
            .with_departure_rate(0.3),
    );
    let mut spawn = |index: u64| (VmConfig::new(format!("arrival{index}")), workload(index));
    let mid_crash = |cluster: &Cluster| {
        let faults = cluster.total_faults();
        cluster.orphan_count() > 0
            && faults.readmitted > 0
            && faults.aborted_migrations() > 0
            && cluster.total_migrations() > 0
            && cluster.total_departures() > 0
            && (0..cluster.num_cells()).any(|cell| cluster.is_down(CellId(cell)))
    };
    let mut epochs = 0;
    while !mid_crash(&cluster) {
        assert!(
            epochs < 12,
            "the scenario never reached its mid-crash state"
        );
        cluster
            .run_epochs_with_schedule(&schedule, 1, &mut spawn)
            .unwrap();
        epochs += 1;
    }
    let restored = Cluster::restore(cluster.checkpoint().unwrap());
    assert_reads_alike(&cluster, &restored);
    restored.verify_conservation().unwrap();
}

#[test]
fn unknown_cells_surface_typed_errors() {
    let mut cluster = seeded(1, 1);
    assert!(matches!(
        cluster.set_draining(CellId(9), true),
        Err(ClusterError::UnknownCell { cell: CellId(9) })
    ));
    assert!(matches!(
        cluster.add_vm(CellId(9), VmConfig::new("x"), workload(1)),
        Err(ClusterError::UnknownCell { cell: CellId(9) })
    ));
    let mut spawn = no_arrivals;
    let err = cluster
        .run_epoch_with_events(&[FleetEvent::CellDrain(CellId(9))], &mut spawn)
        .unwrap_err();
    assert!(err.to_string().contains("unknown cell"));
}

/// A crash preserves the vCPU lifecycle through the orphan retry queue: a
/// service that parked after its first burst is orphaned mid-sleep, waits
/// out the retry backoff, is re-admitted still Blocked with its wake clock
/// intact, and its pending timer fires on the recovery cell at exactly the
/// resident tick the clock reaches the scripted wake — never earlier.
#[test]
fn a_blocked_vm_rides_through_a_crash_and_its_pending_wake_still_fires() {
    use kyoto_cluster::snapshot::FleetVmId;
    use kyoto_hypervisor::lifecycle::{VcpuState, WakeSource};
    use kyoto_workloads::interactive::Interactive;
    let mut cluster = Cluster::new(ClusterConfig::new(2, SCALE).with_epoch_ticks(4));
    cluster
        .add_vm(
            CellId(0),
            VmConfig::new("sleeper").with_wake_source(WakeSource::new(3).with_timer(10)),
            Box::new(Interactive::new(
                SpecWorkload::new(SpecApp::Gcc, SCALE, 3),
                48,
            )),
        )
        .unwrap();
    cluster
        .add_vm(CellId(1), VmConfig::new("batch"), workload(0xbb))
        .unwrap();
    let sleeper = FleetVmId(1);
    cluster.install_faults(FaultPlan::new(
        FaultPlanConfig::new(0)
            .with_down_epochs(2)
            .with_scripted(1, FaultEvent::CellCrash { pick: 0 }),
    ));

    // Epoch 0: the first burst runs one tick, then the vCPU parks.
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.vcpu_state(sleeper), Some(VcpuState::Blocked));
    assert_eq!(cluster.wake_clock(sleeper), Some(4));

    // Epoch 1: cell 0 crashes at the boundary before its ticks run — the
    // sleeper is orphaned mid-sleep with wake clock 4.
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.orphan_count(), 1);
    assert_eq!(
        cluster.vcpu_state(sleeper),
        None,
        "orphans are resident nowhere"
    );
    assert_eq!(cluster.wake_clock(sleeper), None);

    // Epoch 2: the retry is due; the sleeper lands on cell 1 *still
    // Blocked* after the admission blackout and sleeps through the rest of
    // the epoch (clock 4 -> 7). Re-admission must not fake a wake.
    cluster.run_epoch().unwrap();
    assert_eq!(cluster.total_faults().readmitted, 1);
    assert_eq!(cluster.vcpu_state(sleeper), Some(VcpuState::Blocked));
    assert_eq!(cluster.wake_clock(sleeper), Some(7));
    assert_eq!(
        cluster.report(sleeper).unwrap().ticks_scheduled,
        1,
        "only the pre-crash burst has ever run"
    );

    // Epoch 3: the clock sweeps 7..=10, so the scripted timer fires on the
    // recovery cell's fourth resident tick: one more scheduled tick, then
    // the drained burst parks the vCPU again.
    cluster.run_epoch().unwrap();
    let report = cluster.report(sleeper).unwrap();
    assert_eq!(
        report.ticks_scheduled, 2,
        "the pending wake fired after recovery"
    );
    assert_eq!(cluster.wake_clock(sleeper), Some(11));
    assert_eq!(cluster.vcpu_state(sleeper), Some(VcpuState::Blocked));
    assert_eq!(
        report.ticks_blocked, 9,
        "3 blocked ticks before the crash, 3 after re-admission, 3 before the wake"
    );
    cluster.verify_conservation().unwrap();
}
