//! Property-based tests of the scheduler substrates.

use kyoto_hypervisor::cfs::{CfsConfig, CfsScheduler};
use kyoto_hypervisor::credit::{CreditConfig, CreditScheduler};
use kyoto_hypervisor::placement::{place_vms, PlacementPolicy};
use kyoto_hypervisor::scheduler::{Scheduler, TickReport};
use kyoto_hypervisor::vm::{VcpuId, VmConfig, VmId};
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig, NumaNode};
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::SpecApp;
use proptest::prelude::*;

fn report(consumed: u64) -> TickReport {
    TickReport {
        consumed_cycles: consumed,
        budget_cycles: 100_000,
        pmc_delta: PmcSet {
            instructions: consumed / 2,
            unhalted_core_cycles: consumed,
            ..PmcSet::default()
        },
        pollution_events: 0,
        shadow_llc_misses: None,
        tick_ms: 10,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The credit scheduler only ever picks one of the offered candidates,
    /// never a capped-out vCPU, and stays deterministic for a given history.
    #[test]
    fn credit_scheduler_picks_valid_runnable_candidates(
        vcpu_count in 1usize..6,
        caps in prop::collection::vec(prop::option::of(10u32..100), 6),
        schedule in prop::collection::vec((0usize..6, 1_000u64..200_000), 1..100),
    ) {
        let config = CreditConfig::new(2, 100_000, 3);
        let mut scheduler = CreditScheduler::new(config);
        let vcpus: Vec<VcpuId> = (0..vcpu_count)
            .map(|i| VcpuId::new(VmId(i as u16 + 1), 0))
            .collect();
        for (i, vcpu) in vcpus.iter().enumerate() {
            let mut vm_config = VmConfig::new(format!("vm{i}"));
            if let Some(cap) = caps[i] {
                vm_config = vm_config.with_cap_percent(cap);
            }
            scheduler.add_vcpu(*vcpu, &vm_config);
        }
        for (tick, &(who, consumed)) in schedule.iter().enumerate() {
            if let Some(chosen) = scheduler.pick_next(CoreId(0), &vcpus) {
                prop_assert!(vcpus.contains(&chosen));
                prop_assert!(!scheduler.is_capped_out(chosen), "picked a capped-out vCPU");
            }
            // Account arbitrary consumption against an arbitrary vCPU.
            let target = vcpus[who % vcpus.len()];
            scheduler.account(target, &report(consumed));
            scheduler.on_tick(tick as u64);
        }
    }

    /// Credit is conserved: after a refill no vCPU holds more than twice its
    /// fair share, and the scheduler always finds someone runnable when no
    /// cap is configured (work conservation).
    #[test]
    fn credit_scheduler_is_work_conserving_without_caps(
        vcpu_count in 1usize..5,
        burns in prop::collection::vec(1_000u64..1_000_000, 1..60),
    ) {
        let config = CreditConfig::new(4, 100_000, 3);
        let mut scheduler = CreditScheduler::new(config);
        let vcpus: Vec<VcpuId> = (0..vcpu_count)
            .map(|i| VcpuId::new(VmId(i as u16 + 1), 0))
            .collect();
        for (i, vcpu) in vcpus.iter().enumerate() {
            scheduler.add_vcpu(*vcpu, &VmConfig::new(format!("vm{i}")));
        }
        for (tick, &burn) in burns.iter().enumerate() {
            let chosen = scheduler.pick_next(CoreId(0), &vcpus);
            prop_assert!(chosen.is_some(), "an uncapped scheduler must always run someone");
            scheduler.account(chosen.unwrap(), &report(burn));
            scheduler.on_tick(tick as u64);
            for vcpu in &vcpus {
                let fair_share = config.capacity_per_slice() as i64;
                prop_assert!(scheduler.remaining_credit(*vcpu) <= fair_share * 2);
            }
        }
    }

    /// CFS fairness: with equal weights and a long alternating schedule, the
    /// vruntime spread between any two vCPUs stays within one tick's worth.
    #[test]
    fn cfs_keeps_equal_weight_tasks_close(rounds in 10usize..200) {
        let mut scheduler = CfsScheduler::new(CfsConfig::new(100_000, 3));
        let a = VcpuId::new(VmId(1), 0);
        let b = VcpuId::new(VmId(2), 0);
        scheduler.add_vcpu(a, &VmConfig::new("a"));
        scheduler.add_vcpu(b, &VmConfig::new("b"));
        for tick in 0..rounds {
            let chosen = scheduler.pick_next(CoreId(0), &[a, b]).unwrap();
            scheduler.account(chosen, &report(100_000));
            scheduler.on_tick(tick as u64);
        }
        let spread = scheduler.vruntime(a).abs_diff(scheduler.vruntime(b));
        // One tick of weight-1024-normalised runtime for weight 256 is 400_000.
        prop_assert!(spread <= 100_000 * 1024 / 256);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `take_vm` → `admit_vm` is a lossless round trip: the extraction
    /// report equals the pre-extraction report bit-for-bit, and the
    /// workloads resume the exact op stream they would have produced had
    /// they never been taken. This is the rollback primitive the fleet
    /// layer's migration-abort recovery relies on.
    #[test]
    fn take_admit_round_trip_preserves_report_and_workload_state(
        app in prop_oneof![
            Just(SpecApp::Gcc), Just(SpecApp::Lbm), Just(SpecApp::Omnetpp),
            Just(SpecApp::Mcf), Just(SpecApp::Soplex), Just(SpecApp::Blockie),
        ],
        seed in 0u64..1_000,
        ticks in 1u64..10,
    ) {
        const SCALE: u64 = 256;
        let build = || {
            kyoto_hypervisor::xen_hypervisor(
                Machine::new(MachineConfig::scaled_paper_machine(SCALE)),
                kyoto_hypervisor::hypervisor::HypervisorConfig::default(),
            )
        };
        let mut source = build();
        let vm = source
            .add_vm_with(
                VmConfig::new("mover").pinned_to(vec![CoreId(0)]),
                Box::new(kyoto_workloads::spec::SpecWorkload::new(app, SCALE, seed)),
            )
            .unwrap();
        source.run_ticks(ticks);

        let before = source.report(vm).unwrap();
        let taken = source.take_vm(vm).unwrap();
        prop_assert_eq!(&taken.report, &before, "extraction must not alter the report");

        // Snapshot the workloads' execution state, then push the pieces
        // through admit_vm → take_vm and compare the op streams.
        let mut snapshots: Vec<Box<dyn Workload>> = taken.workloads.clone();
        let mut dest = build();
        let new_id = dest.admit_vm(taken).unwrap();
        let mut retaken = dest.take_vm(new_id).unwrap();
        prop_assert_eq!(retaken.workloads.len(), snapshots.len());
        for (snapshot, survivor) in snapshots.iter_mut().zip(retaken.workloads.iter_mut()) {
            prop_assert_eq!(snapshot.name(), survivor.name());
            prop_assert_eq!(snapshot.working_set_bytes(), survivor.working_set_bytes());
            for _ in 0..2048 {
                prop_assert_eq!(snapshot.next_op(), survivor.next_op());
            }
        }
    }
}

fn arb_placement_policy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::RoundRobin),
        Just(PlacementPolicy::Packed),
        Just(PlacementPolicy::NumaAware),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Placement is deterministic (a pure function of policy, machine and
    /// working sets) and always valid: every core exists, every socket
    /// matches its core, and NUMA-aware placements pin memory to the VM's
    /// own socket.
    #[test]
    fn placement_is_deterministic_and_valid(
        policy in arb_placement_policy(),
        sockets in prop_oneof![Just(2usize), Just(4), Just(8)],
        working_sets in prop::collection::vec(1u64..(1 << 24), 1..48),
    ) {
        let machine = MachineConfig::cloud_machine(sockets);
        let a = place_vms(policy, &machine, &working_sets);
        let b = place_vms(policy, &machine, &working_sets);
        prop_assert_eq!(&a, &b, "same inputs must give identical placements");
        prop_assert_eq!(a.len(), working_sets.len());
        for p in &a {
            prop_assert!(p.core.0 < machine.num_cores());
            prop_assert_eq!(machine.socket_of_core(p.core), Some(p.socket));
            match policy {
                PlacementPolicy::NumaAware => {
                    prop_assert_eq!(p.numa_node, Some(NumaNode(p.socket.0)));
                }
                _ => prop_assert_eq!(p.numa_node, None),
            }
        }
    }

    /// Round-robin placement never lets two sockets' VM counts differ by
    /// more than one, and packed placement fills socket `s + 1` only after
    /// socket `s` has a VM on every core.
    #[test]
    fn placement_policies_shape_the_load(
        sockets in prop_oneof![Just(2usize), Just(4), Just(8)],
        vms in 1usize..48,
    ) {
        let machine = MachineConfig::cloud_machine(sockets);
        let working_sets = vec![4096u64; vms];
        let round_robin = place_vms(PlacementPolicy::RoundRobin, &machine, &working_sets);
        let mut counts = vec![0usize; sockets];
        for p in &round_robin {
            counts[p.socket.0] += 1;
        }
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        prop_assert!(spread <= 1, "round-robin keeps socket loads within one VM");

        let packed = place_vms(PlacementPolicy::Packed, &machine, &working_sets);
        let mut counts = vec![0usize; sockets];
        for p in &packed {
            counts[p.socket.0] += 1;
        }
        let per_socket = machine.cores_per_socket;
        for s in 1..sockets {
            if counts[s] > 0 {
                prop_assert!(
                    counts[s - 1] >= counts[s].min(per_socket)
                        || counts[s - 1] >= per_socket,
                    "packed never populates socket {} before filling socket {}",
                    s,
                    s - 1
                );
            }
        }
    }
}
