//! Property-based tests of the Ready/Running/Blocked vCPU lifecycle.
//!
//! A generated population of always-runnable and WFI-style interactive VMs
//! (with arbitrary wake sources) is driven tick by tick while a pure model
//! re-derives what each tick was allowed to do. The checked invariants:
//!
//! 1. every observed state change is a legal transition of the lifecycle
//!    state machine (`VcpuState::legal_transition`, collapsed to the
//!    between-tick states Ready/Blocked);
//! 2. **no lost wakeups** — a Blocked vCPU whose wake source fires is
//!    runnable afterwards (it either ran this very tick or sits Ready);
//! 3. **no spurious wakeups** — a Blocked vCPU whose wake source did not
//!    fire stays Blocked and is never scheduled;
//! 4. blocked vCPUs accrue **zero engine cycles**, and the blocked-tick
//!    accounting matches the model exactly;
//! 5. **work conservation** — every tick schedules
//!    `min(cores, runnable vCPUs)` vCPUs;
//! 6. serial and socket-parallel engines stay **bit-identical** under
//!    blocking, as do checkpoint/restore forks, and a migration round trip
//!    preserves Blocked states and pending wake times.

use kyoto_hypervisor::credit::CreditScheduler;
use kyoto_hypervisor::hypervisor::{Hypervisor, HypervisorConfig};
use kyoto_hypervisor::lifecycle::{VcpuState, WakeSource};
use kyoto_hypervisor::vm::{VcpuId, VmConfig, VmId};
use kyoto_hypervisor::xen_hypervisor;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig};
use kyoto_sim::workload::{ComputeOnly, Op, Workload};
use kyoto_workloads::interactive::Interactive;
use kyoto_workloads::synthetic::Streaming;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const SCALE: u64 = 256;

fn machine() -> Machine {
    Machine::new(MachineConfig::scaled_paper_machine(SCALE))
}

fn xen(machine: Machine) -> Hypervisor<CreditScheduler> {
    xen_hypervisor(machine, HypervisorConfig::default().with_history())
}

/// Generated VM description: (workload kind, seed, wake kind, wake param).
/// Kind 0 never blocks; kinds 1-2 are interactive (compute / streaming
/// bursts). Wake kind 0 = no source, 1 = periodic timer, 2 = seeded
/// interrupts with rate `param/6`.
type VmSpec = (usize, u64, usize, u64);

fn build_workload(kind: usize, seed: u64) -> Box<dyn Workload> {
    match kind {
        0 => Box::new(ComputeOnly::new(1)),
        1 => Box::new(Interactive::new(ComputeOnly::new(1), 48)),
        _ => Box::new(Interactive::new(Streaming::new(1 << 14, seed), 32)),
    }
}

fn build_wake(kind: usize, param: u64, seed: u64) -> Option<WakeSource> {
    match kind {
        0 => None,
        1 => Some(WakeSource::new(seed).with_timer_period(param)),
        _ => Some(WakeSource::new(seed).with_interrupt_rate(param as f64 / 6.0)),
    }
}

fn add_vms(
    hv: &mut Hypervisor<CreditScheduler>,
    specs: &[VmSpec],
) -> Vec<(VmId, Option<WakeSource>)> {
    specs
        .iter()
        .enumerate()
        .map(|(i, &(kind, seed, wake_kind, wake_param))| {
            let wake = build_wake(wake_kind, wake_param, seed ^ 0xA5A5);
            let mut config = VmConfig::new(format!("vm{i}"));
            if let Some(source) = wake.clone() {
                config = config.with_wake_source(source);
            }
            let vm = hv
                .add_vm_with(config, build_workload(kind, seed))
                .expect("valid VM");
            (vm, wake)
        })
        .collect()
}

/// Drives `ticks` ticks, re-deriving the lifecycle model each tick and
/// asserting invariants 1-5 against the implementation.
fn drive_and_check(
    hv: &mut Hypervisor<CreditScheduler>,
    vms: &[(VmId, Option<WakeSource>)],
    ticks: u64,
) {
    let cores = hv.engine().machine().num_cores();
    for _ in 0..ticks {
        let tick = hv.current_tick();
        let before: Vec<(VcpuState, u64, bool)> = vms
            .iter()
            .map(|&(vm, ref wake)| {
                let state = hv.vcpu_state(VcpuId::new(vm, 0)).unwrap();
                let clock = hv.wake_clock(vm).unwrap();
                let fires = wake.as_ref().is_some_and(|w| w.fires(clock, 0));
                (state, clock, fires)
            })
            .collect();
        let blocked_before: Vec<u64> = vms
            .iter()
            .map(|&(vm, _)| hv.report(vm).unwrap().ticks_blocked)
            .collect();

        hv.step_tick();

        let runnable = before
            .iter()
            .filter(|&&(state, _, fires)| state == VcpuState::Ready || fires)
            .count();
        let mut scheduled_count = 0usize;
        for (i, &(vm, _)) in vms.iter().enumerate() {
            let vcpu = VcpuId::new(vm, 0);
            let (prev, _, fires) = before[i];
            let next = hv.vcpu_state(vcpu).unwrap();
            let sample = hv
                .history()
                .iter()
                .find(|s| s.tick == tick && s.vcpu == vcpu)
                .expect("history records every vCPU every tick");
            scheduled_count += sample.scheduled as usize;

            // Between ticks only Ready and Blocked exist.
            assert_ne!(
                next,
                VcpuState::Running,
                "Running must not leak out of a tick"
            );
            // 1. Transition legality, with Running inserted when scheduled.
            if sample.scheduled {
                let woke = prev == VcpuState::Blocked;
                assert!(
                    !woke || fires,
                    "vm{i}: a Blocked vCPU ran without its wake source firing"
                );
                assert!(
                    VcpuState::legal_transition(
                        if woke { VcpuState::Ready } else { prev },
                        VcpuState::Running
                    ) && VcpuState::legal_transition(VcpuState::Running, next),
                    "vm{i}: illegal scheduled transition {prev:?}->{next:?}"
                );
            } else {
                match prev {
                    VcpuState::Ready => assert_eq!(
                        next,
                        VcpuState::Ready,
                        "vm{i}: an unscheduled Ready vCPU cannot change state"
                    ),
                    VcpuState::Blocked if fires => assert_eq!(
                        next,
                        VcpuState::Ready,
                        "vm{i}: lost wakeup — the source fired but the vCPU stayed Blocked"
                    ),
                    VcpuState::Blocked => assert_eq!(
                        next,
                        VcpuState::Blocked,
                        "vm{i}: spurious wakeup without a wake event"
                    ),
                    VcpuState::Running => unreachable!(),
                }
            }
            // 4. Zero cycles while blocked + exact blocked accounting.
            if !sample.scheduled {
                assert_eq!(sample.consumed_cycles, 0);
            }
            let blocked_delta = hv.report(vm).unwrap().ticks_blocked - blocked_before[i];
            let model_blocked = (prev == VcpuState::Blocked && !fires) as u64;
            assert_eq!(
                blocked_delta, model_blocked,
                "vm{i}: blocked-tick accounting diverged from the model"
            );
        }
        // 5. Work conservation: no core idles while a runnable vCPU waits.
        assert_eq!(
            scheduled_count,
            runnable.min(cores),
            "tick {tick}: {runnable} runnable vCPUs on {cores} cores"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Invariants 1-5 over arbitrary populations and wake configurations.
    #[test]
    fn lifecycle_invariants_hold_for_arbitrary_populations(
        specs in prop::collection::vec((0usize..3, 1u64..1000, 0usize..3, 1u64..6), 1..6),
        ticks in 1u64..25,
    ) {
        let mut hv = xen(machine());
        let vms = add_vms(&mut hv, &specs);
        drive_and_check(&mut hv, &vms, ticks);
    }

    /// Serial and socket-parallel engines are bit-identical under blocking:
    /// interactive and batch VMs pinned across both sockets of the NUMA
    /// machine produce byte-equal reports (blocked counters included).
    #[test]
    fn serial_and_parallel_engines_agree_under_blocking(
        seed in 1u64..500,
        period in 1u64..6,
        ticks in 1u64..15,
    ) {
        let run = |parallel: bool| {
            let numa = Machine::new(MachineConfig::scaled_paper_numa_machine(SCALE));
            let hconfig = HypervisorConfig::default().with_parallel_engine(parallel);
            let mut hv = xen_hypervisor(numa, hconfig);
            for (i, core) in [0usize, 1, 4, 5].iter().enumerate() {
                let interactive = i % 2 == 0;
                let mut config =
                    VmConfig::new(format!("vm{i}")).pinned_to(vec![CoreId(*core)]);
                let workload: Box<dyn Workload> = if interactive {
                    config = config.with_wake_source(
                        WakeSource::new(seed + i as u64).with_timer_period(period),
                    );
                    Box::new(Interactive::new(
                        Streaming::new(1 << 14, seed + i as u64),
                        32,
                    ))
                } else {
                    Box::new(Streaming::new(1 << 15, seed + i as u64))
                };
                hv.add_vm_with(config, workload).expect("valid VM");
            }
            hv.run_ticks(ticks);
            hv.reports()
        };
        prop_assert_eq!(run(false), run(true));
    }

    /// A checkpoint taken mid-run (VMs asleep or awake) continues
    /// bit-identically: same reports and same lifecycle states.
    #[test]
    fn checkpoint_restore_is_bit_identical_under_blocking(
        specs in prop::collection::vec((0usize..3, 1u64..1000, 0usize..3, 1u64..6), 1..5),
        before in 1u64..12,
        after in 1u64..12,
    ) {
        let mut hv = xen(machine());
        let vms = add_vms(&mut hv, &specs);
        hv.run_ticks(before);
        let mut copy = hv.clone();
        hv.run_ticks(after);
        copy.run_ticks(after);
        prop_assert_eq!(hv.reports(), copy.reports());
        for &(vm, _) in &vms {
            let vcpu = VcpuId::new(vm, 0);
            prop_assert_eq!(hv.vcpu_state(vcpu), copy.vcpu_state(vcpu));
            prop_assert_eq!(hv.wake_clock(vm), copy.wake_clock(vm));
        }
    }

    /// A migration round trip preserves the lifecycle exactly: a Blocked VM
    /// arrives Blocked, its wake clock continues, and from then on it is
    /// scheduled on exactly the same ticks as an unmigrated control.
    #[test]
    fn migration_preserves_blocked_state_and_pending_wakes(
        seed in 1u64..500,
        period in 2u64..6,
        before in 1u64..12,
        after in 1u64..14,
    ) {
        let build = || {
            let mut hv = xen(machine());
            let vm = hv
                .add_vm_with(
                    VmConfig::new("svc")
                        .with_wake_source(WakeSource::new(seed).with_timer_period(period)),
                    Box::new(Interactive::new(Streaming::new(1 << 14, seed), 32)),
                )
                .expect("valid VM");
            (hv, vm)
        };
        let (mut control, control_vm) = build();
        let (mut source, source_vm) = build();
        control.run_ticks(before);
        source.run_ticks(before);

        let taken = source.take_vm(source_vm).expect("resident VM");
        prop_assert_eq!(
            &taken.vcpu_states,
            &vec![control.vcpu_state(VcpuId::new(control_vm, 0)).unwrap()],
            "extraction must capture the control's state"
        );
        prop_assert_eq!(taken.wake_clock, before);
        let mut dest = xen(machine());
        let migrated_vm = dest.admit_vm(taken).expect("valid admission");
        prop_assert_eq!(
            dest.vcpu_state(VcpuId::new(migrated_vm, 0)),
            control.vcpu_state(VcpuId::new(control_vm, 0))
        );

        // Tick-by-tick from here the migrated VM wakes and runs in lockstep
        // with the control (cycles differ — its cache arrived cold — but
        // scheduling and lifecycle may not).
        for _ in 0..after {
            let c0 = control.report(control_vm).unwrap().ticks_scheduled;
            let d0 = dest.report(migrated_vm).unwrap().ticks_scheduled;
            control.step_tick();
            dest.step_tick();
            let c1 = control.report(control_vm).unwrap().ticks_scheduled;
            let d1 = dest.report(migrated_vm).unwrap().ticks_scheduled;
            prop_assert_eq!(
                c1 - c0,
                d1 - d0,
                "the migrated VM must run on the same ticks as the control"
            );
            prop_assert_eq!(
                dest.vcpu_state(VcpuId::new(migrated_vm, 0)),
                control.vcpu_state(VcpuId::new(control_vm, 0))
            );
        }
    }
}

/// Regression: the credit scheduler must not charge a Blocked vCPU. After
/// the service parks, its credit only ever moves up (slice refills) — one
/// burned credit would mean the engine ran a sleeping vCPU — it is never
/// capped out, and it keeps UNDER priority, while the busy VM visibly
/// burns credit.
#[test]
fn credit_accounting_freezes_while_a_vcpu_is_blocked() {
    use kyoto_hypervisor::scheduler::{Priority, Scheduler};
    let mut hv = xen(machine());
    let sleepy = hv
        .add_vm_with(
            VmConfig::new("sleepy"),
            Box::new(Interactive::new(ComputeOnly::new(1), 48)),
        )
        .unwrap();
    let busy = hv
        .add_vm_with(VmConfig::new("busy"), Box::new(ComputeOnly::new(1)))
        .unwrap();
    let (sleepy, busy) = (VcpuId::new(sleepy, 0), VcpuId::new(busy, 0));
    hv.step_tick(); // The burst runs, then the vCPU parks.
    assert_eq!(hv.vcpu_state(sleepy), Some(VcpuState::Blocked));
    let mut burned_while_blocked = false;
    let mut busy_ever_burned = false;
    let mut previous = hv.scheduler().remaining_credit(sleepy);
    let mut busy_previous = hv.scheduler().remaining_credit(busy);
    for _ in 0..24 {
        hv.step_tick();
        let credit = hv.scheduler().remaining_credit(sleepy);
        burned_while_blocked |= credit < previous;
        previous = credit;
        let busy_credit = hv.scheduler().remaining_credit(busy);
        busy_ever_burned |= busy_credit < busy_previous;
        busy_previous = busy_credit;
        assert!(!hv.scheduler().is_capped_out(sleepy));
        assert_eq!(hv.scheduler().priority(sleepy), Priority::Under);
    }
    assert!(
        !burned_while_blocked,
        "a sleeping vCPU must never burn credit"
    );
    assert!(busy_ever_burned, "the busy vCPU does burn credit (sanity)");
}

/// Regression: CFS vruntime must not advance while a vCPU is Blocked. The
/// sleeping service's clock freezes at its park value — so it does not
/// accumulate an artificial head start or deficit — and it is never
/// throttled, while the busy VM's vruntime keeps climbing.
#[test]
fn cfs_vruntime_freezes_while_a_vcpu_is_blocked() {
    use kyoto_hypervisor::kvm_hypervisor;
    let mut hv = kvm_hypervisor(machine(), HypervisorConfig::default());
    let sleepy = hv
        .add_vm_with(
            VmConfig::new("sleepy"),
            Box::new(Interactive::new(ComputeOnly::new(1), 48)),
        )
        .unwrap();
    let busy = hv
        .add_vm_with(VmConfig::new("busy"), Box::new(ComputeOnly::new(1)))
        .unwrap();
    let (sleepy, busy) = (VcpuId::new(sleepy, 0), VcpuId::new(busy, 0));
    hv.step_tick(); // The burst runs, then the vCPU parks.
    assert_eq!(hv.vcpu_state(sleepy), Some(VcpuState::Blocked));
    let parked_at = hv.scheduler().vruntime(sleepy);
    let busy_start = hv.scheduler().vruntime(busy);
    for _ in 0..24 {
        hv.step_tick();
        assert_eq!(
            hv.scheduler().vruntime(sleepy),
            parked_at,
            "vruntime must not advance during a WFI"
        );
        assert!(!hv.scheduler().is_throttled(sleepy));
    }
    assert!(
        hv.scheduler().vruntime(busy) > busy_start,
        "the busy vCPU's vruntime does advance (sanity)"
    );
}

/// Forwards every method, `wants_block` included, and counts `fill_ops`
/// calls.
#[derive(Clone)]
struct CountingFetches<W> {
    inner: W,
    fetches: Arc<AtomicUsize>,
}

impl<W: Workload + Clone + 'static> Workload for CountingFetches<W> {
    fn next_op(&mut self) -> Op {
        self.inner.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        // A statistic that publishes nothing else.
        self.fetches.fetch_add(1, Ordering::Relaxed);
        self.inner.fill_ops(buf)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn working_set_bytes(&self) -> u64 {
        self.inner.working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        self.inner.mem_parallelism()
    }

    fn reset(&mut self) {
        self.inner.reset()
    }

    fn wants_block(&self) -> bool {
        self.inner.wants_block()
    }

    fn on_wake(&mut self) {
        self.inner.on_wake()
    }
}

/// Once a sleeper's burst drains, the rest of its tick costs no fetch: a
/// service woken every tick, alone on its core, fetches its 48-op burst
/// (at most two 64-op chunks) and retires the tens of thousands of idle
/// cycles after it in one step. Fetching the padding would cost hundreds
/// of chunks per tick.
#[test]
fn a_drained_burst_fetches_no_idle_padding() {
    const TICKS: u64 = 50;
    let mut hv = xen(Machine::new(MachineConfig::scaled_paper_machine(512)));
    let fetches = Arc::new(AtomicUsize::new(0));
    let vm = hv
        .add_vm_with(
            VmConfig::new("svc")
                .pinned_to(vec![CoreId(0)])
                .with_wake_source(WakeSource::new(1).with_timer_period(1)),
            Box::new(CountingFetches {
                inner: Interactive::new(ComputeOnly::new(1), 48),
                fetches: Arc::clone(&fetches),
            }),
        )
        .expect("valid VM");
    hv.run_ticks(TICKS);
    let report = hv.report(vm).unwrap();
    assert_eq!(
        report.ticks_scheduled, TICKS,
        "woken every tick, it runs every tick"
    );
    assert_eq!(
        report.pmcs.instructions,
        TICKS * hv.effective_cycles_per_tick(),
        "every one-cycle op, idle or not, still retires an instruction"
    );
    let fetches = fetches.load(Ordering::Relaxed) as u64;
    assert!(
        fetches <= 2 * TICKS,
        "{fetches} fetches in {TICKS} ticks of {} cycles",
        hv.effective_cycles_per_tick()
    );
}
