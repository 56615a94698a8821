//! The vCPU lifecycle: Ready/Running/Blocked states and deterministic wake
//! events.
//!
//! Every vCPU today starts Ready and stays runnable forever unless its
//! workload asks to block ([`kyoto_sim::workload::Workload::wants_block`],
//! WFI-style). A Blocked vCPU is invisible to the scheduler (the hypervisor
//! filters it out of `pick_next` candidate lists), occupies no engine slot
//! cycles, and wakes only when its VM's [`WakeSource`] fires — a seeded
//! interrupt stream plus scripted timers, evaluated on the VM's private
//! wake clock.
//!
//! # Determinism
//!
//! The wake stream is **stateless**: whether a wake event fires at VM-local
//! tick `t` for vCPU `i` is a pure function of `(seed, t, i)` — each tick
//! derives its own RNG via SplitMix64 golden-ratio mixing, the same
//! discipline as the cluster's `EventSchedule` and the service layer's
//! `RequestTrace`. No draw depends on how many draws other ticks made, on
//! scheduling order, or on how often the source is queried, so wake times
//! survive checkpoint/restore and migration bit-identically. The clock the
//! source is keyed on is the VM's *wake clock*, which travels with the VM
//! across `take_vm`/`admit_vm` (unlike `ticks_elapsed`, which restarts on
//! the destination so per-residency accounting stays local).

use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The scheduling state of a vCPU.
///
/// `Running` only exists inside a tick: the hypervisor moves picked vCPUs
/// Ready→Running for the tick's execution phase and back to Ready (timer
/// preemption — every tick ends the quantum) or on to Blocked (the workload
/// asked to sleep) before the tick closes. Between ticks a vCPU is
/// therefore always Ready or Blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VcpuState {
    /// Runnable: visible to the scheduler, waiting for (or holding) a core.
    Ready,
    /// Executing on a core during the current tick.
    Running,
    /// Asleep (WFI): invisible to the scheduler, charged zero cycles, woken
    /// only by its VM's [`WakeSource`].
    Blocked,
}

impl VcpuState {
    /// Whether a vCPU in this state may appear in a `pick_next` candidate
    /// list.
    pub fn is_runnable(self) -> bool {
        matches!(self, VcpuState::Ready)
    }

    /// Whether `from → to` is a legal lifecycle transition (staying put is
    /// always legal). The legal moves are Ready→Running (picked),
    /// Running→Ready (timer preemption), Running→Blocked (WFI) and
    /// Blocked→Ready (wake event) — notably *not* Ready→Blocked (only a
    /// running workload can execute a block) or Blocked→Running (a woken
    /// vCPU must pass through the scheduler). The lifecycle property
    /// harness checks every observed transition against this table.
    pub fn legal_transition(from: VcpuState, to: VcpuState) -> bool {
        use VcpuState::*;
        matches!(
            (from, to),
            (Ready, Ready)
                | (Ready, Running)
                | (Running, Ready)
                | (Running, Running)
                | (Running, Blocked)
                | (Blocked, Blocked)
                | (Blocked, Ready)
        )
    }
}

/// SplitMix64 golden-ratio increment, the per-tick seed mixer shared with
/// the cluster's event/fault schedules.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic wake-event source for one VM's vCPUs: a seeded
/// interrupt stream (expected `interrupt_rate` wakes per tick, fractional
/// rates realised probabilistically but deterministically per tick) plus
/// scripted one-shot timers and an optional periodic timer.
///
/// Attached to a VM via
/// [`VmConfig::with_wake_source`](crate::vm::VmConfig::with_wake_source),
/// it travels with the VM's configuration through migration, checkpointing
/// and the whole cluster control plane.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WakeSource {
    /// Seed of the interrupt stream.
    pub seed: u64,
    /// Probability (clamped to `[0, 1]`) that a wake interrupt arrives for
    /// a given vCPU in a given tick. [`WakeSource::fires`] reads any value
    /// that is not above 0, NaN included, as no interrupts and any value
    /// of 1 or more as one every tick.
    pub interrupt_rate: f64,
    /// Scripted one-shot timer ticks (VM-local wake clock): a wake fires
    /// for every vCPU at exactly these ticks.
    pub timers: Vec<u64>,
    /// Periodic timer: a wake fires every `period` ticks (`0` disables it).
    pub timer_period: u64,
}

impl WakeSource {
    /// A source with the given interrupt seed and no events configured.
    pub fn new(seed: u64) -> Self {
        WakeSource {
            seed,
            interrupt_rate: 0.0,
            timers: Vec::new(),
            timer_period: 0,
        }
    }

    /// Sets the per-tick wake-interrupt probability (clamped to `[0, 1]`;
    /// NaN becomes 0).
    pub fn with_interrupt_rate(mut self, rate: f64) -> Self {
        self.interrupt_rate = if rate.is_nan() {
            0.0
        } else {
            rate.clamp(0.0, 1.0)
        };
        self
    }

    /// Scripts a one-shot timer wake at the given VM-local tick.
    pub fn with_timer(mut self, tick: u64) -> Self {
        self.timers.push(tick);
        self
    }

    /// Sets a periodic timer: a wake every `period` ticks (0 disables).
    pub fn with_timer_period(mut self, period: u64) -> Self {
        self.timer_period = period;
        self
    }

    /// Whether a wake event fires for `vcpu_index` at VM-local tick
    /// `wake_clock`. Pure: the answer depends only on
    /// `(config, wake_clock, vcpu_index)`, never on query order or history.
    pub fn fires(&self, wake_clock: u64, vcpu_index: usize) -> bool {
        if self.timers.contains(&wake_clock) {
            return true;
        }
        if self.timer_period > 0 && wake_clock > 0 && wake_clock.is_multiple_of(self.timer_period) {
            return true;
        }
        // A NaN rate (the field is public) must not reach `gen_bool`, which
        // panics outside `[0, 1]`.
        if self.interrupt_rate.is_nan() || self.interrupt_rate <= 0.0 {
            return false;
        }
        if self.interrupt_rate >= 1.0 {
            return true;
        }
        // Per-tick RNG (golden-ratio mixing), advanced past the draws of
        // lower vCPU indices so sibling vCPUs wake independently.
        let mut rng = SmallRng::seed_from_u64(self.seed ^ wake_clock.wrapping_mul(GOLDEN));
        for _ in 0..vcpu_index {
            rng.next_u64();
        }
        rng.gen_bool(self.interrupt_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transition_table_matches_the_state_diagram() {
        use VcpuState::*;
        assert!(Ready.is_runnable());
        assert!(!Running.is_runnable());
        assert!(!Blocked.is_runnable());
        for (from, to, legal) in [
            (Ready, Running, true),
            (Running, Ready, true),
            (Running, Blocked, true),
            (Blocked, Ready, true),
            (Ready, Blocked, false),
            (Blocked, Running, false),
        ] {
            assert_eq!(
                VcpuState::legal_transition(from, to),
                legal,
                "{from:?}→{to:?}"
            );
        }
        for state in [Ready, Running, Blocked] {
            assert!(VcpuState::legal_transition(state, state));
        }
    }

    #[test]
    fn wake_streams_are_pure_per_tick() {
        let source = WakeSource::new(7).with_interrupt_rate(0.4);
        for tick in 0..64 {
            for vcpu in 0..4 {
                assert_eq!(
                    source.fires(tick, vcpu),
                    source.fires(tick, vcpu),
                    "tick {tick} vcpu {vcpu} must be pure"
                );
            }
        }
    }

    #[test]
    fn ticks_are_independent_of_query_order() {
        let source = WakeSource::new(99).with_interrupt_rate(0.3);
        let forward: Vec<bool> = (0..64).map(|t| source.fires(t, 0)).collect();
        let backward: Vec<bool> = (0..64).rev().map(|t| source.fires(t, 0)).collect();
        let backward: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn sibling_vcpus_draw_independent_interrupts() {
        let source = WakeSource::new(3).with_interrupt_rate(0.5);
        let a: Vec<bool> = (0..256).map(|t| source.fires(t, 0)).collect();
        let b: Vec<bool> = (0..256).map(|t| source.fires(t, 1)).collect();
        assert_ne!(a, b, "vCPU 0 and 1 must not share one interrupt stream");
    }

    #[test]
    fn interrupt_rates_average_out() {
        let source = WakeSource::new(11).with_interrupt_rate(0.25);
        let fired = (0..4000).filter(|&t| source.fires(t, 0)).count();
        let rate = fired as f64 / 4000.0;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate}");
    }

    #[test]
    fn extreme_rates_are_exact() {
        let silent = WakeSource::new(1);
        let always = WakeSource::new(1).with_interrupt_rate(5.0); // clamps to 1.0
        for tick in 0..64 {
            assert!(!silent.fires(tick, 0));
            assert!(always.fires(tick, 0));
        }
    }

    #[test]
    fn nan_rates_never_fire_and_never_panic() {
        let built = WakeSource::new(7).with_interrupt_rate(f64::NAN);
        assert_eq!(
            built.interrupt_rate, 0.0,
            "with_interrupt_rate maps NaN to 0"
        );
        let mut set = WakeSource::new(7);
        set.interrupt_rate = f64::NAN;
        for source in [built, set] {
            for tick in 0..64 {
                for vcpu in 0..3 {
                    assert!(!source.fires(tick, vcpu), "tick {tick} vcpu {vcpu}");
                }
            }
        }
    }

    #[test]
    fn finite_rates_keep_their_draws() {
        // Ticks 0..32 of vCPU 1 at seed 7, one bit per tick (tick 0 lowest).
        for (rate, expected) in [(0.1, 0x0020_0020), (0.5, 0x2421_f2a9), (0.9, 0xbf7f_fffb)] {
            let source = WakeSource::new(7).with_interrupt_rate(rate);
            let fired = (0..32).fold(0u32, |bits, tick| {
                bits | u32::from(source.fires(tick, 1)) << tick
            });
            assert_eq!(fired, expected, "rate {rate}: {fired:#010x}");
        }
    }

    #[test]
    fn timers_fire_for_every_vcpu_at_their_tick() {
        let source = WakeSource::new(0).with_timer(5).with_timer_period(8);
        for vcpu in 0..3 {
            assert!(source.fires(5, vcpu), "one-shot timer at tick 5");
            assert!(source.fires(8, vcpu), "periodic timer at tick 8");
            assert!(source.fires(16, vcpu), "periodic timer at tick 16");
            assert!(!source.fires(0, vcpu), "period never fires at tick 0");
            assert!(!source.fires(7, vcpu));
        }
    }
}
