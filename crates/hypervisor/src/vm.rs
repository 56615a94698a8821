//! Virtual machines and virtual CPUs.
//!
//! The paper's VMs are simple: each one runs a single application and is
//! configured with a computing capacity (the credit scheduler's weight/cap)
//! plus — with Kyoto — a booked LLC pollution permit (`llc_cap`). This module
//! provides the configuration and runtime bookkeeping shared by every
//! scheduler implementation.

use crate::lifecycle::WakeSource;
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, NumaNode};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a VM. The numeric value doubles as the cache-line owner tag
/// used by `kyoto-sim`, so it must fit in 16 bits. A hypervisor hands out
/// ids 1 to 65535, each once; 0 is the reserved "no VM" owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmId(pub u16);

impl fmt::Display for VmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm{}", self.0)
    }
}

/// Identifier of a virtual CPU: a VM plus the vCPU index inside it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VcpuId {
    /// Owning VM.
    pub vm: VmId,
    /// Index of the vCPU within the VM.
    pub index: u32,
}

impl VcpuId {
    /// Creates a vCPU id.
    pub fn new(vm: VmId, index: u32) -> Self {
        VcpuId { vm, index }
    }

    /// A stable numeric key (used as PMC context id).
    pub fn as_key(&self) -> u64 {
        (u64::from(self.vm.0) << 32) | u64::from(self.index)
    }
}

impl fmt::Display for VcpuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.v{}", self.vm, self.index)
    }
}

/// Static configuration of a VM, set at instantiation time by the cloud user
/// (weight, cap, pollution permit) and the provider (placement).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmConfig {
    /// Human-readable name (typically the hosted application).
    pub name: String,
    /// Number of virtual CPUs.
    pub vcpus: usize,
    /// Credit-scheduler weight (Xen's default is 256).
    pub weight: u32,
    /// Optional cap on the CPU share of *each* vCPU, in percent of one core
    /// (Xen's `cap` parameter). `None` means uncapped.
    pub cap_percent: Option<u32>,
    /// Booked LLC pollution permit in LLC misses per millisecond of CPU time
    /// — the new VM parameter introduced by the paper. `None` means the VM
    /// did not book a permit (legacy behaviour, never punished).
    pub llc_cap: Option<f64>,
    /// Cores each vCPU may run on. vCPU `i` is restricted to
    /// `pinning[i % pinning.len()]`. `None` lets a vCPU run anywhere.
    pub pinning: Option<Vec<CoreId>>,
    /// NUMA node holding the VM's memory. `None` means "local to wherever
    /// the vCPU runs".
    pub numa_node: Option<NumaNode>,
    /// Wake-event source for vCPUs that block (WFI-style sleeping
    /// workloads). `None` means no wake events are ever injected — fine for
    /// workloads that never block (the default for every built-in model).
    pub wake_source: Option<WakeSource>,
}

impl VmConfig {
    /// Creates a single-vCPU VM with default weight and no cap, permit or
    /// pinning — the configuration used by most of the paper's experiments.
    pub fn new(name: impl Into<String>) -> Self {
        VmConfig {
            name: name.into(),
            vcpus: 1,
            weight: 256,
            cap_percent: None,
            llc_cap: None,
            pinning: None,
            numa_node: None,
            wake_source: None,
        }
    }

    /// Sets the number of vCPUs.
    pub fn with_vcpus(mut self, vcpus: usize) -> Self {
        self.vcpus = vcpus.max(1);
        self
    }

    /// Sets the credit weight.
    pub fn with_weight(mut self, weight: u32) -> Self {
        self.weight = weight.max(1);
        self
    }

    /// Caps each vCPU at `percent` of one core (as Fig. 3 does when varying
    /// the disruptor's computing power).
    pub fn with_cap_percent(mut self, percent: u32) -> Self {
        self.cap_percent = Some(percent.clamp(1, 100));
        self
    }

    /// Books an LLC pollution permit of `llc_cap` misses per millisecond of
    /// CPU time (the paper writes `250k·v` for `llc_cap = 250_000`).
    pub fn with_llc_cap(mut self, llc_cap: f64) -> Self {
        self.llc_cap = Some(llc_cap.max(0.0));
        self
    }

    /// Pins the VM's vCPUs to `cores` (vCPU `i` goes to `cores[i % len]`).
    pub fn pinned_to(mut self, cores: Vec<CoreId>) -> Self {
        if !cores.is_empty() {
            self.pinning = Some(cores);
        }
        self
    }

    /// Places the VM's memory on `node`.
    pub fn on_numa_node(mut self, node: NumaNode) -> Self {
        self.numa_node = Some(node);
        self
    }

    /// Attaches a deterministic wake-event source for blocking workloads
    /// (see [`WakeSource`]).
    pub fn with_wake_source(mut self, source: WakeSource) -> Self {
        self.wake_source = Some(source);
        self
    }

    /// The core vCPU `index` is pinned to, if any.
    pub fn pinned_core(&self, index: u32) -> Option<CoreId> {
        self.pinning
            .as_ref()
            .map(|cores| cores[index as usize % cores.len()])
    }
}

/// Aggregated execution report of one VM, produced by the hypervisor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmReport {
    /// The VM.
    pub vm: VmId,
    /// Its configured name.
    pub name: String,
    /// Cumulative performance counters over all its vCPUs.
    pub pmcs: PmcSet,
    /// Total cycles its vCPUs were scheduled for.
    pub cycles_run: u64,
    /// Total scheduling ticks during which at least one vCPU ran.
    pub ticks_scheduled: u64,
    /// Total ticks elapsed while the VM existed.
    pub ticks_elapsed: u64,
    /// Times the scheduler punished the VM (Kyoto schedulers only).
    pub punishments: u64,
    /// Total vCPU-ticks spent Blocked (summed over all vCPUs).
    pub ticks_blocked: u64,
    /// Cycles of engine budget the VM's vCPUs slept through while Blocked.
    /// These cycles were *not* executed or charged; the counter exists so
    /// traces and snapshots can report how much CPU time blocking saved.
    pub blocked_cycles: u64,
}

impl VmReport {
    /// Instructions per cycle over the whole run.
    pub fn ipc(&self) -> f64 {
        self.pmcs.ipc()
    }

    /// Measured pollution in LLC misses per millisecond of CPU time, i.e.
    /// the quantity Equation 1 estimates (using the actual cycles consumed).
    pub fn llc_misses_per_cpu_ms(&self, freq_khz: u64) -> f64 {
        if self.pmcs.unhalted_core_cycles == 0 {
            0.0
        } else {
            self.pmcs.llc_misses as f64 * freq_khz as f64 / self.pmcs.unhalted_core_cycles as f64
        }
    }

    /// Fraction of elapsed ticks during which the VM was scheduled.
    pub fn cpu_share(&self) -> f64 {
        if self.ticks_elapsed == 0 {
            0.0
        } else {
            self.ticks_scheduled as f64 / self.ticks_elapsed as f64
        }
    }

    /// Throughput proxy: instructions retired per elapsed tick. The paper's
    /// "performance" of a VM (execution time of a fixed amount of work) is
    /// inversely proportional to this value.
    pub fn instructions_per_tick(&self) -> f64 {
        if self.ticks_elapsed == 0 {
            0.0
        } else {
            self.pmcs.instructions as f64 / self.ticks_elapsed as f64
        }
    }

    /// Fraction of vCPU-ticks the VM spent Blocked (asleep). For the
    /// single-vCPU VMs of the paper's experiments this is simply the share
    /// of elapsed ticks during which the VM slept.
    pub fn blocked_fraction(&self) -> f64 {
        let vcpu_ticks = self.ticks_elapsed;
        if vcpu_ticks == 0 {
            0.0
        } else {
            self.ticks_blocked as f64 / vcpu_ticks as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_paper_setup() {
        let config = VmConfig::new("gcc");
        assert_eq!(config.vcpus, 1);
        assert_eq!(config.weight, 256);
        assert_eq!(config.cap_percent, None);
        assert_eq!(config.llc_cap, None);
        assert_eq!(config.pinned_core(0), None);
        assert_eq!(config.wake_source, None);
    }

    #[test]
    fn builder_clamps_inputs() {
        let config = VmConfig::new("x")
            .with_vcpus(0)
            .with_weight(0)
            .with_cap_percent(500)
            .with_llc_cap(-3.0);
        assert_eq!(config.vcpus, 1);
        assert_eq!(config.weight, 1);
        assert_eq!(config.cap_percent, Some(100));
        assert_eq!(config.llc_cap, Some(0.0));
    }

    #[test]
    fn pinning_wraps_around_vcpu_index() {
        let config = VmConfig::new("x")
            .with_vcpus(4)
            .pinned_to(vec![CoreId(1), CoreId(2)]);
        assert_eq!(config.pinned_core(0), Some(CoreId(1)));
        assert_eq!(config.pinned_core(1), Some(CoreId(2)));
        assert_eq!(config.pinned_core(2), Some(CoreId(1)));
        let unpinned = VmConfig::new("y").pinned_to(vec![]);
        assert_eq!(unpinned.pinned_core(0), None);
    }

    #[test]
    fn vcpu_keys_are_unique_and_displayable() {
        let a = VcpuId::new(VmId(1), 0);
        let b = VcpuId::new(VmId(1), 1);
        let c = VcpuId::new(VmId(2), 0);
        assert_ne!(a.as_key(), b.as_key());
        assert_ne!(a.as_key(), c.as_key());
        assert_eq!(a.to_string(), "vm1.v0");
        assert_eq!(VmId(3).to_string(), "vm3");
    }

    #[test]
    fn report_metrics() {
        let report = VmReport {
            vm: VmId(1),
            name: "gcc".into(),
            pmcs: PmcSet {
                instructions: 1000,
                unhalted_core_cycles: 2000,
                llc_misses: 100,
                ..PmcSet::default()
            },
            cycles_run: 2000,
            ticks_scheduled: 5,
            ticks_elapsed: 10,
            punishments: 0,
            ticks_blocked: 4,
            blocked_cycles: 800,
        };
        assert!((report.ipc() - 0.5).abs() < 1e-12);
        assert!((report.cpu_share() - 0.5).abs() < 1e-12);
        assert!((report.instructions_per_tick() - 100.0).abs() < 1e-12);
        // 100 misses over 2000 cycles at 1000 kHz (cycles/ms) = 50 misses/ms.
        assert!((report.llc_misses_per_cpu_ms(1000) - 50.0).abs() < 1e-12);
        assert!((report.blocked_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_report_metrics_are_zero() {
        let report = VmReport {
            vm: VmId(1),
            name: "idle".into(),
            pmcs: PmcSet::default(),
            cycles_run: 0,
            ticks_scheduled: 0,
            ticks_elapsed: 0,
            punishments: 0,
            ticks_blocked: 0,
            blocked_cycles: 0,
        };
        assert_eq!(report.ipc(), 0.0);
        assert_eq!(report.cpu_share(), 0.0);
        assert_eq!(report.llc_misses_per_cpu_ms(1000), 0.0);
        assert_eq!(report.instructions_per_tick(), 0.0);
        assert_eq!(report.blocked_fraction(), 0.0);
    }
}
