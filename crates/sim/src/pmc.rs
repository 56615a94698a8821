//! Performance monitoring counters (PMCs).
//!
//! The paper gathers `LLC Misses` and `UnHalted Core Cycles` through a
//! modified `perfctr-xen` that saves/restores counters on vCPU context
//! switches so each VM's counters reflect only its own execution. Here
//! [`PmcSet`] is the counter snapshot, and per-vCPU counters stand in for
//! perfctr-xen: the engine reports each slot's delta for exactly the
//! cycles it ran, and the hypervisor adds it to the counters of the vCPU
//! behind the slot (reported as the VM's `pmcs`), then hands it to the
//! scheduler as the tick's `pmc_delta`.

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Sub};

/// A snapshot of the performance counters the Kyoto monitor relies on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PmcSet {
    /// Retired instructions.
    pub instructions: u64,
    /// Unhalted core cycles (the denominator of Equation 1).
    pub unhalted_core_cycles: u64,
    /// Memory operations issued (loads + stores).
    pub memory_accesses: u64,
    /// Accesses that missed at least one intermediate-level cache (L1 + L2),
    /// i.e. were resolved at or beyond the L2. Always >= `llc_references`,
    /// which additionally requires missing the L2.
    pub ilc_misses: u64,
    /// Accesses that reached the LLC (i.e. missed every private cache).
    pub llc_references: u64,
    /// LLC misses (the numerator of Equation 1).
    pub llc_misses: u64,
    /// LLC misses that were served from a remote NUMA node.
    pub remote_accesses: u64,
}

impl PmcSet {
    /// An all-zero counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Instructions per cycle; `0` when no cycle has elapsed.
    pub fn ipc(&self) -> f64 {
        if self.unhalted_core_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.unhalted_core_cycles as f64
        }
    }

    /// LLC miss ratio relative to LLC references; `0` when the LLC was never
    /// referenced.
    pub fn llc_miss_ratio(&self) -> f64 {
        if self.llc_references == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_references as f64
        }
    }

    /// LLC misses per million instructions (MPKI × 1000); `0` without
    /// instructions.
    pub fn llc_mpmi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses as f64 * 1_000_000.0 / self.instructions as f64
        }
    }

    /// Saturating element-wise difference `self - earlier`.
    ///
    /// Counters are monotonic, so a well-formed call always has
    /// `self >= earlier`; saturation protects against misuse.
    pub fn delta_since(&self, earlier: &PmcSet) -> PmcSet {
        PmcSet {
            instructions: self.instructions.saturating_sub(earlier.instructions),
            unhalted_core_cycles: self
                .unhalted_core_cycles
                .saturating_sub(earlier.unhalted_core_cycles),
            memory_accesses: self.memory_accesses.saturating_sub(earlier.memory_accesses),
            ilc_misses: self.ilc_misses.saturating_sub(earlier.ilc_misses),
            llc_references: self.llc_references.saturating_sub(earlier.llc_references),
            llc_misses: self.llc_misses.saturating_sub(earlier.llc_misses),
            remote_accesses: self.remote_accesses.saturating_sub(earlier.remote_accesses),
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == PmcSet::default()
    }
}

impl Add for PmcSet {
    type Output = PmcSet;

    fn add(self, rhs: PmcSet) -> PmcSet {
        PmcSet {
            instructions: self.instructions + rhs.instructions,
            unhalted_core_cycles: self.unhalted_core_cycles + rhs.unhalted_core_cycles,
            memory_accesses: self.memory_accesses + rhs.memory_accesses,
            ilc_misses: self.ilc_misses + rhs.ilc_misses,
            llc_references: self.llc_references + rhs.llc_references,
            llc_misses: self.llc_misses + rhs.llc_misses,
            remote_accesses: self.remote_accesses + rhs.remote_accesses,
        }
    }
}

impl AddAssign for PmcSet {
    fn add_assign(&mut self, rhs: PmcSet) {
        *self = *self + rhs;
    }
}

impl Sub for PmcSet {
    type Output = PmcSet;

    fn sub(self, rhs: PmcSet) -> PmcSet {
        self.delta_since(&rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(instructions: u64, cycles: u64, misses: u64) -> PmcSet {
        PmcSet {
            instructions,
            unhalted_core_cycles: cycles,
            llc_misses: misses,
            llc_references: misses * 2,
            ..PmcSet::default()
        }
    }

    #[test]
    fn ipc_and_miss_ratio() {
        let pmc = sample(1000, 2000, 10);
        assert!((pmc.ipc() - 0.5).abs() < 1e-12);
        assert!((pmc.llc_miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(PmcSet::default().ipc(), 0.0);
        assert_eq!(PmcSet::default().llc_miss_ratio(), 0.0);
    }

    #[test]
    fn delta_since_is_elementwise() {
        let a = sample(1000, 2000, 10);
        let b = sample(1500, 2600, 25);
        let d = b.delta_since(&a);
        assert_eq!(d.instructions, 500);
        assert_eq!(d.unhalted_core_cycles, 600);
        assert_eq!(d.llc_misses, 15);
    }

    #[test]
    fn delta_saturates_instead_of_underflowing() {
        let a = sample(10, 10, 10);
        let b = sample(5, 5, 5);
        let d = b.delta_since(&a);
        assert!(d.is_zero() || d.llc_references == 0);
        assert_eq!(d.instructions, 0);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = sample(100, 300, 7);
        let b = sample(50, 60, 3);
        assert_eq!((a + b) - b, a);
    }

    #[test]
    fn mpmi_is_per_million_instructions() {
        let pmc = PmcSet {
            instructions: 2_000_000,
            llc_misses: 10,
            ..PmcSet::default()
        };
        assert!((pmc.llc_mpmi() - 5.0).abs() < 1e-12);
    }
}
