//! Shared experiment configuration.
//!
//! Every experiment is parameterised by an [`ExperimentConfig`] that decides
//! the machine scale factor, the RNG seed and how long scenarios run. The
//! paper's experiments run real SPEC workloads for minutes on real hardware;
//! the reproduction runs scaled-down machines (caches and working sets
//! shrunk by the same factor, which preserves every contention phenomenon)
//! for a configurable number of scheduler ticks.

use kyoto_hypervisor::hypervisor::HypervisorConfig;
use kyoto_sim::topology::{Machine, MachineConfig};
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use serde::{Deserialize, Serialize};

/// How much simulated time an experiment spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Fidelity {
    /// Short runs on a heavily scaled machine — used by unit/integration
    /// tests and quick smoke runs (seconds of wall-clock time).
    Quick,
    /// Longer runs on a moderately scaled machine — used by the `figures`
    /// binary.
    Standard,
}

/// Parameters shared by every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Machine scale factor (cache capacities, frequency and working sets
    /// divided by this factor).
    pub scale: u64,
    /// Base RNG seed; every scenario derives its own sub-seeds from it.
    pub seed: u64,
    /// Warm-up ticks excluded from measurements.
    pub warmup_ticks: u64,
    /// Measured ticks.
    pub measure_ticks: u64,
    /// Run scenario hypervisors with socket-parallel engine execution (one
    /// thread per populated socket inside each tick). Results are
    /// bit-identical to the serial engine — the parallel path preserves
    /// per-socket op order exactly — so every figure is byte-identical with
    /// the switch on or off; only multi-socket wall-clock time changes.
    pub parallel_engine: bool,
}

impl ExperimentConfig {
    /// Test-friendly configuration (small and fast).
    pub fn quick() -> Self {
        ExperimentConfig {
            scale: 128,
            seed: 42,
            warmup_ticks: 4,
            measure_ticks: 10,
            parallel_engine: false,
        }
    }

    /// Figure-quality configuration.
    pub fn standard() -> Self {
        ExperimentConfig {
            scale: 32,
            seed: 42,
            warmup_ticks: 12,
            measure_ticks: 45,
            parallel_engine: false,
        }
    }

    /// Returns the same configuration with socket-parallel engine execution
    /// enabled or disabled (see [`ExperimentConfig::parallel_engine`]).
    pub fn with_parallel_engine(mut self, parallel: bool) -> Self {
        self.parallel_engine = parallel;
        self
    }

    /// The configuration for a fidelity level.
    pub fn for_fidelity(fidelity: Fidelity) -> Self {
        match fidelity {
            Fidelity::Quick => Self::quick(),
            Fidelity::Standard => Self::standard(),
        }
    }

    /// The scaled single-socket machine of Table 1.
    pub fn machine(&self) -> Machine {
        Machine::new(MachineConfig::scaled_paper_machine(self.scale))
    }

    /// The scaled two-socket NUMA machine used by Fig. 9.
    pub fn numa_machine(&self) -> Machine {
        Machine::new(MachineConfig::scaled_paper_numa_machine(self.scale))
    }

    /// The scaled machine configuration.
    pub fn machine_config(&self) -> MachineConfig {
        MachineConfig::scaled_paper_machine(self.scale)
    }

    /// The scaled NUMA machine configuration.
    pub fn numa_machine_config(&self) -> MachineConfig {
        MachineConfig::scaled_paper_numa_machine(self.scale)
    }

    /// The scaled N-socket cloud consolidation machine (the paper's
    /// per-socket geometry replicated `sockets` times) used by the
    /// cloudscale scenario.
    pub fn cloud_machine(&self, sockets: usize) -> Machine {
        Machine::new(self.cloud_machine_config(sockets))
    }

    /// The scaled N-socket machine configuration.
    pub fn cloud_machine_config(&self, sockets: usize) -> MachineConfig {
        MachineConfig::scaled_cloud_machine(sockets, self.scale)
    }

    /// Default hypervisor timing (10 ms ticks, 30 ms slices), carrying this
    /// configuration's engine-parallelism switch.
    pub fn hypervisor_config(&self) -> HypervisorConfig {
        HypervisorConfig::default().with_parallel_engine(self.parallel_engine)
    }

    /// Converts a paper-scale `llc_cap` (e.g. `250_000.0` for the paper's
    /// `250k`) to the scaled machine's units.
    pub fn scaled_llc_cap(&self, paper_misses_per_ms: f64) -> f64 {
        paper_misses_per_ms / self.scale as f64
    }

    /// Instantiates a SPEC-like workload at this configuration's scale.
    pub fn workload(&self, app: SpecApp, salt: u64) -> SpecWorkload {
        SpecWorkload::new(app, self.scale, self.seed.wrapping_add(salt))
    }

    /// Total ticks a scenario runs (warm-up + measurement).
    pub fn total_ticks(&self) -> u64 {
        self.warmup_ticks + self.measure_ticks
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::quick()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_is_smaller_than_standard() {
        let quick = ExperimentConfig::quick();
        let standard = ExperimentConfig::standard();
        assert!(quick.scale >= standard.scale);
        assert!(quick.total_ticks() < standard.total_ticks());
        assert_eq!(ExperimentConfig::for_fidelity(Fidelity::Quick), quick);
        assert_eq!(ExperimentConfig::for_fidelity(Fidelity::Standard), standard);
        assert_eq!(ExperimentConfig::default(), quick);
    }

    #[test]
    fn machines_match_the_scale() {
        let config = ExperimentConfig::quick();
        assert_eq!(
            config.machine().config().llc.size_bytes,
            10 * 1024 * 1024 / config.scale
        );
        assert_eq!(config.numa_machine().num_sockets(), 2);
        assert_eq!(config.cloud_machine(8).num_sockets(), 8);
        assert_eq!(
            config.cloud_machine_config(4).llc.size_bytes,
            config.machine_config().llc.size_bytes
        );
    }

    #[test]
    fn llc_cap_scaling() {
        let config = ExperimentConfig {
            scale: 32,
            ..ExperimentConfig::quick()
        };
        assert!((config.scaled_llc_cap(250_000.0) - 7812.5).abs() < 1e-9);
    }

    #[test]
    fn workloads_are_scaled_and_seeded() {
        let config = ExperimentConfig::quick();
        let a = config.workload(SpecApp::Gcc, 1);
        let b = config.workload(SpecApp::Gcc, 2);
        use kyoto_sim::workload::Workload;
        assert_eq!(a.working_set_bytes(), b.working_set_bytes());
        assert!(a.working_set_bytes() <= 5 * 1024 * 1024 / config.scale + 64);
    }
}
