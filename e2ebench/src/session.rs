//! What every workload provides to the runner: a session built from a seed,
//! stepped one closed-loop call at a time, then checked and digested.

use crate::spans::{SpanId, Spans};
use kyoto::experiments::config::ExperimentConfig;
use std::collections::BTreeMap;

/// Host-time samples of per-layer calls, keyed by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

/// What a finished session reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest over the simulated outputs (see each workload's `finish`).
    pub digest: u64,
    /// Exact per-layer counts and ratios over the measured steps, keyed by
    /// metric name. Simulated, so identical in every session of one seed.
    pub counts: BTreeMap<&'static str, f64>,
}

/// One workload instance, built from a seed by [`Workload::build`].
pub trait Session {
    /// Runs one step: one `Hypervisor::step_tick` or one
    /// `FleetService::run_epoch`.
    fn step(&mut self) -> Result<(), String>;

    /// Simulated instructions retired so far, summed over every VM's PMCs.
    fn instructions(&self) -> u64;

    /// Marks the end of warm-up: the per-layer counts start here.
    fn start_measuring(&mut self);

    /// In a traced session, after each measured step: calls the pure public
    /// functions of layers the step reaches only from inside, on the same
    /// inputs, and records their host time (spans hang off `step`).
    fn probe(&mut self, _spans: &mut Spans, _step: SpanId, _samples: &mut Samples) {}

    /// Checks conservation and that the workload's mechanism fired, then
    /// digests the simulated outputs and folds the per-layer counts.
    fn finish(
        &mut self,
        spans: &mut Spans,
        parent: SpanId,
        samples: &mut Samples,
    ) -> Result<Outcome, String>;
}

/// Which layer's public call a step is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepCall {
    /// `Hypervisor::step_tick`.
    HypervisorTick,
    /// `FleetService::run_epoch`.
    ServiceEpoch,
}

/// A named workload of the benchmark.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The public call one step makes.
    pub step_call: StepCall,
    /// Steps run after set-up and before timing starts, so the modelled
    /// caches are warm.
    pub warmup_steps: u64,
    /// Timed steps per session.
    pub measured_steps: u64,
    /// Builds a session: everything from the seed to the first step.
    pub build: fn(seed: u64, traced: bool) -> Result<Box<dyn Session>, String>,
}

/// Derives an independent seed for `stream` item `index` from the
/// workload seed (SplitMix64 finaliser), so VM, wake-source, request and
/// fault streams never share RNG state.
pub fn derive_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the permit calibration. The permit unit (simulated misses/ms per
/// paper `1k`) is a property of the simulated machine, not of a workload,
/// so every workload seed books the same permits.
const CALIBRATION_SEED: u64 = 42;

/// The configuration `calibrate_permits` measures lbm's solo pollution
/// with, on the machine of the given scale.
pub fn calibration_config(scale: u64) -> ExperimentConfig {
    ExperimentConfig {
        scale,
        seed: CALIBRATION_SEED,
        warmup_ticks: 0,
        measure_ticks: 0,
        parallel_engine: false,
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_differ_per_stream_and_index() {
        let a = derive_seed(42, 1, 0);
        assert_ne!(a, derive_seed(42, 1, 1));
        assert_ne!(a, derive_seed(42, 2, 0));
        assert_ne!(a, derive_seed(43, 1, 0));
        assert_eq!(a, derive_seed(42, 1, 0));
    }

    #[test]
    fn ratio_guards_a_zero_denominator() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
