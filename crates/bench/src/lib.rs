//! # kyoto-bench — benchmark harness for the Kyoto reproduction
//!
//! * the [`figures`](../figures/index.html) binary regenerates every table
//!   and figure of the paper (`cargo run -p kyoto-bench --bin figures --release -- all`);
//! * `substrate_baseline` times each substrate layer into
//!   `BENCH_substrate.json` and gates that file (`--check`) through [`ledger`];
//! * [`legacy`] freezes the seed hot path the engine rows compare against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod legacy;

use kyoto_experiments::config::ExperimentConfig;

/// The configuration `substrate_baseline` measures at: small enough that
/// each repetition completes in well under a second, large enough that
/// contention phenomena are visible.
pub fn bench_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 256,
        seed: 42,
        warmup_ticks: 2,
        measure_ticks: 5,
        parallel_engine: false,
    }
}

/// The configuration used by the `figures` binary at standard fidelity.
pub fn figures_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 64,
        seed: 42,
        warmup_ticks: 9,
        measure_ticks: 30,
        parallel_engine: false,
    }
}

/// The configuration used by the `figures` binary at quick fidelity.
pub fn figures_quick_config() -> ExperimentConfig {
    ExperimentConfig {
        scale: 128,
        seed: 42,
        warmup_ticks: 5,
        measure_ticks: 12,
        parallel_engine: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configs_are_ordered_by_cost() {
        assert!(bench_config().total_ticks() <= figures_quick_config().total_ticks());
        assert!(figures_quick_config().total_ticks() <= figures_config().total_ticks());
        assert!(figures_config().scale <= figures_quick_config().scale);
    }
}
