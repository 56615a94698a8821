//! Regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p kyoto-bench --bin figures -- all
//! cargo run --release -p kyoto-bench --bin figures -- fig1 fig5
//! cargo run --release -p kyoto-bench --bin figures -- --quick all
//! cargo run --release -p kyoto-bench --bin figures -- --jobs 4 all
//! cargo run --release -p kyoto-bench --bin figures -- --parallel-engine all
//! cargo run --release -p kyoto-bench --bin figures -- --scenario cloudscale
//! cargo run --release -p kyoto-bench --bin figures -- --scenario fleet
//! cargo run --release -p kyoto-bench --bin figures -- --scenario churn
//! cargo run --release -p kyoto-bench --bin figures -- --scenario failures
//! cargo run --release -p kyoto-bench --bin figures -- --no-timing all
//! cargo run --release -p kyoto-bench --bin figures -- --scenario service --trace-out t.txt
//! cargo run --release -p kyoto-bench --bin figures -- --trace-out trace.json all
//! ```
//!
//! Figure scenarios are independent: each builds its own machine, engine and
//! hypervisor from the shared [`ExperimentConfig`] and derives deterministic
//! per-VM seeds from it. `--jobs N` therefore runs them on `N` scoped worker
//! threads (the cloudscale and fleet sweeps additionally fan their own
//! cells out over the same budget); outputs are buffered and printed in the
//! requested order, so the report is byte-identical whatever the
//! parallelism. The `fleet` scenario (the `kyoto-cluster` subsystem,
//! including its churn sweep — `churn` renders that half alone) runs its
//! cluster cells on scoped threads when `--parallel-engine` is set — also
//! bit-identically.
//! `--parallel-engine` additionally runs each scenario's engine ticks with
//! one thread per populated socket (`SimEngine::run_slots_parallel`); the
//! per-socket op order is preserved exactly, so figure content stays
//! byte-identical with the switch on or off. `--no-timing` suppresses the
//! wall-clock lines, making the *entire* output byte-deterministic — the CI
//! determinism gate diffs two such runs. `--scenario NAME` is an explicit
//! way to select one target (identical to passing `NAME` positionally).
//! `--trace-out PATH` additionally captures one representative cycle-domain
//! trace per selected target domain ([`kyoto_experiments::trace`]) and
//! writes the merged document to PATH — Chrome trace-event JSON (open in
//! Perfetto) when PATH ends in `.json`, text format v1 with the
//! `CycleProfile` rollup appended as comments otherwise. Trace timestamps
//! are simulated cycles, so the file is byte-identical across reruns and
//! `--parallel-engine`; the status note goes to stderr, keeping stdout
//! unchanged. A `--trace-out` without a PATH (or with a flag in its place)
//! exits 2 with a usage line.

use kyoto_bench::{figures_config, figures_quick_config};
use kyoto_experiments::cloudscale::{self, CloudscaleSweep};
use kyoto_experiments::config::ExperimentConfig;
use kyoto_experiments::failures::{self, FailureSweep};
use kyoto_experiments::fleet::{self, FleetSweep};
use kyoto_experiments::harness::run_jobs;
use kyoto_experiments::service::{self, ServiceSweep};
use kyoto_experiments::{
    fig1, fig10, fig11, fig12, fig2, fig3, fig4, fig5, fig6, fig8, fig9, interactive, tables,
};
use std::time::Instant;

const USAGE: &str = "usage: figures [--quick] [--jobs N] [--parallel-engine] [--no-timing] \
                     [--trace-out PATH] [--scenario NAME] [TARGET...|all]";

const ALL_TARGETS: [&str; 19] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "cloudscale",
    "fleet",
    "churn",
    "failures",
    "service",
    "interactive",
];

fn render_target(
    target: &str,
    config: &ExperimentConfig,
    quick: bool,
    jobs: usize,
) -> Option<String> {
    Some(match target {
        "table1" => tables::table1().to_table(),
        "table2" => tables::table2().to_table(),
        "fig1" => fig1::run(config).to_table(),
        "fig2" => fig2::run(config).to_table(),
        "fig3" => fig3::run(config).to_table(),
        "fig4" => fig4::run(config).to_table(),
        "fig5" => fig5::run(config).to_table(),
        "fig6" => fig6::run(config).to_table(),
        "fig8" => fig8::run(config).to_table(),
        "fig9" => fig9::run(config).to_table(),
        "fig10" => fig10::run(config).to_table(),
        "fig11" => fig11::run(config).to_table(),
        "fig12" => fig12::run(config).to_table(),
        "cloudscale" => {
            let sweep = if quick {
                CloudscaleSweep::small()
            } else {
                CloudscaleSweep::standard()
            };
            // The sweep's cells fan out over their own `--jobs`-sized pool,
            // nested inside this scenario worker (transiently up to ~2x the
            // budget while other scenarios finish; scoped threads, so the
            // surplus drains with them). Output is byte-identical whatever
            // the thread count.
            cloudscale::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "fleet" => {
            let sweep = if quick {
                FleetSweep::small()
            } else {
                FleetSweep::standard()
            };
            // Static consolidation cells plus the churn sweep, fanned out
            // over the shared `--jobs` budget like cloudscale's cells.
            fleet::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "churn" => {
            // The churn half alone: fleet dynamics (VM arrival/departure
            // streams, a scripted drain/join cycle) under every policy in
            // both planner modes — the CI determinism gate's churn target.
            let sweep = if quick {
                FleetSweep::small()
            } else {
                FleetSweep::standard()
            };
            fleet::run_churn_with_jobs(config, &sweep, jobs)
                .map(|churn| churn.to_table())
                .unwrap_or_else(|| "Fleet churn: no churn sweep configured\n".to_string())
        }
        "failures" => {
            // The fleet under injected faults: cell crashes (orphans
            // re-admitted through the bounded-backoff retry queue),
            // slowdowns and mid-migration aborts, swept over crash rate x
            // policy x planner mode — the CI determinism gate's failures
            // target.
            let sweep = if quick {
                FailureSweep::small()
            } else {
                FailureSweep::standard()
            };
            failures::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "service" => {
            // The fleet behind the kyoto-service control plane: a request
            // trace replayed through the SLA-aware admission controller
            // over arrival rate x admission policy, with a mid-trace
            // checkpoint/restore check baked in — the CI determinism
            // gate's service target.
            let sweep = if quick {
                ServiceSweep::small()
            } else {
                ServiceSweep::standard()
            };
            service::run_with_sweep_jobs(config, &sweep, jobs).to_table()
        }
        "interactive" => {
            // Sleep-mostly latency-sensitive VMs (Ready/Running/Blocked
            // lifecycle, timer wakes) consolidated with batch polluters
            // under KS4Xen — the CI determinism gate's interactive target.
            interactive::run(config).to_table()
        }
        _ => return None,
    })
}

/// The value of each `NAME=VALUE` or `NAME VALUE` occurrence of flag
/// `name`, in order; `None` for a trailing `NAME` with nothing after it.
fn flag_values<'a>(args: &'a [String], name: &'a str) -> impl Iterator<Item = Option<&'a str>> {
    args.iter()
        .enumerate()
        .filter_map(move |(i, arg)| match arg.strip_prefix(name)? {
            "" => Some(args.get(i + 1).map(String::as_str)),
            rest => rest.strip_prefix('=').map(Some),
        })
}

/// `--jobs N`, defaulting to the host's parallelism. Only a numeric value
/// counts: `--jobs fig1` keeps fig1 as a target.
fn parse_jobs(args: &[String]) -> usize {
    let jobs = flag_values(args, "--jobs").next().flatten();
    let default = || std::thread::available_parallelism().map_or(1, |n| n.get());
    jobs.and_then(|jobs| jobs.parse().ok())
        .map_or_else(default, |jobs: usize| jobs.max(1))
}

/// The `--trace-out` path, if one is given. A missing value, or a flag in
/// its place, is an error.
fn parse_trace_out(args: &[String]) -> Result<Option<&str>, &'static str> {
    match flag_values(args, "--trace-out").next() {
        None => Ok(None),
        Some(Some(path)) if !path.is_empty() && !path.starts_with("--") => Ok(Some(path)),
        Some(_) => Err("--trace-out needs a PATH"),
    }
}

/// Captures the selected targets' representative traces and writes the
/// merged document to `path` — Chrome JSON for `.json`, text v1 with the
/// cycle-profile rollup otherwise. Status goes to stderr so stdout stays
/// byte-identical with and without the flag.
fn write_trace(path: &str, targets: &[&str], config: &ExperimentConfig) {
    let doc = kyoto_experiments::trace::capture_merged(targets, config);
    let output = if path.ends_with(".json") {
        let json = kyoto_trace::to_chrome_json(&doc);
        kyoto_trace::validate_json(&json).expect("chrome trace export is valid JSON");
        json
    } else {
        kyoto_experiments::trace::render_with_profile(&doc)
    };
    if let Err(error) = std::fs::write(path, output) {
        eprintln!("failed to write trace to `{path}`: {error}");
        std::process::exit(1);
    }
    eprintln!("[trace written to {path}]");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let parallel_engine = args.iter().any(|a| a == "--parallel-engine");
    let no_timing = args.iter().any(|a| a == "--no-timing");
    let jobs = parse_jobs(&args);
    let config = if quick {
        figures_quick_config()
    } else {
        figures_config()
    }
    .with_parallel_engine(parallel_engine);
    let trace_out = parse_trace_out(&args).unwrap_or_else(|error| {
        eprintln!("error: {error}\n{USAGE}");
        std::process::exit(2);
    });
    // Targets are the non-flag arguments, less the value of a preceding
    // `--trace-out` and the numeric value of a preceding `--jobs`
    // (`--jobs fig1` keeps fig1 as a target).
    let mut targets: Vec<&str> = (0..args.len())
        .filter(|&i| {
            let is_value = match i.checked_sub(1).map(|previous| args[previous].as_str()) {
                Some("--trace-out") => true,
                Some("--jobs") => args[i].parse::<usize>().is_ok(),
                _ => false,
            };
            !is_value && !args[i].starts_with("--")
        })
        .map(|i| args[i].as_str())
        .collect();
    // `--scenario NAME` selects a target explicitly (equivalent to passing
    // NAME positionally; the value is already kept by the filter above).
    for name in flag_values(&args, "--scenario").flatten() {
        if !targets.contains(&name) {
            targets.push(name);
        }
    }
    if targets.is_empty() || targets.contains(&"all") {
        targets = ALL_TARGETS.to_vec();
    }
    println!(
        "Kyoto figure regeneration (scale 1/{}, {} warm-up + {} measured ticks per scenario, {} jobs)",
        config.scale, config.warmup_ticks, config.measure_ticks, jobs
    );
    println!("{}", "=".repeat(72));
    let start = Instant::now();
    let rendered = run_jobs(targets.len(), jobs, |index| {
        let start = Instant::now();
        let output = render_target(targets[index], &config, quick, jobs);
        (output, start.elapsed())
    });
    for (target, (output, elapsed)) in targets.iter().zip(rendered) {
        match output {
            Some(table) => {
                println!("{table}");
                if !no_timing {
                    println!("[{} generated in {:.1?}]", target, elapsed);
                }
            }
            None => eprintln!("unknown target `{target}` (known: {ALL_TARGETS:?})"),
        }
        println!("{}", "=".repeat(72));
    }
    if !no_timing {
        println!("[all targets done in {:.1?}]", start.elapsed());
    }
    if let Some(path) = trace_out {
        write_trace(path, &targets, &config);
    }
}
