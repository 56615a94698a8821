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
//! unchanged.
//!
//! The command line is parsed strictly, before anything renders: an unknown
//! flag or target, a `--jobs` value that is not a positive integer, or a
//! `--jobs`, `--trace-out` or `--scenario` without its value (or with a flag
//! in its place) exits 2 with the usage line on stderr.

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

/// Renders one target, which [`parse_args`] has already checked is known.
fn render_target(target: &str, config: &ExperimentConfig, quick: bool, jobs: usize) -> String {
    match target {
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
        other => unreachable!("target `{other}` was not validated"),
    }
}

/// The parsed command line.
#[derive(Default)]
struct Cli<'a> {
    quick: bool,
    parallel_engine: bool,
    no_timing: bool,
    /// `--jobs N`; `None` means the host's parallelism.
    jobs: Option<usize>,
    trace_out: Option<&'a str>,
    /// Positional and `--scenario` targets, in command-line order.
    targets: Vec<&'a str>,
}

/// `name` if it is `all` or one of [`ALL_TARGETS`].
fn known_target(name: &str) -> Result<&str, String> {
    if name == "all" || ALL_TARGETS.contains(&name) {
        Ok(name)
    } else {
        Err(format!("unknown target `{name}` (known: {ALL_TARGETS:?})"))
    }
}

/// Parses the arguments. Value flags take `NAME VALUE` or `NAME=VALUE`;
/// everything that is not a flag is a target.
fn parse_args(args: &[String]) -> Result<Cli<'_>, String> {
    let mut cli = Cli::default();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if !arg.starts_with("--") {
            cli.targets.push(known_target(arg)?);
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg, None),
        };
        let mut value = || match inline.or_else(|| args.next()) {
            Some(value) if !value.is_empty() && !value.starts_with("--") => Ok(value),
            _ => Err(format!("{flag} needs a value")),
        };
        match (flag, inline) {
            ("--quick", None) => cli.quick = true,
            ("--parallel-engine", None) => cli.parallel_engine = true,
            ("--no-timing", None) => cli.no_timing = true,
            ("--jobs", _) => {
                let jobs = value()?;
                match jobs.parse() {
                    Ok(n) if n > 0 => cli.jobs = Some(n),
                    _ => return Err(format!("--jobs needs a positive integer, got `{jobs}`")),
                }
            }
            ("--trace-out", _) => cli.trace_out = Some(value()?),
            ("--scenario", _) => cli.targets.push(known_target(value()?)?),
            _ => return Err(format!("unknown flag `{arg}`")),
        }
    }
    Ok(cli)
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
    let cli = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("error: {error}\n{USAGE}");
        std::process::exit(2);
    });
    let jobs = cli
        .jobs
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    let config = if cli.quick {
        figures_quick_config()
    } else {
        figures_config()
    }
    .with_parallel_engine(cli.parallel_engine);
    let targets = if cli.targets.is_empty() || cli.targets.contains(&"all") {
        ALL_TARGETS.to_vec()
    } else {
        cli.targets
    };
    println!(
        "Kyoto figure regeneration (scale 1/{}, {} warm-up + {} measured ticks per scenario, {} jobs)",
        config.scale, config.warmup_ticks, config.measure_ticks, jobs
    );
    println!("{}", "=".repeat(72));
    let start = Instant::now();
    let rendered = run_jobs(targets.len(), jobs, |index| {
        let start = Instant::now();
        let output = render_target(targets[index], &config, cli.quick, jobs);
        (output, start.elapsed())
    });
    for (target, (table, elapsed)) in targets.iter().zip(rendered) {
        println!("{table}");
        if !cli.no_timing {
            println!("[{} generated in {:.1?}]", target, elapsed);
        }
        println!("{}", "=".repeat(72));
    }
    if !cli.no_timing {
        println!("[all targets done in {:.1?}]", start.elapsed());
    }
    if let Some(path) = cli.trace_out {
        write_trace(path, &targets, &config);
    }
}
