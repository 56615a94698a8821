//! `BENCH_substrate.json`, the repository's committed performance ledger.
//!
//! This module is the one place that knows the file's format,
//! `kyoto-substrate-bench/v1`. `substrate_baseline` fills a [`Ledger`] and
//! writes it with [`Ledger::to_json`]; `substrate_baseline --check FILE`
//! reads it back with [`Ledger::read`] and runs [`check`], which evaluates
//! one row of [`GATES`] per gate. The layout is line-oriented JSON: one
//! row, section entry or scaling point per line. The reader accepts that
//! layout and nothing else: any other text, a file over [`MAX_BYTES`] or
//! a missing entry is a typed [`LedgerError`], never a panic.

use std::fmt::{self, Write as _};
use std::io::Read as _;
use std::path::Path;

/// Schema tag of the layout this module writes and reads.
pub const SCHEMA: &str = "kyoto-substrate-bench/v1";

/// Largest file [`Ledger::read`] and [`Ledger::parse`] accept (the
/// committed file is about 4 KB).
pub const MAX_BYTES: usize = 1 << 20;

/// Sections written before `parallel_bench_threads` (the two serial ones).
const THREADS_AFTER: usize = 2;

/// One measured throughput of `results[]`.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Row name, e.g. `cache_access_hit_heavy`.
    pub name: String,
    /// Unit of `value`, e.g. `Mops/s`.
    pub unit: String,
    /// The best rate over the repetitions.
    pub value: f64,
}

/// A named group of ratios, `"name": { "key": value, ... }`.
#[derive(Clone, Debug, PartialEq)]
pub struct Section {
    /// Section name, e.g. `optimized_vs_seed_speedup`.
    pub name: String,
    /// `(key, ratio)` pairs in file order.
    pub entries: Vec<(String, f64)>,
}

impl Section {
    /// A section named `name` holding `entries`.
    pub fn new(name: &str, entries: Vec<(String, f64)>) -> Self {
        Section {
            name: name.to_string(),
            entries,
        }
    }
}

/// One point of `parallel_scaling_curve`: a cloudscale cell timed with the
/// serial and with the socket-parallel engine.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingPoint {
    /// Sockets of the machine.
    pub sockets: usize,
    /// VMs consolidated onto it.
    pub vms: usize,
    /// Best wall-clock seconds of the serial-engine run.
    pub serial_secs: f64,
    /// Best wall-clock seconds of the parallel-engine run.
    pub parallel_secs: f64,
    /// `serial_secs / parallel_secs`.
    pub speedup: f64,
}

/// The whole `BENCH_substrate.json` file.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// `bench_config()` scale the rows ran at.
    pub scale: u64,
    /// `bench_config()` seed.
    pub seed: u64,
    /// Simulated cycles per slot of each engine-row `run_slots` call.
    pub cycle_budget: u64,
    /// Throughput rows in measurement order.
    pub rows: Vec<Row>,
    /// Ratio sections in file order.
    pub sections: Vec<Section>,
    /// Hardware threads of the measuring host (`parallel_bench_threads`).
    pub threads: usize,
    /// `parallel_scaling_curve`, one point per socket count.
    pub scaling_curve: Vec<ScalingPoint>,
}

/// Why a ledger could not be read or gated.
#[derive(Clone, Debug, PartialEq)]
pub enum LedgerError {
    /// The file could not be opened or read.
    Unreadable(String),
    /// The file is larger than [`MAX_BYTES`].
    TooLarge,
    /// The text is not the layout [`Ledger::to_json`] writes, from this
    /// 1-based line on (0: the text is not UTF-8).
    Malformed(usize),
    /// A top-level entry every v1 file has is absent.
    MissingEntry(&'static str),
    /// A gated `section` or `section.key` is absent; the gate covers the
    /// named layer.
    MissingGated(String, &'static str),
    /// A floor override (variable, value) is not a number.
    BadFloor(&'static str, String),
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::Unreadable(error) => write!(f, "cannot read the file: {error}"),
            LedgerError::TooLarge => write!(f, "file is larger than {MAX_BYTES} bytes"),
            LedgerError::Malformed(0) => write!(f, "not UTF-8 text"),
            LedgerError::Malformed(line) => write!(f, "line {line} is not the {SCHEMA} layout"),
            LedgerError::MissingEntry(entry) => write!(f, "no `{entry}` entry"),
            LedgerError::MissingGated(entry, layer) => write!(f, "no `{entry}` to gate [{layer}]"),
            LedgerError::BadFloor(var, value) => write!(f, "{var}={value:?} is not a number"),
        }
    }
}

/// Appends `items` one per line, comma-separated, between an `open` and a
/// `close` line.
fn block(json: &mut String, open: &str, items: impl ExactSizeIterator<Item = String>, close: &str) {
    let _ = writeln!(json, "  {open}");
    let last = items.len().saturating_sub(1);
    for (i, item) in items.enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(json, "    {item}{comma}");
    }
    let _ = writeln!(json, "  {close}");
}

impl Ledger {
    /// Appends a row named `name` measuring `value` in `unit`.
    pub fn row(&mut self, name: impl Into<String>, unit: &str, value: f64) {
        let (name, unit) = (name.into(), unit.to_string());
        self.rows.push(Row { name, unit, value });
    }

    /// Renders the v1 layout, values rounded to two decimals (four for
    /// the scaling curve's seconds).
    pub fn to_json(&self) -> String {
        let mut json = format!("{{\n  \"schema\": \"{SCHEMA}\",\n");
        let _ = writeln!(
            json,
            "  \"config\": {{ \"scale\": {}, \"seed\": {}, \"engine_cycle_budget\": {} }},",
            self.scale, self.seed, self.cycle_budget
        );
        let rows = self.rows.iter().map(|Row { name, unit, value }| {
            format!("{{ \"name\": \"{name}\", \"unit\": \"{unit}\", \"value\": {value:.2} }}")
        });
        block(&mut json, "\"results\": [", rows, "],");
        let threads_at = THREADS_AFTER.min(self.sections.len());
        for i in 0..=self.sections.len() {
            if i == threads_at {
                let _ = writeln!(json, "  \"parallel_bench_threads\": {},", self.threads);
            }
            let Some(section) = self.sections.get(i) else {
                break;
            };
            let open = format!("\"{}\": {{", section.name);
            let entries = section.entries.iter();
            let entries = entries.map(|(key, value)| format!("\"{key}\": {value:.2}"));
            block(&mut json, &open, entries, "},");
        }
        let points = self.scaling_curve.iter().map(|point| {
            format!(
                "{{ \"sockets\": {}, \"vms\": {}, \"serial_secs\": {:.4}, \"parallel_secs\": {:.4}, \"speedup\": {:.2} }}",
                point.sockets, point.vms, point.serial_secs, point.parallel_secs, point.speedup
            )
        });
        block(&mut json, "\"parallel_scaling_curve\": [", points, "]");
        json.push_str("}\n");
        json
    }

    /// Reads and parses the file at `path`, reading at most one byte past
    /// [`MAX_BYTES`].
    pub fn read(path: &Path) -> Result<Ledger, LedgerError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)
            .and_then(|file| file.take(MAX_BYTES as u64 + 1).read_to_end(&mut bytes))
            .map_err(|error| LedgerError::Unreadable(error.to_string()))?;
        Ledger::parse(&bytes)
    }

    /// Parses the layout [`Ledger::to_json`] writes, exactly: a text that
    /// does not rewrite to itself byte for byte is rejected at the first
    /// line that differs.
    pub fn parse(bytes: &[u8]) -> Result<Ledger, LedgerError> {
        if bytes.len() > MAX_BYTES {
            return Err(LedgerError::TooLarge);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| LedgerError::Malformed(0))?;
        let mut ledger = Ledger::default();
        let mut threads = None;
        for (index, line) in text.lines().enumerate() {
            ledger
                .parse_line(line, &mut threads)
                .ok_or(LedgerError::Malformed(index + 1))?;
        }
        ledger.threads = threads.ok_or(LedgerError::MissingEntry("parallel_bench_threads"))?;
        let written = ledger.to_json();
        if written != text {
            let same = written
                .lines()
                .zip(text.lines())
                .take_while(|(a, b)| a == b);
            return Err(LedgerError::Malformed(same.count() + 1));
        }
        Ok(ledger)
    }

    /// Records what one line holds; `None` for a line the layout never has.
    /// Where the line sits is checked by the rewrite in [`Ledger::parse`].
    fn parse_line(&mut self, line: &str, threads: &mut Option<usize>) -> Option<()> {
        let text = line.trim_start();
        let text = text.strip_suffix(',').unwrap_or(text);
        if let Some([name, unit, value]) = fields(text, ["name", "unit", "value"]) {
            let unquote = |text: &str| Some(text.strip_prefix('"')?.strip_suffix('"')?.to_string());
            let (name, unit) = (unquote(name)?, unquote(unit)?);
            self.row(name, &unit, number(value)?);
            return Some(());
        }
        let keys = ["sockets", "vms", "serial_secs", "parallel_secs", "speedup"];
        if let Some([sockets, vms, serial, parallel, speedup]) = fields(text, keys) {
            self.scaling_curve.push(ScalingPoint {
                sockets: sockets.parse().ok()?,
                vms: vms.parse().ok()?,
                serial_secs: number(serial)?,
                parallel_secs: number(parallel)?,
                speedup: number(speedup)?,
            });
            return Some(());
        }
        let Some((key, value)) = text.strip_prefix('"').and_then(|t| t.split_once("\": ")) else {
            return ["{", "}", "]"].contains(&text).then_some(());
        };
        if line.starts_with("    ") {
            let entry = (key.to_string(), number(value)?);
            self.sections.last_mut()?.entries.push(entry);
            return Some(());
        }
        match (key, value) {
            ("config", value) => {
                let config = fields(value, ["scale", "seed", "engine_cycle_budget"])?;
                let [scale, seed, budget] = config.map(str::parse::<u64>);
                (self.scale, self.seed, self.cycle_budget) =
                    (scale.ok()?, seed.ok()?, budget.ok()?);
            }
            ("parallel_bench_threads", value) => *threads = Some(value.parse().ok()?),
            ("schema" | "results" | "parallel_scaling_curve", _) => {}
            (name, "{") => self.sections.push(Section::new(name, Vec::new())),
            _ => return None,
        }
        Some(())
    }
}

/// A number as the writer prints it: never in exponent form, so a value's
/// rewrite is no longer than its text.
fn number(text: &str) -> Option<f64> {
    (!text.contains(['e', 'E'])).then(|| text.parse().ok())?
}

/// The values of a one-line object `{ "k": v, ... }` holding exactly
/// `keys`, in order.
fn fields<'a, const N: usize>(text: &'a str, keys: [&str; N]) -> Option<[&'a str; N]> {
    let mut parts = text.strip_prefix("{ ")?.strip_suffix(" }")?.split(", ");
    let mut values = [""; N];
    for (value, key) in values.iter_mut().zip(keys) {
        let part = parts.next()?.strip_prefix('"')?;
        *value = part.strip_prefix(key)?.strip_prefix("\": ")?;
    }
    parts.next().is_none().then_some(values)
}

/// One row of the regression gate.
#[derive(Debug)]
pub struct Gate {
    /// The gated section.
    pub section: &'static str,
    /// The gated key, or every key of the section when `None`.
    pub key: Option<&'static str>,
    /// The environment variable overriding [`Gate::floor`].
    pub floor_var: &'static str,
    /// The default floor every gated value must reach.
    pub floor: f64,
    /// Whether the gate needs a host with two or more hardware threads.
    pub parallel: bool,
    /// The layer a failure names.
    pub layer: &'static str,
}

/// The regression gate, one row per gated ratio.
#[rustfmt::skip]
pub const GATES: [Gate; 6] = [
    Gate { section: "optimized_vs_seed_speedup", key: None, floor_var: "BENCH_MIN_SPEEDUP",
           floor: 1.5, parallel: false, layer: "cache + engine hot path vs the frozen seed" },
    Gate { section: "parallel_vs_serial_speedup_cloud", key: None, floor_var: "PARALLEL_MIN_SPEEDUP",
           floor: 1.1, parallel: true, layer: "socket-parallel engine" },
    Gate { section: "cluster_epoch_parallel_vs_serial", key: None, floor_var: "PARALLEL_MIN_SPEEDUP",
           floor: 1.1, parallel: true, layer: "cell-parallel cluster epochs" },
    Gate { section: "fleet_churn_parallel_vs_serial", key: None, floor_var: "PARALLEL_MIN_SPEEDUP",
           floor: 1.1, parallel: true, layer: "cell-parallel cluster epochs under churn" },
    Gate { section: "trace_overhead", key: Some("off_vs_untraced"),
           floor_var: "KYOTO_MIN_TRACE_OFF_RATIO", floor: 0.95, parallel: false,
           layer: "disabled trace plane" },
    Gate { section: "fault_machinery_overhead", key: Some("zero_rate_plan_vs_no_plan"),
           floor_var: "KYOTO_MIN_FAULT_OVERHEAD_RATIO", floor: 0.8, parallel: false,
           layer: "cluster fault boundary" },
];

/// One floor per gate, index for index with [`GATES`].
pub type Floors = [f64; GATES.len()];

/// Every gate's default floor.
pub fn default_floors() -> Floors {
    GATES.map(|gate| gate.floor)
}

/// The default floors with each gate's environment override applied.
pub fn floors_from_env() -> Result<Floors, LedgerError> {
    let mut floors = default_floors();
    for (floor, gate) in floors.iter_mut().zip(&GATES) {
        if let Ok(value) = std::env::var(gate.floor_var) {
            let parsed = value.trim().parse();
            *floor = parsed.map_err(|_| LedgerError::BadFloor(gate.floor_var, value))?;
        }
    }
    Ok(floors)
}

/// One gated value and its floor.
#[derive(Debug)]
pub struct Outcome {
    /// The gate that checked it.
    pub gate: &'static Gate,
    /// The section key.
    pub key: String,
    /// The recorded value.
    pub value: f64,
    /// The floor it had to reach.
    pub floor: f64,
}

impl Outcome {
    /// Whether the value is finite and at or above the floor.
    pub fn passed(&self) -> bool {
        self.value.is_finite() && self.value >= self.floor
    }
}

impl fmt::Display for Outcome {
    /// `section.key value < floor [layer]` (`>=` when it passed).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let relation = if self.passed() { ">=" } else { "<" };
        write!(
            f,
            "{}.{} {:.2} {relation} {} [{}]",
            self.gate.section, self.key, self.value, self.floor, self.gate.layer
        )
    }
}

/// The result of gating a ledger: every evaluated value, and the gates
/// skipped because the measuring host had a single hardware thread.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Every gated value, in [`GATES`] order.
    pub outcomes: Vec<Outcome>,
    /// Parallel gates not evaluated.
    pub skipped: Vec<&'static Gate>,
}

impl Verdict {
    /// The values below their floor.
    pub fn failures(&self) -> impl Iterator<Item = &Outcome> {
        self.outcomes.iter().filter(|outcome| !outcome.passed())
    }
}

/// Evaluates every gate of [`GATES`] against `ledger` with `floors`. On a
/// single-thread host (`threads <= 1`) the parallel gates are skipped,
/// since their ratios are structurally ~1.0x there. A gated section or key
/// that is absent is an error, not a pass.
pub fn check(ledger: &Ledger, floors: &Floors) -> Result<Verdict, LedgerError> {
    let gates: &'static [Gate] = &GATES;
    let mut verdict = Verdict::default();
    for (gate, &floor) in gates.iter().zip(floors) {
        if gate.parallel && ledger.threads <= 1 {
            verdict.skipped.push(gate);
            continue;
        }
        let missing = |entry: String| LedgerError::MissingGated(entry, gate.layer);
        let section = ledger
            .sections
            .iter()
            .find(|section| section.name == gate.section)
            .ok_or_else(|| missing(gate.section.to_string()))?;
        let before = verdict.outcomes.len();
        for (key, value) in &section.entries {
            if gate.key.is_none_or(|gated| gated == key) {
                verdict.outcomes.push(Outcome {
                    gate,
                    key: key.clone(),
                    value: *value,
                    floor,
                });
            }
        }
        if verdict.outcomes.len() == before {
            let key = gate.key.unwrap_or("*");
            return Err(missing(format!("{}.{key}", gate.section)));
        }
    }
    Ok(verdict)
}
