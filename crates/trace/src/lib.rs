//! kyoto-trace: a dependency-free, deterministic tracing + metrics plane
//! keyed on **simulated time**.
//!
//! Every event in this crate is timestamped in a simulated-time domain —
//! engine `elapsed_cycles` for execution-layer spans, the cluster
//! control-plane cursor for boundary phases — never a wall-clock. That
//! makes traces part of the repo's determinism contract: the same
//! scenario produces byte-identical trace files across reruns and across
//! serial vs parallel execution, so `ci/check_determinism.sh` can gate
//! the observability layer exactly like it gates figure output.
//!
//! The pieces:
//!
//! - [`sink::TraceSink`] — the registration point: spans, instants,
//!   monotonic counters and fixed-bucket histograms behind stable
//!   interned ids with `BTreeMap`-ordered iteration. Disabled sinks
//!   ([`sink::TraceConfig::Off`], the default) cost one branch per
//!   record call; the `substrate_baseline` bench pins this.
//! - [`format::TraceDoc`] — the text format v1 snapshot with
//!   render/parse inverses.
//! - [`chrome`] — Chrome trace-event JSON export, loadable in Perfetto,
//!   with a dependency-free JSON syntax validator.
//! - [`profile::CycleProfile`] — the self/total cycles rollup per span
//!   name: the in-repo flamegraph substitute.
//!
//! Producers live in the other crates: `SimEngine` records per-batch
//! spans and PMC counters, the hypervisor records scheduler pick and
//! punishment instants, the cluster records boundary phases and fault
//! events (merging per-cell engine sinks deterministically in cell-id
//! order), and `FleetService` records the request → admission-decision →
//! placement causality chain. `figures --trace-out <path>` exports any
//! scenario's trace (text v1, or Chrome JSON when the path ends in
//! `.json`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod format;
pub mod profile;
pub mod sink;

pub use chrome::{to_chrome_json, validate_json, MAX_JSON_DEPTH};
pub use format::{DocEvent, TraceDoc, TraceFormatError, TRACE_FORMAT_VERSION};
pub use profile::{CycleProfile, ProfileRow};
pub use sink::{bucket_index, Event, Histogram, TraceConfig, TraceSink, HIST_BUCKETS};
