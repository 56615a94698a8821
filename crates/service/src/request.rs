//! The request front: typed control-plane requests and the replayable
//! trace that carries them.
//!
//! A [`RequestTrace`] is to the service what
//! [`EventSchedule`](kyoto_cluster::events::EventSchedule) is to the bare
//! cluster: a **stateless** generator — the requests of epoch `e` are a
//! pure function of `(seed, e)` via the same SplitMix64 per-epoch mixing —
//! plus scripted entries for maintenance and directed tests. The trace also
//! has a documented on-disk text format (see [`RequestTrace::render`] and
//! [`RequestTrace::parse`]) so a run can be archived, diffed and replayed
//! byte-identically by CI.
//!
//! # On-disk format (version 1)
//!
//! Line-oriented UTF-8 text. Blank lines and lines starting with `#` are
//! ignored. Directive lines come first, one `key value` pair per line:
//!
//! | directive       | meaning                                            |
//! |-----------------|----------------------------------------------------|
//! | `version 1`     | format version; must be the first directive        |
//! | `seed N`        | seed of the generated request streams              |
//! | `epochs N`      | trace length, at most `MAX_EPOCHS`; replay stops   |
//! | `place_rate X`  | expected `PlaceVm` requests per epoch (fractional) |
//! | `depart_rate X` | expected `DepartVm` requests per epoch             |
//! | `query_rate X`  | expected `QueryTelemetry` requests per epoch       |
//!
//! Every rate `X` must lie in `0..=`[`MAX_RATE`] (1024): an epoch draws at
//! most `X + 1` requests per rate, so no trace can make an epoch allocate
//! without bound. `N` in `epochs N` must be at most [`MAX_EPOCHS`]
//! (1,000,000), so no trace can make a replay run without bound.
//!
//! Scripted entries follow, in application order within their epoch:
//!
//! | entry                  | request                                     |
//! |------------------------|---------------------------------------------|
//! | `at E place`           | [`ServiceRequest::PlaceVm`]                 |
//! | `at E depart P`        | [`ServiceRequest::DepartVm`] with pick `P`  |
//! | `at E drain C`         | [`ServiceRequest::DrainCell`] of cell `C`   |
//! | `at E join C`          | [`ServiceRequest::JoinCell`] of cell `C`    |
//! | `at E query`           | [`ServiceRequest::QueryTelemetry`]          |
//!
//! [`RequestTrace::parse`] ∘ [`RequestTrace::render`] is the identity, and
//! `render` output is canonical (directives in the order above, scripted
//! entries in list order), so byte-comparing rendered traces is a valid
//! equality test.

use kyoto_cluster::events::draw_count;
use kyoto_cluster::snapshot::CellId;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Current on-disk trace format version.
pub const TRACE_VERSION: u32 = 1;

/// Largest request rate per epoch a trace may declare, for each of
/// `place_rate`, `depart_rate` and `query_rate`. [`RequestTrace::parse`]
/// rejects larger rates and [`RequestTrace::new`] clamps them. The largest
/// rate any scenario uses is 3.0.
pub const MAX_RATE: f64 = 1024.0;

/// Longest trace, in epochs, a trace may declare. [`RequestTrace::parse`]
/// rejects longer traces and [`RequestTrace::new`] clamps them. The longest
/// trace any caller builds has 1,005 epochs.
pub const MAX_EPOCHS: u64 = 1_000_000;

/// One control-plane request, addressed to the service at an epoch
/// boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// Place a new VM. The admission controller answers admit, queue or
    /// reject; the workload itself is supplied by the replay harness's
    /// spawn function, keyed by the request's arrival index.
    PlaceVm,
    /// Terminate a VM. Like
    /// [`FleetEvent::VmDeparture`](kyoto_cluster::events::FleetEvent::VmDeparture),
    /// the request cannot name a VM id (the trace cannot know the
    /// population); it carries a raw `pick` folded onto the live
    /// population at apply time.
    DepartVm {
        /// Raw selector, folded as `pick % population` in fleet-id order.
        pick: u64,
    },
    /// Take a cell out of service: no further placements, resident VMs
    /// evacuated by the planner.
    DrainCell(CellId),
    /// Return a drained cell to service.
    JoinCell(CellId),
    /// Read the latest published telemetry record (request/reply; the
    /// record stream itself is the publish-subscribe side).
    QueryTelemetry,
}

/// Configuration of a [`RequestTrace`]: seeded request rates plus scripted
/// entries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTraceConfig {
    /// Seed of the generated request streams.
    pub seed: u64,
    /// Trace length in epochs; replay stops here.
    pub epochs: u64,
    /// Expected `PlaceVm` requests per epoch (fractional rates are
    /// realised probabilistically but deterministically per epoch).
    pub place_rate: f64,
    /// Expected `DepartVm` requests per epoch.
    pub depart_rate: f64,
    /// Expected `QueryTelemetry` requests per epoch.
    pub query_rate: f64,
    /// Scripted `(epoch, request)` entries, applied in list order at their
    /// epoch's boundary before any generated request of that epoch.
    pub scripted: Vec<(u64, ServiceRequest)>,
}

impl RequestTraceConfig {
    /// A trace of the given seed and length with no request traffic.
    pub fn new(seed: u64, epochs: u64) -> Self {
        RequestTraceConfig {
            seed,
            epochs,
            place_rate: 0.0,
            depart_rate: 0.0,
            query_rate: 0.0,
            scripted: Vec::new(),
        }
    }

    /// Sets the expected `PlaceVm` requests per epoch.
    pub fn with_place_rate(mut self, rate: f64) -> Self {
        self.place_rate = rate.max(0.0);
        self
    }

    /// Sets the expected `DepartVm` requests per epoch.
    pub fn with_depart_rate(mut self, rate: f64) -> Self {
        self.depart_rate = rate.max(0.0);
        self
    }

    /// Sets the expected `QueryTelemetry` requests per epoch.
    pub fn with_query_rate(mut self, rate: f64) -> Self {
        self.query_rate = rate.max(0.0);
        self
    }

    /// Scripts a request at the given epoch boundary.
    pub fn with_scripted(mut self, epoch: u64, request: ServiceRequest) -> Self {
        self.scripted.push((epoch, request));
        self
    }
}

/// A deterministic, replayable stream of control-plane requests, indexed
/// by epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestTrace {
    config: RequestTraceConfig,
    /// The scripted entries sorted by epoch, same-epoch entries in list
    /// order: built once so [`RequestTrace::requests_for_epoch`] finds an
    /// epoch's entries by binary search.
    by_epoch: Vec<(u64, ServiceRequest)>,
}

/// Why a trace file failed to parse. The offending line number (1-based)
/// is included where one exists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceParseError {
    /// The first directive is missing or is not `version 1`.
    UnsupportedVersion {
        /// What the version line said, verbatim (empty when absent).
        found: String,
    },
    /// A line matched no directive and no scripted-entry form.
    MalformedLine {
        /// 1-based line number.
        line: usize,
        /// The offending line, verbatim.
        text: String,
    },
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found:?} (expected `version {TRACE_VERSION}` first)"
                )
            }
            TraceParseError::MalformedLine { line, text } => {
                write!(f, "malformed trace line {line}: {text:?}")
            }
        }
    }
}

impl std::error::Error for TraceParseError {}

impl RequestTrace {
    /// Creates a trace. Rates are clamped to `0..=`[`MAX_RATE`] (a NaN rate
    /// becomes 0) and the length to [`MAX_EPOCHS`], so
    /// [`RequestTrace::parse`] accepts what [`RequestTrace::render`] makes
    /// of every trace.
    pub fn new(mut config: RequestTraceConfig) -> Self {
        config.epochs = config.epochs.min(MAX_EPOCHS);
        for rate in [
            &mut config.place_rate,
            &mut config.depart_rate,
            &mut config.query_rate,
        ] {
            *rate = if rate.is_nan() {
                0.0
            } else {
                rate.clamp(0.0, MAX_RATE)
            };
        }
        let mut by_epoch = config.scripted.clone();
        // Stable, so same-epoch entries keep their list order.
        by_epoch.sort_by_key(|&(epoch, _)| epoch);
        RequestTrace { config, by_epoch }
    }

    /// The trace configuration.
    pub fn config(&self) -> &RequestTraceConfig {
        &self.config
    }

    /// The requests of epoch `epoch`, in application order: scripted
    /// entries first (list order), then generated departures, placements
    /// and telemetry queries. Pure: two calls with the same epoch return
    /// the same list, and each epoch's stream is independent of which
    /// other epochs were queried (SplitMix64 per-epoch mixing, identical
    /// to [`EventSchedule`](kyoto_cluster::events::EventSchedule)).
    pub fn requests_for_epoch(&self, epoch: u64) -> Vec<ServiceRequest> {
        let first = self.by_epoch.partition_point(|&(e, _)| e < epoch);
        let mut requests: Vec<ServiceRequest> = self.by_epoch[first..]
            .iter()
            .take_while(|&&(e, _)| e == epoch)
            .map(|&(_, request)| request)
            .collect();
        let mut rng =
            SmallRng::seed_from_u64(self.config.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let departures = draw_count(&mut rng, self.config.depart_rate);
        for _ in 0..departures {
            let pick = rng.next_u64();
            requests.push(ServiceRequest::DepartVm { pick });
        }
        let places = draw_count(&mut rng, self.config.place_rate);
        for _ in 0..places {
            requests.push(ServiceRequest::PlaceVm);
        }
        let queries = draw_count(&mut rng, self.config.query_rate);
        for _ in 0..queries {
            requests.push(ServiceRequest::QueryTelemetry);
        }
        requests
    }

    /// Renders the trace in its canonical on-disk form (see the module
    /// docs for the format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# kyoto request trace\n");
        out.push_str(&format!("version {TRACE_VERSION}\n"));
        out.push_str(&format!("seed {}\n", self.config.seed));
        out.push_str(&format!("epochs {}\n", self.config.epochs));
        out.push_str(&format!("place_rate {}\n", self.config.place_rate));
        out.push_str(&format!("depart_rate {}\n", self.config.depart_rate));
        out.push_str(&format!("query_rate {}\n", self.config.query_rate));
        for (epoch, request) in &self.config.scripted {
            let entry = match request {
                ServiceRequest::PlaceVm => "place".to_string(),
                ServiceRequest::DepartVm { pick } => format!("depart {pick}"),
                ServiceRequest::DrainCell(cell) => format!("drain {}", cell.0),
                ServiceRequest::JoinCell(cell) => format!("join {}", cell.0),
                ServiceRequest::QueryTelemetry => "query".to_string(),
            };
            out.push_str(&format!("at {epoch} {entry}\n"));
        }
        out
    }

    /// Parses the on-disk form back into a trace.
    ///
    /// # Errors
    ///
    /// [`TraceParseError::UnsupportedVersion`] when the first directive is
    /// not `version 1`; [`TraceParseError::MalformedLine`] for any line
    /// that is neither a directive, a scripted entry, a comment nor blank,
    /// for a rate outside `0..=`[`MAX_RATE`], and for a length above
    /// [`MAX_EPOCHS`].
    pub fn parse(text: &str) -> Result<RequestTrace, TraceParseError> {
        let mut config = RequestTraceConfig::new(0, 0);
        let mut saw_version = false;
        for (number, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let malformed = || TraceParseError::MalformedLine {
                line: number + 1,
                text: raw.to_string(),
            };
            let mut words = line.split_whitespace();
            let key = words.next().ok_or_else(malformed)?;
            if !saw_version {
                if key != "version" || words.next() != Some("1") || words.next().is_some() {
                    return Err(TraceParseError::UnsupportedVersion {
                        found: line.to_string(),
                    });
                }
                saw_version = true;
                continue;
            }
            match key {
                "seed" | "epochs" => {
                    let value: u64 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(malformed)?;
                    if words.next().is_some() {
                        return Err(malformed());
                    }
                    if key == "seed" {
                        config.seed = value;
                    } else if value <= MAX_EPOCHS {
                        config.epochs = value;
                    } else {
                        return Err(malformed());
                    }
                }
                "place_rate" | "depart_rate" | "query_rate" => {
                    let value: f64 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(malformed)?;
                    if words.next().is_some() || !(0.0..=MAX_RATE).contains(&value) {
                        return Err(malformed());
                    }
                    match key {
                        "place_rate" => config.place_rate = value,
                        "depart_rate" => config.depart_rate = value,
                        _ => config.query_rate = value,
                    }
                }
                "at" => {
                    let epoch: u64 = words
                        .next()
                        .and_then(|w| w.parse().ok())
                        .ok_or_else(malformed)?;
                    let verb = words.next().ok_or_else(malformed)?;
                    let arg = words.next();
                    if words.next().is_some() {
                        return Err(malformed());
                    }
                    let request = match (verb, arg) {
                        ("place", None) => ServiceRequest::PlaceVm,
                        ("query", None) => ServiceRequest::QueryTelemetry,
                        ("depart", Some(pick)) => ServiceRequest::DepartVm {
                            pick: pick.parse().map_err(|_| malformed())?,
                        },
                        ("drain", Some(cell)) => ServiceRequest::DrainCell(CellId(
                            cell.parse().map_err(|_| malformed())?,
                        )),
                        ("join", Some(cell)) => {
                            ServiceRequest::JoinCell(CellId(cell.parse().map_err(|_| malformed())?))
                        }
                        _ => return Err(malformed()),
                    };
                    config.scripted.push((epoch, request));
                }
                _ => return Err(malformed()),
            }
        }
        if !saw_version {
            return Err(TraceParseError::UnsupportedVersion {
                found: String::new(),
            });
        }
        Ok(RequestTrace::new(config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RequestTrace {
        RequestTrace::new(
            RequestTraceConfig::new(42, 16)
                .with_place_rate(1.5)
                .with_depart_rate(0.5)
                .with_query_rate(0.25)
                .with_scripted(3, ServiceRequest::DrainCell(CellId(1)))
                .with_scripted(5, ServiceRequest::JoinCell(CellId(1)))
                .with_scripted(0, ServiceRequest::PlaceVm)
                .with_scripted(2, ServiceRequest::DepartVm { pick: 7 })
                .with_scripted(6, ServiceRequest::QueryTelemetry),
        )
    }

    #[test]
    fn streams_are_pure_per_epoch() {
        let trace = sample();
        for epoch in 0..16 {
            assert_eq!(
                trace.requests_for_epoch(epoch),
                trace.requests_for_epoch(epoch),
                "epoch {epoch} stream must be pure"
            );
        }
    }

    #[test]
    fn epochs_are_independent_of_query_order() {
        let trace = sample();
        let forward: Vec<_> = (0..8).map(|e| trace.requests_for_epoch(e)).collect();
        let mut backward: Vec<_> = (0..8).rev().map(|e| trace.requests_for_epoch(e)).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }

    #[test]
    fn scripted_entries_lead_their_epoch() {
        let trace = sample();
        assert_eq!(trace.requests_for_epoch(0)[0], ServiceRequest::PlaceVm);
        assert_eq!(
            trace.requests_for_epoch(3)[0],
            ServiceRequest::DrainCell(CellId(1))
        );
        assert_eq!(
            trace.requests_for_epoch(2)[0],
            ServiceRequest::DepartVm { pick: 7 }
        );
    }

    #[test]
    fn out_of_order_entries_replay_per_epoch_in_list_order() {
        let trace = RequestTrace::new(
            RequestTraceConfig::new(9, 8)
                .with_scripted(4, ServiceRequest::DrainCell(CellId(2)))
                .with_scripted(1, ServiceRequest::PlaceVm)
                .with_scripted(4, ServiceRequest::DepartVm { pick: 3 })
                .with_scripted(0, ServiceRequest::QueryTelemetry)
                .with_scripted(4, ServiceRequest::JoinCell(CellId(2)))
                .with_scripted(1, ServiceRequest::DepartVm { pick: 1 }),
        );
        let scripted: Vec<Vec<ServiceRequest>> =
            (0..8).map(|e| trace.requests_for_epoch(e)).collect();
        assert_eq!(
            scripted,
            vec![
                vec![ServiceRequest::QueryTelemetry],
                vec![
                    ServiceRequest::PlaceVm,
                    ServiceRequest::DepartVm { pick: 1 }
                ],
                vec![],
                vec![],
                vec![
                    ServiceRequest::DrainCell(CellId(2)),
                    ServiceRequest::DepartVm { pick: 3 },
                    ServiceRequest::JoinCell(CellId(2)),
                ],
                vec![],
                vec![],
                vec![],
            ]
        );
        // `render` keeps list order, and parsing it back is the identity.
        let text = trace.render();
        assert!(text.ends_with("at 4 join 2\nat 1 depart 1\n"));
        assert_eq!(RequestTrace::parse(&text).unwrap(), trace);
        assert_eq!(RequestTrace::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn render_parse_round_trips() {
        let trace = sample();
        let text = trace.render();
        let parsed = RequestTrace::parse(&text).unwrap();
        assert_eq!(parsed, trace);
        // And render is canonical: render ∘ parse ∘ render == render.
        assert_eq!(parsed.render(), text);
    }

    #[test]
    fn parse_accepts_comments_and_blank_lines() {
        let text = "# a trace\nversion 1\n\nseed 7\nepochs 4\n# mid comment\nat 1 drain 0\n";
        let trace = RequestTrace::parse(text).unwrap();
        assert_eq!(trace.config().seed, 7);
        assert_eq!(trace.config().epochs, 4);
        assert_eq!(
            trace.config().scripted,
            vec![(1, ServiceRequest::DrainCell(CellId(0)))]
        );
    }

    #[test]
    fn parse_rejects_bad_versions_and_lines() {
        assert!(matches!(
            RequestTrace::parse("version 2\n"),
            Err(TraceParseError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            RequestTrace::parse(""),
            Err(TraceParseError::UnsupportedVersion { .. })
        ));
        let err = RequestTrace::parse("version 1\nat x place\n").unwrap_err();
        assert!(matches!(
            err,
            TraceParseError::MalformedLine { line: 2, .. }
        ));
        assert!(err.to_string().contains("line 2"));
        assert!(RequestTrace::parse("version 1\nplace_rate -1\n").is_err());
        assert!(RequestTrace::parse("version 1\nat 1 depart\n").is_err());
        assert!(RequestTrace::parse("version 1\nat 1 place extra\n").is_err());
    }

    #[test]
    fn rates_above_max_rate_are_rejected_and_max_rate_parses() {
        for key in ["place_rate", "depart_rate", "query_rate"] {
            assert!(
                matches!(
                    RequestTrace::parse(&format!("version 1\n{key} 1e18\n")),
                    Err(TraceParseError::MalformedLine { line: 2, .. })
                ),
                "{key} 1e18 must be rejected"
            );
            let trace = RequestTrace::parse(&format!("version 1\n{key} {MAX_RATE}\n")).unwrap();
            let config = trace.config();
            let rates = [config.place_rate, config.depart_rate, config.query_rate];
            assert!(rates.contains(&MAX_RATE), "{key} {MAX_RATE} must parse");
        }
    }

    #[test]
    fn epochs_above_max_epochs_are_rejected_and_max_epochs_parses() {
        let trace = RequestTrace::parse(&format!("version 1\nepochs {MAX_EPOCHS}\n")).unwrap();
        assert_eq!(trace.config().epochs, MAX_EPOCHS);
        assert_eq!(RequestTrace::parse(&trace.render()).unwrap(), trace);
        for epochs in [MAX_EPOCHS + 1, u64::MAX] {
            assert!(
                matches!(
                    RequestTrace::parse(&format!("version 1\nepochs {epochs}\n")),
                    Err(TraceParseError::MalformedLine { line: 2, .. })
                ),
                "epochs {epochs} must be rejected"
            );
        }
    }

    #[test]
    fn new_clamps_epochs_so_every_trace_round_trips() {
        for epochs in [MAX_EPOCHS + 1, u64::MAX] {
            let trace = RequestTrace::new(RequestTraceConfig::new(1, epochs));
            assert_eq!(trace.config().epochs, MAX_EPOCHS);
            assert_eq!(RequestTrace::parse(&trace.render()).unwrap(), trace);
        }
    }

    #[test]
    fn new_clamps_rates_so_every_trace_round_trips() {
        let mut config = RequestTraceConfig::new(1, 4);
        config.place_rate = 1e18;
        config.depart_rate = f64::NAN;
        config.query_rate = f64::INFINITY;
        let trace = RequestTrace::new(config);
        let config = trace.config();
        assert_eq!(
            (config.place_rate, config.depart_rate, config.query_rate),
            (MAX_RATE, 0.0, MAX_RATE)
        );
        assert_eq!(RequestTrace::parse(&trace.render()).unwrap(), trace);
    }
}
