//! Property-based tests of the control-plane service's claims:
//!
//! 1. admission decisions are **deterministic**: replaying the same trace
//!    twice (same service config, same spawn function) publishes
//!    byte-identical telemetry;
//! 2. the serial and cell-parallel engines are **bit-identical** under
//!    the service front too — replay(trace) byte-equals itself across
//!    `parallel_cells`;
//! 3. admission is **conservation-safe**: every requested VM ends in
//!    exactly one of placed / queued / rejected, and the cluster's own
//!    VM conservation holds, for any rates, policy and queue bound;
//! 4. a **mid-trace checkpoint/restore resumes bit-identically**: the
//!    telemetry a restored service publishes for the remaining epochs is
//!    byte-equal to the original's;
//! 5. a parsed request trace is **bounded**: an epoch never yields more
//!    than its scripted entries plus `MAX_RATE + 1` requests per rate, and
//!    a trace parses exactly when every rate is within `0..=MAX_RATE`;
//! 6. `RequestTrace::parse` **never panics**: random bytes, every
//!    truncation and single-byte flips of a valid trace each yield `Ok` or
//!    `Err`, and whatever parses renders back to itself.

use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_service::admission::{AdmissionConfig, AdmissionPolicy};
use kyoto_service::request::{
    RequestTrace, RequestTraceConfig, ServiceRequest, MAX_EPOCHS, MAX_RATE,
};
use kyoto_service::service::{FleetService, ServiceConfig};
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use proptest::prelude::*;

const SCALE: u64 = 256;

/// The spawn function every replay in this suite shares: app and seed are
/// pure functions of the arrival index, so two replays of one trace see
/// identical arrival streams.
fn spawn(index: u64) -> (VmConfig, Box<dyn Workload>) {
    const APPS: [SpecApp; 4] = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
    let app = APPS[(index % APPS.len() as u64) as usize];
    (
        VmConfig::new(format!("req{index}-{}", app.name())),
        Box::new(SpecWorkload::new(app, SCALE, 0x5eed ^ index)),
    )
}

fn cluster(cells: usize, parallel: bool) -> Cluster {
    Cluster::new(
        ClusterConfig::new(cells, SCALE)
            .with_epoch_ticks(4)
            .with_parallel_cells(parallel),
    )
}

fn trace(seed: u64, epochs: u64, place: f64, depart: f64) -> RequestTrace {
    RequestTrace::new(
        RequestTraceConfig::new(seed, epochs)
            .with_place_rate(place)
            .with_depart_rate(depart)
            .with_query_rate(0.25)
            .with_scripted(2, ServiceRequest::DrainCell(CellId(0)))
            .with_scripted(4, ServiceRequest::JoinCell(CellId(0))),
    )
}

fn service_config(policy: AdmissionPolicy, queue_capacity: usize) -> ServiceConfig {
    ServiceConfig {
        admission: AdmissionConfig {
            policy,
            queue_capacity,
        },
        checkpoint_every: None,
    }
}

/// Replays `trace` to the end and returns the rendered telemetry stream.
fn replay(cells: usize, parallel: bool, trace: &RequestTrace, config: ServiceConfig) -> String {
    let mut service = FleetService::new(cluster(cells, parallel), trace.clone(), config);
    service.run_to_end(&mut spawn).unwrap();
    service.verify_conservation().unwrap();
    service.telemetry().render()
}

fn arb_policy() -> impl Strategy<Value = AdmissionPolicy> {
    prop_oneof![
        Just(AdmissionPolicy::FreeCores),
        (5.0f64..500.0).prop_map(|limit| AdmissionPolicy::ContentionAware { limit }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Claims 1 + 2: the same trace replays byte-identically against a
    /// fresh cluster — and against the cell-parallel engine.
    #[test]
    fn replays_are_byte_identical_serial_and_parallel(
        seed in 0u64..1_000,
        cells in 2usize..4,
        place in 0.0f64..3.0,
        depart in 0.0f64..1.0,
        policy in arb_policy(),
        queue_capacity in 0usize..6,
    ) {
        let trace = trace(seed, 6, place, depart);
        let config = service_config(policy, queue_capacity);
        let serial = replay(cells, false, &trace, config);
        prop_assert_eq!(&serial, &replay(cells, false, &trace, config));
        prop_assert_eq!(&serial, &replay(cells, true, &trace, config));
    }

    /// Claim 3: request conservation holds for any trace shape — checked
    /// inside `replay` via `verify_conservation`, and re-checked here
    /// against the final record's ledger arithmetic.
    #[test]
    fn every_request_is_placed_queued_or_rejected(
        seed in 0u64..1_000,
        place in 0.0f64..4.0,
        depart in 0.0f64..2.0,
        policy in arb_policy(),
        queue_capacity in 0usize..4,
    ) {
        let trace = trace(seed, 8, place, depart);
        let mut service = FleetService::new(
            cluster(2, false),
            trace,
            service_config(policy, queue_capacity),
        );
        service.run_to_end(&mut spawn).unwrap();
        service.verify_conservation().unwrap();
        let ledger = *service.ledger();
        prop_assert_eq!(
            ledger.requested,
            ledger.admitted + ledger.rejected() + ledger.queue_len
        );
        prop_assert!(ledger.queue_len <= queue_capacity as u64);
        prop_assert!(ledger.queue_peak <= queue_capacity as u64);
        prop_assert!(ledger.admitted_from_queue <= ledger.admitted);
    }

    /// Claim 4: checkpoint mid-trace, keep running the original, restore
    /// the copy — both publish byte-identical telemetry for the remaining
    /// epochs.
    #[test]
    fn restored_service_resumes_bit_identically(
        seed in 0u64..1_000,
        place in 0.5f64..3.0,
        depart in 0.0f64..1.0,
        policy in arb_policy(),
    ) {
        let trace = trace(seed, 8, place, depart);
        let config = service_config(policy, 4);
        let mut original = FleetService::new(cluster(2, false), trace, config);
        for _ in 0..3 {
            original.run_epoch(&mut spawn).unwrap();
        }
        let checkpoint = original.checkpoint();
        original.run_to_end(&mut spawn).unwrap();
        let mut restored = FleetService::restore(checkpoint);
        prop_assert_eq!(restored.epoch(), 3);
        restored.run_to_end(&mut spawn).unwrap();
        prop_assert_eq!(original.telemetry().render(), restored.telemetry().render());
        restored.verify_conservation().unwrap();
    }
}

/// The automatic checkpoint cadence: with `checkpoint_every: Some(2)` on
/// a 6-epoch trace, the last auto checkpoint is from epoch 6 and restores
/// to a finished service.
#[test]
fn auto_checkpoints_fire_on_cadence() {
    let trace = trace(7, 6, 1.0, 0.25);
    let config = ServiceConfig {
        admission: AdmissionConfig::default(),
        checkpoint_every: Some(2),
    };
    let mut service = FleetService::new(cluster(2, false), trace, config);
    service.run_epoch(&mut spawn).unwrap();
    assert!(
        service.take_auto_checkpoint().is_none(),
        "epoch 1 is off-cadence"
    );
    service.run_epoch(&mut spawn).unwrap();
    let auto = service
        .take_auto_checkpoint()
        .expect("epoch 2 is on-cadence");
    assert_eq!(auto.epoch(), 2);
    service.run_to_end(&mut spawn).unwrap();
    let last = service
        .take_auto_checkpoint()
        .expect("epoch 6 is on-cadence");
    assert_eq!(last.epoch(), 6);
    let restored = FleetService::restore(last);
    assert!(restored.finished());
    assert_eq!(restored.telemetry().render(), service.telemetry().render());
}

/// A restored checkpoint reads exactly like the service it copied, before
/// either serves another epoch: the ledger, the published telemetry, the
/// answer to a telemetry query and the wrapped cluster's accessors. The
/// copy carries no outstanding query reply.
#[test]
fn a_restored_checkpoint_reads_like_the_original() {
    use kyoto_cluster::TraceConfig;
    use kyoto_trace::TraceDoc;
    let cluster = Cluster::new(
        ClusterConfig::new(2, SCALE)
            .with_epoch_ticks(4)
            .with_trace(TraceConfig::On),
    );
    let config = service_config(AdmissionPolicy::FreeCores, 2);
    let mut service = FleetService::new(cluster, trace(11, 8, 2.5, 0.5), config);
    for _ in 0..5 {
        service.run_epoch(&mut spawn).unwrap();
    }
    let ledger = *service.ledger();
    assert!(ledger.admitted > 0 && ledger.queries > 0 && ledger.drains > 0);
    assert!(service.last_query().is_some());
    let restored = FleetService::restore(service.checkpoint());
    assert!(restored.last_query().is_none());
    assert_eq!(restored.ledger(), service.ledger());
    assert_eq!(restored.telemetry(), service.telemetry());
    assert_eq!(restored.query_telemetry(), service.query_telemetry());
    assert_eq!(restored.trace(), service.trace());
    assert_eq!(restored.epoch(), service.epoch());
    let (original, copy) = (service.cluster(), restored.cluster());
    assert_eq!(copy.total_migrations(), original.total_migrations());
    assert_eq!(copy.total_departures(), original.total_departures());
    assert_eq!(copy.total_faults(), original.total_faults());
    assert_eq!(copy.all_reports(), original.all_reports());
    assert_eq!(copy.occupancies(), original.occupancies());
    assert_eq!(copy.snapshot(), original.snapshot());
    assert_eq!(copy.history(), original.history());
    assert_eq!(
        TraceDoc::from_sink(copy.trace()).render(),
        TraceDoc::from_sink(original.trace()).render()
    );
    restored.verify_conservation().unwrap();
}

/// The synchronous front returns typed rejections once the fleet fills:
/// a 1-cell fleet accepts `cores` placements then rejects with
/// `FleetSaturated` folded into `ClusterError::Rejected`.
#[test]
fn try_place_rejects_with_typed_reasons_when_saturated() {
    use kyoto_cluster::error::{AdmissionRejection, ClusterError};
    let mut service = FleetService::new(
        cluster(1, false),
        RequestTrace::new(RequestTraceConfig::new(1, 1)),
        service_config(AdmissionPolicy::FreeCores, 0),
    );
    let cores = service.cluster().cores_per_cell();
    for i in 0..cores as u64 {
        let (config, workload) = spawn(i);
        service.try_place(config, workload).unwrap();
    }
    let (config, workload) = spawn(cores as u64);
    match service.try_place(config, workload) {
        Err(ClusterError::Rejected { reason }) => {
            assert_eq!(reason, AdmissionRejection::FleetSaturated)
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
    service.verify_conservation().unwrap();
}

proptest! {
    // Each case replays three full services (untraced, traced serial,
    // traced cell-parallel); a few cases suffice because any divergence
    // is deterministic.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tracing is pure observability at the service layer too: with the
    /// trace plane on, the published telemetry stream stays byte-identical
    /// to an untraced replay — and the merged trace itself renders
    /// byte-identically across the serial and cell-parallel engines.
    #[test]
    fn tracing_leaves_telemetry_bytes_identical(
        seed in 0u64..1_000,
        place in 0.5f64..3.0,
        policy in arb_policy(),
    ) {
        use kyoto_cluster::TraceConfig;
        use kyoto_trace::TraceDoc;
        let requests = trace(seed, 6, place, 0.5);
        let config = service_config(policy, 4);
        let run = |trace_config: TraceConfig, parallel: bool| {
            let cluster = Cluster::new(
                ClusterConfig::new(2, SCALE)
                    .with_epoch_ticks(4)
                    .with_parallel_cells(parallel)
                    .with_trace(trace_config),
            );
            let mut service = FleetService::new(cluster, requests.clone(), config);
            service.run_to_end(&mut spawn).unwrap();
            service.verify_conservation().unwrap();
            let rendered = TraceDoc::from_sink(service.cluster().trace()).render();
            (service.telemetry().render(), rendered)
        };
        let (off_telemetry, off_trace) = run(TraceConfig::Off, false);
        let (on_telemetry, on_trace) = run(TraceConfig::On, false);
        let (par_telemetry, par_trace) = run(TraceConfig::On, true);
        prop_assert_eq!(&off_telemetry, &on_telemetry, "tracing must not change the telemetry bytes");
        prop_assert_eq!(&on_telemetry, &par_telemetry);
        prop_assert_eq!(&on_trace, &par_trace, "merged traces must not depend on cell parallelism");
        prop_assert!(TraceDoc::parse(&off_trace).unwrap().is_empty());
    }
}

/// `QueryTelemetry` requests are answered from the **live trace plane**
/// when tracing is on: the ledger mirrors in the cluster sink match the
/// in-memory ledger exactly, the fleet-wide cycle total is real, and the
/// reply's render is pinned. With tracing off the same call falls back to
/// the ledger with zero cycles.
#[test]
fn query_telemetry_answers_from_live_trace_counters() {
    use kyoto_cluster::TraceConfig;
    let requests = RequestTrace::new(
        RequestTraceConfig::new(11, 5)
            .with_place_rate(1.5)
            .with_query_rate(1.0),
    );
    let run = |trace_config: TraceConfig| {
        let cluster = Cluster::new(
            ClusterConfig::new(2, SCALE)
                .with_epoch_ticks(4)
                .with_trace(trace_config),
        );
        let mut service = FleetService::new(cluster, requests.clone(), ServiceConfig::default());
        service.run_to_end(&mut spawn).unwrap();
        service
    };

    let traced = run(TraceConfig::On);
    let ledger = *traced.ledger();
    assert!(ledger.queries > 0, "the trace must carry queries");
    let reply = traced.query_telemetry();
    assert_eq!(reply.epoch, 5);
    assert_eq!(reply.requested, ledger.requested);
    assert_eq!(reply.admitted, ledger.admitted);
    assert_eq!(reply.rejected, ledger.rejected());
    assert_eq!(reply.queries, ledger.queries);
    assert!(
        reply.engine_cycles > 0,
        "cycle totals come from the live per-cell engine counters"
    );
    assert_eq!(
        reply.render(),
        format!(
            "query epoch=5 req={} adm={} rej={} queries={} cycles={}",
            ledger.requested,
            ledger.admitted,
            ledger.rejected(),
            ledger.queries,
            reply.engine_cycles
        )
    );
    let last = traced.last_query().expect("queries were served");
    assert!(last.queries >= 1);

    let untraced = run(TraceConfig::Off);
    let fallback = untraced.query_telemetry();
    assert_eq!(fallback.requested, untraced.ledger().requested);
    assert_eq!(fallback.engine_cycles, 0, "no trace plane, no cycle totals");
    assert_eq!(
        *untraced.ledger(),
        ledger,
        "tracing must not change the ledger"
    );
}

/// A rate as trace text: small, around [`MAX_RATE`], exactly at it, far
/// above it, infinite or negative.
fn arb_rate_text() -> impl Strategy<Value = String> {
    prop_oneof![
        (0.0f64..4.0).prop_map(|rate| rate.to_string()),
        (MAX_RATE - 2.0..MAX_RATE + 2.0).prop_map(|rate| rate.to_string()),
        Just(MAX_RATE.to_string()),
        Just("1e18".to_string()),
        Just("inf".to_string()),
        Just("-1".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Claim 5: whatever rates a trace file declares, a parsed trace draws a
    /// bounded number of requests per epoch, and parsing accepts exactly
    /// the rates within `0..=MAX_RATE`.
    #[test]
    fn parsed_traces_draw_a_bounded_number_of_requests_per_epoch(
        seed in 0u64..1_000_000,
        place in arb_rate_text(),
        depart in arb_rate_text(),
        query in arb_rate_text(),
        scripted in prop::collection::vec((0u64..4, 0usize..3), 0..6),
    ) {
        let mut text = format!(
            "version 1\nseed {seed}\nepochs 4\nplace_rate {place}\ndepart_rate {depart}\nquery_rate {query}\n"
        );
        for (epoch, verb) in &scripted {
            text.push_str(&format!("at {epoch} {}\n", ["place", "query", "drain 0"][*verb]));
        }
        let in_range = |rate: &str| rate.parse::<f64>().is_ok_and(|rate| (0.0..=MAX_RATE).contains(&rate));
        let parsed = RequestTrace::parse(&text);
        prop_assert_eq!(parsed.is_ok(), in_range(&place) && in_range(&depart) && in_range(&query));
        if let Ok(trace) = parsed {
            for epoch in 0..4 {
                let scripted_here = scripted.iter().filter(|(e, _)| *e == epoch).count();
                let bound = scripted_here + 3 * (MAX_RATE as usize + 1);
                prop_assert!(trace.requests_for_epoch(epoch).len() <= bound);
            }
        }
    }
}

/// A valid trace file touching every directive and scripted-entry form.
fn sample_trace_text() -> String {
    RequestTrace::new(
        RequestTraceConfig::new(0x5eed, MAX_EPOCHS)
            .with_place_rate(1.5)
            .with_depart_rate(0.25)
            .with_query_rate(MAX_RATE)
            .with_scripted(0, ServiceRequest::PlaceVm)
            .with_scripted(1, ServiceRequest::DepartVm { pick: u64::MAX })
            .with_scripted(2, ServiceRequest::DrainCell(CellId(3)))
            .with_scripted(3, ServiceRequest::JoinCell(CellId(3)))
            .with_scripted(4, ServiceRequest::QueryTelemetry),
    )
    .render()
}

/// Parses `text`; whatever parses must render back to the same trace.
fn parse_never_panics(text: &str) -> Result<(), TestCaseError> {
    if let Ok(trace) = RequestTrace::parse(text) {
        prop_assert_eq!(RequestTrace::parse(&trace.render()), Ok(trace));
    }
    Ok(())
}

#[test]
fn every_truncation_of_a_valid_trace_parses_or_errs() {
    let text = sample_trace_text();
    for cut in 0..=text.len() {
        parse_never_panics(&text[..cut]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Claim 6, on garbage: random bytes read as lossy UTF-8, bare and
    /// behind a valid version line.
    #[test]
    fn arbitrary_bytes_parse_or_err(bytes in prop::collection::vec(0u16..256, 0..4096)) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        parse_never_panics(&String::from_utf8_lossy(&bytes))?;
        let mut versioned = b"version 1\n".to_vec();
        versioned.extend(&bytes);
        parse_never_panics(&String::from_utf8_lossy(&versioned))?;
    }

    /// Claim 6, near valid input: one byte of a valid trace replaced.
    #[test]
    fn byte_flips_of_a_valid_trace_parse_or_err(at in 0usize..1 << 16, byte in 0u16..256) {
        let mut flipped = sample_trace_text().into_bytes();
        let at = at % flipped.len();
        flipped[at] = byte as u8;
        parse_never_panics(&String::from_utf8_lossy(&flipped))?;
    }
}
