//! Fleet-as-a-service: a request trace replayed through the control plane.
//!
//! Builds a three-cell cluster behind a `FleetService` front, generates a
//! replayable request trace (seeded placements/departures plus a scripted
//! drain/join maintenance window), and serves it with contention-aware
//! admission. Prints the trace in its on-disk text format (and proves it
//! parses back), the per-epoch telemetry stream, and the admission ledger.
//! Finally it checkpoints mid-trace, restores a second service from the
//! checkpoint, finishes both, and shows their telemetry is byte-identical
//! — the restart story CI checks on every push.
//!
//! Run with: `cargo run --release --example service_replay`

use kyoto::cluster::cluster::{Cluster, ClusterConfig};
use kyoto::cluster::snapshot::CellId;
use kyoto::core::monitor::MonitoringStrategy;
use kyoto::hypervisor::VmConfig;
use kyoto::service::{
    AdmissionConfig, AdmissionPolicy, FleetService, RequestTrace, RequestTraceConfig,
    ServiceConfig, ServiceRequest,
};
use kyoto::sim::workload::Workload;
use kyoto::workloads::spec::{SpecApp, SpecWorkload};
use kyoto::EXAMPLE_SCALE;

/// The arrival stream: a pure function of the request's arrival index, so
/// the original service, the restored service and any replay all spawn
/// byte-identical VMs for the same trace.
fn spawn(index: u64) -> (VmConfig, Box<dyn Workload>) {
    let mix = [SpecApp::Gcc, SpecApp::Lbm, SpecApp::Omnetpp, SpecApp::Mcf];
    let app = mix[index as usize % mix.len()];
    (
        VmConfig::new(format!("req{index}-{}", app.name())).with_llc_cap(300.0),
        Box::new(SpecWorkload::new(app, EXAMPLE_SCALE, 0x5eed ^ index)),
    )
}

fn build_cluster() -> Cluster {
    let mut cluster = Cluster::new(
        ClusterConfig::new(3, EXAMPLE_SCALE)
            .with_epoch_ticks(6)
            .with_strategy(MonitoringStrategy::SimulatorAttribution),
    );
    // Two resident VMs per cell before the first request arrives.
    for i in 0..6 {
        let (config, workload) = spawn(1000 + i);
        cluster
            .add_vm(CellId(i as usize / 2), config, workload)
            .expect("seeding stays within cell capacity");
    }
    cluster
}

fn build_service() -> FleetService {
    let trace = RequestTrace::new(
        RequestTraceConfig::new(42, 8)
            .with_place_rate(1.5)
            .with_depart_rate(0.5)
            .with_query_rate(0.25)
            .with_scripted(2, ServiceRequest::DrainCell(CellId(2)))
            .with_scripted(5, ServiceRequest::JoinCell(CellId(2))),
    );
    let config = ServiceConfig {
        admission: AdmissionConfig {
            policy: AdmissionPolicy::ContentionAware { limit: 400.0 },
            queue_capacity: 4,
        },
        checkpoint_every: None,
    };
    FleetService::new(build_cluster(), trace, config)
}

fn main() {
    let mut service = build_service();

    // The trace's canonical on-disk form: version line, generator rates,
    // scripted entries. Anyone holding these bytes can replay the run.
    let rendered = service.trace().render();
    println!("request trace (on-disk format v1):\n{rendered}");
    let reparsed = RequestTrace::parse(&rendered).expect("canonical form parses");
    assert_eq!(reparsed.config(), service.trace().config());
    println!("(round-trips through RequestTrace::parse)\n");

    // Serve the first three epochs, then checkpoint mid-trace.
    for _ in 0..3 {
        service
            .run_epoch(&mut spawn)
            .expect("example run is fault-free");
    }
    let checkpoint = service.checkpoint();
    println!("checkpointed after epoch {}\n", checkpoint.epoch());

    // Finish the original and, independently, a service restored from the
    // checkpoint. Their telemetry must agree byte-for-byte.
    service
        .run_to_end(&mut spawn)
        .expect("example run is fault-free");
    let mut restored = FleetService::restore(checkpoint);
    restored
        .run_to_end(&mut spawn)
        .expect("restored run is fault-free");
    assert_eq!(
        service.telemetry().render(),
        restored.telemetry().render(),
        "a restored service must replay the remaining trace bit-identically"
    );

    println!("telemetry stream (schema v1, identical from both services):");
    print!("{}", service.telemetry().render());

    let ledger = service.ledger();
    println!(
        "\nadmission ledger: {} requested = {} admitted ({} via queue) + {} rejected + {} still queued",
        ledger.requested,
        ledger.admitted,
        ledger.admitted_from_queue,
        ledger.rejected(),
        ledger.queue_len,
    );
    service
        .verify_conservation()
        .expect("every request is admitted, queued or rejected — never lost");
    println!("conservation verified; restored replay was bit-identical");
}
