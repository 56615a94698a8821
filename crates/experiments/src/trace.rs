//! Cycle-domain trace capture behind `figures --trace-out <path>`.
//!
//! Every figure/scenario target maps to one **representative traced run**
//! at the experiment's scale: the paper figures share one NUMA hypervisor
//! run (engine spans, scheduler pick/punish instants), the fleet
//! scenarios run a traced cluster (boundary phases, migration/fault/
//! retry-queue events merged from the cells in cell-id order) and the
//! service scenario runs a traced control plane (request → admission →
//! placement chains). Captures honour
//! [`ExperimentConfig::parallel_engine`] for both the socket-parallel
//! engine and the cell-parallel cluster, and are **byte-identical**
//! either way — the CI determinism gate diffs the written files.
//!
//! All timestamps are simulated time (engine cycles or the cluster
//! control cursor); nothing here reads a wall clock, so the same inputs
//! always produce the same bytes.

use crate::config::ExperimentConfig;
use crate::harness::spec_workload;
use kyoto_cluster::cluster::{Cluster, ClusterConfig};
use kyoto_cluster::events::{EventSchedule, EventScheduleConfig};
use kyoto_cluster::faults::{FaultPlan, FaultPlanConfig};
use kyoto_cluster::planner::{ConsolidationPolicy, PlannerConfig};
use kyoto_cluster::snapshot::CellId;
use kyoto_cluster::TraceConfig;
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::vm::VmConfig;
use kyoto_sim::workload::Workload;
use kyoto_trace::{CycleProfile, TraceDoc, TraceSink};
use kyoto_workloads::spec::SpecApp;
use std::collections::BTreeSet;

/// The apps the traced runs schedule (a contention-heavy mix, so the
/// trace shows punishments and migrations, not just idle epochs).
const APPS: [SpecApp; 4] = [SpecApp::Lbm, SpecApp::Gcc, SpecApp::Mcf, SpecApp::Omnetpp];

/// The capture domain a figure/scenario target belongs to: every paper
/// figure shares the `engine` capture; each beyond-paper scenario has its
/// own. `None` for unknown targets.
pub fn capture_kind(target: &str) -> Option<&'static str> {
    match target {
        "table1" | "table2" | "fig1" | "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig8"
        | "fig9" | "fig10" | "fig11" | "fig12" => Some("engine"),
        "cloudscale" => Some("cloudscale"),
        "fleet" => Some("fleet"),
        "churn" => Some("churn"),
        "failures" => Some("failures"),
        "service" => Some("service"),
        "interactive" => Some("interactive"),
        _ => None,
    }
}

/// Captures the representative trace of one target (see [`capture_kind`]),
/// or `None` for unknown targets.
pub fn capture(target: &str, config: &ExperimentConfig) -> Option<TraceSink> {
    Some(match capture_kind(target)? {
        "engine" => engine_capture(config),
        "service" => service_capture(config),
        "interactive" => interactive_capture(config),
        kind => cluster_capture(kind, config),
    })
}

/// Captures every distinct domain among `targets` (deduplicated — the 13
/// figure targets share one `engine` capture) and merges them into one
/// document, tracks and metrics prefixed `<kind>.`.
pub fn capture_merged(targets: &[&str], config: &ExperimentConfig) -> TraceDoc {
    let mut doc = TraceDoc::default();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for target in targets {
        let Some(kind) = capture_kind(target) else {
            continue;
        };
        if !seen.insert(kind) {
            continue;
        }
        let sink = capture(target, config).expect("kind implies capture");
        doc.absorb(&sink, &format!("{kind}."));
    }
    doc
}

/// Renders `doc` in text format v1 with its [`CycleProfile`] rollup
/// appended as `#` comments — the parser ignores them, so the file still
/// round-trips, while a human gets the flamegraph-substitute table in the
/// same artifact.
pub fn render_with_profile(doc: &TraceDoc) -> String {
    let mut out = doc.render();
    out.push_str("#\n# cycle profile (count, total and self cycles per span name)\n");
    for line in CycleProfile::from_doc(doc).render().lines() {
        out.push_str("# ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// One traced KS4Xen run on the two-socket NUMA machine: a capped heavy
/// polluter plus companions, so engine spans, scheduler picks and
/// punishments all appear.
fn engine_capture(config: &ExperimentConfig) -> TraceSink {
    let mut hv = ks4xen_hypervisor(
        config.numa_machine(),
        config.hypervisor_config(),
        MonitoringStrategy::DirectPmc,
    );
    hv.engine_mut().trace_mut().enable();
    for (i, app) in APPS.iter().enumerate() {
        let mut vm = VmConfig::new(format!("trace-{}", app.name()));
        if i == 0 {
            // A tight permit on the heaviest polluter provokes punishments.
            vm = vm.with_llc_cap(config.scaled_llc_cap(50_000.0));
        }
        hv.add_vm_with(vm, spec_workload(config, *app, 0x7ace + i as u64))
            .expect("valid VM");
    }
    hv.run_ticks(config.total_ticks());
    hv.engine().trace().clone()
}

/// The traced cluster shared by the fleet-family scenarios: `failures`
/// installs a fault plan, `churn` drives an arrival/departure schedule,
/// `fleet` and `cloudscale` run the plain consolidation loop.
fn cluster_capture(kind: &str, config: &ExperimentConfig) -> TraceSink {
    let cells = 3;
    let mut cluster = Cluster::new(
        ClusterConfig::new(cells, config.scale)
            .with_epoch_ticks(3)
            .with_policy(ConsolidationPolicy::PollutionAware)
            .with_planner(
                PlannerConfig::default()
                    .with_max_moves(3)
                    .with_polluter_threshold(200.0),
            )
            .with_parallel_cells(config.parallel_engine)
            .with_trace(TraceConfig::On),
    );
    for i in 0..6 {
        let app = APPS[i % APPS.len()];
        cluster
            .add_vm(
                CellId(i % cells),
                VmConfig::new(format!("trace-vm{i}-{}", app.name())).with_llc_cap(50.0),
                spec_workload(config, app, 0xf1ee7 + i as u64),
            )
            .expect("valid VM");
    }
    let epochs = 5;
    match kind {
        "failures" => {
            cluster.install_faults(FaultPlan::new(
                FaultPlanConfig::new(config.seed ^ 0xFA17)
                    .with_crash_rate(0.4)
                    .with_slowdown_rate(0.3)
                    .with_abort_rate(0.6)
                    .with_down_epochs(2),
            ));
            cluster.run_epochs(epochs).expect("traced fault run");
        }
        "churn" => {
            let schedule = EventSchedule::new(
                EventScheduleConfig::new(config.seed ^ 0xC4)
                    .with_arrival_rate(1.0)
                    .with_departure_rate(0.5)
                    .with_drain(1, CellId(cells - 1))
                    .with_join(3, CellId(cells - 1)),
            );
            let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
                let app = APPS[(index as usize) % APPS.len()];
                (
                    VmConfig::new(format!("churn{index}-{}", app.name())).with_llc_cap(50.0),
                    spec_workload(config, app, 0xA11 + index),
                )
            };
            cluster
                .run_epochs_with_schedule(&schedule, epochs, &mut spawn)
                .expect("traced churn run");
        }
        _ => cluster.run_epochs(epochs).expect("traced fleet run"),
    }
    cluster.trace().clone()
}

/// A traced run of the interactive scenario's VM mix: sleep-mostly
/// services block (WFI) and wake on their timers next to batch polluters,
/// leaving `vm.block`/`vm.wake` instants and per-VM blocked-cycles
/// counters on the `hv` track alongside the usual engine spans.
fn interactive_capture(config: &ExperimentConfig) -> TraceSink {
    use crate::interactive::WAKE_PERIOD_TICKS;
    use kyoto_hypervisor::lifecycle::WakeSource;
    use kyoto_workloads::interactive::Interactive;
    use kyoto_workloads::spec::SpecWorkload;
    let mut hv = ks4xen_hypervisor(
        config.machine(),
        config.hypervisor_config(),
        MonitoringStrategy::DirectPmc,
    );
    hv.engine_mut().trace_mut().enable();
    for (i, app) in APPS.iter().enumerate() {
        let mut vm = VmConfig::new(format!("trace-{}", app.name()));
        let seed = 0xb10c + i as u64;
        let workload: Box<dyn Workload> = if i % 2 == 0 {
            vm = vm.with_wake_source(
                WakeSource::new(config.seed.wrapping_add(seed))
                    .with_timer_period(WAKE_PERIOD_TICKS),
            );
            Box::new(Interactive::new(
                SpecWorkload::new(*app, config.scale, seed),
                48,
            ))
        } else {
            Box::new(SpecWorkload::new(*app, config.scale, seed))
        };
        hv.add_vm_with(vm, workload).expect("valid VM");
    }
    hv.run_ticks(config.total_ticks());
    hv.engine().trace().clone()
}

/// A traced control-plane replay: placements, queries and departures
/// through the SLA-aware admission front, leaving request → admission →
/// placement chains on the `service` track.
fn service_capture(config: &ExperimentConfig) -> TraceSink {
    use kyoto_service::request::{RequestTrace, RequestTraceConfig};
    use kyoto_service::service::{FleetService, ServiceConfig};
    let cluster = Cluster::new(
        ClusterConfig::new(2, config.scale)
            .with_epoch_ticks(3)
            .with_parallel_cells(config.parallel_engine)
            .with_trace(TraceConfig::On),
    );
    let requests = RequestTrace::new(
        RequestTraceConfig::new(config.seed ^ 0x5e41, 6)
            .with_place_rate(1.5)
            .with_depart_rate(0.5)
            .with_query_rate(0.5),
    );
    let mut service = FleetService::new(cluster, requests, ServiceConfig::default());
    let mut spawn = |index: u64| -> (VmConfig, Box<dyn Workload>) {
        let app = APPS[(index as usize) % APPS.len()];
        (
            VmConfig::new(format!("req{index}-{}", app.name())),
            spec_workload(config, app, 0x5e47 + index),
        )
    };
    service.run_to_end(&mut spawn).expect("traced service run");
    service.cluster().trace().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 9,
            warmup_ticks: 2,
            measure_ticks: 4,
            parallel_engine: false,
        }
    }

    #[test]
    fn every_known_target_has_a_kind_and_unknowns_do_not() {
        for target in ["fig1", "fig12", "table1", "fleet", "service", "interactive"] {
            assert!(capture_kind(target).is_some(), "{target}");
        }
        assert_eq!(capture_kind("fig7"), None);
        assert!(capture("fig7", &tiny()).is_none());
    }

    #[test]
    fn captures_are_deterministic_and_survive_the_text_round_trip() {
        let config = tiny();
        let a = TraceDoc::from_sink(&capture("service", &config).unwrap());
        let b = TraceDoc::from_sink(&capture("service", &config).unwrap());
        assert_eq!(a, b, "captures must be pure functions of the config");
        assert!(!a.is_empty());
        let text = render_with_profile(&a);
        assert_eq!(
            TraceDoc::parse(&text).unwrap(),
            a,
            "profile comments must not affect the parse"
        );
    }

    #[test]
    fn the_interactive_capture_records_block_and_wake_instants() {
        let doc = TraceDoc::from_sink(&capture("interactive", &tiny()).unwrap());
        let names: Vec<&str> = doc.events.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"vm.block"), "services must park (WFI)");
        assert!(names.contains(&"vm.wake"), "timer wakes must be recorded");
        assert!(
            doc.counters
                .iter()
                .any(|(name, value)| name.contains("blocked_cycles") && *value > 0),
            "blocked-cycles counters must be exported"
        );
    }

    #[test]
    fn merged_capture_deduplicates_engine_targets() {
        let config = tiny();
        let doc = capture_merged(&["fig9", "fig9", "table1"], &config);
        assert!(!doc.is_empty());
        // One engine capture, every track under the single `engine.` prefix.
        for event in &doc.events {
            assert!(event.track.starts_with("engine."), "{}", event.track);
        }
        let json = kyoto_trace::to_chrome_json(&doc);
        kyoto_trace::validate_json(&json).expect("chrome export stays valid JSON");
    }
}
