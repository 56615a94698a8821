//! # kyoto-service — fleet-as-a-service control plane
//!
//! The related middleware systems (CERN's RDA, the ESRF TANGO toolkit)
//! are long-running *services*: a request/reply front and a
//! publish-subscribe telemetry stream over a device model. This crate
//! puts that front on the [`Cluster`](kyoto_cluster::cluster::Cluster) —
//! production traffic arrives as a request stream, not as a pre-seeded
//! schedule — while keeping the repo's core discipline: **every run is
//! deterministic and byte-replayable**.
//!
//! * [`request`] — typed [`request::ServiceRequest`]s and the replayable
//!   [`request::RequestTrace`]: seeded generators plus scripted entries,
//!   with a documented on-disk text format (version 1) that parses and
//!   renders round-trip;
//! * [`admission`] — the SLA-aware [`admission::AdmissionController`]:
//!   admit/queue/reject by projected per-cell contention (smoothed
//!   pollution from the snapshot, not just free cores), with a bounded
//!   FIFO queue and typed rejection reasons
//!   ([`AdmissionRejection`](kyoto_cluster::error::AdmissionRejection));
//! * [`telemetry`] — the versioned, schema-documented
//!   [`telemetry::TelemetryRecord`] stream (per-cell aggregates, the
//!   admission ledger, the fault ledger) that `figures --scenario
//!   service` consumes;
//! * [`service`] — the [`service::FleetService`] loop itself, whose
//!   restart story is a deep copy of the service and its cluster:
//!   auto-checkpoint every K epochs, resume mid-trace bit-identically.
//!
//! # Example: replay a trace and read the telemetry
//!
//! ```
//! use kyoto_cluster::cluster::{Cluster, ClusterConfig};
//! use kyoto_hypervisor::vm::VmConfig;
//! use kyoto_service::request::{RequestTrace, RequestTraceConfig};
//! use kyoto_service::service::{FleetService, ServiceConfig};
//! use kyoto_workloads::spec::{SpecApp, SpecWorkload};
//!
//! let cluster = Cluster::new(ClusterConfig::new(2, 256).with_epoch_ticks(4));
//! let trace = RequestTrace::new(
//!     RequestTraceConfig::new(42, 6)
//!         .with_place_rate(1.0)
//!         .with_depart_rate(0.25),
//! );
//! let mut service = FleetService::new(cluster, trace, ServiceConfig::default());
//! service
//!     .run_to_end(&mut |index| {
//!         (
//!             VmConfig::new(format!("req-{index}")),
//!             Box::new(SpecWorkload::new(SpecApp::Gcc, 256, index)) as _,
//!         )
//!     })
//!     .unwrap();
//! assert_eq!(service.telemetry().records().len(), 6);
//! service.verify_conservation().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod request;
pub mod service;
pub mod telemetry;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionOutcome, AdmissionPolicy};
pub use request::{RequestTrace, RequestTraceConfig, ServiceRequest, TraceParseError};
pub use service::{FleetService, ServiceCheckpoint, ServiceConfig};
pub use telemetry::{
    AdmissionLedger, CellTelemetry, TelemetryLog, TelemetryQueryReply, TelemetryRecord,
};
