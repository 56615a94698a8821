//! The control-plane loop: a long-running service wrapping a [`Cluster`].
//!
//! [`FleetService`] is the RDA/TANGO-style front the related middleware
//! systems put on their device models: a **request/reply** side (trace
//! requests plus the synchronous [`FleetService::try_place`]) and a
//! **publish-subscribe** side (the per-epoch [`TelemetryLog`] stream).
//! One [`FleetService::run_epoch`] call serves one epoch boundary:
//!
//! 1. fetch the epoch's requests from the [`RequestTrace`];
//! 2. apply maintenance (`DrainCell`/`JoinCell`) and `DepartVm` requests
//!    in list order — capacity freed here is visible to admissions below;
//! 3. build the [`BoundaryView`] and drain the admission queue (FIFO:
//!    queued requests get first claim on freed capacity);
//! 4. decide each new `PlaceVm` request (admit / queue / reject) and
//!    serve each `QueryTelemetry` request;
//! 5. run the epoch on the cluster (serial or cell-parallel — the results
//!    are bit-identical either way);
//! 6. publish one [`TelemetryRecord`] and, every
//!    [`ServiceConfig::checkpoint_every`] epochs, take an automatic
//!    [`ServiceCheckpoint`].
//!
//! # Restart story
//!
//! A [`ServiceCheckpoint`] wraps a copy of the whole service: the deep
//! copy of its cluster (see [`Cluster::checkpoint`]) *plus* its own state
//! — the trace, the admission queue, the ledger, the telemetry published
//! so far and the next arrival index. [`FleetService::restore`] hands the
//! copy back; it resumes mid-trace and replays the remaining epochs
//! **bit-identically** — the telemetry a restored service publishes is
//! byte-equal to what the original would have published, which CI checks
//! on every push.

use crate::admission::{AdmissionController, AdmissionOutcome, BoundaryView};
use crate::request::{RequestTrace, ServiceRequest};
use crate::telemetry::{
    AdmissionLedger, CellTelemetry, TelemetryLog, TelemetryQueryReply, TelemetryRecord,
    TELEMETRY_VERSION,
};
use kyoto_cluster::cluster::Cluster;
use kyoto_cluster::error::{AdmissionRejection, ClusterError};
use kyoto_cluster::snapshot::{CellId, FleetVmId};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_sim::workload::Workload;
use serde::{Deserialize, Serialize};

use crate::admission::AdmissionConfig;

/// Spawns the configuration and workload of a placement, keyed by the
/// request's arrival index (monotonic across the service's lifetime,
/// queued and rejected requests included) — the same convention as
/// [`Cluster::run_epoch_with_events`], so the arrival stream is a pure
/// function of the index sequence and replays are deterministic.
pub type SpawnFn<'a> = &'a mut dyn FnMut(u64) -> (VmConfig, Box<dyn Workload>);

/// Configuration of a [`FleetService`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Admission policy and queue bound.
    pub admission: AdmissionConfig,
    /// Take an automatic [`ServiceCheckpoint`] every this many epochs
    /// (`None` disables auto-checkpointing). The latest one is held until
    /// [`FleetService::take_auto_checkpoint`] collects it.
    pub checkpoint_every: Option<u64>,
}

/// A restartable copy of the whole service at an epoch boundary: the deep
/// copy of its cluster plus the service's own request-side state, with no
/// automatic checkpoint and no outstanding reply. Opaque by design;
/// [`FleetService::restore`] is the only consumer.
pub struct ServiceCheckpoint(FleetService);

impl ServiceCheckpoint {
    /// The epoch the checkpointed service had completed.
    pub fn epoch(&self) -> u64 {
        self.0.epoch()
    }
}

impl std::fmt::Debug for ServiceCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let service = &self.0;
        f.debug_struct("ServiceCheckpoint")
            .field("epoch", &service.epoch())
            .field("trace", &service.trace)
            .field("config", &service.config)
            .field("queue", &service.controller.queued())
            .field("ledger", &service.ledger)
            .field("records", &service.telemetry.records())
            .field("next_request_index", &service.next_request_index)
            .finish_non_exhaustive()
    }
}

/// The long-running control plane: a [`Cluster`] behind a request/reply
/// and publish-subscribe front. See the module docs for the epoch
/// procedure.
pub struct FleetService {
    cluster: Cluster,
    trace: RequestTrace,
    config: ServiceConfig,
    controller: AdmissionController,
    ledger: AdmissionLedger,
    telemetry: TelemetryLog,
    next_request_index: u64,
    auto_checkpoint: Option<Box<ServiceCheckpoint>>,
    /// The reply served to the most recent `QueryTelemetry` request.
    /// Transient request/reply state — deliberately not checkpointed (a
    /// restored service has no outstanding replies).
    last_query: Option<TelemetryQueryReply>,
}

impl FleetService {
    /// Puts a service front on `cluster`, replaying `trace`.
    pub fn new(cluster: Cluster, trace: RequestTrace, config: ServiceConfig) -> Self {
        FleetService {
            cluster,
            trace,
            config,
            controller: AdmissionController::new(config.admission),
            ledger: AdmissionLedger::default(),
            telemetry: TelemetryLog::new(),
            next_request_index: 0,
            auto_checkpoint: None,
            last_query: None,
        }
    }

    /// The wrapped cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &RequestTrace {
        &self.trace
    }

    /// The cumulative admission ledger.
    pub fn ledger(&self) -> &AdmissionLedger {
        &self.ledger
    }

    /// The reply served to the most recent `QueryTelemetry` request, if
    /// any were served yet (see [`TelemetryQueryReply`] for where the
    /// numbers come from).
    pub fn last_query(&self) -> Option<&TelemetryQueryReply> {
        self.last_query.as_ref()
    }

    /// Answers a `QueryTelemetry` request. With tracing on, the answer
    /// comes from the **live trace plane**: the `service.*` counter
    /// mirrors in the cluster sink plus the fleet-wide sum of per-cell
    /// `engine.cycles` counters. With tracing off it falls back to the
    /// in-memory ledger (cycles 0).
    pub fn query_telemetry(&self) -> TelemetryQueryReply {
        let sink = self.cluster.trace();
        if sink.is_enabled() {
            TelemetryQueryReply {
                epoch: self.cluster.epoch(),
                requested: sink.counter_value("service.requested"),
                admitted: sink.counter_value("service.admitted"),
                rejected: sink.counter_value("service.rejected"),
                queries: sink.counter_value("service.queries"),
                engine_cycles: sink.sum_counters_with_suffix(".engine.cycles"),
            }
        } else {
            TelemetryQueryReply {
                epoch: self.cluster.epoch(),
                requested: self.ledger.requested,
                admitted: self.ledger.admitted,
                rejected: self.ledger.rejected(),
                queries: self.ledger.queries,
                engine_cycles: 0,
            }
        }
    }

    /// The published telemetry stream (the subscribe side).
    pub fn telemetry(&self) -> &TelemetryLog {
        &self.telemetry
    }

    /// Epochs completed so far.
    pub fn epoch(&self) -> u64 {
        self.cluster.epoch()
    }

    /// Whether the trace has been replayed to its end.
    pub fn finished(&self) -> bool {
        self.cluster.epoch() >= self.trace.config().epochs
    }

    /// Serves one epoch boundary and runs the epoch; returns the record
    /// published for it. `spawn` supplies each admitted placement's
    /// configuration and workload, keyed by arrival index (see
    /// [`SpawnFn`]).
    ///
    /// # Errors
    ///
    /// Any [`ClusterError`] the underlying cluster surfaces (admission
    /// onto a hypervisor, event application, checkpointing). Admission
    /// *rejections* are not errors on this path — they are ledger
    /// entries.
    pub fn run_epoch(&mut self, spawn: SpawnFn<'_>) -> Result<&TelemetryRecord, ClusterError> {
        let epoch = self.cluster.epoch();
        let requests = self.trace.requests_for_epoch(epoch);
        let trace_on = self.cluster.trace().is_enabled();
        let admission_start = if trace_on {
            self.cluster.trace_cursor_bump()
        } else {
            0
        };

        // Pass 1: maintenance and departures, in request order. Capacity
        // freed here is what the queue drain below gets first claim on.
        for request in &requests {
            match *request {
                ServiceRequest::DrainCell(cell) => {
                    self.cluster.set_draining(cell, true)?;
                    self.ledger.drains += 1;
                    self.cluster
                        .control_instant("service", "service.drain", || format!("cell={}", cell.0));
                }
                ServiceRequest::JoinCell(cell) => {
                    self.cluster.set_draining(cell, false)?;
                    self.ledger.joins += 1;
                    self.cluster
                        .control_instant("service", "service.join", || format!("cell={}", cell.0));
                }
                ServiceRequest::DepartVm { pick } => {
                    let served = self.cluster.depart_vm(pick)?;
                    if served {
                        self.ledger.departures_served += 1;
                    } else {
                        self.ledger.departures_noop += 1;
                    }
                    self.cluster
                        .control_instant("service", "service.depart", || {
                            format!("served={}", u8::from(served))
                        });
                }
                ServiceRequest::PlaceVm | ServiceRequest::QueryTelemetry => {}
            }
        }

        // Pass 2: admissions against a boundary-local view — queued
        // requests first (FIFO), then this epoch's new placements.
        let mut view = BoundaryView::of(&self.cluster.snapshot());
        for (index, cell) in self.controller.drain_queue(&mut view) {
            let (config, workload) = spawn(index);
            let vm = self.cluster.add_vm(cell, config, workload)?;
            self.ledger.admitted += 1;
            self.ledger.admitted_from_queue += 1;
            self.cluster
                .control_instant("service", "service.place", || {
                    format!("req={index} vm={} cell={} from=queue", vm.0, cell.0)
                });
        }
        for request in &requests {
            match *request {
                ServiceRequest::PlaceVm => {
                    let index = self.next_request_index;
                    self.next_request_index += 1;
                    self.ledger.requested += 1;
                    self.cluster
                        .control_instant("service", "service.request", || format!("req={index}"));
                    match self.controller.decide(index, &mut view) {
                        AdmissionOutcome::Admitted(cell) => {
                            let (config, workload) = spawn(index);
                            let vm = self.cluster.add_vm(cell, config, workload)?;
                            self.ledger.admitted += 1;
                            self.cluster
                                .control_instant("service", "service.admit", || {
                                    format!("req={index} cell={}", cell.0)
                                });
                            self.cluster
                                .control_instant("service", "service.place", || {
                                    format!("req={index} vm={} cell={}", vm.0, cell.0)
                                });
                        }
                        AdmissionOutcome::Queued => {
                            self.cluster
                                .control_instant("service", "service.queue", || {
                                    format!("req={index}")
                                });
                        }
                        AdmissionOutcome::Rejected(reason) => {
                            self.count_rejection(reason);
                            self.cluster
                                .control_instant("service", "service.reject", || {
                                    format!("req={index}")
                                });
                        }
                    }
                }
                ServiceRequest::QueryTelemetry => {
                    // Request/reply read: answered from the live trace
                    // counters when tracing is on, the ledger otherwise
                    // (see [`FleetService::query_telemetry`]).
                    self.ledger.queries += 1;
                    let queries = self.ledger.queries;
                    self.cluster
                        .control_instant("service", "service.query", || format!("n={queries}"));
                    self.last_query = Some(self.query_telemetry());
                }
                _ => {}
            }
        }
        self.ledger.queue_len = self.controller.queued().len() as u64;
        self.ledger.queue_peak = self.ledger.queue_peak.max(self.ledger.queue_len);
        if trace_on {
            // Mirror the cumulative ledger into the trace plane (these
            // counters are what `query_telemetry` answers from) and close
            // the boundary's admission span.
            let ledger = self.ledger;
            let requests_served = requests.len();
            let admission_end = self.cluster.trace_cursor_bump();
            let trace = self.cluster.trace_mut();
            trace.counter_set_max("service.requested", ledger.requested);
            trace.counter_set_max("service.admitted", ledger.admitted);
            trace.counter_set_max("service.rejected", ledger.rejected());
            trace.counter_set_max("service.queries", ledger.queries);
            trace.counter_set_max("service.queue_peak", ledger.queue_peak);
            trace.span_with(
                "service",
                "service.admission",
                admission_start,
                admission_end - admission_start,
                format!("epoch={epoch} requests={requests_served}"),
            );
        }

        // Run the epoch, then publish. A due checkpoint holds the published
        // stream, this epoch's record included.
        self.cluster.run_epoch()?;
        let record = self.build_record();
        if let Some(every) = self.config.checkpoint_every {
            if every > 0 && self.cluster.epoch().is_multiple_of(every) {
                let mut checkpoint = self.checkpoint()?;
                checkpoint.0.telemetry.publish(record.clone());
                self.auto_checkpoint = Some(Box::new(checkpoint));
            }
        }
        Ok(self.telemetry.publish(record))
    }

    /// Replays the trace to its end.
    pub fn run_to_end(&mut self, spawn: SpawnFn<'_>) -> Result<(), ClusterError> {
        while !self.finished() {
            self.run_epoch(spawn)?;
        }
        Ok(())
    }

    /// The synchronous request/reply front: places one VM right now,
    /// outside the trace, bypassing the queue — callers holding a live
    /// connection get an immediate yes or no.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] with the typed [`AdmissionRejection`]
    /// when no cell qualifies; other [`ClusterError`]s if the placement
    /// itself fails.
    pub fn try_place(
        &mut self,
        config: VmConfig,
        workload: Box<dyn Workload>,
    ) -> Result<(FleetVmId, CellId), ClusterError> {
        self.ledger.requested += 1;
        let view = BoundaryView::of(&self.cluster.snapshot());
        match self.controller.select(&view) {
            Ok(cell) => {
                let vm = self.cluster.add_vm(cell, config, workload)?;
                self.ledger.admitted += 1;
                self.cluster
                    .control_instant("service", "service.place", || {
                        format!("vm={} cell={} from=sync", vm.0, cell.0)
                    });
                Ok((vm, cell))
            }
            Err(reason) => {
                self.count_rejection(reason);
                self.cluster
                    .control_instant("service", "service.reject", String::new);
                Err(ClusterError::Rejected { reason })
            }
        }
    }

    fn count_rejection(&mut self, reason: AdmissionRejection) {
        match reason {
            AdmissionRejection::FleetSaturated => self.ledger.rejected_saturated += 1,
            AdmissionRejection::ContentionOverBudget { .. } => self.ledger.rejected_contention += 1,
            // Future rejection reasons (the enum is non_exhaustive) are
            // still conserved: fold them into the saturation bucket.
            _ => self.ledger.rejected_saturated += 1,
        }
    }

    /// Builds the telemetry record for the epoch that just ran.
    fn build_record(&self) -> TelemetryRecord {
        let cores = self.cluster.cores_per_cell() as u64;
        let report = self.cluster.history().last();
        let cells: Vec<CellTelemetry> = report
            .map(|report| {
                report
                    .cells
                    .iter()
                    .map(|stats| CellTelemetry {
                        cell: stats.cell,
                        vms: stats.vms as u64,
                        free_cores: cores.saturating_sub(stats.vms as u64),
                        draining: stats.draining,
                        down: stats.down,
                        pollution_rate: stats.pollution_rate,
                        instructions: stats.instructions,
                        llc_misses: stats.llc_misses,
                        punishments: stats.punishments,
                    })
                    .collect()
            })
            .unwrap_or_default();
        TelemetryRecord {
            version: TELEMETRY_VERSION,
            epoch: self.cluster.epoch().saturating_sub(1),
            vms: cells.iter().map(|cell| cell.vms).sum(),
            migrations: self.cluster.total_migrations(),
            cells,
            admission: self.ledger,
            faults: self.cluster.total_faults(),
        }
    }

    /// Takes a restartable copy of the whole service: fleet, trace,
    /// queue, ledger and telemetry. The copy holds no automatic checkpoint
    /// and no outstanding query reply.
    ///
    /// # Errors
    ///
    /// Whatever [`Cluster::checkpoint`] surfaces (an uncloneable
    /// workload, typically).
    pub fn checkpoint(&self) -> Result<ServiceCheckpoint, ClusterError> {
        Ok(ServiceCheckpoint(FleetService {
            cluster: Cluster::restore(self.cluster.checkpoint()?),
            trace: self.trace.clone(),
            config: self.config,
            controller: self.controller.clone(),
            ledger: self.ledger,
            telemetry: self.telemetry.clone(),
            next_request_index: self.next_request_index,
            auto_checkpoint: None,
            last_query: None,
        }))
    }

    /// Resumes the service a checkpoint copied, mid-trace. The resumed
    /// service replays the remaining epochs bit-identically to the
    /// original (property-tested and CI-gated).
    pub fn restore(checkpoint: ServiceCheckpoint) -> FleetService {
        checkpoint.0
    }

    /// Collects the latest automatic checkpoint, if one was taken since
    /// the last collection (see [`ServiceConfig::checkpoint_every`]).
    pub fn take_auto_checkpoint(&mut self) -> Option<ServiceCheckpoint> {
        self.auto_checkpoint.take().map(|boxed| *boxed)
    }

    /// Checks every conservation invariant: the cluster's VM conservation
    /// plus the admission ledger's request conservation.
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn verify_conservation(&self) -> Result<(), String> {
        self.cluster.verify_conservation()?;
        self.ledger.verify_conservation()
    }
}
