//! The publish side of the service: versioned per-epoch telemetry records.
//!
//! After every epoch the service publishes one [`TelemetryRecord`] onto an
//! append-only stream — the publish-subscribe half of the RDA/TANGO mold,
//! with the stream itself standing in for a broker: subscribers (the
//! `figures` scenario, the replay example, CI) read
//! [`TelemetryLog::records`] at their own pace, and a
//! [`ServiceRequest::QueryTelemetry`](crate::request::ServiceRequest::QueryTelemetry)
//! is simply a request/reply read of the latest record.
//!
//! # Record schema (version 1)
//!
//! Every record carries [`TELEMETRY_VERSION`]; consumers must check it and
//! refuse versions they do not know. Additive changes (new fields) bump
//! the version; field meaning never changes silently within a version.
//! Field-by-field:
//!
//! * `epoch` — the 0-based epoch the record closes;
//! * `vms` — VMs resident across the fleet at the boundary;
//! * `migrations` — **cumulative** planner moves since service start;
//! * `cells[]` — per-cell aggregates for the epoch (occupancy, free
//!   cores, drain/down flags, smoothed pollution in LLC misses per
//!   CPU-ms, instructions, LLC misses, Kyoto punishments);
//! * `admission` — the **cumulative** [`AdmissionLedger`];
//! * `faults` — **cumulative** [`FaultCounts`].
//!
//! [`TelemetryRecord::render`] emits a stable text form (fixed field
//! order, 3-decimal pollution) used by the byte-determinism CI gates.

use kyoto_cluster::faults::FaultCounts;
use kyoto_cluster::snapshot::CellId;
use serde::{Deserialize, Serialize};

/// Current telemetry record schema version.
pub const TELEMETRY_VERSION: u32 = 1;

/// Running totals of every admission decision the service has made.
///
/// The conservation invariant the property tests enforce:
/// `requested == admitted + rejected_saturated + rejected_contention +
/// queue_len` (every placement request is in exactly one bucket).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct AdmissionLedger {
    /// Placement requests received (trace `PlaceVm` plus synchronous
    /// `try_place` calls).
    pub requested: u64,
    /// Placements admitted onto a cell (immediately or from the queue).
    pub admitted: u64,
    /// Of `admitted`, how many waited in the queue first.
    pub admitted_from_queue: u64,
    /// Rejections because no open cell had a free core.
    pub rejected_saturated: u64,
    /// Rejections because every candidate cell was over the contention
    /// budget.
    pub rejected_contention: u64,
    /// Requests currently parked in the admission queue.
    pub queue_len: u64,
    /// High-water mark of `queue_len`.
    pub queue_peak: u64,
    /// `DepartVm` requests that removed a VM.
    pub departures_served: u64,
    /// `DepartVm` requests folded onto an empty fleet (no-ops).
    pub departures_noop: u64,
    /// `DrainCell` requests applied.
    pub drains: u64,
    /// `JoinCell` requests applied.
    pub joins: u64,
    /// `QueryTelemetry` requests served.
    pub queries: u64,
}

impl AdmissionLedger {
    /// Total rejections, any reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_saturated + self.rejected_contention
    }

    /// Checks the conservation invariant; returns a description of the
    /// violation if any.
    pub fn verify_conservation(&self) -> Result<(), String> {
        let accounted = self.admitted + self.rejected() + self.queue_len;
        if self.requested == accounted {
            Ok(())
        } else {
            Err(format!(
                "admission ledger leaks requests: {} requested but {} accounted \
                 ({} admitted + {} rejected + {} queued)",
                self.requested,
                accounted,
                self.admitted,
                self.rejected(),
                self.queue_len
            ))
        }
    }
}

/// One cell's aggregates for one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTelemetry {
    /// The cell.
    pub cell: CellId,
    /// VMs resident at the epoch boundary.
    pub vms: u64,
    /// Cores not claimed by a resident VM.
    pub free_cores: u64,
    /// Whether the cell is draining for maintenance.
    pub draining: bool,
    /// Whether the cell is down after a crash.
    pub down: bool,
    /// Smoothed cell pollution: resident VMs' LLC misses per CPU-ms,
    /// summed (the scheduler's Equation-1 estimates when the Kyoto
    /// monitor runs).
    pub pollution_rate: f64,
    /// Instructions retired on the cell this epoch.
    pub instructions: u64,
    /// LLC misses on the cell this epoch.
    pub llc_misses: u64,
    /// Kyoto punishments inflicted on the cell this epoch.
    pub punishments: u64,
}

/// One published telemetry record: the fleet, the admission ledger and
/// the fault ledger as of one epoch boundary. See the module docs for the
/// field-by-field schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetryRecord {
    /// Schema version; always [`TELEMETRY_VERSION`] for records this
    /// crate builds.
    pub version: u32,
    /// The 0-based epoch this record closes.
    pub epoch: u64,
    /// VMs resident across the fleet at the boundary.
    pub vms: u64,
    /// Cumulative planner moves since service start.
    pub migrations: u64,
    /// Per-cell aggregates, in cell-id order.
    pub cells: Vec<CellTelemetry>,
    /// Cumulative admission ledger.
    pub admission: AdmissionLedger,
    /// Cumulative fault/recovery counts.
    pub faults: FaultCounts,
}

impl TelemetryRecord {
    /// Renders the record in its stable text form: one `epoch` header
    /// line, then one indented line per cell. Field order and float
    /// precision are fixed — CI byte-compares this output across engine
    /// configurations.
    pub fn render(&self) -> String {
        let a = &self.admission;
        let mut out = format!(
            "epoch {:>3} v{} vms={} mig={} req={} adm={} (q:{}) rej={}+{} queue={}/{} dep={}+{} drains={} joins={} queries={} crashes={}\n",
            self.epoch,
            self.version,
            self.vms,
            self.migrations,
            a.requested,
            a.admitted,
            a.admitted_from_queue,
            a.rejected_saturated,
            a.rejected_contention,
            a.queue_len,
            a.queue_peak,
            a.departures_served,
            a.departures_noop,
            a.drains,
            a.joins,
            a.queries,
            self.faults.crashes,
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "  {} vms={} free={} drain={} down={} poll={:.3} instr={} miss={} punish={}\n",
                cell.cell,
                cell.vms,
                cell.free_cores,
                u8::from(cell.draining),
                u8::from(cell.down),
                cell.pollution_rate,
                cell.instructions,
                cell.llc_misses,
                cell.punishments,
            ));
        }
        out
    }
}

/// The reply to a [`QueryTelemetry`] request, answered from the **live
/// trace plane** when tracing is on: the admission counters are the
/// `service.*` mirrors in the cluster's [`TraceSink`](kyoto_cluster::TraceSink)
/// (refreshed at each epoch boundary — the same freshness as the published
/// stream) and `engine_cycles` is the fleet-wide sum of the per-cell
/// `cellN.engine.cycles` counters. With tracing off the admission fields
/// fall back to the in-memory ledger and `engine_cycles` is 0.
///
/// [`QueryTelemetry`]: crate::request::ServiceRequest::QueryTelemetry
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetryQueryReply {
    /// Epochs the fleet had completed when the query was served.
    pub epoch: u64,
    /// Cumulative placement requests (ledger mirror).
    pub requested: u64,
    /// Cumulative admissions (ledger mirror).
    pub admitted: u64,
    /// Cumulative rejections, any reason (ledger mirror).
    pub rejected: u64,
    /// Cumulative `QueryTelemetry` requests served (ledger mirror).
    pub queries: u64,
    /// Fleet-wide simulated engine cycles, summed across cells from the
    /// live trace counters (0 when tracing is off).
    pub engine_cycles: u64,
}

impl TelemetryQueryReply {
    /// Renders the reply in a stable one-line text form (pinned by the
    /// service tests).
    pub fn render(&self) -> String {
        format!(
            "query epoch={} req={} adm={} rej={} queries={} cycles={}",
            self.epoch,
            self.requested,
            self.admitted,
            self.rejected,
            self.queries,
            self.engine_cycles,
        )
    }
}

/// The append-only record stream the service publishes onto.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetryLog {
    records: Vec<TelemetryRecord>,
}

impl TelemetryLog {
    /// An empty log.
    pub fn new() -> Self {
        TelemetryLog::default()
    }

    /// Restores a log from checkpointed records.
    pub fn from_records(records: Vec<TelemetryRecord>) -> Self {
        TelemetryLog { records }
    }

    /// Publishes one record and returns it as stored.
    pub fn publish(&mut self, record: TelemetryRecord) -> &TelemetryRecord {
        self.records.push_mut(record)
    }

    /// Every record published so far, oldest first.
    pub fn records(&self) -> &[TelemetryRecord] {
        &self.records
    }

    /// The latest record — what a `QueryTelemetry` request replies with.
    pub fn latest(&self) -> Option<&TelemetryRecord> {
        self.records.last()
    }

    /// Renders the whole stream (concatenated [`TelemetryRecord::render`]).
    pub fn render(&self) -> String {
        self.records.iter().map(TelemetryRecord::render).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(epoch: u64) -> TelemetryRecord {
        TelemetryRecord {
            version: TELEMETRY_VERSION,
            epoch,
            vms: 3,
            migrations: 1,
            cells: vec![CellTelemetry {
                cell: CellId(0),
                vms: 3,
                free_cores: 1,
                draining: false,
                down: false,
                pollution_rate: 12.3456,
                instructions: 1000,
                llc_misses: 50,
                punishments: 2,
            }],
            admission: AdmissionLedger {
                requested: 5,
                admitted: 4,
                queue_len: 1,
                queue_peak: 2,
                ..AdmissionLedger::default()
            },
            faults: FaultCounts::default(),
        }
    }

    #[test]
    fn conservation_catches_leaks() {
        let mut ledger = AdmissionLedger {
            requested: 5,
            admitted: 3,
            rejected_saturated: 1,
            queue_len: 1,
            ..AdmissionLedger::default()
        };
        assert!(ledger.verify_conservation().is_ok());
        ledger.queue_len = 0;
        let err = ledger.verify_conservation().unwrap_err();
        assert!(err.contains("5 requested"), "{err}");
    }

    #[test]
    fn render_is_stable_and_pins_precision() {
        let text = record(7).render();
        assert!(text.starts_with("epoch   7 v1 vms=3"), "{text}");
        assert!(text.contains("poll=12.346"), "{text}");
        assert_eq!(record(7).render(), text);
    }

    #[test]
    fn log_publishes_in_order_and_serves_latest() {
        let mut log = TelemetryLog::new();
        assert!(log.latest().is_none());
        assert_eq!(log.publish(record(0)), &record(0));
        assert_eq!(log.publish(record(1)), &record(1));
        assert_eq!(log.records().len(), 2);
        assert_eq!(log.latest().map(|r| r.epoch), Some(1));
        assert_eq!(log.render(), record(0).render() + &record(1).render());
    }
}
