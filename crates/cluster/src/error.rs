//! Typed errors for the fleet control loop.
//!
//! The cluster used to `panic!`/`expect` its way through fallible paths
//! (admission, planning, event application). With fault injection in the
//! picture those paths are *expected* to go wrong — a crash can race an
//! admission decision, a plan can name a cell that just went down — so the
//! epoch loop now surfaces a [`ClusterError`] instead of aborting the
//! process.

use crate::snapshot::{CellId, FleetVmId};
use kyoto_hypervisor::hypervisor::HypervisorError;

/// Why an admission controller turned a placement request away.
///
/// Rejection is a *decision*, not a malfunction: the control-plane service
/// (`kyoto-service`) accounts every rejection in its telemetry ledger, and
/// only its synchronous request/reply front surfaces one as a
/// [`ClusterError::Rejected`]. The reasons are typed so callers (and the
/// ledger) can distinguish a full fleet from an over-budget one.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum AdmissionRejection {
    /// No open (non-draining, non-down) cell has a free core, and the
    /// admission queue cannot hold the request either.
    FleetSaturated,
    /// Free cores exist, but placing the VM anywhere would push every
    /// candidate cell's projected contention past the admission
    /// controller's limit, and the admission queue is full.
    ContentionOverBudget {
        /// The lowest projected per-cell pollution (misses per CPU-ms) any
        /// candidate cell would reach with the VM placed.
        projected: f64,
        /// The controller's per-cell contention limit.
        limit: f64,
    },
}

impl std::fmt::Display for AdmissionRejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionRejection::FleetSaturated => {
                write!(f, "fleet saturated: no open cell has a free core")
            }
            AdmissionRejection::ContentionOverBudget { projected, limit } => write!(
                f,
                "projected contention {projected:.1} misses/ms exceeds the {limit:.1} limit on every candidate cell"
            ),
        }
    }
}

/// Anything that can go wrong while driving the fleet.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClusterError {
    /// An API call named a cell id outside the fleet.
    UnknownCell {
        /// The offending cell id.
        cell: CellId,
    },
    /// An API call named a fleet VM id that does not exist (or no longer
    /// exists).
    UnknownVm {
        /// The offending fleet VM id.
        vm: FleetVmId,
    },
    /// Admitting a VM onto a cell's hypervisor failed.
    Admission {
        /// The cell that refused the placement.
        cell: CellId,
        /// The fleet VM being placed.
        vm: FleetVmId,
        /// The underlying hypervisor error.
        source: HypervisorError,
    },
    /// A per-cell hypervisor operation (extraction, lookup) failed.
    Hypervisor {
        /// The cell whose hypervisor errored.
        cell: CellId,
        /// The underlying hypervisor error.
        source: HypervisorError,
    },
    /// The planner produced a plan that fails validation against the
    /// snapshot it was derived from.
    InvalidPlan {
        /// The validator's explanation.
        reason: String,
    },
    /// An admission controller rejected a placement request outright —
    /// surfaced by synchronous request/reply fronts (the `kyoto-service`
    /// control plane) where "no" is an answer, not an accident.
    Rejected {
        /// The typed rejection reason.
        reason: AdmissionRejection,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::UnknownCell { cell } => write!(f, "unknown cell {cell:?}"),
            ClusterError::UnknownVm { vm } => write!(f, "unknown fleet VM {vm:?}"),
            ClusterError::Admission { cell, vm, source } => {
                write!(f, "admission of {vm:?} onto {cell:?} failed: {source}")
            }
            ClusterError::Hypervisor { cell, source } => {
                write!(f, "hypervisor operation on {cell:?} failed: {source}")
            }
            ClusterError::InvalidPlan { reason } => {
                write!(f, "migration plan failed validation: {reason}")
            }
            ClusterError::Rejected { reason } => {
                write!(f, "placement rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Admission { source, .. } | ClusterError::Hypervisor { source, .. } => {
                Some(source)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let err = ClusterError::UnknownCell { cell: CellId(7) };
        assert!(err.to_string().contains("CellId(7)"));
        let err = ClusterError::InvalidPlan {
            reason: "move 0: dest cell is down".to_string(),
        };
        assert!(err.to_string().contains("dest cell is down"));
    }

    #[test]
    fn rejection_reasons_explain_themselves() {
        let err = ClusterError::Rejected {
            reason: AdmissionRejection::FleetSaturated,
        };
        assert!(err.to_string().contains("fleet saturated"));
        let err = ClusterError::Rejected {
            reason: AdmissionRejection::ContentionOverBudget {
                projected: 12.5,
                limit: 8.0,
            },
        };
        let text = err.to_string();
        assert!(text.contains("12.5"), "{text}");
        assert!(text.contains("8.0"), "{text}");
    }

    #[test]
    fn hypervisor_errors_are_chained_as_sources() {
        use std::error::Error;
        let err = ClusterError::Hypervisor {
            cell: CellId(1),
            source: HypervisorError::UnknownVm {
                vm: kyoto_hypervisor::vm::VmId(3),
            },
        };
        assert!(err.source().is_some());
        let err = ClusterError::UnknownVm { vm: FleetVmId(2) };
        assert!(err.source().is_none());
    }
}
