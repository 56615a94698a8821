//! # kyoto-cluster — fleet-scale simulation for the Kyoto reproduction
//!
//! The paper enforces the polluter-pays principle on a single host; this
//! crate models the level above, where the principle actually earns its
//! keep: a **fleet** of machines whose VMs are placed — and re-placed — as
//! load and cache pollution shift.
//!
//! * [`cluster`] — the [`cluster::Cluster`]: N independent
//!   machine+hypervisor [`cluster::Cell`]s advanced by a deterministic,
//!   epoch-driven control loop (serially or one-cell-per-scoped-thread,
//!   bit-identically). A clone is a deep fleet checkpoint that resumes
//!   bit-identically;
//! * [`planner`] — the pure [`planner::MigrationPlanner`] with its
//!   load-balancing, bin-packing, pollution-aware and density-capped
//!   consolidation policies, the live-migration cost model (downtime
//!   blackout + cold-cache arrival) and the cost-aware move gate;
//! * [`events`] — deterministic fleet dynamics: seeded VM
//!   arrival/departure streams and scripted cell drain/join maintenance
//!   events, driven through the epoch control loop;
//! * [`faults`] — deterministic fault injection: cell crashes (orphaned
//!   VMs re-enter admission through a bounded-backoff retry queue), cell
//!   slowdowns (divided cycle budgets) and mid-migration aborts that roll
//!   back atomically;
//! * [`error`] — the typed [`error::ClusterError`] the control loop
//!   surfaces instead of panicking;
//! * [`snapshot`] — the per-epoch observations the planner consumes.
//!
//! # Example: four VMs rebalanced across two machines
//!
//! ```
//! use kyoto_cluster::cluster::{Cluster, ClusterConfig};
//! use kyoto_cluster::planner::ConsolidationPolicy;
//! use kyoto_cluster::snapshot::CellId;
//! use kyoto_hypervisor::vm::VmConfig;
//! use kyoto_workloads::spec::{SpecApp, SpecWorkload};
//!
//! let config = ClusterConfig::new(2, 256)
//!     .with_epoch_ticks(4)
//!     .with_policy(ConsolidationPolicy::LoadBalance);
//! let mut cluster = Cluster::new(config);
//! for i in 0..4 {
//!     cluster
//!         .add_vm(
//!             CellId(0),
//!             VmConfig::new(format!("vm{i}")),
//!             Box::new(SpecWorkload::new(SpecApp::Gcc, 256, i)),
//!         )
//!         .unwrap();
//! }
//! cluster.run_epochs(3).unwrap();
//! assert_eq!(cluster.occupancies(), vec![2, 2]);
//! assert!(cluster.total_migrations() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod error;
pub mod events;
pub mod faults;
pub mod planner;
pub mod snapshot;

pub use cluster::{
    Cell, CellEpochStats, Cluster, ClusterConfig, EpochReport, EventCounts, FleetVmReport,
};
pub use error::{AdmissionRejection, ClusterError};
pub use events::{EventSchedule, EventScheduleConfig, FleetEvent};
pub use faults::{AbortPoint, FaultCounts, FaultEvent, FaultPlan, FaultPlanConfig};
pub use planner::{
    ConsolidationPolicy, MigrationCostModel, MigrationMove, MigrationPlan, MigrationPlanner,
    PlannerConfig,
};
pub use snapshot::{CellId, CellSnapshot, ClusterSnapshot, FleetVmId, VmSnapshot};

// Re-exported so fleet consumers can configure tracing without a direct
// `kyoto-trace` dependency: `ClusterConfig::with_trace(TraceConfig::On)`.
pub use kyoto_trace::{TraceConfig, TraceSink};
