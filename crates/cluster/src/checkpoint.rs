//! Fleet checkpointing: a deep copy of the whole cluster that
//! [`Cluster::restore`] resumes **bit-identically**.
//!
//! A checkpoint is a *value*, not a view: it wraps a copy of the
//! [`Cluster`] itself. Every cell's machine (caches, PMCs), hypervisor
//! (scheduler state, VM runtimes, workload progress), every in-flight
//! arrival, the crash-retry queue, the installed
//! [`FaultPlan`](crate::faults::FaultPlan) and all control-plane counters
//! are cloned outright by [`Cluster::checkpoint`], and [`Cluster::restore`]
//! hands the copy back. Because the simulation is deterministic, resuming
//! from the copy replays exactly the epochs the original would have run —
//! `run(k) == restore(checkpoint(run(j))).run(k - j)` is property-tested
//! across every policy and planner mode.
//!
//! Cloning can fail: workloads are trait objects, and only those
//! implementing [`Workload::try_clone_box`](kyoto_sim::workload::Workload)
//! participate. [`Cluster::checkpoint`] surfaces the offender instead of
//! panicking.

use crate::cluster::Cluster;

/// A deep copy of a [`Cluster`] at an epoch boundary. Opaque by design —
/// the only useful operation is [`Cluster::restore`] — but a few read-only
/// accessors support sanity checks without a restore.
pub struct FleetCheckpoint(pub(crate) Cluster);

impl FleetCheckpoint {
    /// The epoch the checkpointed cluster had completed.
    pub fn epoch(&self) -> u64 {
        self.0.epoch
    }

    /// Number of cells in the checkpointed fleet.
    pub fn num_cells(&self) -> usize {
        self.0.cells.len()
    }

    /// Live VMs captured (residents, in-flight arrivals and orphans alike).
    pub fn live_vms(&self) -> usize {
        self.0.vms.len()
    }

    /// Crash-orphaned VMs captured in the retry queue.
    pub fn queued_orphans(&self) -> usize {
        self.0.retry.len()
    }
}

impl std::fmt::Debug for FleetCheckpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetCheckpoint")
            .field("epoch", &self.0.epoch)
            .field("cells", &self.0.cells.len())
            .field("vms", &self.0.vms.len())
            .field("orphans", &self.0.retry.len())
            .field("departed", &self.0.departed.len())
            .finish_non_exhaustive()
    }
}
