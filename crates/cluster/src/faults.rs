//! Fault injection: deterministic cell failures, slowdowns and migration
//! aborts.
//!
//! Real fleets lose machines. This module models that with a [`FaultPlan`]
//! mirroring the [`EventSchedule`](crate::events::EventSchedule) design: the
//! faults of epoch `e` are a **pure function of `(seed, e)`** — each epoch
//! derives its own RNG via SplitMix64 mixing, so no draw depends on how many
//! draws earlier epochs made, and serial vs cell-parallel runs inject
//! byte-identical fault streams.
//!
//! Three fault classes, in increasing subtlety:
//!
//! * [`FaultEvent::CellCrash`] — a cell dies at an epoch boundary. Its
//!   resident and in-flight VMs become *orphans* that re-enter admission
//!   through a bounded exponential-backoff retry queue; the machine reboots
//!   empty after a configured number of down epochs.
//! * [`FaultEvent::CellSlowdown`] — a cell keeps running but with its
//!   per-tick cycle budget divided (thermal throttling, a noisy co-tenant,
//!   a failing DIMM). It recovers on its own after a configured duration.
//! * [`FaultEvent::MigrationAbort`] — a planned live migration fails at one
//!   of three [`AbortPoint`]s. The VM rolls back atomically to its source
//!   cell: no VM is ever lost or duplicated, though downtime already paid is
//!   not refunded.
//!
//! Crash and slowdown events carry a raw `pick` (not a cell id): the plan
//! cannot know which cells are currently up, so the cluster folds the pick
//! onto the live population at apply time (`pick % up_cells`, cell-id
//! order) — the same trick [`FleetEvent::VmDeparture`](crate::events::FleetEvent)
//! uses for victims.

use crate::events::draw_count;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Where in the migration protocol an aborted move fails. Later points are
/// strictly more expensive for the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum AbortPoint {
    /// Pre-copy fails before the VM is ever suspended: the move is simply
    /// cancelled. The VM keeps running at the source; nothing is charged.
    Source,
    /// The transfer fails mid-flight, after the VM was suspended and
    /// extracted. It rolls back to its source cell and re-admits there,
    /// paying the downtime blackout and arriving with a cold cache — all
    /// cost, no migration.
    InFlight,
    /// The handshake fails at the destination, after the dest cell already
    /// committed its blackout window. The VM rolls back exactly as in
    /// [`AbortPoint::InFlight`], *and* the destination stalls for a blackout
    /// it gets nothing for (a phantom blackout).
    Dest,
}

/// One injected fault, applied at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A cell crashes: residents are orphaned into the retry queue, the
    /// machine reboots empty after the configured down time. `pick` selects
    /// the victim among currently-up cells at apply time; a no-op when every
    /// cell is already down.
    CellCrash {
        /// Raw selector folded onto the up cells at apply time.
        pick: u64,
    },
    /// A cell's cycle budget is divided by the configured factor for the
    /// configured duration. `pick` selects among currently-up cells.
    CellSlowdown {
        /// Raw selector folded onto the up cells at apply time.
        pick: u64,
    },
    /// One of this epoch's planned migrations aborts at `at`. `pick`
    /// selects among the epoch's planned moves at apply time; a no-op when
    /// the planner moved nothing this epoch.
    MigrationAbort {
        /// Raw selector folded onto the plan's move list at apply time.
        pick: u64,
        /// Where in the protocol the move fails.
        at: AbortPoint,
    },
}

/// Configuration of a [`FaultPlan`]: seeded fault rates, recovery
/// parameters, and scripted faults for tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Seed of the fault streams (independent of the churn seed).
    pub seed: u64,
    /// Expected cell crashes per epoch (fractional rates are realised
    /// probabilistically but deterministically per epoch).
    pub crash_rate: f64,
    /// Expected cell slowdowns per epoch.
    pub slowdown_rate: f64,
    /// Expected migration aborts per epoch (only bites in epochs where the
    /// planner actually moves something).
    pub abort_rate: f64,
    /// How many epochs a crashed cell stays down before rebooting empty.
    pub down_epochs: u64,
    /// The cycle-budget divisor a slowed-down cell runs with.
    pub slowdown_factor: u64,
    /// How many epochs a slowdown lasts.
    pub slowdown_epochs: u64,
    /// How many failed re-admission attempts an orphan gets before it is
    /// permanently rejected (archived with its report — never silently
    /// dropped).
    pub max_retries: u32,
    /// Scripted `(epoch, fault)` entries, applied in list order at their
    /// epoch's boundary before any seeded fault of that epoch.
    pub scripted: Vec<(u64, FaultEvent)>,
}

impl FaultPlanConfig {
    /// A plan with the given seed, zero fault rates, and default recovery
    /// parameters (2 down epochs, 4x slowdown for 2 epochs, 4 retries).
    pub fn new(seed: u64) -> Self {
        FaultPlanConfig {
            seed,
            crash_rate: 0.0,
            slowdown_rate: 0.0,
            abort_rate: 0.0,
            down_epochs: 2,
            slowdown_factor: 4,
            slowdown_epochs: 2,
            max_retries: 4,
            scripted: Vec::new(),
        }
    }

    /// Sets the expected crashes per epoch.
    pub fn with_crash_rate(mut self, rate: f64) -> Self {
        self.crash_rate = rate.max(0.0);
        self
    }

    /// Sets the expected slowdowns per epoch.
    pub fn with_slowdown_rate(mut self, rate: f64) -> Self {
        self.slowdown_rate = rate.max(0.0);
        self
    }

    /// Sets the expected migration aborts per epoch.
    pub fn with_abort_rate(mut self, rate: f64) -> Self {
        self.abort_rate = rate.max(0.0);
        self
    }

    /// Sets how long a crashed cell stays down (min 1 epoch).
    pub fn with_down_epochs(mut self, epochs: u64) -> Self {
        self.down_epochs = epochs.max(1);
        self
    }

    /// Sets the slowdown divisor (min 1, i.e. no slowdown).
    pub fn with_slowdown_factor(mut self, factor: u64) -> Self {
        self.slowdown_factor = factor.max(1);
        self
    }

    /// Sets how long a slowdown lasts (min 1 epoch).
    pub fn with_slowdown_epochs(mut self, epochs: u64) -> Self {
        self.slowdown_epochs = epochs.max(1);
        self
    }

    /// Sets the orphan retry budget (min 1 attempt).
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries.max(1);
        self
    }

    /// Scripts a fault at the given epoch boundary.
    pub fn with_scripted(mut self, epoch: u64, fault: FaultEvent) -> Self {
        self.scripted.push((epoch, fault));
        self
    }
}

/// Recovery parameters the epoch loop needs at fault-application time,
/// extracted so the loop does not have to borrow the whole plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RecoveryParams {
    pub(crate) down_epochs: u64,
    pub(crate) slowdown_factor: u64,
    pub(crate) slowdown_epochs: u64,
    pub(crate) max_retries: u32,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        let defaults = FaultPlanConfig::new(0);
        RecoveryParams {
            down_epochs: defaults.down_epochs,
            slowdown_factor: defaults.slowdown_factor,
            slowdown_epochs: defaults.slowdown_epochs,
            max_retries: defaults.max_retries,
        }
    }
}

/// A deterministic stream of fault events, indexed by epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    config: FaultPlanConfig,
}

/// Domain-separation constant: keeps a fault plan's draws independent of an
/// [`EventSchedule`](crate::events::EventSchedule) built from the same seed.
const FAULT_STREAM_SALT: u64 = 0xFA17_5EED;

impl FaultPlan {
    /// Creates a plan.
    pub fn new(config: FaultPlanConfig) -> Self {
        FaultPlan { config }
    }

    /// The plan configuration.
    pub fn config(&self) -> &FaultPlanConfig {
        &self.config
    }

    pub(crate) fn recovery(&self) -> RecoveryParams {
        RecoveryParams {
            down_epochs: self.config.down_epochs,
            slowdown_factor: self.config.slowdown_factor,
            slowdown_epochs: self.config.slowdown_epochs,
            max_retries: self.config.max_retries,
        }
    }

    /// The faults of epoch `epoch`, in application order: scripted faults
    /// first, then seeded crashes, slowdowns, and aborts. Pure: two calls
    /// with the same epoch return the same list.
    pub fn faults_for_epoch(&self, epoch: u64) -> Vec<FaultEvent> {
        let mut faults: Vec<FaultEvent> = self
            .config
            .scripted
            .iter()
            .filter(|(e, _)| *e == epoch)
            .map(|(_, fault)| *fault)
            .collect();
        let mut rng = SmallRng::seed_from_u64(
            self.config.seed ^ FAULT_STREAM_SALT ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        for _ in 0..draw_count(&mut rng, self.config.crash_rate) {
            let pick = rng.next_u64();
            faults.push(FaultEvent::CellCrash { pick });
        }
        for _ in 0..draw_count(&mut rng, self.config.slowdown_rate) {
            let pick = rng.next_u64();
            faults.push(FaultEvent::CellSlowdown { pick });
        }
        for _ in 0..draw_count(&mut rng, self.config.abort_rate) {
            let at = match rng.next_u64() % 3 {
                0 => AbortPoint::Source,
                1 => AbortPoint::InFlight,
                _ => AbortPoint::Dest,
            };
            let pick = rng.next_u64();
            faults.push(FaultEvent::MigrationAbort { pick, at });
        }
        faults
    }
}

/// Per-epoch fault and recovery accounting, carried on every
/// [`EpochReport`](crate::cluster::EpochReport). Nothing is silently
/// dropped: every orphan eventually shows up as `readmitted` or
/// `rejected_orphans`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounts {
    /// Cells crashed this epoch.
    pub crashes: u64,
    /// Cells that finished their down time and rebooted this epoch.
    pub recoveries: u64,
    /// Cells slowed down this epoch.
    pub slowdowns: u64,
    /// Planned migrations cancelled before suspension ([`AbortPoint::Source`]).
    pub aborted_source: u64,
    /// Planned migrations rolled back mid-flight ([`AbortPoint::InFlight`]).
    pub aborted_in_flight: u64,
    /// Planned migrations rolled back at the destination ([`AbortPoint::Dest`]).
    pub aborted_dest: u64,
    /// VMs orphaned by crashes this epoch.
    pub orphaned: u64,
    /// Orphans re-admitted from the retry queue this epoch.
    pub readmitted: u64,
    /// Due retry attempts that failed and backed off this epoch.
    pub retry_backoffs: u64,
    /// Orphans permanently rejected (retry budget exhausted) this epoch.
    pub rejected_orphans: u64,
}

impl FaultCounts {
    /// Total aborted migrations, at any point.
    pub fn aborted_migrations(&self) -> u64 {
        self.aborted_source + self.aborted_in_flight + self.aborted_dest
    }

    /// True when nothing fault-related happened this epoch.
    pub fn is_quiet(&self) -> bool {
        *self == FaultCounts::default()
    }

    pub(crate) fn accumulate(&mut self, other: &FaultCounts) {
        self.crashes += other.crashes;
        self.recoveries += other.recoveries;
        self.slowdowns += other.slowdowns;
        self.aborted_source += other.aborted_source;
        self.aborted_in_flight += other.aborted_in_flight;
        self.aborted_dest += other.aborted_dest;
        self.orphaned += other.orphaned;
        self.readmitted += other.readmitted;
        self.retry_backoffs += other.retry_backoffs;
        self.rejected_orphans += other.rejected_orphans;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_streams_are_pure_per_epoch() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(7)
                .with_crash_rate(0.5)
                .with_slowdown_rate(0.25)
                .with_abort_rate(1.5),
        );
        for epoch in 0..16 {
            assert_eq!(
                plan.faults_for_epoch(epoch),
                plan.faults_for_epoch(epoch),
                "epoch {epoch} stream must be pure"
            );
        }
    }

    #[test]
    fn epochs_are_independent_of_query_order() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(99)
                .with_crash_rate(0.75)
                .with_abort_rate(1.25),
        );
        let forward: Vec<_> = (0..8).map(|e| plan.faults_for_epoch(e)).collect();
        let backward: Vec<_> = (0..8).rev().map(|e| plan.faults_for_epoch(e)).collect();
        let backward: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward);
    }

    #[test]
    fn fault_stream_differs_from_event_stream_on_the_same_seed() {
        // Same seed, same rate shape: the domain-separation salt must keep
        // the two streams decorrelated (a crash epoch should not force a
        // departure epoch).
        let faults = FaultPlan::new(FaultPlanConfig::new(42).with_crash_rate(0.5));
        let events = crate::events::EventSchedule::new(
            crate::events::EventScheduleConfig::new(42).with_departure_rate(0.5),
        );
        let crash_epochs: Vec<bool> = (0..64)
            .map(|e| !faults.faults_for_epoch(e).is_empty())
            .collect();
        let departure_epochs: Vec<bool> = (0..64)
            .map(|e| !events.events_for_epoch(e).is_empty())
            .collect();
        assert_ne!(crash_epochs, departure_epochs);
    }

    #[test]
    fn scripted_faults_lead_their_epoch() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(3)
                .with_abort_rate(2.0)
                .with_scripted(1, FaultEvent::CellCrash { pick: 0 }),
        );
        assert!(!plan
            .faults_for_epoch(0)
            .contains(&FaultEvent::CellCrash { pick: 0 }));
        assert_eq!(
            plan.faults_for_epoch(1)[0],
            FaultEvent::CellCrash { pick: 0 }
        );
    }

    #[test]
    fn fractional_rates_average_out() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(5)
                .with_crash_rate(0.25)
                .with_abort_rate(0.5),
        );
        let mut crashes = 0usize;
        let mut aborts = 0usize;
        for epoch in 0..400 {
            for fault in plan.faults_for_epoch(epoch) {
                match fault {
                    FaultEvent::CellCrash { .. } => crashes += 1,
                    FaultEvent::MigrationAbort { .. } => aborts += 1,
                    _ => {}
                }
            }
        }
        assert!((40..=160).contains(&crashes), "{crashes} crashes");
        assert!((120..=280).contains(&aborts), "{aborts} aborts");
    }

    #[test]
    fn infinite_rates_draw_a_bounded_number_of_faults() {
        let plan = FaultPlan::new(
            FaultPlanConfig::new(23)
                .with_crash_rate(f64::INFINITY)
                .with_slowdown_rate(f64::INFINITY)
                .with_abort_rate(f64::INFINITY),
        );
        for epoch in 0..4 {
            let (mut crashes, mut slowdowns, mut aborts) = (0u64, 0u64, 0u64);
            for fault in plan.faults_for_epoch(epoch) {
                match fault {
                    FaultEvent::CellCrash { .. } => crashes += 1,
                    FaultEvent::CellSlowdown { .. } => slowdowns += 1,
                    FaultEvent::MigrationAbort { .. } => aborts += 1,
                }
            }
            for count in [crashes, slowdowns, aborts] {
                assert!(
                    count <= crate::events::MAX_DRAW,
                    "{count} faults of one kind"
                );
            }
        }
    }

    #[test]
    fn abort_points_cover_all_three_stages() {
        let plan = FaultPlan::new(FaultPlanConfig::new(11).with_abort_rate(1.0));
        let mut seen = std::collections::HashSet::new();
        for epoch in 0..64 {
            for fault in plan.faults_for_epoch(epoch) {
                if let FaultEvent::MigrationAbort { at, .. } = fault {
                    seen.insert(at);
                }
            }
        }
        assert_eq!(seen.len(), 3, "all abort points should occur: {seen:?}");
    }

    #[test]
    fn builders_clamp_their_arguments() {
        let config = FaultPlanConfig::new(1)
            .with_crash_rate(-1.0)
            .with_slowdown_factor(0)
            .with_down_epochs(0)
            .with_max_retries(0);
        assert_eq!(config.crash_rate, 0.0);
        assert_eq!(config.slowdown_factor, 1);
        assert_eq!(config.down_epochs, 1);
        assert_eq!(config.max_retries, 1);
    }

    #[test]
    fn counts_roll_up() {
        let mut total = FaultCounts::default();
        assert!(total.is_quiet());
        let epoch = FaultCounts {
            aborted_source: 1,
            aborted_dest: 2,
            ..FaultCounts::default()
        };
        total.accumulate(&epoch);
        total.accumulate(&epoch);
        assert_eq!(total.aborted_migrations(), 6);
        assert!(!total.is_quiet());
    }
}
