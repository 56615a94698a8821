//! SLA-aware admission: admit, queue or reject placement requests by
//! projected contention, not just free cores.
//!
//! The bare cluster's churn admission
//! ([`Cluster::admission_cell`](kyoto_cluster::cluster::Cluster::admission_cell))
//! answers one question:
//! *is there a free core anywhere?* A service front owes its customers a
//! better answer — a cell with a free core can still be a terrible home if
//! its resident polluters would flatten the newcomer (and the newcomer's
//! SLA with it). The [`AdmissionController`] therefore works on a
//! [`BoundaryView`]: per-cell free-core and **smoothed pollution** figures
//! derived from the last epoch's [`ClusterSnapshot`], updated locally as
//! the boundary's own admissions claim cores.
//!
//! Decisions are three-valued: **admit** onto a concrete cell, **queue**
//! into a bounded FIFO when no cell currently qualifies, or **reject**
//! with a typed [`AdmissionRejection`] when the queue is full too. Every
//! decision is a pure function of the view and the queue, which is what
//! lets the property tests demand bit-identical replays.

use kyoto_cluster::error::AdmissionRejection;
use kyoto_cluster::snapshot::{CellId, ClusterSnapshot};
use serde::{Deserialize, Serialize};

/// How the controller ranks and gates candidate cells.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AdmissionPolicy {
    /// Capacity only: any open cell with a free core qualifies. This is
    /// exactly the bare cluster's churn admission (most free cores, ties
    /// toward the lowest id), so sweeps can use it as the baseline.
    FreeCores,
    /// Capacity plus contention: a cell qualifies only while its smoothed
    /// pollution (LLC misses per CPU-millisecond, summed over residents)
    /// stays at or under `limit`. Among qualifying cells the ranking is
    /// the same as [`AdmissionPolicy::FreeCores`].
    ContentionAware {
        /// Per-cell pollution budget in misses per CPU-ms.
        limit: f64,
    },
}

impl AdmissionPolicy {
    /// Short label for tables and telemetry.
    pub fn label(&self) -> String {
        match self {
            AdmissionPolicy::FreeCores => "free-cores".to_string(),
            AdmissionPolicy::ContentionAware { limit } => format!("contention<={limit:.0}"),
        }
    }
}

/// Configuration of an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// The gating policy.
    pub policy: AdmissionPolicy,
    /// Capacity of the admission queue; a request that can neither place
    /// nor queue is rejected.
    pub queue_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            policy: AdmissionPolicy::FreeCores,
            queue_capacity: 8,
        }
    }
}

/// What happened to one placement request at this boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionOutcome {
    /// Placed onto the cell, immediately.
    Admitted(CellId),
    /// Parked in the admission queue; it will be retried at every later
    /// boundary (FIFO) until capacity appears.
    Queued,
    /// Turned away: no qualifying cell and no queue space.
    Rejected(AdmissionRejection),
}

/// One cell's standing at the current epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellLoad {
    open: bool,
    free_cores: usize,
    pollution: f64,
}

/// Per-cell load figures the controller decides against, derived from a
/// [`ClusterSnapshot`] at the start of the boundary and updated locally as
/// admissions claim cores — so several placements in one boundary can
/// never overcommit a cell.
///
/// Pollution figures are the last epoch's smoothed estimates (the
/// scheduler's Equation-1 rates when the Kyoto monitor runs); admissions
/// within a boundary claim cores but do not alter pollution, which only
/// moves when the next epoch actually runs.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundaryView {
    cells: Vec<CellLoad>,
}

impl BoundaryView {
    /// Builds the view from a snapshot.
    pub fn of(snapshot: &ClusterSnapshot) -> Self {
        BoundaryView {
            cells: snapshot
                .cells
                .iter()
                .map(|cell| CellLoad {
                    open: cell.is_open(),
                    free_cores: cell.free_cores(),
                    pollution: cell.pollution_rate(),
                })
                .collect(),
        }
    }

    /// Records an admission onto `cell`, claiming one core.
    fn claim(&mut self, cell: CellId) {
        let load = &mut self.cells[cell.0];
        load.free_cores = load.free_cores.saturating_sub(1);
    }

    /// Free cores summed over open cells.
    pub fn open_free_cores(&self) -> usize {
        self.cells
            .iter()
            .filter(|load| load.open)
            .map(|load| load.free_cores)
            .sum()
    }
}

/// The SLA-aware admission controller: a gating policy plus the bounded
/// FIFO queue of deferred placement requests (stored as arrival indices,
/// so the queue is plain data and checkpoints verbatim).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdmissionController {
    config: AdmissionConfig,
    queue: Vec<u64>,
}

impl AdmissionController {
    /// Creates a controller with an empty queue.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionController {
            config,
            queue: Vec::new(),
        }
    }

    /// The controller configuration.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Arrival indices currently parked in the queue, FIFO order.
    pub fn queued(&self) -> &[u64] {
        &self.queue
    }

    /// Selects the cell a request would be placed on right now, or the
    /// typed reason none qualifies. Pure — does not touch the queue or
    /// the view.
    ///
    /// Ranking among qualifying cells: most free cores, ties toward the
    /// lowest id — identical to the bare cluster's churn admission, so
    /// under [`AdmissionPolicy::FreeCores`] the controller and
    /// `Cluster::admission_cell` always agree.
    pub fn select(&self, view: &BoundaryView) -> Result<CellId, AdmissionRejection> {
        let with_cores: Vec<usize> = (0..view.cells.len())
            .filter(|&c| view.cells[c].open && view.cells[c].free_cores > 0)
            .collect();
        if with_cores.is_empty() {
            return Err(AdmissionRejection::FleetSaturated);
        }
        let qualifying = match self.config.policy {
            AdmissionPolicy::FreeCores => with_cores.clone(),
            AdmissionPolicy::ContentionAware { limit } => with_cores
                .iter()
                .copied()
                .filter(|&c| view.cells[c].pollution <= limit)
                .collect(),
        };
        if qualifying.is_empty() {
            // Every cell with capacity is over budget; report the least
            // bad projection so the rejection is actionable. (FreeCores
            // never filters, so this arm only fires contention-aware.)
            let projected = with_cores
                .iter()
                .map(|&c| view.cells[c].pollution)
                .fold(f64::INFINITY, f64::min);
            return Err(match self.config.policy {
                AdmissionPolicy::ContentionAware { limit } => {
                    AdmissionRejection::ContentionOverBudget { projected, limit }
                }
                AdmissionPolicy::FreeCores => AdmissionRejection::FleetSaturated,
            });
        }
        qualifying
            .into_iter()
            .max_by_key(|&c| (view.cells[c].free_cores, std::cmp::Reverse(c)))
            .map(CellId)
            .ok_or(AdmissionRejection::FleetSaturated)
    }

    /// Decides one new placement request: admit (claiming a core in the
    /// view), queue, or reject. `index` is the request's arrival index;
    /// it is what gets parked when the decision is to queue.
    pub fn decide(&mut self, index: u64, view: &mut BoundaryView) -> AdmissionOutcome {
        match self.select(view) {
            Ok(cell) => {
                view.claim(cell);
                AdmissionOutcome::Admitted(cell)
            }
            Err(reason) => {
                if self.queue.len() < self.config.queue_capacity {
                    self.queue.push(index);
                    AdmissionOutcome::Queued
                } else {
                    AdmissionOutcome::Rejected(reason)
                }
            }
        }
    }

    /// Drains the front of the queue: pops and returns `(index, cell)`
    /// pairs while the head request can be placed, claiming cores in the
    /// view as it goes. Stops at the first head that cannot place —
    /// strict FIFO, so a queued request is never overtaken by a younger
    /// one (head-of-line blocking is the documented price). Queued
    /// requests are never re-rejected; they wait for capacity.
    pub fn drain_queue(&mut self, view: &mut BoundaryView) -> Vec<(u64, CellId)> {
        let mut admitted = Vec::new();
        while !self.queue.is_empty() {
            match self.select(view) {
                Ok(cell) => {
                    view.claim(cell);
                    admitted.push((self.queue.remove(0), cell));
                }
                Err(_) => break,
            }
        }
        admitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kyoto_cluster::snapshot::{CellSnapshot, VmSnapshot};

    fn vm(id: u32, pollution: f64) -> VmSnapshot {
        VmSnapshot {
            vm: kyoto_cluster::snapshot::FleetVmId(id),
            name: format!("fvm{id}"),
            pollution_rate: pollution,
            punishments: 0,
            instructions: 1,
            llc_misses: 1,
            ipc: 1.0,
            working_set_bytes: 4096,
            resident_lines: 0,
            blocked_fraction: 0.0,
        }
    }

    fn cell(id: usize, cores: usize, vms: Vec<VmSnapshot>) -> CellSnapshot {
        CellSnapshot {
            cell: CellId(id),
            cores,
            draining: false,
            down: false,
            vms,
        }
    }

    fn snapshot(cells: Vec<CellSnapshot>) -> ClusterSnapshot {
        ClusterSnapshot { epoch: 0, cells }
    }

    #[test]
    fn free_cores_ranks_by_capacity_then_id() {
        let controller = AdmissionController::new(AdmissionConfig::default());
        let view = BoundaryView::of(&snapshot(vec![
            cell(0, 4, vec![vm(1, 0.0), vm(2, 0.0)]),
            cell(1, 4, vec![vm(3, 0.0)]),
            cell(2, 4, vec![vm(4, 0.0)]),
        ]));
        assert_eq!(controller.select(&view), Ok(CellId(1)));
    }

    #[test]
    fn contention_gate_skips_polluted_cells() {
        let controller = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::ContentionAware { limit: 10.0 },
            queue_capacity: 0,
        });
        let view = BoundaryView::of(&snapshot(vec![
            cell(0, 4, vec![vm(1, 50.0)]),
            cell(1, 4, vec![vm(2, 5.0), vm(3, 4.0)]),
        ]));
        // Cell 0 has more free cores but is over the 10.0 budget.
        assert_eq!(controller.select(&view), Ok(CellId(1)));
    }

    #[test]
    fn over_budget_everywhere_reports_least_bad_projection() {
        let controller = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::ContentionAware { limit: 10.0 },
            queue_capacity: 0,
        });
        let view = BoundaryView::of(&snapshot(vec![
            cell(0, 4, vec![vm(1, 50.0)]),
            cell(1, 4, vec![vm(2, 20.0)]),
        ]));
        assert_eq!(
            controller.select(&view),
            Err(AdmissionRejection::ContentionOverBudget {
                projected: 20.0,
                limit: 10.0
            })
        );
    }

    #[test]
    fn saturated_fleet_is_saturated_under_both_policies() {
        for policy in [
            AdmissionPolicy::FreeCores,
            AdmissionPolicy::ContentionAware { limit: 10.0 },
        ] {
            let controller = AdmissionController::new(AdmissionConfig {
                policy,
                queue_capacity: 0,
            });
            let view = BoundaryView::of(&snapshot(vec![cell(0, 1, vec![vm(1, 0.0)])]));
            assert_eq!(
                controller.select(&view),
                Err(AdmissionRejection::FleetSaturated)
            );
        }
    }

    #[test]
    fn boundary_admissions_claim_cores() {
        let mut controller = AdmissionController::new(AdmissionConfig::default());
        let mut view = BoundaryView::of(&snapshot(vec![cell(0, 2, vec![]), cell(1, 1, vec![])]));
        let outcomes: Vec<_> = (0..4).map(|i| controller.decide(i, &mut view)).collect();
        assert_eq!(
            outcomes,
            vec![
                AdmissionOutcome::Admitted(CellId(0)),
                AdmissionOutcome::Admitted(CellId(0)),
                AdmissionOutcome::Admitted(CellId(1)),
                AdmissionOutcome::Queued,
            ]
        );
        assert_eq!(view.open_free_cores(), 0);
        assert_eq!(controller.queued(), &[3]);
    }

    #[test]
    fn full_queue_rejects_with_the_reason() {
        let mut controller = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::FreeCores,
            queue_capacity: 1,
        });
        let mut view = BoundaryView::of(&snapshot(vec![cell(0, 0, vec![])]));
        assert_eq!(controller.decide(0, &mut view), AdmissionOutcome::Queued);
        assert_eq!(
            controller.decide(1, &mut view),
            AdmissionOutcome::Rejected(AdmissionRejection::FleetSaturated)
        );
    }

    #[test]
    fn queue_drains_fifo_and_stops_at_blocked_head() {
        let mut controller = AdmissionController::new(AdmissionConfig {
            policy: AdmissionPolicy::FreeCores,
            queue_capacity: 8,
        });
        let mut full = BoundaryView::of(&snapshot(vec![cell(0, 0, vec![])]));
        for index in 10..14 {
            assert_eq!(
                controller.decide(index, &mut full),
                AdmissionOutcome::Queued
            );
        }
        // Two cores free up: exactly the two oldest leave the queue.
        let mut partial = BoundaryView::of(&snapshot(vec![cell(0, 2, vec![])]));
        let admitted = controller.drain_queue(&mut partial);
        assert_eq!(admitted, vec![(10, CellId(0)), (11, CellId(0))]);
        assert_eq!(controller.queued(), &[12, 13]);
    }
}
