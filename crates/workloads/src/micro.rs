//! The pointer-chase micro benchmark (Section 2.2.2 of the paper).
//!
//! "A micro benchmark application creates an array of elements whose size
//! corresponds to a specific working set size. Elements are randomly chained
//! into a circular linked list. The program walks through the list by
//! following the link between elements."
//!
//! Every list element occupies one cache line, the chain visits every
//! element exactly once per cycle (a random Hamiltonian cycle), and each hop
//! is a dependent load — so there is no memory-level parallelism, exactly
//! like Drepper's original benchmark.

use crate::category::Category;
use kyoto_sim::topology::MachineConfig;
use kyoto_sim::workload::{Op, Workload};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Cache-line size assumed by the workload models.
pub const LINE_SIZE: u64 = 64;

/// A circular-linked-list pointer chase over a fixed working set.
#[derive(Debug, Clone)]
pub struct PointerChase {
    name: String,
    /// next_line[i] = index of the line visited after line i.
    next_line: Vec<u32>,
    current: u32,
    working_set_bytes: u64,
    compute_per_access: u32,
    pending_compute: bool,
}

impl PointerChase {
    /// Builds a pointer chase over `working_set_bytes` of memory.
    ///
    /// `seed` makes the random chaining deterministic. The working set is
    /// rounded up to at least one cache line.
    pub fn new(working_set_bytes: u64, seed: u64) -> Self {
        Self::with_compute(working_set_bytes, seed, 1)
    }

    /// Builds a pointer chase that additionally burns `compute_per_access`
    /// cycles of computation between consecutive hops (models the work done
    /// on each visited element).
    pub fn with_compute(working_set_bytes: u64, seed: u64, compute_per_access: u32) -> Self {
        let lines = (working_set_bytes / LINE_SIZE).max(1) as u32;
        let mut rng = SmallRng::seed_from_u64(seed);
        // Build a random Hamiltonian cycle: shuffle the visit order and link
        // each line to its successor in that order.
        let mut order: Vec<u32> = (0..lines).collect();
        order.shuffle(&mut rng);
        let mut next_line = vec![0u32; lines as usize];
        for i in 0..lines as usize {
            let from = order[i];
            let to = order[(i + 1) % lines as usize];
            next_line[from as usize] = to;
        }
        PointerChase {
            name: format!("pointer-chase-{}", human_size(working_set_bytes)),
            next_line,
            current: order[0],
            working_set_bytes: u64::from(lines) * LINE_SIZE,
            compute_per_access,
            pending_compute: false,
        }
    }

    /// A representative VM of `category` on `machine` (the paper's `v^i_rep`):
    /// a pointer chase whose working set falls squarely inside the category.
    pub fn representative(category: Category, machine: &MachineConfig, seed: u64) -> Self {
        let ws = category.representative_working_set(machine);
        let mut chase = Self::new(ws, seed);
        chase.name = format!("v{}rep", category.index());
        chase
    }

    /// Number of cache lines in the chase.
    pub fn num_lines(&self) -> usize {
        self.next_line.len()
    }
}

impl Workload for PointerChase {
    fn next_op(&mut self) -> Op {
        // Alternate between the dependent load and the per-element work (if
        // any): load, compute, load, compute, ...
        if self.pending_compute {
            self.pending_compute = false;
            return Op::Compute {
                cycles: self.compute_per_access,
            };
        }
        let addr = u64::from(self.current) * LINE_SIZE;
        self.current = self.next_line[self.current as usize];
        if self.compute_per_access > 1 {
            self.pending_compute = true;
        }
        Op::Load { addr }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn working_set_bytes(&self) -> u64 {
        self.working_set_bytes
    }

    fn mem_parallelism(&self) -> f64 {
        // Dependent loads: each hop needs the previous element's contents.
        1.0
    }

    fn reset(&mut self) {
        self.current = 0;
        self.pending_compute = false;
    }
}

/// A self-check walk utility: returns how many hops it takes to come back to
/// the starting element (must equal the number of lines for a correct
/// circular chain). Exposed for tests and examples.
pub fn cycle_length(chase: &PointerChase) -> usize {
    let start = chase.current;
    let mut pos = chase.next_line[start as usize];
    let mut hops = 1;
    while pos != start {
        pos = chase.next_line[pos as usize];
        hops += 1;
        if hops > chase.next_line.len() + 1 {
            break;
        }
    }
    hops
}

fn human_size(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{}MiB", bytes / (1024 * 1024))
    } else if bytes >= 1024 {
        format!("{}KiB", bytes / 1024)
    } else {
        format!("{bytes}B")
    }
}

/// A representative VM of `category` as a boxed workload (the paper's
/// `v^i_rep`).
///
/// C1 and C2 use the circular pointer chase directly. A pure cyclic chase
/// whose working set exceeds the LLC has a reuse distance larger than the
/// cache and therefore never hits, which would make a C3 representative
/// artificially insensitive to contention; real C3 applications retain
/// partial locality, so the C3 representative uses uniformly random accesses
/// over its (LLC-exceeding) working set instead — a fraction of them hit the
/// LLC when run alone and are lost under contention, like the paper's
/// `v3rep`.
pub fn representative(
    category: Category,
    machine: &MachineConfig,
    seed: u64,
) -> Box<dyn kyoto_sim::workload::Workload> {
    match category {
        Category::C1 | Category::C2 => {
            Box::new(PointerChase::representative(category, machine, seed))
        }
        Category::C3 => Box::new(
            crate::synthetic::RandomAccess::new(category.representative_working_set(machine), seed)
                .with_mem_fraction(0.85)
                .with_mem_parallelism(1.0)
                .named("v3rep"),
        ),
    }
}

/// Convenience: a disruptive VM of `category` on `machine` (the paper's
/// `v^i_dis`): a streaming scan sized for the category, which maximises the
/// eviction pressure it exerts on that level of the hierarchy.
pub fn disruptive(
    category: Category,
    machine: &MachineConfig,
    seed: u64,
) -> crate::synthetic::Streaming {
    let ws = match category {
        // A C1 disruptor thrashes the ILC only.
        Category::C1 => machine.l1d.size_bytes + machine.l2.size_bytes,
        // A C2 disruptor streams over an LLC-sized footprint.
        Category::C2 => machine.llc.size_bytes,
        // A C3 disruptor streams over several LLCs worth of data.
        Category::C3 => machine.llc.size_bytes * 4,
    };
    crate::synthetic::Streaming::new(ws, seed).named(format!("v{}dis", category.index()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn chain_is_a_single_cycle_visiting_every_line() {
        for &ws in &[64u64, 4096, 64 * 1024, 1024 * 1024] {
            let chase = PointerChase::new(ws, 7);
            assert_eq!(cycle_length(&chase), chase.num_lines(), "ws = {ws}");
        }
    }

    #[test]
    fn working_set_rounds_to_lines() {
        let chase = PointerChase::new(100, 1);
        assert_eq!(chase.working_set_bytes(), 64);
        assert_eq!(chase.num_lines(), 1);
        let chase = PointerChase::new(0, 1);
        assert_eq!(chase.num_lines(), 1);
    }

    #[test]
    fn all_addresses_stay_inside_the_working_set() {
        let mut chase = PointerChase::new(16 * 1024, 3);
        for _ in 0..10_000 {
            match chase.next_op() {
                Op::Load { addr } => assert!(addr < 16 * 1024),
                other => panic!("pointer chase should only emit loads, got {other:?}"),
            }
        }
    }

    #[test]
    fn chase_visits_every_line_once_per_cycle() {
        let mut chase = PointerChase::new(64 * 64, 11);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..chase.num_lines() {
            if let Op::Load { addr } = chase.next_op() {
                seen.insert(addr / LINE_SIZE);
            }
        }
        assert_eq!(seen.len(), chase.num_lines());
    }

    #[test]
    fn same_seed_same_chain_different_seed_probably_different() {
        let mut a = PointerChase::new(4096, 5);
        let mut b = PointerChase::new(4096, 5);
        let mut c = PointerChase::new(4096, 6);
        let seq_a: Vec<Op> = (0..50).map(|_| a.next_op()).collect();
        let seq_b: Vec<Op> = (0..50).map(|_| b.next_op()).collect();
        let seq_c: Vec<Op> = (0..50).map(|_| c.next_op()).collect();
        assert_eq!(seq_a, seq_b);
        assert_ne!(seq_a, seq_c);
    }

    #[test]
    fn representative_workloads_fall_in_their_category() {
        let machine = MachineConfig::scaled_paper_machine(16);
        for category in Category::ALL {
            let rep = PointerChase::representative(category, &machine, 1);
            assert_eq!(
                Category::classify(rep.working_set_bytes(), &machine),
                category
            );
            assert_eq!(rep.name(), format!("v{}rep", category.index()));
        }
    }

    #[test]
    fn disruptive_workloads_have_category_sized_footprints() {
        let machine = MachineConfig::scaled_paper_machine(16);
        let d1 = disruptive(Category::C1, &machine, 1);
        let d2 = disruptive(Category::C2, &machine, 1);
        let d3 = disruptive(Category::C3, &machine, 1);
        assert!(d1.working_set_bytes() < d2.working_set_bytes());
        assert!(d2.working_set_bytes() < d3.working_set_bytes());
        assert_eq!(d2.working_set_bytes(), machine.llc.size_bytes);
    }

    #[test]
    fn pointer_chase_is_latency_bound() {
        let chase = PointerChase::new(1024 * 1024, 1);
        assert_eq!(chase.mem_parallelism(), 1.0);
    }

    #[test]
    fn reset_restarts_from_line_zero() {
        let mut chase = PointerChase::new(4096, 9);
        let _ = chase.next_op();
        chase.reset();
        assert_eq!(
            chase.next_op().addr().map(|a| a / LINE_SIZE),
            Some(chase.next_line_of_zero())
        );
    }

    impl PointerChase {
        fn next_line_of_zero(&self) -> u64 {
            // After reset the current line is 0, so the first emitted address
            // is line 0 itself; this helper documents that expectation.
            0
        }
    }

    #[test]
    fn seeds_do_not_bias_first_elements() {
        // Smoke check that shuffling uses the seed: over many seeds the first
        // visited line should not always be the same.
        let firsts: std::collections::HashSet<u64> = (0..20u64)
            .map(|seed| {
                let mut chase = PointerChase::new(64 * 256, seed);
                chase.next_op().addr().unwrap()
            })
            .collect();
        assert!(firsts.len() > 5);
        let _ = SmallRng::seed_from_u64(0); // keep the import exercised
    }
}
