//! Synthetic kernels: streaming scans and uniform random accesses.
//!
//! These model the *disruptive* side of the paper's experiments. A streaming
//! scan with high memory-level parallelism is the archetypal LLC polluter
//! (lbm, blockie); a uniform random access pattern over a large footprint
//! models pointer-heavy polluters (mcf).

use kyoto_sim::workload::{Op, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cache-line size assumed by the workload models.
const LINE_SIZE: u64 = 64;

/// Maps a probability to a `u64` draw threshold (1.0 saturates so a uniform
/// draw is always below it).
fn threshold(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * u64::MAX as f64) as u64
}

/// A sequential streaming scan over a working set, wrapping around forever.
///
/// Every access touches a new cache line until the scan wraps, which gives
/// the maximum possible eviction pressure per unit of time. Memory-level
/// parallelism is high (hardware prefetchers and independent loads), making
/// it an aggressive polluter like `lbm` or `blockie`.
#[derive(Debug, Clone)]
pub struct Streaming {
    name: String,
    lines: u64,
    position: u64,
    mem_fraction: f64,
    mem_parallelism: f64,
    write_fraction: f64,
    /// Cumulative draw thresholds: below `store_t` → store, below `mem_t` →
    /// load, else compute. One uniform draw decides the whole op.
    store_t: u64,
    mem_t: u64,
    rng: SmallRng,
}

impl Streaming {
    /// Creates a streaming scan over `working_set_bytes`.
    pub fn new(working_set_bytes: u64, seed: u64) -> Self {
        let mut streaming = Streaming {
            name: "streaming".to_string(),
            lines: (working_set_bytes / LINE_SIZE).max(1),
            position: 0,
            mem_fraction: 0.6,
            mem_parallelism: 8.0,
            write_fraction: 0.3,
            store_t: 0,
            mem_t: 0,
            rng: SmallRng::seed_from_u64(seed),
        };
        streaming.rebuild_thresholds();
        streaming
    }

    fn rebuild_thresholds(&mut self) {
        self.store_t = threshold(self.mem_fraction * self.write_fraction);
        self.mem_t = threshold(self.mem_fraction);
    }

    /// Renames the workload (used to label `v^i_dis` VMs).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the fraction of ops that are memory accesses (rest is compute).
    pub fn with_mem_fraction(mut self, fraction: f64) -> Self {
        self.mem_fraction = fraction.clamp(0.0, 1.0);
        self.rebuild_thresholds();
        self
    }

    /// Sets the declared memory-level parallelism.
    pub fn with_mem_parallelism(mut self, mlp: f64) -> Self {
        self.mem_parallelism = mlp.max(1.0);
        self
    }
}

impl Workload for Streaming {
    fn next_op(&mut self) -> Op {
        let draw = self.rng.next_u64();
        if draw < self.mem_t {
            let addr = self.position * LINE_SIZE;
            self.position += 1;
            if self.position == self.lines {
                self.position = 0;
            }
            if draw < self.store_t {
                Op::Store { addr }
            } else {
                Op::Load { addr }
            }
        } else {
            Op::Compute { cycles: 1 }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn working_set_bytes(&self) -> u64 {
        self.lines * LINE_SIZE
    }

    fn mem_parallelism(&self) -> f64 {
        self.mem_parallelism
    }

    fn reset(&mut self) {
        self.position = 0;
    }
}

/// Uniform random accesses over a working set.
///
/// Models pointer-heavy applications with poor locality (mcf-like): every
/// access is equally likely to touch any line of the footprint, and
/// dependent chains limit memory-level parallelism.
#[derive(Debug, Clone)]
pub struct RandomAccess {
    name: String,
    lines: u64,
    mem_fraction: f64,
    mem_parallelism: f64,
    mem_t: u64,
    rng: SmallRng,
}

impl RandomAccess {
    /// Creates a uniform random access pattern over `working_set_bytes`.
    pub fn new(working_set_bytes: u64, seed: u64) -> Self {
        RandomAccess {
            name: "random-access".to_string(),
            lines: (working_set_bytes / LINE_SIZE).max(1),
            mem_fraction: 0.5,
            mem_parallelism: 1.5,
            mem_t: threshold(0.5),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Renames the workload.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the fraction of ops that are memory accesses.
    pub fn with_mem_fraction(mut self, fraction: f64) -> Self {
        self.mem_fraction = fraction.clamp(0.0, 1.0);
        self.mem_t = threshold(self.mem_fraction);
        self
    }

    /// Sets the declared memory-level parallelism.
    pub fn with_mem_parallelism(mut self, mlp: f64) -> Self {
        self.mem_parallelism = mlp.max(1.0);
        self
    }
}

impl Workload for RandomAccess {
    fn next_op(&mut self) -> Op {
        if self.rng.next_u64() < self.mem_t {
            let line = ((u128::from(self.rng.next_u64()) * u128::from(self.lines)) >> 64) as u64;
            Op::Load {
                addr: line * LINE_SIZE,
            }
        } else {
            Op::Compute { cycles: 1 }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn working_set_bytes(&self) -> u64 {
        self.lines * LINE_SIZE
    }

    fn mem_parallelism(&self) -> f64 {
        self.mem_parallelism
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_touches_consecutive_lines() {
        let mut stream = Streaming::new(1024 * 1024, 1).with_mem_fraction(1.0);
        let mut last = None;
        for _ in 0..100 {
            let addr = stream.next_op().addr().unwrap();
            if let Some(prev) = last {
                assert_eq!(addr, prev + LINE_SIZE);
            }
            last = Some(addr);
        }
    }

    #[test]
    fn streaming_wraps_around_the_working_set() {
        let mut stream = Streaming::new(4 * LINE_SIZE, 1).with_mem_fraction(1.0);
        let addrs: Vec<u64> = (0..8).map(|_| stream.next_op().addr().unwrap()).collect();
        assert_eq!(addrs[0], addrs[4]);
        assert!(addrs.iter().all(|&a| a < 4 * LINE_SIZE));
    }

    #[test]
    fn streaming_mixes_loads_stores_and_compute() {
        let mut stream = Streaming::new(1024 * 1024, 2);
        let mut loads = 0;
        let mut stores = 0;
        let mut computes = 0;
        for _ in 0..10_000 {
            match stream.next_op() {
                Op::Load { .. } => loads += 1,
                Op::Store { .. } => stores += 1,
                Op::Compute { .. } => computes += 1,
            }
        }
        assert!(loads > 0 && stores > 0 && computes > 0);
        let mem_fraction = (loads + stores) as f64 / 10_000.0;
        assert!((mem_fraction - 0.6).abs() < 0.05);
    }

    #[test]
    fn streaming_is_deterministic_per_seed() {
        let mut a = Streaming::new(1 << 20, 9);
        let mut b = Streaming::new(1 << 20, 9);
        for _ in 0..100 {
            assert_eq!(a.next_op(), b.next_op());
        }
    }

    #[test]
    fn random_access_stays_in_bounds_and_covers_the_set() {
        let ws = 64 * LINE_SIZE;
        let mut ra = RandomAccess::new(ws, 3).with_mem_fraction(1.0);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let addr = ra.next_op().addr().unwrap();
            assert!(addr < ws);
            seen.insert(addr / LINE_SIZE);
        }
        assert!(
            seen.len() > 50,
            "uniform accesses should cover most of the 64 lines"
        );
    }

    #[test]
    fn builders_clamp_their_arguments() {
        let s = Streaming::new(1 << 20, 1)
            .with_mem_fraction(2.0)
            .with_mem_parallelism(0.1);
        assert_eq!(s.mem_parallelism(), 1.0);
        let r = RandomAccess::new(1 << 20, 1).with_mem_fraction(-1.0);
        assert_eq!(r.mem_fraction, 0.0);
    }

    #[test]
    fn names_can_be_overridden() {
        let s = Streaming::new(1 << 20, 1).named("v2dis");
        assert_eq!(s.name(), "v2dis");
        let r = RandomAccess::new(1 << 20, 1).named("mcf-like");
        assert_eq!(r.name(), "mcf-like");
    }

    #[test]
    fn reset_restarts_the_stream() {
        let mut s = Streaming::new(1 << 20, 5).with_mem_fraction(1.0);
        let first_addr = s.next_op().addr().unwrap();
        for _ in 0..10 {
            s.next_op();
        }
        s.reset();
        assert_eq!(s.next_op().addr().unwrap(), first_addr);
    }
}
