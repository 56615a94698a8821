//! The workload abstraction consumed by the simulation engine.
//!
//! A workload is a deterministic generator of micro-operations: pure compute
//! bursts and memory accesses. Concrete models (the Drepper pointer-chase
//! micro-benchmark, SPEC CPU2006-like profiles, blockie) live in the
//! `kyoto-workloads` crate; this module only defines the contract plus a few
//! trivial implementations that are useful for tests.

use crate::hierarchy::AccessKind;
use serde::{Deserialize, Serialize};

/// A single micro-operation produced by a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Op {
    /// Pure computation consuming `cycles` core cycles (no memory traffic).
    Compute {
        /// Number of cycles of computation.
        cycles: u32,
    },
    /// A data load from `addr` (byte address in the workload's own
    /// address space).
    Load {
        /// Byte address accessed; below
        /// `2^`[`ADDR_BITS`](crate::cache::ADDR_BITS) (the engine panics on
        /// a wider one).
        addr: u64,
    },
    /// A data store to `addr`.
    Store {
        /// Byte address accessed; below
        /// `2^`[`ADDR_BITS`](crate::cache::ADDR_BITS) (the engine panics on
        /// a wider one).
        addr: u64,
    },
}

impl Op {
    /// The access kind of a memory op, or `None` for compute ops.
    pub fn access_kind(&self) -> Option<AccessKind> {
        match self {
            Op::Compute { .. } => None,
            Op::Load { .. } => Some(AccessKind::Load),
            Op::Store { .. } => Some(AccessKind::Store),
        }
    }

    /// The address of a memory op, or `None` for compute ops.
    pub fn addr(&self) -> Option<u64> {
        match self {
            Op::Compute { .. } => None,
            Op::Load { addr } | Op::Store { addr } => Some(*addr),
        }
    }
}

/// The op a workload emits while it waits for a wake: one cycle of
/// computation. A workload whose [`Workload::wants_block`] holds emits
/// nothing else until its next wake, so the engine retires runs of it by
/// arithmetic.
pub const IDLE_OP: Op = Op::Compute { cycles: 1 };

/// A deterministic generator of micro-operations.
///
/// Implementations must be deterministic for a given construction seed so
/// that experiments are reproducible.
///
/// `Send` is a supertrait because the engine's socket-parallel path
/// ([`crate::engine::SimEngine::run_slots_parallel`]) drives each socket's
/// slots — and therefore their workloads — from a scoped worker thread. All
/// built-in workloads are plain owned data, so the bound is free.
pub trait Workload: Send {
    /// Produces the next micro-operation.
    fn next_op(&mut self) -> Op;

    /// Fills `buf` with the next operations of the stream and returns how
    /// many were written (the default implementation fills the whole
    /// buffer via [`Workload::next_op`]).
    ///
    /// The engine batches through this method so one dynamic dispatch
    /// fetches a whole chunk of ops. Implementations must emit exactly the
    /// stream repeated `next_op` calls would: a `fill_ops` followed by
    /// `next_op` continues the same sequence. Infinite generators (all the
    /// built-in models) must fill the buffer completely; a return value
    /// below `buf.len()` is reserved for finite traces.
    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        for slot in buf.iter_mut() {
            *slot = self.next_op();
        }
        buf.len()
    }

    /// Short human-readable name (e.g. the SPEC application being modelled).
    fn name(&self) -> &str;

    /// Size of the data the workload actively touches, in bytes.
    fn working_set_bytes(&self) -> u64;

    /// Memory-level parallelism: how many independent outstanding misses the
    /// workload sustains on average.
    ///
    /// Dependent-load workloads (the Drepper pointer chase, mcf-like pointer
    /// chasing) cannot overlap misses and should return `1.0` (the default).
    /// Streaming workloads (lbm, blockie, milc) overlap many misses, which is
    /// what makes them effective polluters: the engine divides the LLC-miss
    /// latency by this factor.
    fn mem_parallelism(&self) -> f64 {
        1.0
    }

    /// Resets internal progress (e.g. restart the pointer chase). The default
    /// implementation does nothing, which is acceptable for stateless models.
    fn reset(&mut self) {}

    /// Whether the workload wants to block (WFI-style) instead of emitting
    /// more ops.
    ///
    /// The hypervisor polls this after every scheduled tick; a `true` parks
    /// the vCPU in the Blocked state until a wake event arrives, at which
    /// point [`Workload::on_wake`] is called. Note that the engine
    /// *prefetches* ops in chunks, so by the time a tick finishes the
    /// workload may have emitted ops that are still queued — implementations
    /// should report the intent to block based on their own emission
    /// progress, and the default of `false` keeps every existing workload
    /// always runnable.
    ///
    /// `true` is also a promise about the stream: until the next
    /// [`Workload::on_wake`] or [`Workload::reset`], every op it emits is
    /// [`IDLE_OP`], and emitting them changes none of the workload's state.
    /// The engine relies on it: once a slot's fetched ops run out while
    /// this holds, it fetches nothing more and retires the rest of the
    /// call's budget as idle ops in one step. It asks once per fetch, never
    /// once per op.
    fn wants_block(&self) -> bool {
        false
    }

    /// Delivers a wake event (interrupt or timer) to a blocked workload.
    ///
    /// Implementations typically refill a request burst here; the default
    /// does nothing, matching the always-runnable default of
    /// [`Workload::wants_block`].
    fn on_wake(&mut self) {}

    /// Deep-copies the workload *including its execution progress*, so the
    /// copy continues the exact op stream the original would have produced.
    ///
    /// This is the primitive behind fleet checkpointing: a hypervisor can
    /// only be snapshotted if every resident workload is cloneable. All
    /// built-in models support it; the default of `None` opts a workload out
    /// of checkpointing without breaking anything else.
    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        None
    }
}

impl<W: Workload + ?Sized> Workload for Box<W> {
    fn next_op(&mut self) -> Op {
        (**self).next_op()
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        (**self).fill_ops(buf)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn working_set_bytes(&self) -> u64 {
        (**self).working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        (**self).mem_parallelism()
    }

    fn wants_block(&self) -> bool {
        (**self).wants_block()
    }

    fn on_wake(&mut self) {
        (**self).on_wake()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        (**self).try_clone_box()
    }
}

/// A purely compute-bound workload: never touches memory.
///
/// Useful to model an idle/CPU-bound vCPU and as a baseline in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeOnly {
    cycles_per_op: u32,
}

impl ComputeOnly {
    /// Creates a compute-only workload whose every op burns `cycles_per_op`.
    pub fn new(cycles_per_op: u32) -> Self {
        ComputeOnly {
            cycles_per_op: cycles_per_op.max(1),
        }
    }
}

impl Default for ComputeOnly {
    fn default() -> Self {
        ComputeOnly::new(1)
    }
}

impl Workload for ComputeOnly {
    fn next_op(&mut self) -> Op {
        Op::Compute {
            cycles: self.cycles_per_op,
        }
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        buf.fill(Op::Compute {
            cycles: self.cycles_per_op,
        });
        buf.len()
    }

    fn name(&self) -> &str {
        "compute-only"
    }

    fn working_set_bytes(&self) -> u64 {
        0
    }

    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(*self))
    }
}

/// Replays a fixed operation sequence in a loop. Only useful in tests.
#[derive(Debug, Clone)]
pub struct FixedSequence {
    ops: Vec<Op>,
    next: usize,
    name: String,
    mem_parallelism: f64,
}

impl FixedSequence {
    /// Creates a looping replay of `ops`.
    ///
    /// # Panics
    ///
    /// Panics if `ops` is empty.
    pub fn new(name: impl Into<String>, ops: Vec<Op>) -> Self {
        assert!(!ops.is_empty(), "a fixed sequence needs at least one op");
        FixedSequence {
            ops,
            next: 0,
            name: name.into(),
            mem_parallelism: 1.0,
        }
    }

    /// Declares the memory-level parallelism of the replayed stream
    /// (see [`Workload::mem_parallelism`]).
    pub fn with_mem_parallelism(mut self, mlp: f64) -> Self {
        self.mem_parallelism = mlp.max(1.0);
        self
    }
}

impl Workload for FixedSequence {
    fn next_op(&mut self) -> Op {
        let op = self.ops[self.next];
        self.next = (self.next + 1) % self.ops.len();
        op
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        // Copy whole slices of the looped sequence instead of stepping the
        // cursor once per op.
        let mut written = 0;
        while written < buf.len() {
            let run = (self.ops.len() - self.next).min(buf.len() - written);
            buf[written..written + run].copy_from_slice(&self.ops[self.next..self.next + run]);
            written += run;
            self.next = (self.next + run) % self.ops.len();
        }
        buf.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn working_set_bytes(&self) -> u64 {
        let lines: std::collections::HashSet<u64> = self
            .ops
            .iter()
            .filter_map(|op| op.addr().map(|a| a / 64))
            .collect();
        lines.len() as u64 * 64
    }

    fn mem_parallelism(&self) -> f64 {
        self.mem_parallelism
    }

    fn reset(&mut self) {
        self.next = 0;
    }

    fn try_clone_box(&self) -> Option<Box<dyn Workload>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_accessors() {
        assert_eq!(Op::Compute { cycles: 3 }.access_kind(), None);
        assert_eq!(Op::Load { addr: 64 }.access_kind(), Some(AccessKind::Load));
        assert_eq!(
            Op::Store { addr: 64 }.access_kind(),
            Some(AccessKind::Store)
        );
        assert_eq!(Op::Load { addr: 64 }.addr(), Some(64));
        assert_eq!(Op::Compute { cycles: 3 }.addr(), None);
    }

    #[test]
    fn compute_only_never_accesses_memory() {
        let mut wl = ComputeOnly::new(5);
        for _ in 0..100 {
            assert!(matches!(wl.next_op(), Op::Compute { cycles: 5 }));
        }
        assert_eq!(wl.working_set_bytes(), 0);
    }

    #[test]
    fn compute_only_clamps_zero_cycles() {
        let mut wl = ComputeOnly::new(0);
        assert!(matches!(wl.next_op(), Op::Compute { cycles: 1 }));
    }

    #[test]
    fn fixed_sequence_loops_and_resets() {
        let mut wl = FixedSequence::new(
            "seq",
            vec![
                Op::Load { addr: 0 },
                Op::Load { addr: 64 },
                Op::Compute { cycles: 1 },
            ],
        );
        assert_eq!(wl.next_op(), Op::Load { addr: 0 });
        assert_eq!(wl.next_op(), Op::Load { addr: 64 });
        assert_eq!(wl.next_op(), Op::Compute { cycles: 1 });
        assert_eq!(wl.next_op(), Op::Load { addr: 0 });
        wl.reset();
        assert_eq!(wl.next_op(), Op::Load { addr: 0 });
    }

    #[test]
    fn fixed_sequence_working_set_counts_distinct_lines() {
        let wl = FixedSequence::new(
            "seq",
            vec![
                Op::Load { addr: 0 },
                Op::Load { addr: 8 },
                Op::Store { addr: 64 },
            ],
        );
        assert_eq!(wl.working_set_bytes(), 128);
    }

    #[test]
    #[should_panic(expected = "at least one op")]
    fn empty_fixed_sequence_panics() {
        let _ = FixedSequence::new("empty", vec![]);
    }

    #[test]
    fn boxed_workload_delegates() {
        let mut wl: Box<dyn Workload> = Box::new(ComputeOnly::new(2));
        assert_eq!(wl.name(), "compute-only");
        assert!(matches!(wl.next_op(), Op::Compute { cycles: 2 }));
    }

    #[test]
    fn try_clone_preserves_execution_progress() {
        let mut wl = FixedSequence::new(
            "seq",
            vec![
                Op::Load { addr: 0 },
                Op::Load { addr: 64 },
                Op::Compute { cycles: 1 },
            ],
        );
        let _ = wl.next_op();
        let mut copy = wl.try_clone_box().expect("fixed sequences are cloneable");
        for _ in 0..7 {
            assert_eq!(copy.next_op(), wl.next_op());
        }
        // The Box forwarder delegates rather than wrapping another box.
        let boxed: Box<dyn Workload> = Box::new(ComputeOnly::new(3));
        let mut dup = boxed.try_clone_box().expect("compute-only is cloneable");
        assert!(matches!(dup.next_op(), Op::Compute { cycles: 3 }));
    }

    struct Opaque;
    impl Workload for Opaque {
        fn next_op(&mut self) -> Op {
            Op::Compute { cycles: 1 }
        }
        fn name(&self) -> &str {
            "opaque"
        }
        fn working_set_bytes(&self) -> u64 {
            0
        }
    }

    #[test]
    fn workloads_opt_out_of_cloning_by_default() {
        assert!(Opaque.try_clone_box().is_none());
    }

    #[test]
    fn workloads_never_block_by_default_and_boxes_forward() {
        let mut opaque = Opaque;
        assert!(!opaque.wants_block());
        opaque.on_wake(); // default is a no-op
        assert!(!opaque.wants_block());

        struct Sleepy {
            asleep: bool,
        }
        impl Workload for Sleepy {
            fn next_op(&mut self) -> Op {
                Op::Compute { cycles: 1 }
            }
            fn name(&self) -> &str {
                "sleepy"
            }
            fn working_set_bytes(&self) -> u64 {
                0
            }
            fn wants_block(&self) -> bool {
                self.asleep
            }
            fn on_wake(&mut self) {
                self.asleep = false;
            }
        }
        let mut boxed: Box<dyn Workload> = Box::new(Sleepy { asleep: true });
        assert!(boxed.wants_block(), "the Box forwarder must delegate");
        boxed.on_wake();
        assert!(!boxed.wants_block(), "on_wake must reach the inner model");
    }
}
