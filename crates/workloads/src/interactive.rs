//! Interactive (sleep-mostly) workloads.
//!
//! Cloud consolidation mixes batch polluters with latency-sensitive services
//! that sleep most of the time and run short bursts when a request arrives.
//! [`Interactive`] turns any workload model into such a service: it emits a
//! fixed-size burst of the inner workload's ops, then executes a WFI — the
//! vCPU blocks ([`Workload::wants_block`]) until the hypervisor delivers a
//! wake event, which grants the next burst.
//!
//! Blocking is driven entirely by the op stream, so the model stays
//! deterministic: the same seed produces the same bursts, and wake timing is
//! owned by the VM's `WakeSource` (a `kyoto-hypervisor` concept), not by the
//! workload.

use kyoto_sim::workload::{Op, Workload, IDLE_OP};

/// Wraps a workload into a burst-then-sleep interactive service.
///
/// Each wake grants `burst_ops` operations of the inner workload. Once the
/// burst is drained the workload pads any already-requested fetch with idle
/// compute ops and reports [`Workload::wants_block`] — the hypervisor parks
/// the vCPU at the end of the tick. [`Workload::on_wake`] re-arms the burst.
///
/// Note on granularity: the engine prefetches ops in chunks ahead of
/// execution, so a burst shorter than one tick's budget drains during the
/// first scheduled tick and the vCPU runs exactly one tick per wake. Larger
/// bursts simply span several consecutive ticks before the WFI. A fetch
/// past the end of the burst takes the rest of the burst from the inner
/// model in one batch and fills the remainder with idle ops in one pass.
/// Once the burst has drained, [`Workload::wants_block`] holds and the
/// stream is nothing but idle ops, so the engine fetches nothing more: when
/// the fetched ops run out, it retires the rest of the tick's budget as
/// idle ops in one step, with no host time per op.
#[derive(Debug, Clone)]
pub struct Interactive<W> {
    name: String,
    inner: W,
    burst_ops: u32,
    remaining: u32,
}

impl<W: Workload> Interactive<W> {
    /// Wraps `inner`, granting `burst_ops` inner ops per wake (at least 1).
    pub fn new(inner: W, burst_ops: u32) -> Self {
        let burst_ops = burst_ops.max(1);
        Interactive {
            name: format!("interactive-{}", inner.name()),
            inner,
            burst_ops,
            remaining: burst_ops,
        }
    }

    /// Renames the workload.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The configured burst length in ops.
    pub fn burst_ops(&self) -> u32 {
        self.burst_ops
    }

    /// Ops left in the current burst (0 means the workload wants to sleep).
    pub fn remaining_ops(&self) -> u32 {
        self.remaining
    }
}

impl<W: Workload + Clone + 'static> Workload for Interactive<W> {
    fn next_op(&mut self) -> Op {
        if self.remaining == 0 {
            // The burst drained mid-fetch: pad the already-requested chunk
            // with idle compute. The vCPU blocks at the end of the tick.
            return IDLE_OP;
        }
        self.remaining -= 1;
        self.inner.next_op()
    }

    fn fill_ops(&mut self, buf: &mut [Op]) -> usize {
        // The rest of the burst in one batch from the inner model, then the
        // idle padding in one fill.
        let burst = buf.len().min(self.remaining as usize);
        let filled = self.inner.fill_ops(&mut buf[..burst]);
        self.remaining -= filled as u32;
        if filled < burst {
            // A finite inner stream ran short: the burst is not over.
            return filled;
        }
        buf[burst..].fill(IDLE_OP);
        buf.len()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn working_set_bytes(&self) -> u64 {
        self.inner.working_set_bytes()
    }

    fn mem_parallelism(&self) -> f64 {
        self.inner.mem_parallelism()
    }

    fn wants_block(&self) -> bool {
        // A drained burst emits only `IDLE_OP` and touches no state until
        // `on_wake` or `reset` re-arms it.
        self.remaining == 0
    }

    fn on_wake(&mut self) {
        self.remaining = self.burst_ops;
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.remaining = self.burst_ops;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::Streaming;
    use kyoto_sim::workload::ComputeOnly;

    #[test]
    fn a_burst_drains_then_the_workload_wants_to_sleep() {
        let mut w = Interactive::new(ComputeOnly::new(3), 4);
        assert!(!w.wants_block());
        for _ in 0..4 {
            w.next_op();
        }
        assert!(w.wants_block());
        assert_eq!(w.remaining_ops(), 0);
    }

    #[test]
    fn drained_bursts_pad_with_idle_compute() {
        let mut w = Interactive::new(Streaming::new(1 << 16, 1).with_mem_fraction(1.0), 2);
        w.next_op();
        w.next_op();
        for _ in 0..10 {
            assert_eq!(w.next_op(), Op::Compute { cycles: 1 });
        }
    }

    #[test]
    fn waking_rearms_the_burst() {
        let mut w = Interactive::new(ComputeOnly::new(1), 8);
        for _ in 0..8 {
            w.next_op();
        }
        assert!(w.wants_block());
        w.on_wake();
        assert!(!w.wants_block());
        assert_eq!(w.remaining_ops(), 8);
    }

    #[test]
    fn inner_metadata_shines_through() {
        let inner = Streaming::new(1 << 20, 7);
        let ws = inner.working_set_bytes();
        let mlp = inner.mem_parallelism();
        let w = Interactive::new(inner, 16);
        assert_eq!(w.name(), "interactive-streaming");
        assert_eq!(w.working_set_bytes(), ws);
        assert_eq!(w.mem_parallelism(), mlp);
        assert_eq!(
            Interactive::new(ComputeOnly::new(1), 1).named("svc").name(),
            "svc"
        );
    }

    #[test]
    fn clones_continue_identically() {
        let mut a = Interactive::new(Streaming::new(1 << 16, 3), 64);
        for _ in 0..10 {
            a.next_op();
        }
        let mut b = a.clone();
        for _ in 0..20 {
            assert_eq!(a.next_op(), b.next_op());
        }
        assert_eq!(a.wants_block(), b.wants_block());
    }

    #[test]
    fn reset_restores_a_fresh_burst() {
        let mut w = Interactive::new(Streaming::new(1 << 16, 5).with_mem_fraction(1.0), 4);
        let first_addr = w.next_op().addr().unwrap();
        for _ in 0..6 {
            w.next_op();
        }
        assert!(w.wants_block());
        w.reset();
        assert!(!w.wants_block());
        // The inner scan restarts from the top of its working set.
        assert_eq!(w.next_op().addr().unwrap(), first_addr);
    }

    #[test]
    fn burst_length_is_clamped_to_at_least_one() {
        let w = Interactive::new(ComputeOnly::new(1), 0);
        assert_eq!(w.burst_ops(), 1);
    }
}
