//! Per-owner shadow LLC used for simulator-based pollution attribution.
//!
//! Section 3.3 of the paper describes two ways of attributing LLC statistics
//! to a single VM while other VMs run on the same socket. The second one
//! replays the VM's instruction stream inside a micro-architectural simulator
//! (McSimA+ driven by a Pin tool) running on a dedicated machine, which
//! returns the PMCs the VM *would* have produced had it been alone.
//!
//! [`ShadowAttribution`] is the equivalent component here: for every owner it
//! maintains a private copy of the LLC and replays the owner's LLC-level
//! accesses into it. The shadow cache is only touched by one owner, so its
//! miss count estimates the owner's solo pollution, independent of who else
//! shares the real LLC.

use crate::cache::{Cache, CacheConfig, OwnerId};
use crate::error::SimError;
use std::collections::HashMap;

/// Per-owner solo-LLC replay used by the simulator-based pollution monitor.
#[derive(Debug, Clone)]
pub struct ShadowAttribution {
    llc_config: CacheConfig,
    shadows: HashMap<OwnerId, Cache>,
    references: HashMap<OwnerId, u64>,
    misses: HashMap<OwnerId, u64>,
}

impl ShadowAttribution {
    /// Creates an attribution engine replaying into shadow caches with the
    /// geometry of `llc_config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] if the geometry is invalid.
    pub fn new(llc_config: CacheConfig) -> Result<Self, SimError> {
        llc_config.num_sets()?;
        Ok(ShadowAttribution {
            llc_config,
            shadows: HashMap::new(),
            references: HashMap::new(),
            misses: HashMap::new(),
        })
    }

    /// Replays one LLC-level access (an access that missed the private
    /// caches) of `owner` at `addr`.
    pub fn observe(&mut self, owner: OwnerId, addr: u64) {
        let cache = self.shadows.entry(owner).or_insert_with(|| {
            let mut shadow = Cache::new(self.llc_config.clone()).expect("validated geometry");
            shadow.register_owner(owner);
            shadow
        });
        *self.references.entry(owner).or_insert(0) += 1;
        if !cache.access(addr, owner).hit {
            *self.misses.entry(owner).or_insert(0) += 1;
        }
    }

    /// Estimated solo LLC misses of `owner` since the last
    /// [`ShadowAttribution::reset_counters`].
    pub fn solo_misses(&self, owner: OwnerId) -> u64 {
        self.misses.get(&owner).copied().unwrap_or(0)
    }

    /// LLC references replayed for `owner` since the last counter reset.
    pub fn solo_references(&self, owner: OwnerId) -> u64 {
        self.references.get(&owner).copied().unwrap_or(0)
    }

    /// Estimated solo miss ratio of `owner` (misses / references).
    pub fn solo_miss_ratio(&self, owner: OwnerId) -> f64 {
        let refs = self.solo_references(owner);
        if refs == 0 {
            0.0
        } else {
            self.solo_misses(owner) as f64 / refs as f64
        }
    }

    /// Clears miss/reference counters while keeping shadow cache contents
    /// (the warmed-up state carries over to the next sampling period, like a
    /// long-running simulator instance would).
    pub fn reset_counters(&mut self) {
        self.references.clear();
        self.misses.clear();
    }

    /// Drops the shadow state of an owner entirely (VM destroyed).
    pub fn remove_owner(&mut self, owner: OwnerId) {
        self.shadows.remove(&owner);
        self.references.remove(&owner);
        self.misses.remove(&owner);
    }

    /// Owners currently tracked, in ascending id order.
    ///
    /// The backing store is a `HashMap` (lookups on the replay hot path),
    /// so the keys are collected and sorted here rather than exposing the
    /// hash-iteration order to callers.
    pub fn owners(&self) -> impl Iterator<Item = OwnerId> + '_ {
        // kyoto-lint: allow(nondet-iter): keys are sorted below before being exposed
        let mut owners: Vec<OwnerId> = self.shadows.keys().copied().collect();
        owners.sort_unstable();
        owners.into_iter()
    }

    /// Moves the shadow state (cache contents and counters) of `owners` out
    /// of `self` into a new, independent `ShadowAttribution` with the same
    /// geometry.
    ///
    /// The engine's socket-parallel path uses this to hand each socket's
    /// execution thread exactly the shadow state of the owners running on
    /// that socket; [`ShadowAttribution::merge`] reabsorbs the partitions
    /// after the threads join. Owners without existing state are simply
    /// absent from the partition and get created there on first
    /// [`ShadowAttribution::observe`].
    pub fn take_partition(&mut self, owners: &[OwnerId]) -> ShadowAttribution {
        let mut part = ShadowAttribution {
            llc_config: self.llc_config.clone(),
            shadows: HashMap::with_capacity(owners.len()),
            references: HashMap::with_capacity(owners.len()),
            misses: HashMap::with_capacity(owners.len()),
        };
        for &owner in owners {
            if let Some(cache) = self.shadows.remove(&owner) {
                part.shadows.insert(owner, cache);
            }
            if let Some(refs) = self.references.remove(&owner) {
                part.references.insert(owner, refs);
            }
            if let Some(misses) = self.misses.remove(&owner) {
                part.misses.insert(owner, misses);
            }
        }
        part
    }

    /// Reabsorbs a partition produced by [`ShadowAttribution::take_partition`].
    ///
    /// Owners tracked on both sides keep the partition's cache contents (the
    /// partition is the newer state) and sum their counters; this only
    /// happens when a partition is merged back into an attribution that
    /// observed the same owner in the meantime, which the engine's
    /// disjoint-by-socket partitioning rules out.
    pub fn merge(&mut self, part: ShadowAttribution) {
        debug_assert_eq!(
            self.llc_config, part.llc_config,
            "cannot merge shadow attributions of different geometry"
        );
        self.shadows.extend(part.shadows);
        // kyoto-lint: allow(nondet-iter): summing u64 counters is commutative, order is immaterial
        for (owner, refs) in part.references {
            *self.references.entry(owner).or_insert(0) += refs;
        }
        // kyoto-lint: allow(nondet-iter): summing u64 counters is commutative, order is immaterial
        for (owner, misses) in part.misses {
            *self.misses.entry(owner).or_insert(0) += misses;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shadow() -> ShadowAttribution {
        ShadowAttribution::new(CacheConfig::new(16 * 1024, 8, 64)).unwrap()
    }

    #[test]
    fn rejects_invalid_geometry() {
        assert!(ShadowAttribution::new(CacheConfig::new(100, 8, 64)).is_err());
    }

    #[test]
    fn solo_misses_ignore_other_owners() {
        let mut s = shadow();
        // Owner 1 touches a tiny working set repeatedly: after warm-up it
        // should produce no further shadow misses.
        for round in 0..10 {
            for i in 0..4u64 {
                s.observe(1, i * 64);
            }
            // Owner 2 streams aggressively; this must not evict owner 1's
            // shadow lines because shadows are private per owner.
            for i in 0..1000u64 {
                s.observe(2, (round * 1000 + i) * 64);
            }
        }
        assert_eq!(
            s.solo_misses(1),
            4,
            "owner 1 should only miss on cold lines"
        );
        assert!(s.solo_misses(2) > 100);
    }

    #[test]
    fn counters_reset_but_contents_survive() {
        let mut s = shadow();
        for i in 0..8u64 {
            s.observe(1, i * 64);
        }
        assert_eq!(s.solo_misses(1), 8);
        s.reset_counters();
        assert_eq!(s.solo_misses(1), 0);
        // Replaying the same lines hits the warmed shadow cache.
        for i in 0..8u64 {
            s.observe(1, i * 64);
        }
        assert_eq!(s.solo_misses(1), 0);
        assert_eq!(s.solo_references(1), 8);
    }

    #[test]
    fn partitions_split_and_merge_round_trip() {
        let mut s = shadow();
        for i in 0..8u64 {
            s.observe(1, i * 64);
            s.observe(2, (100 + i) * 64);
        }
        let part = s.take_partition(&[1, 3]);
        // Owner 1 moved out entirely; owner 3 has no state yet.
        assert_eq!(s.solo_misses(1), 0);
        assert_eq!(s.solo_references(1), 0);
        assert_eq!(part.solo_misses(1), 8);
        assert_eq!(part.solo_references(1), 8);
        assert_eq!(s.solo_misses(2), 8);
        assert_eq!(part.owners().count(), 1);
        s.merge(part);
        assert_eq!(s.solo_misses(1), 8);
        assert_eq!(s.owners().count(), 2);
        // Warmed contents survived the round trip: replaying owner 1's
        // lines produces no new misses.
        for i in 0..8u64 {
            s.observe(1, i * 64);
        }
        assert_eq!(s.solo_misses(1), 8);
    }

    #[test]
    fn owners_listing_is_sorted_regardless_of_insertion_order() {
        let mut s = shadow();
        for owner in [7u16, 2, 9, 1, 5] {
            s.observe(owner, 0);
        }
        assert_eq!(s.owners().collect::<Vec<_>>(), vec![1, 2, 5, 7, 9]);
    }

    #[test]
    fn miss_ratio_and_owner_listing() {
        let mut s = shadow();
        assert_eq!(s.solo_miss_ratio(1), 0.0);
        s.observe(1, 0);
        s.observe(1, 0);
        assert!((s.solo_miss_ratio(1) - 0.5).abs() < 1e-12);
        assert_eq!(s.owners().count(), 1);
        s.remove_owner(1);
        assert_eq!(s.owners().count(), 0);
        assert_eq!(s.solo_references(1), 0);
    }
}
