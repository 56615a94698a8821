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

/// Per-owner solo-LLC replay used by the simulator-based pollution monitor.
#[derive(Debug, Clone)]
pub struct ShadowAttribution {
    llc_config: CacheConfig,
    /// Each owner's private LLC copy, indexed by owner id; `None` for an
    /// owner with no shadow state. The cache is touched by its owner alone,
    /// so its own statistics count the owner's replayed references and solo
    /// misses. Boxed so an id without state costs one pointer: owner ids
    /// only grow within a hypervisor.
    caches: Vec<Option<Box<Cache>>>,
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
            caches: Vec::new(),
        })
    }

    /// The slot of `owner` in an owner-indexed table, grown to reach it.
    fn slot(caches: &mut Vec<Option<Box<Cache>>>, owner: OwnerId) -> &mut Option<Box<Cache>> {
        let idx = usize::from(owner);
        if idx >= caches.len() {
            caches.resize_with(idx + 1, || None);
        }
        &mut caches[idx]
    }

    /// Creates the shadow cache of an owner seen for the first time.
    #[cold]
    #[inline(never)]
    fn create(&mut self, owner: OwnerId) -> &mut Cache {
        let mut cache = Cache::new(self.llc_config.clone()).expect("validated geometry");
        cache.register_owner(owner);
        Self::slot(&mut self.caches, owner).insert(Box::new(cache))
    }

    /// Replays one LLC-level access (an access that missed the private
    /// caches) of `owner` at `addr`.
    #[inline]
    pub fn observe(&mut self, owner: OwnerId, addr: u64) {
        let cache = match self.caches.get_mut(usize::from(owner)) {
            Some(Some(cache)) => &mut **cache,
            _ => self.create(owner),
        };
        cache.access(addr, owner);
    }

    /// Estimated solo LLC misses of `owner`: the misses of every access
    /// replayed for it since its shadow state was created.
    pub fn solo_misses(&self, owner: OwnerId) -> u64 {
        self.caches
            .get(usize::from(owner))
            .and_then(Option::as_ref)
            .map_or(0, |cache| cache.stats().misses)
    }

    /// Drops the shadow state of an owner entirely (VM destroyed).
    pub fn remove_owner(&mut self, owner: OwnerId) {
        if let Some(slot) = self.caches.get_mut(usize::from(owner)) {
            *slot = None;
        }
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
            caches: Vec::new(),
        };
        for &owner in owners {
            if let Some(cache) = self
                .caches
                .get_mut(usize::from(owner))
                .and_then(Option::take)
            {
                *Self::slot(&mut part.caches, owner) = Some(cache);
            }
        }
        part
    }

    /// Reabsorbs a partition produced by [`ShadowAttribution::take_partition`].
    ///
    /// An owner tracked on both sides keeps the partition's state (the
    /// partition is the newer state). Only merging a partition back into an
    /// attribution that observed the same owner in the meantime does that,
    /// which the engine's disjoint-by-socket partitioning rules out.
    pub fn merge(&mut self, part: ShadowAttribution) {
        debug_assert_eq!(
            self.llc_config, part.llc_config,
            "cannot merge shadow attributions of different geometry"
        );
        if self.caches.len() < part.caches.len() {
            self.caches.resize_with(part.caches.len(), || None);
        }
        for (slot, cache) in self.caches.iter_mut().zip(part.caches) {
            if cache.is_some() {
                *slot = cache;
            }
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
    fn partitions_split_and_merge_round_trip() {
        let mut s = shadow();
        for i in 0..8u64 {
            s.observe(1, i * 64);
            s.observe(2, (100 + i) * 64);
        }
        let part = s.take_partition(&[1, 3]);
        // Owner 1 moved out entirely; owner 3 has no state yet.
        assert_eq!(s.solo_misses(1), 0);
        assert_eq!(part.solo_misses(1), 8);
        assert_eq!(part.solo_misses(2), 0);
        assert_eq!(s.solo_misses(2), 8);
        s.merge(part);
        assert_eq!(s.solo_misses(1), 8);
        assert_eq!(s.solo_misses(2), 8);
        // Warmed contents survived the round trip: replaying owner 1's
        // lines produces no new misses.
        for i in 0..8u64 {
            s.observe(1, i * 64);
        }
        assert_eq!(s.solo_misses(1), 8);
    }

    #[test]
    fn the_largest_owner_id_gets_its_own_shadow() {
        let mut s = shadow();
        s.observe(OwnerId::MAX, 0);
        s.observe(OwnerId::MAX, 0);
        assert_eq!(s.solo_misses(OwnerId::MAX), 1);
        let mut part = s.take_partition(&[OwnerId::MAX]);
        assert_eq!(s.solo_misses(OwnerId::MAX), 0);
        part.observe(OwnerId::MAX, 64);
        s.merge(part);
        assert_eq!(s.solo_misses(OwnerId::MAX), 2);
    }

    #[test]
    fn remove_owner_drops_the_shadow_state() {
        let mut s = shadow();
        s.observe(1, 0);
        s.observe(2, 0);
        s.remove_owner(1);
        s.remove_owner(9);
        assert_eq!(s.solo_misses(1), 0);
        assert_eq!(s.solo_misses(2), 1);
        // A later access starts from a cold shadow cache.
        s.observe(1, 0);
        assert_eq!(s.solo_misses(1), 1);
    }
}
