//! Set-associative cache model with per-owner occupancy accounting.
//!
//! The LLC contention the Kyoto paper addresses is an eviction phenomenon:
//! lines of a *sensitive* VM are evicted by the access stream of a
//! *disruptive* VM sharing the same set-associative last-level cache. This
//! module models exactly that mechanism: a cache is a vector of sets, each a
//! small array of tagged lines ordered by recency, and every line remembers
//! which owner (VM) inserted it so that pollution can be attributed.

use crate::error::SimError;
use serde::{Deserialize, Serialize};

/// Identifier of the entity (typically a VM) that owns a cache line.
///
/// Owner `0` is reserved for "nobody/hypervisor"; workloads attached to VMs
/// use the VM's numeric id.
pub type OwnerId = u16;

/// Width of a simulated (guest-physical) byte address, in bits: the x86-64
/// architectural physical-address limit.
///
/// Every address handed to a cache must be below `2^ADDR_BITS`. Together
/// with [`CacheConfig::num_sets`]'s minimum of 32 bytes per way, this
/// bounds every tag to 47 bits, so a line's packed identity (tag, owner and
/// valid bit) fits one `u64` exactly and two lines never alias.
pub const ADDR_BITS: u32 = 52;

/// Tag bits left in a `u64` line key beside the 16-bit owner and the valid
/// bit.
const TAG_BITS: u32 = 64 - 17;

/// Geometry of a cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (number of ways per set).
    pub ways: u32,
    /// Cache line size in bytes.
    pub line_size: u32,
}

impl CacheConfig {
    /// Creates an LRU cache configuration.
    pub fn new(size_bytes: u64, ways: u32, line_size: u32) -> Self {
        CacheConfig {
            size_bytes,
            ways,
            line_size,
        }
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] when the geometry is
    /// impossible (zero sizes, capacity not divisible by `ways * line_size`)
    /// or when one way spans fewer than 32 bytes: below that, tags of
    /// [`ADDR_BITS`]-bit addresses no longer fit a line key.
    pub fn num_sets(&self) -> Result<u64, SimError> {
        if self.size_bytes == 0 || self.ways == 0 || self.line_size == 0 {
            return Err(SimError::InvalidCacheConfig {
                reason: format!(
                    "size ({}), ways ({}) and line size ({}) must all be non-zero",
                    self.size_bytes, self.ways, self.line_size
                ),
            });
        }
        let way_bytes = u64::from(self.ways) * u64::from(self.line_size);
        if !self.size_bytes.is_multiple_of(way_bytes) {
            return Err(SimError::InvalidCacheConfig {
                reason: format!(
                    "size {} is not a multiple of ways*line_size = {}",
                    self.size_bytes, way_bytes
                ),
            });
        }
        let bytes_per_way = self.size_bytes / u64::from(self.ways);
        if bytes_per_way < 1 << (ADDR_BITS - TAG_BITS) {
            return Err(SimError::InvalidCacheConfig {
                reason: format!(
                    "one way spans {bytes_per_way} bytes, below the {} bytes that keep \
                     {ADDR_BITS}-bit addresses exact",
                    1u64 << (ADDR_BITS - TAG_BITS)
                ),
            });
        }
        Ok(self.size_bytes / way_bytes)
    }

    /// Total number of lines the cache can hold.
    pub fn num_lines(&self) -> u64 {
        self.size_bytes / u64::from(self.line_size)
    }

    /// Divides the capacity by `factor`, keeping associativity and line size.
    ///
    /// Used to build scaled-down machines that exhibit the same contention
    /// behaviour with proportionally smaller working sets, so experiments run
    /// quickly. `factor` values that would drop below one set are clamped.
    pub fn scaled(&self, factor: u64) -> Self {
        let min_size = u64::from(self.ways) * u64::from(self.line_size);
        let size = (self.size_bytes / factor.max(1)).max(min_size);
        // Round down to a whole number of sets.
        let sets = (size / min_size).max(1);
        CacheConfig {
            size_bytes: sets * min_size,
            ways: self.ways,
            line_size: self.line_size,
        }
    }
}

/// Aggregate statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups.
    pub accesses: u64,
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Valid lines evicted to make room for a fill.
    pub evictions: u64,
    /// Evictions where the evicted line belonged to a different owner than
    /// the inserting access ("pollution" events in the paper's terminology).
    pub cross_owner_evictions: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; `0` when the cache was never accessed.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit ratio in `[0, 1]`; `0` when the cache was never accessed.
    pub fn hit_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }
}

/// Result of a single cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LookupResult {
    /// Whether the access hit.
    pub hit: bool,
    /// Owner of a valid line evicted by the fill triggered by this access.
    pub evicted_owner: Option<OwnerId>,
}

/// Packed line identity: `(tag << 17) | (owner << 1) | valid`. A lookup
/// compares one key per way instead of three fields, which keeps the scan
/// branch-light; `0` is the invalid line (valid bit clear). Exact because
/// every tag fits [`TAG_BITS`] (see [`ADDR_BITS`]).
type LineKey = u64;

#[inline]
fn key_of(tag: u64, owner: OwnerId) -> LineKey {
    (tag << 17) | (u64::from(owner) << 1) | 1
}

#[inline]
fn owner_of(key: LineKey) -> OwnerId {
    ((key >> 1) & 0xffff) as OwnerId
}

/// A set-associative cache.
///
/// Addresses are split into `(tag, set, offset)` using the configured line
/// size and set count. Different owners never share lines (the engine places
/// every owner in a disjoint address-space slice), but they do share sets —
/// which is precisely how LLC contention arises.
///
/// Each set's ways are stored *physically in recency order*: way 0 is the
/// MRU line, valid lines precede invalid ones, and the last valid way is the
/// LRU line. A hit therefore promotes by sliding the more-recent ways down
/// one, the scan stops at the first invalid way, and eviction needs no
/// timestamp search — the LRU victim is simply the last way.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: u64,
    // Shift/mask address split, valid when `pow2_geometry` (power-of-two
    // line size and set count, which every modelled machine has). The
    // fallback div/mod path keeps arbitrary geometries working.
    pow2_geometry: bool,
    line_shift: u32,
    set_mask: u64,
    set_shift: u32,
    lines: Vec<LineKey>,
    stats: CacheStats,
    // Per-owner counters indexed by owner id (owner ids are small: VM ids).
    // Pre-sized at construction / via `register_owner` so the access path
    // never reallocates; unregistered owners grow the tables once, off the
    // hot path.
    owner_lines: Vec<u64>,
    owner_misses: Vec<u64>,
    owner_accesses: Vec<u64>,
}

/// Owner ids the counter tables are pre-sized for; larger ids are still
/// valid and grow the tables once on first use (a cold path).
const PRESIZED_OWNERS: usize = 64;

#[cold]
#[inline(never)]
fn grow_counters(counters: &mut Vec<u64>, idx: usize) {
    counters.resize(idx + 1, 0);
}

#[inline]
fn counter(counters: &mut Vec<u64>, owner: OwnerId) -> &mut u64 {
    let idx = usize::from(owner);
    if idx >= counters.len() {
        grow_counters(counters, idx);
    }
    &mut counters[idx]
}

fn read(counters: &[u64], owner: OwnerId) -> u64 {
    counters.get(usize::from(owner)).copied().unwrap_or(0)
}

impl Cache {
    /// Builds a cache from its geometry.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidCacheConfig`] if the geometry is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, SimError> {
        let num_sets = config.num_sets()?;
        let total_lines = (num_sets * u64::from(config.ways)) as usize;
        let pow2_geometry = config.line_size.is_power_of_two() && num_sets.is_power_of_two();
        Ok(Cache {
            pow2_geometry,
            line_shift: config.line_size.trailing_zeros(),
            set_mask: num_sets - 1,
            set_shift: num_sets.trailing_zeros(),
            config,
            num_sets,
            lines: vec![0; total_lines],
            stats: CacheStats::default(),
            owner_lines: vec![0; PRESIZED_OWNERS],
            owner_misses: vec![0; PRESIZED_OWNERS],
            owner_accesses: vec![0; PRESIZED_OWNERS],
        })
    }

    /// Pre-sizes the per-owner counter tables for `owner`, so no access by
    /// that owner ever reallocates them. Called by the hypervisor at VM
    /// registration; idempotent and safe to skip (the tables grow on demand
    /// off the hot path).
    pub fn register_owner(&mut self, owner: OwnerId) {
        let idx = usize::from(owner);
        if idx >= self.owner_lines.len() {
            grow_counters(&mut self.owner_lines, idx);
        }
        if idx >= self.owner_misses.len() {
            grow_counters(&mut self.owner_misses, idx);
        }
        if idx >= self.owner_accesses.len() {
            grow_counters(&mut self.owner_accesses, idx);
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Aggregate statistics since construction or the last [`Cache::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Clears the statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
        // Zero in place: clearing would drop the pre-sizing the hot path
        // relies on.
        self.owner_misses.fill(0);
        self.owner_accesses.fill(0);
    }

    /// Number of valid lines currently owned by `owner`.
    pub fn occupancy_of(&self, owner: OwnerId) -> u64 {
        read(&self.owner_lines, owner)
    }

    /// Total number of valid lines.
    pub fn occupancy(&self) -> u64 {
        self.owner_lines.iter().sum()
    }

    /// Misses attributed to `owner` since the last stats reset.
    pub fn misses_of(&self, owner: OwnerId) -> u64 {
        read(&self.owner_misses, owner)
    }

    /// Accesses attributed to `owner` since the last stats reset.
    pub fn accesses_of(&self, owner: OwnerId) -> u64 {
        read(&self.owner_accesses, owner)
    }

    /// Splits an address into its `(set, tag)` pair.
    #[inline]
    fn split(&self, addr: u64) -> (u64, u64) {
        debug_assert!(
            addr >> ADDR_BITS == 0,
            "address {addr:#x} is wider than {ADDR_BITS} bits"
        );
        if self.pow2_geometry {
            let line = addr >> self.line_shift;
            (line & self.set_mask, line >> self.set_shift)
        } else {
            let line = addr / u64::from(self.config.line_size);
            (line % self.num_sets, line / self.num_sets)
        }
    }

    /// Performs a lookup, filling the line on a miss and evicting the set's
    /// least-recently-used line when the set is full.
    ///
    /// Returns whether the access hit and, on a miss that displaced a valid
    /// line, the owner of the evicted line.
    ///
    /// `addr` must be below `2^`[`ADDR_BITS`]: a wider address could alias
    /// another line's key. The engine and [`crate::topology::Machine::access`]
    /// reject wider addresses before they reach a cache; debug builds also
    /// assert it here.
    #[inline]
    pub fn access(&mut self, addr: u64, owner: OwnerId) -> LookupResult {
        self.stats.accesses += 1;
        *counter(&mut self.owner_accesses, owner) += 1;

        let (set, tag) = self.split(addr);
        let set = set as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let probe = key_of(tag, owner);

        // Scan and recency update fused into one slide pass. Every visited
        // way is shifted one position towards LRU while the probe key enters
        // at MRU, so a hit, a fill into a free way and an eviction of the
        // last way all fall out of the same loop with one load, one store
        // and two compares per way.
        let mut slide = probe;
        for slot in &mut self.lines[base..base + ways] {
            let current = *slot;
            *slot = slide;
            if current == probe {
                self.stats.hits += 1;
                return LookupResult {
                    hit: true,
                    evicted_owner: None,
                };
            }
            if current == 0 {
                // Filled a free way.
                self.stats.misses += 1;
                *counter(&mut self.owner_misses, owner) += 1;
                *counter(&mut self.owner_lines, owner) += 1;
                return LookupResult {
                    hit: false,
                    evicted_owner: None,
                };
            }
            slide = current;
        }
        // Full set: `slide` is the old LRU line, now evicted.
        self.stats.misses += 1;
        *counter(&mut self.owner_misses, owner) += 1;
        let evicted_owner = owner_of(slide);
        self.stats.evictions += 1;
        if evicted_owner != owner {
            self.stats.cross_owner_evictions += 1;
        }
        let lines = counter(&mut self.owner_lines, evicted_owner);
        *lines = lines.saturating_sub(1);
        *counter(&mut self.owner_lines, owner) += 1;
        LookupResult {
            hit: false,
            evicted_owner: Some(evicted_owner),
        }
    }

    /// Checks whether `addr` is resident for `owner` without touching
    /// recency or statistics. `addr` must be below `2^`[`ADDR_BITS`], as
    /// for [`Cache::access`].
    pub fn probe(&self, addr: u64, owner: OwnerId) -> bool {
        let (set, tag) = self.split(addr);
        let set = set as usize;
        let ways = self.config.ways as usize;
        let base = set * ways;
        let probe = key_of(tag, owner);
        self.lines[base..base + ways].contains(&probe)
    }

    /// Invalidates every line belonging to `owner` (e.g. on VM destruction
    /// or the extraction half of a live migration), compacting each set so
    /// surviving lines keep their recency order. Returns the number of lines
    /// invalidated — the cache footprint the owner loses.
    pub fn flush_owner(&mut self, owner: OwnerId) -> u64 {
        let ways = self.config.ways as usize;
        let mut flushed = 0u64;
        for set in self.lines.chunks_mut(ways) {
            let mut kept = 0;
            for way in 0..ways {
                let key = set[way];
                if key == 0 {
                    break;
                }
                if owner_of(key) != owner {
                    set[kept] = key;
                    kept += 1;
                } else {
                    flushed += 1;
                }
            }
            set[kept..].fill(0);
        }
        if let Some(count) = self.owner_lines.get_mut(usize::from(owner)) {
            *count = 0;
        }
        flushed
    }

    /// Invalidates every line in the cache.
    pub fn flush(&mut self) {
        self.lines.fill(0);
        self.owner_lines.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache(ways: u32) -> Cache {
        // 4 sets x `ways` ways x 64-byte lines.
        Cache::new(CacheConfig::new(u64::from(ways) * 4 * 64, ways, 64)).unwrap()
    }

    #[test]
    fn geometry_is_computed_correctly() {
        let config = CacheConfig::new(10 * 1024 * 1024, 20, 64);
        assert_eq!(config.num_sets().unwrap(), 8192);
        assert_eq!(config.num_lines(), 163_840);
    }

    #[test]
    fn invalid_geometry_is_rejected() {
        assert!(CacheConfig::new(0, 8, 64).num_sets().is_err());
        assert!(CacheConfig::new(1000, 8, 64).num_sets().is_err());
        assert!(Cache::new(CacheConfig::new(4096, 0, 64)).is_err());
    }

    #[test]
    fn ways_narrower_than_32_bytes_are_rejected() {
        assert!(CacheConfig::new(16, 1, 16).num_sets().is_err());
        assert!(Cache::new(CacheConfig::new(16, 1, 16)).is_err());
        assert!(CacheConfig::new(32, 2, 16).num_sets().is_err());
        assert_eq!(CacheConfig::new(64, 2, 16).num_sets().unwrap(), 2);
        assert_eq!(CacheConfig::new(32, 1, 32).num_sets().unwrap(), 1);
    }

    #[test]
    fn lines_differing_only_in_high_address_bits_stay_distinct() {
        // One set and two ways, with 64-byte lines and with 32-byte lines
        // (the narrowest legal way, whose tags use all 47 key bits): each
        // pair must take two misses and stay resident side by side.
        for line_size in [64u32, 32] {
            let line = u64::from(line_size);
            for pair in [[0, 1 << 51], [(1 << ADDR_BITS) - line, (1 << 51) - line]] {
                let mut cache = Cache::new(CacheConfig::new(2 * line, 2, line_size)).unwrap();
                for addr in pair {
                    assert!(!cache.access(addr, 1).hit, "{addr:#x} ({line}-byte lines)");
                }
                assert_eq!(cache.occupancy_of(1), 2);
                assert!(pair.iter().all(|&addr| cache.probe(addr, 1)));
            }
        }
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut cache = small_cache(2);
        assert!(!cache.access(0x1000, 1).hit);
        assert!(cache.access(0x1000, 1).hit);
        assert_eq!(cache.stats().accesses, 2);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn different_owners_do_not_share_lines() {
        let mut cache = small_cache(4);
        cache.access(0x1000, 1);
        // Same address but another owner: must miss (owners live in disjoint
        // guest-physical spaces; sharing would hide contention).
        assert!(!cache.access(0x1000, 2).hit);
    }

    #[test]
    fn lru_evicts_oldest_line_in_full_set() {
        let mut cache = small_cache(2);
        let set_stride = 4 * 64; // 4 sets * 64B lines: same set every stride.
        cache.access(0, 1);
        cache.access(set_stride, 1);
        // Touch line 0 again so line at `set_stride` becomes LRU.
        cache.access(0, 1);
        // Third distinct line in the same set evicts the LRU one.
        cache.access(2 * set_stride, 1);
        assert!(cache.probe(0, 1));
        assert!(!cache.probe(set_stride, 1));
        assert!(cache.probe(2 * set_stride, 1));
    }

    #[test]
    fn cross_owner_eviction_is_counted() {
        let mut cache = small_cache(1);
        cache.access(0, 1);
        let result = cache.access(0, 2); // same set, different owner, 1-way
        assert!(!result.hit);
        assert_eq!(result.evicted_owner, Some(1));
        assert_eq!(cache.stats().cross_owner_evictions, 1);
    }

    #[test]
    fn occupancy_tracks_insertions_and_evictions() {
        let mut cache = small_cache(2);
        for i in 0..4u64 {
            cache.access(i * 64, 1);
        }
        assert_eq!(cache.occupancy_of(1), 4);
        assert_eq!(cache.occupancy(), 4);
        // Fill the whole cache with owner 2: owner 1 lines get evicted.
        for i in 0..8u64 {
            cache.access(i * 64, 2);
        }
        assert_eq!(cache.occupancy_of(2), 8);
        assert_eq!(cache.occupancy_of(1), 0);
        assert!(cache.occupancy() <= cache.config().num_lines());
    }

    #[test]
    fn flush_owner_removes_only_that_owner() {
        let mut cache = small_cache(2);
        cache.access(0, 1);
        cache.access(64, 2);
        cache.flush_owner(1);
        assert!(!cache.probe(0, 1));
        assert!(cache.probe(64, 2));
    }

    #[test]
    fn flush_clears_everything() {
        let mut cache = small_cache(2);
        cache.access(0, 1);
        cache.flush();
        assert_eq!(cache.occupancy(), 0);
        assert!(!cache.probe(0, 1));
    }

    #[test]
    fn per_owner_miss_accounting() {
        let mut cache = small_cache(2);
        cache.access(0, 1);
        cache.access(0, 1);
        cache.access(64, 2);
        assert_eq!(cache.misses_of(1), 1);
        assert_eq!(cache.accesses_of(1), 2);
        assert_eq!(cache.misses_of(2), 1);
        assert_eq!(cache.misses_of(3), 0);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut cache = small_cache(2);
        cache.access(0, 1);
        cache.reset_stats();
        assert_eq!(cache.stats().accesses, 0);
        assert!(
            cache.access(0, 1).hit,
            "contents must survive a stats reset"
        );
    }

    #[test]
    fn miss_ratio_bounds() {
        let mut cache = small_cache(2);
        assert_eq!(cache.stats().miss_ratio(), 0.0);
        for i in 0..100u64 {
            cache.access(i * 64, 1);
        }
        let stats = cache.stats();
        assert!(stats.miss_ratio() > 0.0 && stats.miss_ratio() <= 1.0);
        assert!((stats.miss_ratio() + stats.hit_ratio() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_config_preserves_ways_and_line_size() {
        let config = CacheConfig::new(10 * 1024 * 1024, 20, 64);
        let scaled = config.scaled(16);
        assert_eq!(scaled.ways, 20);
        assert_eq!(scaled.line_size, 64);
        assert_eq!(scaled.size_bytes, 10 * 1024 * 1024 / 16);
        assert!(scaled.num_sets().is_ok());
    }

    #[test]
    fn scaled_config_never_drops_below_one_set() {
        let config = CacheConfig::new(4096, 8, 64);
        let scaled = config.scaled(1_000_000);
        assert!(scaled.num_sets().unwrap() >= 1);
    }
}
