//! Cache replacement policies.
//!
//! The paper's testbed uses an ordinary LRU-managed last-level cache; the
//! related-work section (Section 6) discusses replacement-policy based
//! mitigations (DIP: LRU vs. BIP with set dueling). We provide LRU as the
//! default plus BIP/DIP/Random, which the engine-equivalence properties
//! sweep alongside it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Replacement policy used by a [`crate::cache::Cache`].
///
/// The policy decides which way of a set is evicted on a miss in a full set
/// and at which recency position a newly inserted line starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
#[derive(Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used line; insert new lines as MRU.
    #[default]
    Lru,
    /// Bimodal insertion: new lines are inserted in the LRU position most of
    /// the time and only promoted to MRU with a small probability. This
    /// protects the cache from scanning (blockie/lbm-like) workloads.
    Bip,
    /// Dynamic insertion (DIP): set dueling between [`ReplacementPolicy::Lru`]
    /// and [`ReplacementPolicy::Bip`], following Qureshi et al. (ISCA 2007).
    Dip,
    /// Evict a (deterministically seeded) random line.
    Random,
}

impl ReplacementPolicy {
    /// Human-readable name used by benchmark reports.
    pub fn name(&self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Bip => "bip",
            ReplacementPolicy::Dip => "dip",
            ReplacementPolicy::Random => "random",
        }
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Probability (out of [`BIP_EPSILON_DEN`]) that BIP inserts a new line in
/// the MRU position instead of the LRU position.
pub const BIP_EPSILON_NUM: u32 = 1;
/// Denominator of the BIP epsilon probability.
pub const BIP_EPSILON_DEN: u32 = 32;

/// Runtime state backing a replacement policy decision.
///
/// The state is shared by every set of a cache: it carries the RNG used by
/// BIP/Random and the PSEL saturating counter used by DIP set dueling.
#[derive(Debug, Clone)]
pub struct ReplacementState {
    policy: ReplacementPolicy,
    rng: SmallRng,
    /// DIP policy-selector counter. Values above the midpoint favour BIP.
    psel: i32,
    psel_max: i32,
}

/// Decision taken for a newly inserted line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertPosition {
    /// Insert at the most-recently-used position (normal LRU behaviour).
    Mru,
    /// Insert at the least-recently-used position (BIP behaviour): the line
    /// will be the next eviction victim unless it is reused first.
    Lru,
}

impl ReplacementState {
    /// Creates policy state with a deterministic seed.
    pub fn new(policy: ReplacementPolicy, seed: u64) -> Self {
        ReplacementState {
            policy,
            rng: SmallRng::seed_from_u64(seed),
            psel: 512,
            psel_max: 1024,
        }
    }

    /// The policy this state implements.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Chooses a victim way among `ways` candidates given their recency
    /// timestamps (`last_use[i]` is the logical time way `i` was last used).
    ///
    /// Lower timestamps are older. Invalid ways should be handled by the
    /// caller before asking for a victim.
    pub fn pick_victim(&mut self, last_use: &[u64]) -> usize {
        debug_assert!(!last_use.is_empty());
        match self.policy {
            ReplacementPolicy::Random => self.rng.gen_range(0..last_use.len()),
            // LRU, BIP and DIP all evict the least recently used line; they
            // differ only in the insertion position of new lines.
            _ => {
                let mut victim = 0;
                let mut oldest = last_use[0];
                for (i, &ts) in last_use.iter().enumerate().skip(1) {
                    if ts < oldest {
                        oldest = ts;
                        victim = i;
                    }
                }
                victim
            }
        }
    }

    /// Allocation-free victim choice for callers that already scanned the
    /// set: `lru_way` is the way with the oldest timestamp (first index on
    /// ties) and `ways` the associativity. Consumes the RNG exactly like
    /// [`ReplacementState::pick_victim`] would, so both entry points yield
    /// identical eviction streams.
    #[inline]
    pub fn pick_victim_prescanned(&mut self, lru_way: usize, ways: usize) -> usize {
        debug_assert!(ways > 0);
        match self.policy {
            ReplacementPolicy::Random => self.rng.gen_range(0..ways),
            _ => lru_way,
        }
    }

    /// Chooses the recency position of a newly inserted line.
    ///
    /// `set_index` is used by DIP set dueling: a few leader sets always use
    /// LRU, a few always use BIP, and the remaining follower sets follow the
    /// PSEL counter.
    #[inline]
    pub fn insert_position(&mut self, set_index: usize, total_sets: usize) -> InsertPosition {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Random => InsertPosition::Mru,
            ReplacementPolicy::Bip => self.bip_position(),
            ReplacementPolicy::Dip => match dip_set_role(set_index, total_sets) {
                DipSetRole::LruLeader => InsertPosition::Mru,
                DipSetRole::BipLeader => self.bip_position(),
                DipSetRole::Follower => {
                    if self.psel * 2 >= self.psel_max {
                        self.bip_position()
                    } else {
                        InsertPosition::Mru
                    }
                }
            },
        }
    }

    /// Notifies the policy that a miss occurred in `set_index`, so DIP can
    /// update its PSEL duel counter.
    #[inline]
    pub fn on_miss(&mut self, set_index: usize, total_sets: usize) {
        if self.policy != ReplacementPolicy::Dip {
            return;
        }
        match dip_set_role(set_index, total_sets) {
            // A miss in an LRU leader set is evidence in favour of BIP.
            DipSetRole::LruLeader => self.psel = (self.psel + 1).min(self.psel_max),
            // A miss in a BIP leader set is evidence in favour of LRU.
            DipSetRole::BipLeader => self.psel = (self.psel - 1).max(0),
            DipSetRole::Follower => {}
        }
    }

    fn bip_position(&mut self) -> InsertPosition {
        if self.rng.gen_range(0..BIP_EPSILON_DEN) < BIP_EPSILON_NUM {
            InsertPosition::Mru
        } else {
            InsertPosition::Lru
        }
    }
}

/// Role a set plays in DIP set dueling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DipSetRole {
    LruLeader,
    BipLeader,
    Follower,
}

/// Number of leader sets (per policy) used by DIP set dueling.
const DIP_LEADER_STRIDE: usize = 32;

fn dip_set_role(set_index: usize, total_sets: usize) -> DipSetRole {
    if total_sets < 2 * DIP_LEADER_STRIDE {
        // Tiny caches: alternate leaders to keep dueling meaningful.
        return match set_index % 4 {
            0 => DipSetRole::LruLeader,
            1 => DipSetRole::BipLeader,
            _ => DipSetRole::Follower,
        };
    }
    if set_index.is_multiple_of(DIP_LEADER_STRIDE) {
        DipSetRole::LruLeader
    } else if set_index % DIP_LEADER_STRIDE == 1 {
        DipSetRole::BipLeader
    } else {
        DipSetRole::Follower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_picks_oldest_way() {
        let mut state = ReplacementState::new(ReplacementPolicy::Lru, 1);
        let victim = state.pick_victim(&[10, 3, 7, 9]);
        assert_eq!(victim, 1);
    }

    #[test]
    fn lru_always_inserts_mru() {
        let mut state = ReplacementState::new(ReplacementPolicy::Lru, 1);
        for set in 0..128 {
            assert_eq!(state.insert_position(set, 1024), InsertPosition::Mru);
        }
    }

    #[test]
    fn bip_mostly_inserts_lru() {
        let mut state = ReplacementState::new(ReplacementPolicy::Bip, 42);
        let mut lru_inserts = 0;
        let trials = 10_000;
        for i in 0..trials {
            if state.insert_position(i % 64, 1024) == InsertPosition::Lru {
                lru_inserts += 1;
            }
        }
        let fraction = lru_inserts as f64 / trials as f64;
        assert!(
            fraction > 0.9,
            "BIP should insert at LRU most of the time, got {fraction}"
        );
        assert!(fraction < 1.0, "BIP must occasionally insert at MRU");
    }

    #[test]
    fn random_victims_cover_all_ways() {
        let mut state = ReplacementState::new(ReplacementPolicy::Random, 7);
        let mut seen = [false; 4];
        for _ in 0..1000 {
            seen[state.pick_victim(&[1, 2, 3, 4])] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "random policy should eventually evict every way"
        );
    }

    #[test]
    fn dip_misses_in_lru_leaders_push_towards_bip() {
        let mut state = ReplacementState::new(ReplacementPolicy::Dip, 3);
        let before = state.psel;
        // Set 0 is an LRU leader set for large caches.
        for _ in 0..100 {
            state.on_miss(0, 1024);
        }
        assert!(state.psel > before);
    }

    #[test]
    fn dip_misses_in_bip_leaders_push_towards_lru() {
        let mut state = ReplacementState::new(ReplacementPolicy::Dip, 3);
        let before = state.psel;
        for _ in 0..100 {
            state.on_miss(1, 1024);
        }
        assert!(state.psel < before);
    }

    #[test]
    fn psel_saturates() {
        let mut state = ReplacementState::new(ReplacementPolicy::Dip, 3);
        for _ in 0..10_000 {
            state.on_miss(0, 1024);
        }
        assert!(state.psel <= state.psel_max);
        for _ in 0..100_000 {
            state.on_miss(1, 1024);
        }
        assert!(state.psel >= 0);
    }

    #[test]
    fn policy_names_are_stable() {
        assert_eq!(ReplacementPolicy::Lru.to_string(), "lru");
        assert_eq!(ReplacementPolicy::Dip.to_string(), "dip");
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    #[test]
    fn non_dip_policies_ignore_miss_feedback() {
        let mut state = ReplacementState::new(ReplacementPolicy::Lru, 3);
        let before = state.psel;
        state.on_miss(0, 1024);
        assert_eq!(state.psel, before);
    }
}
