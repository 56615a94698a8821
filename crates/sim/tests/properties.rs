//! Property-based tests of the cache and PMC invariants.

use kyoto_sim::cache::{Cache, CacheConfig, ADDR_BITS};
use kyoto_sim::hierarchy::AccessKind;
use kyoto_sim::pmc::PmcSet;
use kyoto_sim::topology::{CoreId, Machine, MachineConfig, NumaNode, SocketId, SocketView};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever the access stream, the cache never holds more lines than its
    /// capacity, every owner's occupancy is consistent, and the hit/miss
    /// accounting closes.
    #[test]
    fn cache_accounting_closes(
        accesses in prop::collection::vec((0u64..4096, 1u16..4), 1..500),
    ) {
        let config = CacheConfig::new(8 * 1024, 4, 64);
        let mut cache = Cache::new(config.clone()).unwrap();
        for &(line, owner) in &accesses {
            cache.access(line * 64, owner);
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.accesses, accesses.len() as u64);
        prop_assert_eq!(stats.hits + stats.misses, stats.accesses);
        prop_assert!(cache.occupancy() <= config.num_lines());
        let per_owner: u64 = (0..4u16).map(|o| cache.occupancy_of(o)).sum();
        prop_assert_eq!(per_owner, cache.occupancy());
        // Evictions can never exceed misses (only misses insert lines).
        prop_assert!(stats.evictions <= stats.misses);
    }

    /// A line that was just accessed is always resident immediately after,
    /// anywhere in the `ADDR_BITS`-bit address space. The stream reuses a
    /// pool of 64 addresses, so hits are exercised as well as fills.
    #[test]
    fn most_recent_access_is_resident(
        pool in prop::collection::vec(0u64..1 << ADDR_BITS, 64),
        accesses in prop::collection::vec((0usize..64, 1u16..3), 1..300),
    ) {
        let mut cache = Cache::new(CacheConfig::new(4 * 1024, 4, 64)).unwrap();
        for &(index, owner) in &accesses {
            let addr = pool[index];
            cache.access(addr, owner);
            prop_assert!(cache.probe(addr, owner));
        }
    }

    /// Flushing an owner removes exactly that owner's lines.
    #[test]
    fn flush_owner_is_selective(
        accesses in prop::collection::vec((0u64..1024, 1u16..4), 1..200),
        victim in 1u16..4,
    ) {
        let mut cache = Cache::new(CacheConfig::new(8 * 1024, 8, 64)).unwrap();
        for &(line, owner) in &accesses {
            cache.access(line * 64, owner);
        }
        let others: u64 = (1..4u16).filter(|&o| o != victim).map(|o| cache.occupancy_of(o)).sum();
        cache.flush_owner(victim);
        prop_assert_eq!(cache.occupancy_of(victim), 0);
        let others_after: u64 = (1..4u16).filter(|&o| o != victim).map(|o| cache.occupancy_of(o)).sum();
        prop_assert_eq!(others, others_after);
    }

    /// PMC delta/accumulate round-trips: (a + b) - a == b.
    #[test]
    fn pmc_add_then_delta_roundtrips(
        a in prop::array::uniform7(0u64..1_000_000),
        b in prop::array::uniform7(0u64..1_000_000),
    ) {
        let make = |v: [u64; 7]| PmcSet {
            instructions: v[0],
            unhalted_core_cycles: v[1],
            memory_accesses: v[2],
            ilc_misses: v[3],
            llc_references: v[4],
            llc_misses: v[5],
            remote_accesses: v[6],
        };
        let (a, b) = (make(a), make(b));
        prop_assert_eq!((a + b).delta_since(&a), b);
        prop_assert_eq!((a + b) - b, a);
    }

    /// Machine accesses always report a latency consistent with the level
    /// that served them, and hits never pay memory latency.
    #[test]
    fn machine_latencies_match_levels(
        lines in prop::collection::vec(0u64..100_000, 1..200),
    ) {
        let mut machine = Machine::new(MachineConfig::scaled_paper_numa_machine(64));
        let latency = machine.config().latency;
        for &line in &lines {
            let out = machine
                .access(CoreId(0), line * 64, AccessKind::Load, 1, NumaNode(0), false)
                .unwrap();
            prop_assert_eq!(out.latency, latency.of(out.level));
        }
        // Re-access the last line: it must now hit in a cache level.
        let last = lines[lines.len() - 1] * 64;
        let out = machine
            .access(CoreId(0), last, AccessKind::Load, 1, NumaNode(0), false)
            .unwrap();
        prop_assert!(!out.level.is_llc_miss());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// N-socket topology builder round-trips: every (socket, core-index)
    /// coordinate maps to a unique global core and back, `cores_of_socket`
    /// partitions the core set, and the machine builds and validates.
    #[test]
    fn cloud_topology_indices_round_trip(
        sockets in prop_oneof![Just(1usize), Just(2), Just(4), Just(8), Just(16)],
        cores_per_socket in 1usize..9,
    ) {
        let config = MachineConfig::cloud_machine(sockets)
            .with_cores_per_socket(cores_per_socket)
            .scaled(64);
        prop_assert!(config.validate().is_ok());
        let machine = Machine::new(config.clone());
        prop_assert_eq!(machine.num_sockets(), sockets);
        prop_assert_eq!(machine.num_cores(), sockets * cores_per_socket);
        let mut seen = std::collections::HashSet::new();
        for s in 0..sockets {
            for c in 0..cores_per_socket {
                let core = config.core_on(SocketId(s), c).expect("in range");
                prop_assert!(seen.insert(core), "core ids must be unique");
                prop_assert_eq!(config.socket_of_core(core), Some(SocketId(s)));
                prop_assert_eq!(machine.socket_of(core).unwrap(), SocketId(s));
                prop_assert_eq!(machine.numa_node_of(core).unwrap(), NumaNode(s));
                prop_assert!(machine.cores_of_socket(SocketId(s)).contains(&core));
            }
        }
        prop_assert_eq!(seen.len(), machine.num_cores());
        // Out-of-range coordinates are rejected, not wrapped.
        prop_assert_eq!(config.core_on(SocketId(sockets), 0), None);
        prop_assert_eq!(config.core_on(SocketId(0), cores_per_socket), None);
        prop_assert_eq!(config.socket_of_core(CoreId(machine.num_cores())), None);
    }

    /// `sockets_mut` split-borrows are disjoint at any socket count: the
    /// views cover every socket exactly once, and driving disjoint access
    /// streams through all views concurrently-borrowed leaves each socket's
    /// LLC exactly as driving the same streams through the machine.
    #[test]
    fn socket_views_are_disjoint_and_complete(
        sockets in prop_oneof![Just(2usize), Just(4), Just(8)],
        lines in 1u64..64,
    ) {
        let config = MachineConfig::scaled_cloud_machine(sockets, 64);
        let cores_per_socket = config.cores_per_socket;
        let mut via_machine = Machine::new(config.clone());
        let mut via_views = Machine::new(config);
        let accesses: Vec<(CoreId, u64)> = (0..sockets)
            .flat_map(|s| {
                (0..lines)
                    .map(move |i| (CoreId(s * cores_per_socket), ((s as u64) << 32) | (i * 64)))
            })
            .collect();
        for &(core, addr) in &accesses {
            let route = via_machine.route(core, NumaNode(core.0 / cores_per_socket), false).unwrap();
            via_machine.access_routed(route, addr, AccessKind::Load, 1);
        }
        // Routes are pure functions of the machine config and can be
        // resolved before the split borrow.
        let routes: Vec<_> = accesses
            .iter()
            .map(|&(core, _)| {
                via_views
                    .route(core, NumaNode(core.0 / cores_per_socket), false)
                    .unwrap()
            })
            .collect();
        {
            let mut views: Vec<SocketView<'_>> = via_views.sockets_mut().collect();
            prop_assert_eq!(views.len(), sockets);
            for (i, view) in views.iter().enumerate() {
                prop_assert_eq!(view.id(), SocketId(i), "one view per socket, in order");
            }
            for (&(core, addr), route) in accesses.iter().zip(&routes) {
                let socket = core.0 / cores_per_socket;
                views[socket].access_routed(*route, addr, AccessKind::Load, 1);
            }
        }
        for s in 0..sockets {
            prop_assert_eq!(
                via_machine.llc_stats(SocketId(s)).unwrap(),
                via_views.llc_stats(SocketId(s)).unwrap()
            );
        }
    }
}
