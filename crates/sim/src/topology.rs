//! Machine topology: sockets, cores, NUMA nodes, frequencies and latencies.
//!
//! [`MachineConfig::paper_machine`] reproduces Table 1 of the paper (the
//! Intel Xeon E5-1603 v3 testbed) and [`MachineConfig::paper_numa_machine`]
//! reproduces the two-socket PowerEdge R420 used for the socket-dedication
//! overhead experiment (Fig. 9). Scaled variants divide cache capacities and
//! frequency by a constant factor so that experiments complete quickly while
//! preserving the contention behaviour (working sets are scaled identically
//! by `kyoto-workloads`).

use crate::cache::{Cache, CacheConfig, CacheStats, OwnerId, ADDR_BITS};
use crate::error::SimError;
use crate::hierarchy::{AccessKind, AccessOutcome, CoreCaches, MemLevel};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a physical core (global across sockets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CoreId(pub usize);

/// Identifier of a socket / package.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SocketId(pub usize);

/// Identifier of a NUMA node. On the modelled machines NUMA nodes map 1:1 to
/// sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NumaNode(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

impl fmt::Display for SocketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "socket{}", self.0)
    }
}

impl fmt::Display for NumaNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "numa{}", self.0)
    }
}

/// Access latencies in core cycles, as measured with lmbench on the paper's
/// testbed (Section 2.2.4): 4 / 12 / 45 / 180 cycles for L1 / L2 / LLC /
/// memory. The remote-memory latency models the QPI hop paid after a vCPU is
/// migrated away from its data by the socket-dedication monitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// L1 hit latency.
    pub l1: u32,
    /// L2 hit latency.
    pub l2: u32,
    /// LLC hit latency.
    pub llc: u32,
    /// Local-memory access latency (LLC miss).
    pub local_mem: u32,
    /// Remote-memory access latency (LLC miss served across the interconnect).
    pub remote_mem: u32,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            l1: 4,
            l2: 12,
            llc: 45,
            local_mem: 180,
            remote_mem: 300,
        }
    }
}

impl LatencyConfig {
    /// Latency of an access satisfied at `level`.
    pub fn of(&self, level: MemLevel) -> u32 {
        match level {
            MemLevel::L1 => self.l1,
            MemLevel::L2 => self.l2,
            MemLevel::Llc => self.llc,
            MemLevel::LocalMemory => self.local_mem,
            MemLevel::RemoteMemory => self.remote_mem,
        }
    }
}

/// Full description of a simulated machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of sockets (each socket is one NUMA node).
    pub sockets: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
    /// Core frequency in kHz. Because 1 kHz is one cycle per millisecond,
    /// this value is also the cycle budget of one millisecond of simulated
    /// time, and it is the `cpu_freq_khz` term of the paper's Equation 1.
    pub freq_khz: u64,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Shared last-level cache geometry (one instance per socket).
    pub llc: CacheConfig,
    /// Hierarchy latencies.
    pub latency: LatencyConfig,
}

impl MachineConfig {
    /// The paper's experimental machine (Table 1): one socket, four cores,
    /// 32 KB + 32 KB 8-way L1, 256 KB 8-way L2, 10 MB 20-way LLC, 2.8 GHz.
    pub fn paper_machine() -> Self {
        MachineConfig {
            sockets: 1,
            cores_per_socket: 4,
            freq_khz: 2_800_000,
            l1d: CacheConfig::new(32 * 1024, 8, 64),
            l1i: CacheConfig::new(32 * 1024, 8, 64),
            l2: CacheConfig::new(256 * 1024, 8, 64),
            llc: CacheConfig::new(10 * 1024 * 1024, 20, 64),
            latency: LatencyConfig::default(),
        }
    }

    /// The two-socket NUMA machine (PowerEdge R420) used for the
    /// socket-dedication overhead experiment of Fig. 9.
    pub fn paper_numa_machine() -> Self {
        MachineConfig {
            sockets: 2,
            ..Self::paper_machine()
        }
    }

    /// A scaled-down version of [`MachineConfig::paper_machine`]: cache
    /// capacities and frequency divided by `factor`.
    ///
    /// Contention is a function of the ratio between working-set sizes and
    /// cache capacity, so scaling both by the same factor (workloads are
    /// scaled in `kyoto-workloads`) preserves the phenomena of every figure
    /// while letting experiments run in milliseconds of wall-clock time.
    pub fn scaled_paper_machine(factor: u64) -> Self {
        Self::paper_machine().scaled(factor)
    }

    /// A scaled-down version of [`MachineConfig::paper_numa_machine`].
    pub fn scaled_paper_numa_machine(factor: u64) -> Self {
        Self::paper_numa_machine().scaled(factor)
    }

    /// A cloud-scale consolidation machine: the paper's per-socket geometry
    /// (Table 1 caches, four cores, one NUMA node per socket) replicated
    /// across `sockets` sockets. This is the machine the cloudscale scenario
    /// sweeps — consolidator-style fan-out across many sockets rather than
    /// the paper's single testbed box.
    pub fn cloud_machine(sockets: usize) -> Self {
        Self::paper_machine().with_sockets(sockets)
    }

    /// A scaled-down version of [`MachineConfig::cloud_machine`].
    pub fn scaled_cloud_machine(sockets: usize, factor: u64) -> Self {
        Self::cloud_machine(sockets).scaled(factor)
    }

    /// Replaces the socket count, keeping the per-socket geometry.
    pub fn with_sockets(mut self, sockets: usize) -> Self {
        self.sockets = sockets.max(1);
        self
    }

    /// Replaces the per-socket core count, keeping everything else.
    pub fn with_cores_per_socket(mut self, cores: usize) -> Self {
        self.cores_per_socket = cores.max(1);
        self
    }

    /// Divides cache capacities and frequency by `factor`.
    pub fn scaled(&self, factor: u64) -> Self {
        let factor = factor.max(1);
        MachineConfig {
            sockets: self.sockets,
            cores_per_socket: self.cores_per_socket,
            freq_khz: (self.freq_khz / factor).max(1_000),
            l1d: self.l1d.scaled(factor),
            l1i: self.l1i.scaled(factor),
            l2: self.l2.scaled(factor),
            llc: self.llc.scaled(factor),
            latency: self.latency,
        }
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.sockets * self.cores_per_socket
    }

    /// The global id of core `index` of `socket`, or `None` when either
    /// index is out of range. Inverse of [`MachineConfig::socket_of_core`]:
    /// placement policies use the pair to convert between the
    /// (socket, core-within-socket) coordinates they reason in and the
    /// global core ids the scheduler pins vCPUs to.
    pub fn core_on(&self, socket: SocketId, index: usize) -> Option<CoreId> {
        (socket.0 < self.sockets && index < self.cores_per_socket)
            .then(|| CoreId(socket.0 * self.cores_per_socket + index))
    }

    /// The socket a global core id belongs to, or `None` when out of range.
    pub fn socket_of_core(&self, core: CoreId) -> Option<SocketId> {
        (core.0 < self.num_cores()).then(|| SocketId(core.0 / self.cores_per_socket))
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMachineConfig`] when the machine has no
    /// cores or a zero frequency, and [`SimError::InvalidCacheConfig`] when
    /// any cache geometry is invalid.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.sockets == 0 || self.cores_per_socket == 0 {
            return Err(SimError::InvalidMachineConfig {
                reason: "machine must have at least one socket and one core per socket".into(),
            });
        }
        if self.freq_khz == 0 {
            return Err(SimError::InvalidMachineConfig {
                reason: "core frequency must be non-zero".into(),
            });
        }
        self.l1d.num_sets()?;
        self.l1i.num_sets()?;
        self.l2.num_sets()?;
        self.llc.num_sets()?;
        Ok(())
    }
}

/// A pre-resolved access path for one slot: socket and core indices plus
/// the remote-on-miss decision, computed once per scheduling quantum
/// instead of once per memory access (see [`Machine::route`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessRoute {
    socket: usize,
    core_idx: usize,
    remote_on_miss: bool,
}

impl AccessRoute {
    /// Index of the socket this route resolves to. The engine's batched
    /// body uses it to partition a batch into socket components.
    pub fn socket_index(&self) -> usize {
        self.socket
    }
}

/// One socket: a shared LLC plus the private caches of its cores.
#[derive(Debug, Clone)]
pub struct Socket {
    id: SocketId,
    llc: Cache,
    cores: Vec<CoreCaches>,
}

impl Socket {
    /// The socket id.
    pub fn id(&self) -> SocketId {
        self.id
    }

    /// The one canonical body of a routed access: walk the private caches
    /// and the shared LLC, apply the route's remote-on-miss decision, charge
    /// the level's latency. [`Machine::access_routed`], [`Machine::access`]
    /// and [`SocketView::access_routed`] all delegate here, so the serial
    /// and socket-parallel engine paths cannot drift apart.
    #[inline]
    fn walk_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
        latency: &LatencyConfig,
    ) -> AccessOutcome {
        debug_assert_eq!(
            route.socket, self.id.0,
            "route resolved for a different socket"
        );
        let (level, polluted) = self.cores[route.core_idx].walk(&mut self.llc, addr, kind, owner);
        let level = if level == MemLevel::LocalMemory && route.remote_on_miss {
            MemLevel::RemoteMemory
        } else {
            level
        };
        AccessOutcome {
            level,
            latency: latency.of(level),
            polluted_llc: polluted,
        }
    }

    /// Statistics of the shared LLC.
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Immutable view of the shared LLC.
    pub fn llc(&self) -> &Cache {
        &self.llc
    }
}

/// A simulated physical machine.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    sockets: Vec<Socket>,
}

impl Machine {
    /// Builds the machine described by `config`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid; use
    /// [`Machine::try_new`] to handle invalid configurations gracefully.
    pub fn new(config: MachineConfig) -> Self {
        Self::try_new(config).expect("invalid machine configuration")
    }

    /// Builds the machine described by `config`.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`SimError`] if the configuration is invalid.
    pub fn try_new(config: MachineConfig) -> Result<Self, SimError> {
        config.validate()?;
        let mut sockets = Vec::with_capacity(config.sockets);
        for s in 0..config.sockets {
            let mut cores = Vec::with_capacity(config.cores_per_socket);
            for _ in 0..config.cores_per_socket {
                cores.push(CoreCaches::new(
                    config.l1d.clone(),
                    config.l1i.clone(),
                    config.l2.clone(),
                )?);
            }
            sockets.push(Socket {
                id: SocketId(s),
                llc: Cache::new(config.llc.clone())?,
                cores,
            });
        }
        Ok(Machine { config, sockets })
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Total number of cores.
    pub fn num_cores(&self) -> usize {
        self.config.num_cores()
    }

    /// Number of sockets.
    pub fn num_sockets(&self) -> usize {
        self.config.sockets
    }

    /// All core ids of the machine.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.num_cores()).map(CoreId)
    }

    /// Core ids belonging to `socket`.
    pub fn cores_of_socket(&self, socket: SocketId) -> Vec<CoreId> {
        let per = self.config.cores_per_socket;
        (0..per).map(|c| CoreId(socket.0 * per + c)).collect()
    }

    /// The socket a core belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for out-of-range cores.
    pub fn socket_of(&self, core: CoreId) -> Result<SocketId, SimError> {
        if core.0 >= self.num_cores() {
            return Err(SimError::UnknownCore { core: core.0 });
        }
        Ok(SocketId(core.0 / self.config.cores_per_socket))
    }

    /// The NUMA node local to a core (nodes map 1:1 to sockets).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for out-of-range cores.
    pub fn numa_node_of(&self, core: CoreId) -> Result<NumaNode, SimError> {
        Ok(NumaNode(self.socket_of(core)?.0))
    }

    /// Immutable view of a socket.
    pub fn socket(&self, socket: SocketId) -> Option<&Socket> {
        self.sockets.get(socket.0)
    }

    /// LLC statistics of a socket.
    pub fn llc_stats(&self, socket: SocketId) -> Option<CacheStats> {
        self.sockets.get(socket.0).map(|s| s.llc.stats())
    }

    /// Number of LLC lines currently owned by `owner` on `socket`.
    pub fn llc_occupancy_of(&self, socket: SocketId, owner: OwnerId) -> u64 {
        self.sockets
            .get(socket.0)
            .map(|s| s.llc.occupancy_of(owner))
            .unwrap_or(0)
    }

    /// Resolves the access route of a slot — socket index, core index
    /// within the socket, and whether LLC misses pay the remote latency —
    /// so the engine's per-op loop can skip the core-to-socket division and
    /// NUMA comparison (see [`Machine::access_routed`]).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for out-of-range cores.
    pub fn route(
        &self,
        core: CoreId,
        data_node: NumaNode,
        force_remote: bool,
    ) -> Result<AccessRoute, SimError> {
        let socket = self.socket_of(core)?;
        Ok(AccessRoute {
            socket: socket.0,
            core_idx: core.0 % self.config.cores_per_socket,
            remote_on_miss: force_remote || data_node.0 != socket.0,
        })
    }

    /// Performs a memory access along a pre-resolved route. Semantically
    /// identical to [`Machine::access`] with the route's core and placement,
    /// minus the per-access resolution work and the address check: `addr`
    /// must be below `2^`[`ADDR_BITS`] (the engine checks before calling).
    #[inline]
    pub fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        self.sockets[route.socket].walk_routed(route, addr, kind, owner, &self.config.latency)
    }

    /// Performs a memory access from `core`.
    ///
    /// `data_node` is the NUMA node holding the data: if it differs from the
    /// core's node (or `force_remote` is set, modelling a vCPU migrated away
    /// from its memory by the socket-dedication monitor), LLC misses pay the
    /// remote-memory latency.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownCore`] for out-of-range cores and
    /// [`SimError::AddressOutOfRange`] for an address at or above
    /// `2^`[`ADDR_BITS`].
    pub fn access(
        &mut self,
        core: CoreId,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
        data_node: NumaNode,
        force_remote: bool,
    ) -> Result<AccessOutcome, SimError> {
        if addr >> ADDR_BITS != 0 {
            return Err(SimError::AddressOutOfRange { addr });
        }
        let route = self.route(core, data_node, force_remote)?;
        Ok(self.access_routed(route, addr, kind, owner))
    }

    /// Pre-sizes per-owner counters of every cache on the machine for
    /// `owner`, keeping table growth off the access hot path (called when a
    /// VM is created; see [`Cache::register_owner`]).
    pub fn register_owner(&mut self, owner: OwnerId) {
        for socket in &mut self.sockets {
            socket.llc.register_owner(owner);
            for core in &mut socket.cores {
                core.register_owner(owner);
            }
        }
    }

    /// Flushes every cache line owned by `owner` on the whole machine
    /// (called when a VM is destroyed or extracted for migration). Returns
    /// the total number of lines invalidated across every cache level — the
    /// warm state the owner would have to rebuild.
    pub fn flush_owner(&mut self, owner: OwnerId) -> u64 {
        let mut flushed = 0u64;
        for socket in &mut self.sockets {
            flushed += socket.llc.flush_owner(owner);
            for core in &mut socket.cores {
                flushed += core.flush_owner(owner);
            }
        }
        flushed
    }

    /// Resets the statistics of every cache.
    pub fn reset_stats(&mut self) {
        for socket in &mut self.sockets {
            socket.llc.reset_stats();
            for core in &mut socket.cores {
                core.reset_stats();
            }
        }
    }

    /// Splits the machine into independently mutable per-socket views, one
    /// per socket, in socket-id order.
    ///
    /// Sockets share no cache state — each owns its LLC and the private
    /// caches of its cores — so the views can be handed to different threads
    /// and driven concurrently (the engine's socket-parallel path does
    /// exactly that). Each [`SocketView`] carries a copy of the latency
    /// table so it can serve [`SocketView::access_routed`] without touching
    /// the shared machine.
    pub fn sockets_mut(&mut self) -> impl Iterator<Item = SocketView<'_>> {
        let latency = self.config.latency;
        self.sockets
            .iter_mut()
            .map(move |socket| SocketView { socket, latency })
    }
}

/// An exclusively borrowed view of one socket: the split-borrow handle
/// produced by [`Machine::sockets_mut`].
///
/// A view can perform routed memory accesses against its own socket only;
/// routes resolved for another socket are a programming error (checked by a
/// debug assertion).
#[derive(Debug)]
pub struct SocketView<'a> {
    socket: &'a mut Socket,
    latency: LatencyConfig,
}

impl SocketView<'_> {
    /// The id of the viewed socket.
    pub fn id(&self) -> SocketId {
        self.socket.id
    }

    /// Performs a memory access along a pre-resolved route, exactly like
    /// [`Machine::access_routed`] restricted to this socket (both delegate
    /// to the same private `Socket::walk_routed` body, so the engine's
    /// inline and threaded execution cannot drift apart).
    ///
    /// Routes resolved for another socket are a programming error (checked
    /// by a debug assertion).
    #[inline]
    pub fn access_routed(
        &mut self,
        route: AccessRoute,
        addr: u64,
        kind: AccessKind,
        owner: OwnerId,
    ) -> AccessOutcome {
        self.socket
            .walk_routed(route, addr, kind, owner, &self.latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_matches_table_1() {
        let config = MachineConfig::paper_machine();
        assert_eq!(config.sockets, 1);
        assert_eq!(config.cores_per_socket, 4);
        assert_eq!(config.freq_khz, 2_800_000);
        assert_eq!(config.l1d.size_bytes, 32 * 1024);
        assert_eq!(config.l1d.ways, 8);
        assert_eq!(config.l2.size_bytes, 256 * 1024);
        assert_eq!(config.l2.ways, 8);
        assert_eq!(config.llc.size_bytes, 10 * 1024 * 1024);
        assert_eq!(config.llc.ways, 20);
        assert_eq!(config.latency, LatencyConfig::default());
        config.validate().unwrap();
    }

    #[test]
    fn numa_machine_has_two_sockets() {
        let machine = Machine::new(MachineConfig::scaled_paper_numa_machine(32));
        assert_eq!(machine.num_sockets(), 2);
        assert_eq!(machine.num_cores(), 8);
        assert_eq!(machine.socket_of(CoreId(0)).unwrap(), SocketId(0));
        assert_eq!(machine.socket_of(CoreId(4)).unwrap(), SocketId(1));
        assert_eq!(machine.numa_node_of(CoreId(7)).unwrap(), NumaNode(1));
    }

    #[test]
    fn unknown_core_is_an_error() {
        let machine = Machine::new(MachineConfig::scaled_paper_machine(32));
        assert!(machine.socket_of(CoreId(99)).is_err());
    }

    #[test]
    fn addresses_wider_than_addr_bits_are_an_error() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_machine(32));
        let mut access =
            |addr| machine.access(CoreId(0), addr, AccessKind::Load, 1, NumaNode(0), false);
        assert_eq!(
            access(1 << ADDR_BITS),
            Err(SimError::AddressOutOfRange {
                addr: 1 << ADDR_BITS
            })
        );
        assert_eq!(
            access(u64::MAX),
            Err(SimError::AddressOutOfRange { addr: u64::MAX })
        );
        assert!(access((1 << ADDR_BITS) - 1).is_ok());
    }

    #[test]
    fn scaled_machine_preserves_topology_and_shrinks_caches() {
        let full = MachineConfig::paper_machine();
        let scaled = MachineConfig::scaled_paper_machine(16);
        assert_eq!(scaled.num_cores(), full.num_cores());
        assert_eq!(scaled.llc.size_bytes, full.llc.size_bytes / 16);
        assert_eq!(scaled.llc.ways, full.llc.ways);
        assert_eq!(scaled.freq_khz, full.freq_khz / 16);
        scaled.validate().unwrap();
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = MachineConfig::paper_machine();
        config.sockets = 0;
        assert!(config.validate().is_err());
        let mut config = MachineConfig::paper_machine();
        config.freq_khz = 0;
        assert!(config.validate().is_err());
        let mut config = MachineConfig::paper_machine();
        config.llc.ways = 0;
        assert!(Machine::try_new(config).is_err());
    }

    #[test]
    fn local_and_remote_access_latencies() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_numa_machine(32));
        let out = machine
            .access(CoreId(0), 0x10_000, AccessKind::Load, 1, NumaNode(0), false)
            .unwrap();
        assert_eq!(out.level, MemLevel::LocalMemory);
        assert_eq!(out.latency, 180);
        let out = machine
            .access(CoreId(0), 0x20_000, AccessKind::Load, 1, NumaNode(1), false)
            .unwrap();
        assert_eq!(out.level, MemLevel::RemoteMemory);
        assert_eq!(out.latency, 300);
    }

    #[test]
    fn force_remote_overrides_local_placement() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_numa_machine(32));
        let out = machine
            .access(CoreId(0), 0x30_000, AccessKind::Load, 1, NumaNode(0), true)
            .unwrap();
        assert_eq!(out.level, MemLevel::RemoteMemory);
    }

    #[test]
    fn cache_hits_are_never_remote() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_numa_machine(32));
        machine
            .access(CoreId(0), 0x40_000, AccessKind::Load, 1, NumaNode(1), false)
            .unwrap();
        let out = machine
            .access(CoreId(0), 0x40_000, AccessKind::Load, 1, NumaNode(1), false)
            .unwrap();
        assert_eq!(out.level, MemLevel::L1);
        assert_eq!(out.latency, 4);
    }

    #[test]
    fn cores_on_same_socket_share_the_llc() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_machine(32));
        machine
            .access(CoreId(0), 0x50_000, AccessKind::Load, 1, NumaNode(0), false)
            .unwrap();
        // Core 1 misses its private caches but hits the LLC warmed by core 0.
        let out = machine
            .access(CoreId(1), 0x50_000, AccessKind::Load, 1, NumaNode(0), false)
            .unwrap();
        assert_eq!(out.level, MemLevel::Llc);
    }

    #[test]
    fn cores_on_different_sockets_do_not_share_the_llc() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_numa_machine(32));
        machine
            .access(CoreId(0), 0x60_000, AccessKind::Load, 1, NumaNode(0), false)
            .unwrap();
        let out = machine
            .access(CoreId(4), 0x60_000, AccessKind::Load, 1, NumaNode(0), false)
            .unwrap();
        assert!(out.level.is_llc_miss());
    }

    #[test]
    fn flush_owner_empties_llc_occupancy() {
        let mut machine = Machine::new(MachineConfig::scaled_paper_machine(32));
        for i in 0..64u64 {
            machine
                .access(CoreId(0), i * 64, AccessKind::Load, 3, NumaNode(0), false)
                .unwrap();
        }
        assert!(machine.llc_occupancy_of(SocketId(0), 3) > 0);
        machine.flush_owner(3);
        assert_eq!(machine.llc_occupancy_of(SocketId(0), 3), 0);
    }

    #[test]
    fn socket_views_access_their_own_socket_like_the_machine() {
        let config = MachineConfig::scaled_paper_numa_machine(32);
        let mut direct = Machine::new(config.clone());
        let mut split = Machine::new(config);
        // Same access stream through `access_routed` on the machine and
        // through the per-socket views: identical outcomes and LLC stats.
        let accesses: Vec<(CoreId, u64)> = (0..64u64)
            .map(|i| (CoreId((i % 8) as usize), i * 256))
            .collect();
        let mut direct_outcomes = Vec::new();
        for &(core, addr) in &accesses {
            let route = direct.route(core, NumaNode(0), false).unwrap();
            direct_outcomes.push(direct.access_routed(route, addr, AccessKind::Load, 1));
        }
        let routes: Vec<AccessRoute> = accesses
            .iter()
            .map(|&(core, _)| split.route(core, NumaNode(0), false).unwrap())
            .collect();
        let mut split_outcomes = vec![None; accesses.len()];
        let mut views: Vec<SocketView<'_>> = split.sockets_mut().collect();
        for (i, (&(_, addr), route)) in accesses.iter().zip(&routes).enumerate() {
            split_outcomes[i] =
                Some(views[route.socket_index()].access_routed(*route, addr, AccessKind::Load, 1));
        }
        assert_eq!(views[0].id(), SocketId(0));
        assert_eq!(views[1].id(), SocketId(1));
        drop(views);
        let split_outcomes: Vec<AccessOutcome> =
            split_outcomes.into_iter().map(Option::unwrap).collect();
        assert_eq!(direct_outcomes, split_outcomes);
        assert_eq!(
            direct.llc_stats(SocketId(0)).unwrap(),
            split.llc_stats(SocketId(0)).unwrap()
        );
        assert_eq!(
            direct.llc_stats(SocketId(1)).unwrap(),
            split.llc_stats(SocketId(1)).unwrap()
        );
    }

    #[test]
    fn cloud_machine_replicates_the_paper_socket() {
        for sockets in [1usize, 2, 4, 8, 16] {
            let config = MachineConfig::scaled_cloud_machine(sockets, 64);
            assert_eq!(config.sockets, sockets);
            assert_eq!(config.cores_per_socket, 4);
            assert_eq!(config.num_cores(), sockets * 4);
            assert_eq!(
                config.llc.size_bytes,
                MachineConfig::scaled_paper_machine(64).llc.size_bytes
            );
            config.validate().unwrap();
            let machine = Machine::new(config);
            assert_eq!(machine.num_sockets(), sockets);
        }
        // with_sockets/with_cores_per_socket clamp to at least one.
        let config = MachineConfig::paper_machine()
            .with_sockets(0)
            .with_cores_per_socket(0);
        assert_eq!(config.sockets, 1);
        assert_eq!(config.cores_per_socket, 1);
    }

    #[test]
    fn core_and_socket_coordinates_round_trip() {
        let config = MachineConfig::cloud_machine(4);
        for s in 0..4 {
            for c in 0..config.cores_per_socket {
                let core = config.core_on(SocketId(s), c).unwrap();
                assert_eq!(config.socket_of_core(core), Some(SocketId(s)));
            }
        }
        assert_eq!(config.core_on(SocketId(4), 0), None);
        assert_eq!(config.core_on(SocketId(0), config.cores_per_socket), None);
        assert_eq!(config.socket_of_core(CoreId(config.num_cores())), None);
    }

    #[test]
    fn cores_of_socket_partition_all_cores() {
        let machine = Machine::new(MachineConfig::scaled_paper_numa_machine(32));
        let s0 = machine.cores_of_socket(SocketId(0));
        let s1 = machine.cores_of_socket(SocketId(1));
        assert_eq!(s0.len() + s1.len(), machine.num_cores());
        assert!(s0.iter().all(|c| !s1.contains(c)));
    }
}
