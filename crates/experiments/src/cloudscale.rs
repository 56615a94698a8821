//! Cloud-scale consolidation scenario: many VMs across an N-socket machine.
//!
//! Every figure of the paper runs the single-socket testbed (plus the
//! two-socket PowerEdge for Fig. 9), so the socket-parallel engine never
//! shows up in shipped output. This scenario models the regime that sizes
//! consolidator middleware — dozens of VMs with heterogeneous working sets
//! fanned out across 2–8 sockets — and reports per-socket PMC aggregates for
//! every cell of a socket-count × VM-count sweep, plus a placement-policy
//! comparison at the largest cell.
//!
//! Placement flows through the ordinary machinery: [`place_vms`] produces
//! core pinnings and NUMA nodes, the scheduler's pinning filter keeps each
//! VM on its core, and `Machine::route` charges remote latencies for
//! off-node memory. Nothing here bypasses the hypervisor.
//!
//! The rendered table is *byte-identical* with and without the
//! socket-parallel engine (`--parallel-engine`): `run_slots_parallel`
//! preserves per-socket op order exactly, which `engine_equivalence.rs`
//! proves at 4 and 8 sockets. Wall-clock scaling of the parallel engine is
//! measured separately by the `substrate_baseline` binary of `kyoto-bench`
//! (its `parallel_scaling_curve`, timed around [`run_cell`]), so the
//! deterministic report stays free of timing noise.

use crate::config::ExperimentConfig;
use crate::harness::{calibrate_permits, run_jobs, spec_workload, warmup_and_measure, Measurement};
use kyoto_core::ks4::ks4xen_hypervisor;
use kyoto_core::monitor::MonitoringStrategy;
use kyoto_hypervisor::placement::{place_vms, Placement, PlacementPolicy};
use kyoto_hypervisor::vm::VmConfig;
use kyoto_hypervisor::xen_hypervisor;
use kyoto_sim::workload::Workload;
use kyoto_workloads::spec::SpecApp;
use serde::{Deserialize, Serialize};

/// The heterogeneous application mix cycled across the VMs of a cell:
/// cache-sensitive, streaming/disruptive and compute-bound apps interleaved
/// so every socket hosts a blend of polluters and victims.
pub const APP_MIX: [SpecApp; 8] = [
    SpecApp::Gcc,
    SpecApp::Lbm,
    SpecApp::Hmmer,
    SpecApp::Mcf,
    SpecApp::Milc,
    SpecApp::Bzip,
    SpecApp::Omnetpp,
    SpecApp::Soplex,
];

/// The sweep a cloudscale run covers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CloudscaleSweep {
    /// Socket counts of the machines to build.
    pub socket_counts: Vec<usize>,
    /// VM counts per socket (the cell's VM count is `sockets * this`).
    pub vms_per_socket: Vec<usize>,
    /// Placement policy of the main sweep cells.
    pub placement: PlacementPolicy,
    /// When set, every policy is additionally compared at the largest cell.
    pub compare_policies: bool,
    /// When set, the largest cell is additionally run under KS4Xen with
    /// pollution permits booked for every VM — the Kyoto-on-cloudscale
    /// figure (per-socket punishment aggregates, XCS vs KS4Xen sensitive-VM
    /// comparison).
    pub kyoto: bool,
}

impl CloudscaleSweep {
    /// The standard sweep: 2/4/8 sockets × 2/3 VMs per socket under
    /// round-robin placement, plus a policy comparison at 8 sockets ×
    /// 3 VMs per socket.
    pub fn standard() -> Self {
        CloudscaleSweep {
            socket_counts: vec![2, 4, 8],
            vms_per_socket: vec![2, 3],
            placement: PlacementPolicy::RoundRobin,
            compare_policies: true,
            kyoto: true,
        }
    }

    /// A small sweep for tests and the CI determinism gate: 2/4 sockets,
    /// two VMs per socket, no policy comparison, Kyoto cell included (at 4
    /// sockets).
    pub fn small() -> Self {
        CloudscaleSweep {
            socket_counts: vec![2, 4],
            vms_per_socket: vec![2],
            placement: PlacementPolicy::RoundRobin,
            compare_policies: false,
            kyoto: true,
        }
    }
}

/// PMC aggregates of all VMs placed on one socket, over the measurement
/// window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SocketAggregate {
    /// The socket.
    pub socket: usize,
    /// VMs placed on it.
    pub vms: usize,
    /// Instructions retired by its VMs.
    pub instructions: u64,
    /// Unhalted cycles consumed by its VMs.
    pub cycles: u64,
    /// LLC references of its VMs.
    pub llc_references: u64,
    /// LLC misses of its VMs.
    pub llc_misses: u64,
    /// Remote-memory accesses of its VMs.
    pub remote_accesses: u64,
}

impl SocketAggregate {
    /// Aggregate instructions per cycle of the socket's VMs.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// LLC miss ratio of the socket's VMs.
    pub fn llc_miss_ratio(&self) -> f64 {
        if self.llc_references == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_references as f64
        }
    }
}

/// One cell of the sweep: a machine size, a VM count and a placement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudscaleCell {
    /// Sockets of the machine.
    pub sockets: usize,
    /// VMs consolidated onto it.
    pub vms: usize,
    /// Placement policy used.
    pub placement: PlacementPolicy,
    /// Per-socket aggregates, in socket order (sockets the policy left
    /// empty report zero VMs).
    pub per_socket: Vec<SocketAggregate>,
}

impl CloudscaleCell {
    /// Machine-wide aggregate IPC.
    pub fn aggregate_ipc(&self) -> f64 {
        let instructions: u64 = self.per_socket.iter().map(|s| s.instructions).sum();
        let cycles: u64 = self.per_socket.iter().map(|s| s.cycles).sum();
        if cycles == 0 {
            0.0
        } else {
            instructions as f64 / cycles as f64
        }
    }

    /// Machine-wide instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.per_socket.iter().map(|s| s.instructions).sum()
    }
}

/// Per-socket aggregate of the Kyoto-on-cloudscale run: what KS4Xen's
/// punishment machinery did on each socket of the big machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KyotoSocketAggregate {
    /// The socket.
    pub socket: usize,
    /// VMs placed on it.
    pub vms: usize,
    /// VMs on it that were punished at least once.
    pub punished_vms: usize,
    /// Punishments inflicted on its VMs over the measurement window.
    pub punishments: u64,
    /// LLC misses of its VMs.
    pub llc_misses: u64,
    /// Aggregate IPC of its VMs.
    pub ipc: f64,
}

/// The Kyoto-on-cloudscale figure: KS4Xen with permits across the N-socket
/// machine, against the same placement under plain XCS.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KyotoCloudCell {
    /// Sockets of the machine.
    pub sockets: usize,
    /// VMs consolidated onto it.
    pub vms: usize,
    /// Paper-scale permit (in thousands) booked by every VM.
    pub permit_paper_kilo: f64,
    /// Per-socket punishment aggregates under KS4Xen.
    pub per_socket: Vec<KyotoSocketAggregate>,
    /// Mean IPC of the cache-sensitive VMs under plain XCS.
    pub sensitive_ipc_xcs: f64,
    /// Mean IPC of the cache-sensitive VMs under KS4Xen.
    pub sensitive_ipc_ks4: f64,
}

impl KyotoCloudCell {
    /// Total punishments across every socket.
    pub fn total_punishments(&self) -> u64 {
        self.per_socket.iter().map(|s| s.punishments).sum()
    }

    /// Relative sensitive-VM improvement of KS4Xen over XCS (1.0 = parity).
    pub fn sensitive_speedup(&self) -> f64 {
        if self.sensitive_ipc_xcs <= 0.0 {
            0.0
        } else {
            self.sensitive_ipc_ks4 / self.sensitive_ipc_xcs
        }
    }
}

/// The cloudscale dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CloudscaleResult {
    /// Every cell, in sweep order (socket count outer, VM count inner, then
    /// the policy-comparison cells).
    pub cells: Vec<CloudscaleCell>,
    /// The Kyoto-on-cloudscale figure, when the sweep requested it.
    pub kyoto: Option<KyotoCloudCell>,
}

impl CloudscaleResult {
    /// The cell for a machine size / VM count / placement, if present.
    pub fn cell(
        &self,
        sockets: usize,
        vms: usize,
        placement: PlacementPolicy,
    ) -> Option<&CloudscaleCell> {
        self.cells
            .iter()
            .find(|c| c.sockets == sockets && c.vms == vms && c.placement == placement)
    }

    /// Renders the per-socket aggregate table.
    pub fn to_table(&self) -> String {
        let mut out = String::from(
            "Cloudscale: per-socket PMC aggregates across the socket-count x VM-count sweep\n",
        );
        for cell in &self.cells {
            out.push_str(&format!(
                "  {} sockets, {} VMs, {:<11}  aggregate IPC {:.3}\n",
                cell.sockets,
                cell.vms,
                cell.placement.label(),
                cell.aggregate_ipc()
            ));
            for socket in &cell.per_socket {
                out.push_str(&format!(
                    "    socket{}: {} vms  ipc {:.3}  llc_refs {:>9}  llc_miss {:5.1}%  remote {:>7}\n",
                    socket.socket,
                    socket.vms,
                    socket.ipc(),
                    socket.llc_references,
                    socket.llc_miss_ratio() * 100.0,
                    socket.remote_accesses,
                ));
            }
        }
        if let Some(kyoto) = &self.kyoto {
            out.push_str(&format!(
                "  Kyoto on cloudscale: KS4Xen, {} sockets, {} VMs, {}k permits (sensitive IPC {:.3} -> {:.3}, x{:.2})\n",
                kyoto.sockets,
                kyoto.vms,
                kyoto.permit_paper_kilo,
                kyoto.sensitive_ipc_xcs,
                kyoto.sensitive_ipc_ks4,
                kyoto.sensitive_speedup(),
            ));
            for socket in &kyoto.per_socket {
                out.push_str(&format!(
                    "    socket{}: {} vms ({} punished)  punishments {:>5}  llc_miss {:>8}  ipc {:.3}\n",
                    socket.socket,
                    socket.vms,
                    socket.punished_vms,
                    socket.punishments,
                    socket.llc_misses,
                    socket.ipc,
                ));
            }
        }
        out
    }
}

/// Builds the VM population of a cell: `vms` single-vCPU VMs cycling through
/// [`APP_MIX`], with per-VM seeds derived from the experiment seed.
fn build_workloads(config: &ExperimentConfig, vms: usize) -> Vec<(SpecApp, Box<dyn Workload>)> {
    (0..vms)
        .map(|i| {
            let app = APP_MIX[i % APP_MIX.len()];
            (app, spec_workload(config, app, 0xc10d + i as u64))
        })
        .collect()
}

/// Runs one cell: build the N-socket machine, place the VMs, run
/// warm-up + measurement, and aggregate PMCs per socket.
pub fn run_cell(
    config: &ExperimentConfig,
    sockets: usize,
    vms: usize,
    placement: PlacementPolicy,
) -> CloudscaleCell {
    let machine_config = config.cloud_machine_config(sockets);
    let workloads = build_workloads(config, vms);
    let working_sets: Vec<u64> = workloads
        .iter()
        .map(|(_, workload)| workload.working_set_bytes())
        .collect();
    let placements: Vec<Placement> = place_vms(placement, &machine_config, &working_sets);
    let mut hv = xen_hypervisor(config.cloud_machine(sockets), config.hypervisor_config());
    for (i, ((app, workload), vm_placement)) in workloads.into_iter().zip(&placements).enumerate() {
        let vm_config = vm_placement.apply(VmConfig::new(format!("vm{i}-{}", app.name())));
        hv.add_vm_with(vm_config, workload).expect("valid VM");
    }
    let measurements = warmup_and_measure(&mut hv, config);
    CloudscaleCell {
        sockets,
        vms,
        placement,
        per_socket: aggregate_by_socket(sockets, &placements, &measurements),
    }
}

fn aggregate_by_socket(
    sockets: usize,
    placements: &[Placement],
    measurements: &[Measurement],
) -> Vec<SocketAggregate> {
    let mut per_socket: Vec<SocketAggregate> = (0..sockets)
        .map(|socket| SocketAggregate {
            socket,
            vms: 0,
            instructions: 0,
            cycles: 0,
            llc_references: 0,
            llc_misses: 0,
            remote_accesses: 0,
        })
        .collect();
    for (placement, measurement) in placements.iter().zip(measurements) {
        let aggregate = &mut per_socket[placement.socket.0];
        aggregate.vms += 1;
        aggregate.instructions += measurement.pmc_delta.instructions;
        aggregate.cycles += measurement.pmc_delta.unhalted_core_cycles;
        aggregate.llc_references += measurement.pmc_delta.llc_references;
        aggregate.llc_misses += measurement.pmc_delta.llc_misses;
        aggregate.remote_accesses += measurement.pmc_delta.remote_accesses;
    }
    per_socket
}

/// Paper-scale permit (in thousands) booked by every VM of the
/// Kyoto-on-cloudscale cell — the `250k` of the paper's Fig. 5.
pub const KYOTO_PERMIT_PAPER_KILO: f64 = 250.0;

/// Runs the Kyoto-on-cloudscale cell: the same VM population and placement
/// executed twice on the N-socket machine — once under plain XCS, once under
/// KS4Xen with every VM booking a pollution permit — reporting per-socket
/// punishment aggregates and the sensitive-VM IPC comparison. This is the
/// punishment mechanism exercised at fan-out scale.
pub fn run_kyoto_cell(
    config: &ExperimentConfig,
    sockets: usize,
    vms: usize,
    placement: PlacementPolicy,
) -> KyotoCloudCell {
    let calibration = calibrate_permits(config);
    let permit = calibration.paper_kilo(KYOTO_PERMIT_PAPER_KILO);
    let machine_config = config.cloud_machine_config(sockets);
    let apps: Vec<SpecApp> = (0..vms).map(|i| APP_MIX[i % APP_MIX.len()]).collect();
    let working_sets: Vec<u64> = build_workloads(config, vms)
        .iter()
        .map(|(_, workload)| workload.working_set_bytes())
        .collect();
    let placements = place_vms(placement, &machine_config, &working_sets);

    let run = |with_permits: bool| -> Vec<Measurement> {
        let workloads = build_workloads(config, vms);
        if with_permits {
            let mut hv = ks4xen_hypervisor(
                config.cloud_machine(sockets),
                config.hypervisor_config(),
                MonitoringStrategy::DirectPmc,
            );
            for (i, ((app, workload), vm_placement)) in
                workloads.into_iter().zip(&placements).enumerate()
            {
                let vm_config = vm_placement
                    .apply(VmConfig::new(format!("vm{i}-{}", app.name())))
                    .with_llc_cap(permit);
                hv.add_vm_with(vm_config, workload).expect("valid VM");
            }
            warmup_and_measure(&mut hv, config)
        } else {
            let mut hv = xen_hypervisor(config.cloud_machine(sockets), config.hypervisor_config());
            for (i, ((app, workload), vm_placement)) in
                workloads.into_iter().zip(&placements).enumerate()
            {
                let vm_config = vm_placement.apply(VmConfig::new(format!("vm{i}-{}", app.name())));
                hv.add_vm_with(vm_config, workload).expect("valid VM");
            }
            warmup_and_measure(&mut hv, config)
        }
    };
    let xcs = run(false);
    let ks4 = run(true);

    let sensitive_mean = |measurements: &[Measurement]| -> f64 {
        let sensitive: Vec<f64> = measurements
            .iter()
            .zip(&apps)
            .filter(|(_, app)| SpecApp::SENSITIVE_VMS.contains(app))
            .map(|(m, _)| m.ipc())
            .collect();
        if sensitive.is_empty() {
            0.0
        } else {
            sensitive.iter().sum::<f64>() / sensitive.len() as f64
        }
    };

    let mut per_socket: Vec<KyotoSocketAggregate> = (0..sockets)
        .map(|socket| KyotoSocketAggregate {
            socket,
            vms: 0,
            punished_vms: 0,
            punishments: 0,
            llc_misses: 0,
            ipc: 0.0,
        })
        .collect();
    let mut cycles = vec![0u64; sockets];
    let mut instructions = vec![0u64; sockets];
    for (placement, measurement) in placements.iter().zip(&ks4) {
        let aggregate = &mut per_socket[placement.socket.0];
        aggregate.vms += 1;
        if measurement.punishments > 0 {
            aggregate.punished_vms += 1;
        }
        aggregate.punishments += measurement.punishments;
        aggregate.llc_misses += measurement.pmc_delta.llc_misses;
        instructions[placement.socket.0] += measurement.pmc_delta.instructions;
        cycles[placement.socket.0] += measurement.pmc_delta.unhalted_core_cycles;
    }
    for (socket, aggregate) in per_socket.iter_mut().enumerate() {
        aggregate.ipc = if cycles[socket] == 0 {
            0.0
        } else {
            instructions[socket] as f64 / cycles[socket] as f64
        };
    }
    KyotoCloudCell {
        sockets,
        vms,
        permit_paper_kilo: KYOTO_PERMIT_PAPER_KILO,
        per_socket,
        sensitive_ipc_xcs: sensitive_mean(&xcs),
        sensitive_ipc_ks4: sensitive_mean(&ks4),
    }
}

/// Runs the sweep's independent cells on up to `jobs` scoped worker threads.
/// Every cell owns its machine, hypervisor and workloads and derives its
/// seeds from the shared config, so the assembled result — and therefore the
/// rendered table — is byte-identical whatever the parallelism. This is the
/// same work-stealing shape the `figures` binary uses across scenarios,
/// applied one level down.
fn run_cells(
    config: &ExperimentConfig,
    specs: &[(usize, usize, PlacementPolicy)],
    jobs: usize,
) -> Vec<CloudscaleCell> {
    run_jobs(specs.len(), jobs, |index| {
        let (sockets, vms, placement) = specs[index];
        run_cell(config, sockets, vms, placement)
    })
}

/// Runs the full sweep described by `sweep`, with its independent cells
/// spread over up to `jobs` scoped worker threads (`jobs <= 1` runs
/// serially; the output is byte-identical either way).
pub fn run_with_sweep_jobs(
    config: &ExperimentConfig,
    sweep: &CloudscaleSweep,
    jobs: usize,
) -> CloudscaleResult {
    let mut specs: Vec<(usize, usize, PlacementPolicy)> = Vec::new();
    for &sockets in &sweep.socket_counts {
        for &per_socket in &sweep.vms_per_socket {
            specs.push((sockets, sockets * per_socket, sweep.placement));
        }
    }
    let max_sockets = sweep.socket_counts.iter().copied().max().unwrap_or(2);
    let max_per_socket = sweep.vms_per_socket.iter().copied().max().unwrap_or(2);
    if sweep.compare_policies {
        for policy in PlacementPolicy::ALL {
            if policy == sweep.placement {
                continue; // already covered by the main sweep
            }
            specs.push((max_sockets, max_sockets * max_per_socket, policy));
        }
    }
    let cells = run_cells(config, &specs, jobs);
    let kyoto = sweep.kyoto.then(|| {
        run_kyoto_cell(
            config,
            max_sockets,
            max_sockets * max_per_socket,
            sweep.placement,
        )
    });
    CloudscaleResult { cells, kyoto }
}

/// Runs the full sweep described by `sweep` on the calling thread.
pub fn run_with_sweep(config: &ExperimentConfig, sweep: &CloudscaleSweep) -> CloudscaleResult {
    run_with_sweep_jobs(config, sweep, 1)
}

/// Runs the standard cloudscale sweep.
pub fn run(config: &ExperimentConfig) -> CloudscaleResult {
    run_with_sweep(config, &CloudscaleSweep::standard())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            scale: 256,
            seed: 7,
            warmup_ticks: 2,
            measure_ticks: 5,
            parallel_engine: false,
        }
    }

    #[test]
    fn sweep_covers_every_cell_and_socket() {
        let sweep = CloudscaleSweep::small();
        let result = run_with_sweep(&tiny_config(), &sweep);
        assert_eq!(result.cells.len(), 2);
        let cell = result
            .cell(4, 8, PlacementPolicy::RoundRobin)
            .expect("4-socket cell present");
        assert_eq!(cell.per_socket.len(), 4);
        // Round-robin with 2 VMs per socket populates every socket.
        assert!(cell.per_socket.iter().all(|s| s.vms == 2));
        assert!(cell.total_instructions() > 0);
        assert!(cell.aggregate_ipc() > 0.0);
        let table = result.to_table();
        assert!(table.contains("4 sockets, 8 VMs"));
        assert!(table.contains("socket3"));
    }

    #[test]
    fn parallel_engine_changes_no_cell_output() {
        // The determinism claim of the scenario, at test scale: every cell
        // (and therefore the rendered table) is identical with the serial
        // and the socket-parallel engine.
        let sweep = CloudscaleSweep::small();
        let serial = run_with_sweep(&tiny_config(), &sweep);
        let parallel = run_with_sweep(&tiny_config().with_parallel_engine(true), &sweep);
        assert_eq!(serial, parallel);
        assert_eq!(serial.to_table(), parallel.to_table());
    }

    #[test]
    fn packed_placement_leaves_trailing_sockets_idle() {
        // 4 sockets, 8 VMs packed: sockets 0 and 1 take four VMs each,
        // sockets 2 and 3 stay empty — visible in the per-socket aggregates.
        let cell = run_cell(&tiny_config(), 4, 8, PlacementPolicy::Packed);
        assert_eq!(cell.per_socket[0].vms, 4);
        assert_eq!(cell.per_socket[1].vms, 4);
        assert_eq!(cell.per_socket[2].vms, 0);
        assert_eq!(cell.per_socket[3].vms, 0);
        assert_eq!(cell.per_socket[3].instructions, 0);
    }

    #[test]
    fn numa_aware_placement_keeps_memory_local() {
        let cell = run_cell(&tiny_config(), 2, 6, PlacementPolicy::NumaAware);
        let remote: u64 = cell.per_socket.iter().map(|s| s.remote_accesses).sum();
        assert_eq!(remote, 0, "NUMA-aware placement pins memory locally");
    }

    #[test]
    fn kyoto_cell_punishes_polluters_across_sockets() {
        // KS4Xen with permits on the 4-socket machine: the punishment
        // machinery must fire at fan-out scale, and it must not fire on
        // every socket equally (only sockets hosting polluters pay).
        let cell = run_kyoto_cell(&tiny_config(), 4, 8, PlacementPolicy::RoundRobin);
        assert_eq!(cell.per_socket.len(), 4);
        assert!(cell.per_socket.iter().all(|s| s.vms == 2));
        assert!(
            cell.total_punishments() > 0,
            "permits must bite on the big machine"
        );
        assert!(
            cell.sensitive_ipc_ks4 > 0.0 && cell.sensitive_ipc_xcs > 0.0,
            "both schedulers must run the sensitive VMs"
        );
        assert!(
            cell.sensitive_speedup() >= 1.0,
            "punishing polluters must not hurt the sensitive VMs (XCS {:.3} vs KS4Xen {:.3})",
            cell.sensitive_ipc_xcs,
            cell.sensitive_ipc_ks4
        );
    }

    #[test]
    fn sweep_worker_threads_change_no_bytes() {
        // The `--jobs` satellite claim: sweep cells on scoped worker threads
        // produce the identical result (and table) as the serial sweep.
        let sweep = CloudscaleSweep::small();
        let serial = run_with_sweep_jobs(&tiny_config(), &sweep, 1);
        let threaded = run_with_sweep_jobs(&tiny_config(), &sweep, 4);
        assert_eq!(serial, threaded);
        assert_eq!(serial.to_table(), threaded.to_table());
        assert!(serial.kyoto.is_some(), "small sweep carries the Kyoto cell");
    }
}
