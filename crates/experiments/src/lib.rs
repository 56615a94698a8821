//! # kyoto-experiments — scenario builders for every table and figure
//!
//! Each module of this crate reproduces one table or figure of the paper
//! ("Mitigating performance unpredictability in the IaaS using the Kyoto
//! principle", Middleware 2016) as a pure function from an
//! [`config::ExperimentConfig`] to a serialisable result type with a
//! `to_table()` renderer:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`tables`] | Table 1 (machine) and Table 2 (experimental VMs) |
//! | [`fig1`] | LLC contention impact per VM category and execution mode |
//! | [`fig2`] | LLC-miss traces of `v2rep` over the first time slices |
//! | [`fig3`] | Degradation vs the disruptor's computing capacity |
//! | [`fig4`] | Equation 1 vs LLCM aggressiveness ranking (Kendall's tau) |
//! | [`fig5`] | KS4Xen effectiveness (normalised perf, punishments, traces) |
//! | [`fig6`] | KS4Xen scalability with 1–15 co-located disruptor vCPUs |
//! | [`fig8`] | Pisces vs KS4Pisces execution times |
//! | [`fig9`] | Socket-dedication migration overhead per application |
//! | [`fig10`] | Cases where vCPU isolation can be skipped |
//! | [`fig11`] | Equation-1 values with vs without socket dedication |
//! | [`fig12`] | KS4Xen overhead vs the scheduling time slice |
//!
//! Beyond the paper, [`cloudscale`] models a cloud-scale consolidation
//! machine (N sockets, dozens of VMs, placement policies) — the first
//! scenario whose socket-parallel execution scales past two threads —
//! [`fleet`] models a whole cluster of such machines under a live-migrating
//! control plane (`kyoto-cluster`), comparing load-balancing, bin-packing
//! and pollution-aware consolidation, [`failures`] drives that fleet
//! through injected faults (cell crashes, slowdowns, mid-migration
//! aborts), sweeping crash rate × policy × planner mode and re-proving VM
//! conservation at scenario scale, and [`service`] puts the
//! `kyoto-service` control plane in front of the fleet — replaying a
//! request trace through the SLA-aware admission controller over an
//! arrival-rate × admission-policy sweep, mid-trace checkpoint/restore
//! included. [`trace`] maps every one of those targets to a
//! representative cycle-domain traced run (`kyoto-trace`), backing
//! `figures --trace-out <path>`.
//!
//! (Fig. 7 is the Pisces architecture diagram; its description lives in
//! `kyoto_hypervisor::pisces`.)
//!
//! The same functions back the `figures` binary of `kyoto-bench`, the
//! integration tests and the examples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cloudscale;
pub mod config;
pub mod failures;
pub mod fig1;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig8;
pub mod fig9;
pub mod fleet;
pub mod harness;
pub mod interactive;
pub mod service;
pub mod tables;
pub mod trace;

pub use config::{ExperimentConfig, Fidelity};
pub use harness::{
    calibrate_permits, warmup_and_measure, ExecutionMode, Measurement, PermitCalibration,
};
