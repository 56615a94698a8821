//! # kyoto-sim — micro-architectural substrate for the Kyoto reproduction
//!
//! This crate provides the hardware model on which the rest of the Kyoto
//! stack runs. The original paper ("Mitigating performance unpredictability
//! in the IaaS using the Kyoto principle", Middleware 2016) evaluates on a
//! real Intel Xeon E5-1603 v3 machine and reads hardware performance
//! monitoring counters (PMCs) through `perfctr-xen`. Neither is available to
//! a pure-Rust library, so this crate supplies the closest synthetic
//! equivalent:
//!
//! * [`cache`] — set-associative LRU caches with per-owner occupancy
//!   accounting.
//! * [`hierarchy`] — the private L1D/L1I/L2 + shared LLC cache hierarchy of
//!   the paper's testbed (Table 1).
//! * [`topology`] — machine, socket, core and NUMA-node model, including the
//!   exact geometry and latencies of the paper's machines.
//! * [`pmc`] — the performance-counter snapshot read per vCPU (the
//!   `perfctr-xen` stand-in).
//! * [`workload`] — the [`workload::Workload`] trait that memory-access
//!   generators implement (implementations live in `kyoto-workloads`);
//!   every workload is `Clone`, execution progress included.
//! * [`engine`] — a deterministic, time-stepped engine that interleaves the
//!   access streams of co-scheduled virtual CPUs over the shared LLC.
//! * [`shadow`] — per-owner shadow LLC used for simulator-based pollution
//!   attribution (the McSimA+ stand-in of Section 3.3 of the paper).
//!
//! # Example
//!
//! ```
//! use kyoto_sim::topology::{Machine, MachineConfig};
//! use kyoto_sim::engine::{ExecSlot, SimEngine};
//! use kyoto_sim::workload::{Op, Workload};
//!
//! /// A trivial workload touching a single cache line repeatedly.
//! #[derive(Clone)]
//! struct OneLine;
//! impl Workload for OneLine {
//!     fn next_op(&mut self) -> Op {
//!         Op::Load { addr: 0x1000 }
//!     }
//!     fn name(&self) -> &str {
//!         "one-line"
//!     }
//!     fn working_set_bytes(&self) -> u64 {
//!         64
//!     }
//! }
//!
//! let machine = Machine::new(MachineConfig::scaled_paper_machine(16));
//! let mut engine = SimEngine::new(machine);
//! let mut wl = OneLine;
//! let mut slot = ExecSlot::new(kyoto_sim::topology::CoreId(0), 0, &mut wl);
//! engine.run_slots(std::slice::from_mut(&mut slot), 10_000);
//! assert!(slot.pmcs.instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod error;
pub mod hierarchy;
pub mod pmc;
pub mod shadow;
pub mod topology;
pub mod workload;

pub use cache::{Cache, CacheConfig, CacheStats};
pub use engine::{ExecSlot, QuantumReport, SimEngine};
pub use error::SimError;
pub use hierarchy::{AccessKind, AccessOutcome, MemLevel};
pub use pmc::PmcSet;
pub use topology::{CoreId, Machine, MachineConfig, NumaNode, SocketId};
pub use workload::{Op, Workload};
