//! Single-core microarchitecture simulation.
//!
//! This crate is the stand-in for the paper's seven physical machines and
//! Linux `perf`: it executes a synthetic instruction stream (from
//! [`horizon_trace`]) through configurable cache hierarchies, TLBs and branch
//! predictors, and reports hardware-counter-style measurements —
//! MPKI/MPMI metrics, a top-down CPI stack (Figure 1), and RAPL-style power
//! estimates (Figure 12).
//!
//! The seven machine configurations of the paper's Table IV are provided by
//! [`MachineConfig`] constructors; arbitrary configurations can be built for
//! sensitivity studies (Table IX).
//!
//! # Example
//!
//! ```
//! use horizon_trace::WorkloadProfile;
//! use horizon_uarch::{CoreSimulator, MachineConfig};
//!
//! let profile = WorkloadProfile::builder("demo").loads(0.3).build()?;
//! let machine = MachineConfig::skylake_i7_6700();
//! let counters = CoreSimulator::new(&machine).run(&profile, 100_000, 42);
//! assert_eq!(counters.instructions, 100_000);
//! assert!(counters.cpi() > 0.0);
//! # Ok::<(), horizon_trace::ProfileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod branch;
mod cache;
mod counters;
mod fleet;
mod hierarchy;
mod lanes;
mod lru;
mod machine;
mod power;
mod prewarm;
mod simulator;
mod tlb;
mod topdown;

pub use branch::{BranchPredictor, PredictorKind};
pub use cache::{Cache, CacheConfig};
pub use counters::Counters;
pub use fleet::{FleetSimulator, TraceSegment};
pub use hierarchy::{AccessKind, HierarchyConfig, MemoryHierarchy, PrefetchConfig};
pub use machine::{Isa, LatencyModel, MachineConfig};
pub use power::{PowerModel, PowerReport};
pub use prewarm::{prewarm_regions, PrewarmRegion};
pub use simulator::CoreSimulator;
pub use tlb::{Tlb, TlbConfig, TlbHierarchy, TlbHierarchyConfig};
pub use topdown::CpiStack;
