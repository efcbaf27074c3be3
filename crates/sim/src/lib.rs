//! The trace-driven simulator: an interval-style out-of-order core model
//! bound to the full memory/VM substrate, with a dual-threaded SMT mode.
//!
//! ## Timing model
//!
//! The core is a first-order interval model of the 4-wide out-of-order
//! processor in the paper's Table 1:
//!
//! * **Front end.** Instructions fetch in program order, `fetch_width` per
//!   cycle. Crossing into a new cache line pays the I-cache hierarchy
//!   latency beyond an L1I hit; crossing into a new page pays the full
//!   translation path (I-TLB → STLB → PB → demand walk). These charges
//!   *serialize* fetch — precisely the paper's argument for why iSTLB
//!   misses are critical (no out-of-order machinery can hide a front-end
//!   stall).
//! * **Back end.** A `rob_size`-entry reorder buffer of completion times
//!   with `retire_width` in-order retirement. A data access's translation
//!   and cache latency inflate only its own completion time, so
//!   independent long-latency data misses overlap (MLP) and dSTLB misses
//!   are partially hidden — the asymmetry at the heart of the paper.
//! * **Page walks** contend for the shared walker (4 in flight, 1
//!   initiated per cycle); background prefetch walks delay demand walks
//!   when they saturate it.
//!
//! ## SMT mode
//!
//! [`Simulator::new_smt`] colocates two workloads on one core (§5, §6.6):
//! fetch alternates between threads in basic-block-sized chunks, and both
//! threads share the TLBs, PSCs, caches, walker, PB, and the prefetcher's
//! prediction tables (each thread keeps its own previous-miss register
//! inside Morrigan).
//!
//! ## Sampled simulation
//!
//! [`sampling`] adds a SMARTS-style mode (enable with
//! [`Simulator::set_sampling`]): detailed timing runs only on sampled
//! windows and the stream fast-forwards functionally between them, with
//! all translation/cache/prefetcher state staying warm and trained.
//! Miss-derived metrics are measured on every instruction (never
//! extrapolated); cycle-derived metrics are estimated from the detail
//! windows (DESIGN.md §11 documents the error-bound methodology). With
//! sampling off, the run is byte-identical to previous revisions.
//!
//! # Examples
//!
//! ```
//! use morrigan::{Morrigan, MorriganConfig};
//! use morrigan_sim::{SimConfig, Simulator, SystemConfig};
//! use morrigan_workloads::{ServerWorkload, ServerWorkloadConfig};
//!
//! let workload = ServerWorkload::new(ServerWorkloadConfig::qmm_like("demo", 1));
//! let mut sim = Simulator::new(
//!     SystemConfig::default(),
//!     Box::new(workload),
//!     Box::new(Morrigan::new(MorriganConfig::default())),
//! );
//! let metrics = sim.run(SimConfig { warmup_instructions: 20_000, measure_instructions: 50_000 });
//! assert!(metrics.ipc() > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod audit;
mod config;
mod machine;
mod metrics;
pub mod sampling;
mod simulator;

pub use audit::{assert_probe_conservation, audit_metrics, audit_state};
pub use config::{CoreConfig, IcachePrefetcherKind, SimConfig, SystemConfig, TopologyConfig};
pub use machine::{Machine, MachineSummary, INTERLEAVE_QUANTUM};
pub use metrics::{IntervalSample, Metrics};
pub use sampling::SamplingConfig;
pub use simulator::{ElisionCounters, Simulator};
