//! # morrigan-suite
//!
//! A from-scratch Rust reproduction of *Morrigan: A Composite Instruction
//! TLB Prefetcher* (Vavouliotis, Alvarez, Grot, Jiménez, Casas — MICRO
//! 2021), including the prefetcher, every baseline it is compared against,
//! the complete ChampSim-like simulation substrate, and a per-figure
//! experiment harness.
//!
//! This facade crate re-exports the workspace's public API under stable
//! paths. Start with [`sim::Simulator`] to run a workload, or
//! [`prefetcher::Morrigan`] to use the prefetcher standalone on a miss
//! stream you drive yourself.
//!
//! ## Crate map
//!
//! * [`types`] — addresses, pages, RNG, statistics, prefetcher interface
//! * [`mem`] — cache hierarchy + DRAM
//! * [`vm`] — page table, walker, PSCs, TLBs, prefetch buffer, MMU
//! * [`prefetcher`] — Morrigan itself (IRIP + SDP + RLFU)
//! * [`baselines`] — SP, ASP, DP, MP, Morrigan-mono, unbounded Markov
//! * [`icache`] — next-line and FNL+MMA-style I-cache prefetchers
//! * [`workloads`] — synthetic server/SPEC trace generators
//! * [`sim`] — the interval core model + SMT mode
//! * [`runner`] — declarative job specs, worker pool, result cache
//! * [`experiments`] — one runner per paper figure
//!
//! ## Quickstart
//!
//! ```
//! use morrigan_suite::prefetcher::{Morrigan, MorriganConfig};
//! use morrigan_suite::types::TlbPrefetcher;
//!
//! let morrigan = Morrigan::new(MorriganConfig::default());
//! // ~3.76 KB of prediction state, the paper's chosen budget (§6.1.3).
//! assert!(morrigan.storage_bits() / 8 < 4 * 1024);
//! ```

#![forbid(unsafe_code)]

pub use morrigan as prefetcher;
pub use morrigan_baselines as baselines;
pub use morrigan_experiments as experiments;
pub use morrigan_icache as icache;
pub use morrigan_mem as mem;
pub use morrigan_runner as runner;
pub use morrigan_sim as sim;
pub use morrigan_types as types;
pub use morrigan_vm as vm;
pub use morrigan_workloads as workloads;
