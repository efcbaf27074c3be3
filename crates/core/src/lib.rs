//! # Morrigan: a composite instruction TLB prefetcher
//!
//! This crate implements the primary contribution of *Morrigan: A Composite
//! Instruction TLB Prefetcher* (Vavouliotis et al., MICRO 2021): a
//! microarchitectural prefetcher for the instruction miss stream of the
//! second-level TLB, composed of two complementary engines.
//!
//! * [`Irip`] — the **Irregular Instruction TLB Prefetcher**, an ensemble
//!   of four table-based Markov prefetchers (PRT-S1/S2/S4/S8 with 1, 2, 4,
//!   and 8 prediction slots per entry) that builds *variable-length* Markov
//!   chains out of the iSTLB miss stream. Entries store 15-bit page
//!   *distances* rather than full VPNs, carry a 2-bit confidence counter
//!   per slot, and migrate to a wider table when they outgrow their slots.
//! * [`Sdp`] — the **Small Delta Prefetcher**, an enhanced sequential
//!   prefetcher engaged only when IRIP has no prediction; it prefetches the
//!   next page and, via page-table locality, the whole 8-PTE cache line
//!   around it.
//!
//! IRIP's tables are managed by **RLFU** (Random-Least-Frequently-Used,
//! [`replacement::ReplacementPolicy::Rlfu`]): victims are drawn at random
//! from the least-frequently-missing half of a set, backed by a
//! periodically-reset [`FrequencyStack`] — the paper's key insight that
//! *access frequency beats recency* for iSTLB replacement decisions.
//!
//! The composite [`Morrigan`] type implements
//! [`TlbPrefetcher`](morrigan_types::TlbPrefetcher) and plugs directly into
//! the `morrigan-vm` MMU or any harness that drives the trait.
//!
//! # Examples
//!
//! ```
//! use morrigan::{Morrigan, MorriganConfig};
//! use morrigan_types::{MissContext, ThreadId, TlbPrefetcher, VirtAddr, VirtPage};
//!
//! let mut prefetcher = Morrigan::new(MorriganConfig::default());
//! let mut out = Vec::new();
//!
//! // Train on the miss sequence 0xA1 → 0xB2, then miss on 0xA1 again.
//! for page in [0xa1u64, 0xb2, 0xa1] {
//!     out.clear();
//!     let ctx = MissContext {
//!         vpn: VirtPage::new(page),
//!         pc: VirtAddr::new(page << 12),
//!         thread: ThreadId::ZERO,
//!         pb_hit: false,
//!         cycle: 0,
//!     };
//!     prefetcher.on_stlb_miss(&ctx, &mut out);
//! }
//! // The third miss (0xA1 again) predicts its learned successor 0xB2.
//! assert!(out.iter().any(|d| d.vpn == VirtPage::new(0xb2)));
//! ```

#![forbid(unsafe_code)]

mod config;
mod frequency;
mod irip;
mod morrigan_impl;
pub mod replacement;
mod sdp;

pub use config::{IripConfig, MorriganConfig, PrtConfig};
pub use frequency::FrequencyStack;
pub use irip::{Irip, IripLookup};
pub use morrigan_impl::{Morrigan, MorriganStats};
pub use replacement::ReplacementPolicy;
pub use sdp::Sdp;
