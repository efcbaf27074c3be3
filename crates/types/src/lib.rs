//! Shared foundation types for the Morrigan reproduction workspace.
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`addr`] — strongly-typed virtual/physical addresses, pages, and cache
//!   lines (x86-64 layout: 4 KB pages, 64-byte lines, 8-byte PTEs).
//! * [`rng`] — small deterministic pseudo-random generators (SplitMix64 and
//!   xoshiro256**). Determinism matters here: the synthetic workload traces
//!   and the RLFU policy's randomized victim selection must replay bit-for-bit
//!   across runs so experiments and property tests are reproducible.
//! * [`prefetcher`] — the [`TlbPrefetcher`](prefetcher::TlbPrefetcher)
//!   interface that Morrigan, every dSTLB baseline, and the idealized models
//!   implement, mirroring the engagement contract of the paper's §2.1
//!   (invoked on STLB misses, fills a prefetch buffer).
//! * [`stats`] — saturating counters, ratios, and the geometric-mean helper
//!   used for the paper's speedup aggregation.
//! * [`audit`] — the stats-invariant audit vocabulary: [`AuditReport`]
//!   accumulates conservation-law checks, [`CounterSet`] exposes a stats
//!   struct's monotone counters for generic window-monotonicity checks.
//! * [`scan`] — branch-free, autovectorizable tag-scan kernels shared by
//!   every SoA set-associative structure (TLBs, PSCs, caches), pinned
//!   byte-for-byte to the scalar scans they replace.
//! * [`walk`] — [`WalkKind`], the demand class of a page walk, which the
//!   walker accounts by and the trace events carry.
//!
//! # Examples
//!
//! ```
//! use morrigan_types::addr::{VirtAddr, VirtPage};
//!
//! let pc = VirtAddr::new(0x7f00_1234_5678);
//! let page = pc.virt_page();
//! assert_eq!(page, VirtPage::new(0x7f00_1234_5678 >> 12));
//! assert_eq!(page.base_addr(), VirtAddr::new(0x7f00_1234_5000));
//! ```

#![forbid(unsafe_code)]

pub mod addr;
pub mod audit;
pub mod prefetcher;
pub mod rng;
pub mod scan;
pub mod stats;
pub mod walk;

pub use addr::{
    CacheLine, PhysAddr, PhysPage, VirtAddr, VirtPage, ASID_SHIFT, LINE_SHIFT, PAGE_SHIFT,
};
pub use audit::{check_monotonic, AuditReport, CounterSet, Violation};
pub use prefetcher::{
    MissContext, PageDistance, PrefetchComponent, PrefetchDecision, PrefetchOrigin,
    PrefetcherEvent, ThreadId, TlbPrefetcher,
};
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use stats::{geometric_mean, Ratio, SatCounter};
pub use walk::WalkKind;
