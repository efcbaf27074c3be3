//! Memory-system substrate: set-associative caches, a three-level cache
//! hierarchy with a DRAM latency model, and a lightweight SPP-style L2
//! prefetcher.
//!
//! This reproduces the memory model the paper's ChampSim setup provides
//! (Table 1): 32 KB 8-way L1I/L1D, 512 KB 8-way L2, 2 MB 16-way LLC, and a
//! fixed-latency DRAM. The model is *latency-and-contents* only — it tracks
//! which lines are resident (to decide hit level) and charges the serial
//! lookup latency down the hierarchy, but does not model writebacks or bus
//! bandwidth. That is sufficient for the paper's measurements, which depend
//! on (i) where page-walk references are served (Fig 16's L1/L2/LLC/DRAM
//! breakdown) and (ii) I-fetch latency (front-end stalls).
//!
//! # Examples
//!
//! ```
//! use morrigan_mem::{AccessClass, HierarchyConfig, MemLevel, MemoryHierarchy};
//! use morrigan_types::CacheLine;
//!
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! let line = CacheLine::new(0x40);
//! let cold = mem.access(line, AccessClass::PageWalk);
//! assert_eq!(cold.served_by, MemLevel::Dram);
//! let warm = mem.access(line, AccessClass::PageWalk);
//! assert_eq!(warm.served_by, MemLevel::L1D);
//! assert!(warm.latency < cold.latency);
//! ```

#![forbid(unsafe_code)]

mod cache;
mod hierarchy;
mod l2_prefetch;
mod llc;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{
    AccessClass, AccessOutcome, HierarchyConfig, LevelStats, MemLevel, MemoryHierarchy,
};
pub use l2_prefetch::{L2Prefetcher, L2PrefetcherConfig};
pub use llc::{Llc, LlcOp, LlcView};
