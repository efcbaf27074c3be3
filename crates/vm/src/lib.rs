//! Virtual-memory substrate for the Morrigan reproduction: the x86-64
//! radix page table, paging-structure caches (PSCs), a realistic page-table
//! walker, the TLB hierarchy, the prefetch buffer (PB), and the MMU that
//! wires them together with a pluggable [`TlbPrefetcher`].
//!
//! The structures and default parameters follow Table 1 of the paper:
//!
//! * L1 I-TLB: 128-entry, 8-way, 1-cycle
//! * L1 D-TLB: 64-entry, 4-way, 1-cycle
//! * STLB: 1536-entry, 6-way, 8-cycle, shared between instruction and data
//! * PSC: split 3-level (PML4 2-entry FA, PDP 4-entry FA, PD 32-entry 4-way)
//! * PB: 64-entry, fully associative, 2-cycle
//! * 4-level radix page table; up to 4 concurrent walks, 1 initiated/cycle
//!
//! [`TlbPrefetcher`]: morrigan_types::TlbPrefetcher
//!
//! # Examples
//!
//! ```
//! use morrigan_types::prefetcher::NullPrefetcher;
//! use morrigan_types::{ThreadId, VirtAddr, VirtPage};
//! use morrigan_mem::{HierarchyConfig, MemoryHierarchy};
//! use morrigan_vm::{Mmu, MmuConfig, PageTable};
//!
//! let mut pt = PageTable::new(1);
//! pt.map_range(VirtPage::new(0x400), 16);
//! let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
//! let mut mmu = Mmu::new(MmuConfig::default(), pt, Box::new(NullPrefetcher));
//!
//! let pc = VirtPage::new(0x400).base_addr();
//! let cold = mmu.translate_instr(pc, ThreadId::ZERO, 0, &mut mem);
//! assert!(cold.stlb_miss && !cold.pb_hit, "first touch walks the page table");
//! let warm = mmu.translate_instr(pc, ThreadId::ZERO, 100, &mut mem);
//! assert!(!warm.stlb_miss);
//! assert!(warm.latency < cold.latency);
//! ```

#![forbid(unsafe_code)]

mod miss_stream;
mod mmu;
mod page_table;
mod prefetch_buffer;
mod psc;
mod stlb_view;
mod tlb;
mod walker;

pub use miss_stream::MissStreamStats;
pub use mmu::{Mmu, MmuConfig, MmuStats, PrefetchPlacement, TranslationOutcome};
pub use morrigan_types::WalkKind;
pub use page_table::{PageTable, PtLevel, WalkStep};
pub use prefetch_buffer::{PbEntry, PbStats, PrefetchBuffer};
pub use psc::{PagingStructureCaches, PscConfig, PscHit};
pub use stlb_view::{replay_stlb_ops, StlbOp, StlbView};
pub use tlb::{Tlb, TlbConfig};
pub use walker::{WalkResult, Walker, WalkerConfig, WalkerStats};
