//! Simulator configuration (defaults reproduce Table 1).

use morrigan_mem::HierarchyConfig;
use morrigan_vm::MmuConfig;

/// Core pipeline parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions fetched per cycle (Table 1: 4-wide).
    pub fetch_width: u64,
    /// Instructions retired per cycle.
    pub retire_width: u64,
    /// Reorder-buffer entries.
    pub rob_size: usize,
    /// Fetch-to-complete depth for a non-memory instruction, in cycles.
    pub pipeline_depth: u64,
    /// Instructions one SMT thread fetches before the front end switches
    /// to the other thread ("every cycle, a different thread fetches one
    /// basic block", §5).
    pub smt_block: u64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            fetch_width: 4,
            retire_width: 4,
            rob_size: 256,
            pipeline_depth: 8,
            smt_block: 4,
        }
    }
}

/// Which I-cache prefetcher runs in the front end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IcachePrefetcherKind {
    /// No instruction prefetching at all.
    None,
    /// The Table 1 baseline: next-line, never crossing a page boundary.
    NextLine,
    /// The FNL+MMA-style page-crossing prefetcher (§3.5, §6.5).
    ///
    /// With `translation_cost: false`, beyond-page-boundary prefetches are
    /// translated for free (the original IPC-1 infrastructure); with
    /// `true`, they must find the translation in the TLBs/PB or trigger a
    /// prefetch page walk that occupies the shared walker.
    FnlMma {
        /// Whether page-crossing prefetches pay for address translation.
        translation_cost: bool,
    },
}

/// Multi-core topology: how many cores a `Machine` runs and which
/// translation/cache structures they share.
///
/// The default (`cores: 1`, everything private, no shootdown traffic)
/// describes exactly the pre-multicore simulator, so a default-topology
/// [`SystemConfig`] reproduces earlier results byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopologyConfig {
    /// Number of cores the machine instantiates (each with private L1/L2,
    /// I-TLB/D-TLB, PB, PSCs, walker, and prefetcher instance).
    pub cores: usize,
    /// Whether the STLB is one machine-wide structure all cores contend
    /// for (`true`) or private per core (`false`, the default).
    pub shared_stlb: bool,
    /// Banks of the shared LLC (power of two, selected by low line bits).
    /// `1` is a single monolithic bank, identical to the private LLC.
    pub llc_shards: usize,
    /// When set, every core issues a TLB shootdown for one of its code
    /// pages each time it retires this many instructions (modelling
    /// periodic unmap traffic); the invalidation is broadcast to every
    /// core and to the shared STLB. `None` models no unmap traffic.
    pub shootdown_interval: Option<u64>,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            cores: 1,
            shared_stlb: false,
            llc_shards: 1,
            shootdown_interval: None,
        }
    }
}

/// The full simulated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemConfig {
    /// Cache hierarchy + DRAM.
    pub mem: HierarchyConfig,
    /// TLBs, PB, walker, PSCs.
    pub mmu: MmuConfig,
    /// Core pipeline.
    pub core: CoreConfig,
    /// Front-end instruction prefetcher.
    pub icache_prefetcher: IcachePrefetcherKind,
    /// Simulate an OS context switch every N instructions: flushes the
    /// TLBs, PB, PSCs, and the prefetcher's prediction tables (§4.3).
    /// `None` (the default) models an undisturbed run, like the paper's
    /// trace-driven setup.
    pub context_switch_interval: Option<u64>,
    /// Multi-core topology (ignored by the single-core `Simulator`; the
    /// `Machine` asserts it matches the workloads it is given).
    pub topology: TopologyConfig,
}

impl Default for SystemConfig {
    /// Table 1 of the paper.
    fn default() -> Self {
        Self {
            mem: HierarchyConfig::default(),
            mmu: MmuConfig::default(),
            core: CoreConfig::default(),
            icache_prefetcher: IcachePrefetcherKind::NextLine,
            context_switch_interval: None,
            topology: TopologyConfig::default(),
        }
    }
}

/// How long to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Instructions executed before measurement begins (the paper: 50 M).
    pub warmup_instructions: u64,
    /// Instructions measured (the paper: 100 M).
    pub measure_instructions: u64,
}

impl SimConfig {
    /// A scaled-down run preserving the warmup:measure ratio.
    ///
    /// # Panics
    ///
    /// Panics if `measure` is zero.
    pub fn scaled(measure: u64) -> Self {
        assert!(measure > 0, "measurement window must be positive");
        Self {
            warmup_instructions: measure / 2,
            measure_instructions: measure,
        }
    }
}

impl Default for SimConfig {
    /// The workspace default: 2 M warmup + 6 M measured, enough for the
    /// paper's *shapes* to emerge in seconds per run. Override via
    /// `MORRIGAN_INSTR`/`MORRIGAN_FULL` in the experiment harness.
    fn default() -> Self {
        Self {
            warmup_instructions: 2_000_000,
            measure_instructions: 6_000_000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let cfg = SystemConfig::default();
        assert_eq!(cfg.core.fetch_width, 4);
        assert_eq!(cfg.core.rob_size, 256);
        assert_eq!(cfg.mmu.stlb.entries, 1536);
        assert_eq!(cfg.mmu.pb_entries, 64);
        assert_eq!(cfg.icache_prefetcher, IcachePrefetcherKind::NextLine);
    }

    #[test]
    fn default_topology_is_the_single_core_machine() {
        let t = TopologyConfig::default();
        assert_eq!(t.cores, 1);
        assert!(!t.shared_stlb);
        assert_eq!(t.llc_shards, 1);
        assert_eq!(t.shootdown_interval, None);
    }

    #[test]
    fn paper_scale_counts() {
        // The paper's run lengths, 50 M warmup + 100 M measured, are a
        // scaled config.
        let s = SimConfig::scaled(100_000_000);
        assert_eq!(s.warmup_instructions, 50_000_000);
        assert_eq!(s.measure_instructions, 100_000_000);
    }

    #[test]
    fn scaled_keeps_ratio() {
        let s = SimConfig::scaled(1_000_000);
        assert_eq!(s.warmup_instructions, 500_000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_measure_rejected() {
        let _ = SimConfig::scaled(0);
    }
}
