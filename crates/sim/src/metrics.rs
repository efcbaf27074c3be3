//! Measurement-window metrics reported by the simulator.

use morrigan_mem::{LevelStats, MemLevel, MemoryHierarchy};
use morrigan_obs::Recorder;
use morrigan_types::stats::mpki;
use morrigan_types::CounterSet;
use morrigan_vm::{Mmu, MmuStats, PbStats, WalkerStats};

/// Everything measured over the measurement window of one run. The
/// simulator also keeps its run-so-far totals in this shape, so a window
/// or an interval epoch is the difference of two totals.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Metrics {
    /// Instructions retired in the window.
    pub instructions: u64,
    /// Cycles elapsed in the window.
    pub cycles: u64,
    /// Cycles the front end spent stalled on instruction address
    /// translation beyond the 1-cycle I-TLB hit path (the Fig 4 metric).
    pub istlb_stall_cycles: u64,
    /// Cycles the front end spent stalled on instruction cache misses.
    pub icache_stall_cycles: u64,
    /// MMU counters over the window.
    pub mmu: MmuStats,
    /// Walker counters over the window.
    pub walker: WalkerStats,
    /// Prefetch-buffer counters over the window.
    pub pb: PbStats,
    /// Demand L1I misses over the window.
    pub l1i_misses: u64,
    /// Page-walk references served by `[L1, L2, LLC, DRAM]`.
    pub walk_refs_by_level: [u64; 4],
    /// Hierarchy references served per level (instruction side), for MPKI
    /// contrasts.
    pub l1i_served: LevelStats,
    /// I-cache prefetch lines issued by the front-end prefetcher.
    pub iprefetch_lines: u64,
    /// I-cache prefetch page-crossings that found their translation ready
    /// (TLB or PB) — the §6.5 synergy metric.
    pub iprefetch_translation_ready: u64,
    /// I-cache prefetch page-crossings that required a prefetch page walk.
    pub iprefetch_translation_walks: u64,
}

impl Metrics {
    /// The run-so-far totals of the counters the MMU and the memory
    /// hierarchy own; the core's own counters (instructions, cycles,
    /// stalls, I-cache prefetches) stay zero.
    pub(crate) fn structure_totals<R: Recorder>(mmu: &Mmu<R>, mem: &MemoryHierarchy) -> Metrics {
        Metrics {
            mmu: mmu.stats,
            walker: *mmu.walker_stats(),
            pb: mmu.prefetch_buffer().stats,
            l1i_misses: mem.l1i_demand_misses,
            walk_refs_by_level: mem.walk_refs_by_level(),
            l1i_served: mem.served_by(MemLevel::L1I),
            ..Metrics::default()
        }
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of `self` over `baseline` (same workload, same window
    /// length): ratio of IPCs.
    ///
    /// # Panics
    ///
    /// Panics if the baseline has zero IPC.
    pub fn speedup_over(&self, baseline: &Metrics) -> f64 {
        let base = baseline.ipc();
        assert!(base > 0.0, "baseline IPC must be positive");
        self.ipc() / base
    }

    /// Demand iSTLB misses per kilo-instruction.
    pub fn istlb_mpki(&self) -> f64 {
        mpki(self.mmu.istlb_misses, self.instructions)
    }

    /// I-TLB misses per kilo-instruction.
    pub fn itlb_mpki(&self) -> f64 {
        mpki(self.mmu.itlb_misses, self.instructions)
    }

    /// dSTLB misses per kilo-instruction.
    pub fn dstlb_mpki(&self) -> f64 {
        mpki(self.mmu.dstlb_misses, self.instructions)
    }

    /// Demand L1I misses per kilo-instruction.
    pub fn l1i_mpki(&self) -> f64 {
        mpki(self.l1i_misses, self.instructions)
    }

    /// Fraction of iSTLB misses covered by the prefetch buffer.
    pub fn coverage(&self) -> f64 {
        self.mmu.coverage()
    }

    /// Fraction of execution cycles spent on instruction address
    /// translation (Fig 4; VTune's bottleneck threshold is 5 %).
    pub fn istlb_cycle_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.istlb_stall_cycles as f64 / self.cycles as f64
        }
    }

    /// Memory references of demand page walks for instructions (the
    /// Fig 16 numerator).
    pub fn demand_instr_walk_refs(&self) -> u64 {
        self.walker.demand_instr_refs
    }

    /// Memory references of prefetch page walks.
    pub fn prefetch_walk_refs(&self) -> u64 {
        self.walker.prefetch_refs
    }
}

/// Field-wise `Add` and `Sub` over every counter of [`Metrics`]: `Sub`
/// isolates a window or epoch from two running totals (`cycles` stays
/// the raw difference), and `Add` is its inverse, so summing epochs
/// reconstitutes the window exactly.
macro_rules! fieldwise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl std::ops::$trait for Metrics {
            type Output = Metrics;

            fn $method(self, rhs: Metrics) -> Metrics {
                let (a, b) = (self.walk_refs_by_level, rhs.walk_refs_by_level);
                Metrics {
                    instructions: self.instructions $op rhs.instructions,
                    cycles: self.cycles $op rhs.cycles,
                    istlb_stall_cycles: self.istlb_stall_cycles $op rhs.istlb_stall_cycles,
                    icache_stall_cycles: self.icache_stall_cycles $op rhs.icache_stall_cycles,
                    mmu: self.mmu $op rhs.mmu,
                    walker: self.walker $op rhs.walker,
                    pb: self.pb $op rhs.pb,
                    l1i_misses: self.l1i_misses $op rhs.l1i_misses,
                    walk_refs_by_level: std::array::from_fn(|level| a[level] $op b[level]),
                    l1i_served: self.l1i_served $op rhs.l1i_served,
                    iprefetch_lines: self.iprefetch_lines $op rhs.iprefetch_lines,
                    iprefetch_translation_ready: self.iprefetch_translation_ready
                        $op rhs.iprefetch_translation_ready,
                    iprefetch_translation_walks: self.iprefetch_translation_walks
                        $op rhs.iprefetch_translation_walks,
                }
            }
        }
    };
}

fieldwise!(Add, add, +);
fieldwise!(Sub, sub, -);

/// Every counter of the record, scalars first and then the four nested
/// sets in field order. Names are unique across the record (the nested
/// sets' own field names, unprefixed), so a monotonicity law names its
/// counter unambiguously.
impl CounterSet for Metrics {
    fn counters(&self) -> Vec<(&'static str, u64)> {
        let [l1, l2, llc, dram] = self.walk_refs_by_level;
        let mut counters = vec![
            ("instructions", self.instructions),
            ("cycles", self.cycles),
            ("istlb_stall_cycles", self.istlb_stall_cycles),
            ("icache_stall_cycles", self.icache_stall_cycles),
            ("l1i_misses", self.l1i_misses),
            ("walk_refs_by_level[0]", l1),
            ("walk_refs_by_level[1]", l2),
            ("walk_refs_by_level[2]", llc),
            ("walk_refs_by_level[3]", dram),
            ("iprefetch_lines", self.iprefetch_lines),
            (
                "iprefetch_translation_ready",
                self.iprefetch_translation_ready,
            ),
            (
                "iprefetch_translation_walks",
                self.iprefetch_translation_walks,
            ),
        ];
        counters.extend(self.mmu.counters());
        counters.extend(self.walker.counters());
        counters.extend(self.pb.counters());
        counters.extend(self.l1i_served.counters());
        counters
    }
}

/// One epoch of the interval sampler: the [`Metrics`] delta between two
/// snapshots taken `interval` retired instructions apart inside the
/// measurement window, plus where the epoch sits in instructions and
/// cycles. Attached to `RunRecord` and rendered into `--json` output.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntervalSample {
    /// First instruction of the epoch, relative to the window start.
    pub start_instruction: u64,
    /// One past the last instruction of the epoch (window-relative).
    pub end_instruction: u64,
    /// Absolute retire cycle at the epoch's start.
    pub start_cycle: u64,
    /// Absolute retire cycle at the epoch's end.
    pub end_cycle: u64,
    /// Counter deltas over the epoch. `metrics.cycles` is the raw cycle
    /// difference (no `.max(1)` clamp), so epochs sum to the window.
    pub metrics: Metrics,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let a = Metrics {
            instructions: 1000,
            cycles: 500,
            ..Metrics::default()
        };
        let b = Metrics {
            instructions: 1000,
            cycles: 1000,
            ..Metrics::default()
        };
        assert!((a.ipc() - 2.0).abs() < 1e-12);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_zero_ipc() {
        assert_eq!(Metrics::default().ipc(), 0.0);
        assert_eq!(Metrics::default().istlb_cycle_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "baseline IPC")]
    fn speedup_over_dead_baseline_panics() {
        let a = Metrics {
            instructions: 10,
            cycles: 10,
            ..Metrics::default()
        };
        let _ = a.speedup_over(&Metrics::default());
    }

    #[test]
    fn counters_are_47_unique_names_and_sub_inverts_add() {
        let mut m = Metrics {
            instructions: 9,
            cycles: 4,
            walk_refs_by_level: [1, 2, 3, 4],
            ..Metrics::default()
        };
        m.pb.misses = 5;
        m.l1i_served.data = 6;
        let counters = m.counters();
        assert_eq!(counters.len(), 47);
        let names: std::collections::HashSet<_> = counters.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), 47, "counter names must be unique");
        assert!(counters.contains(&("misses", 5)) && counters.contains(&("data", 6)));
        assert_eq!((m + m) - m, m);
    }

    #[test]
    fn mpki_wiring() {
        let mut m = Metrics {
            instructions: 1_000_000,
            cycles: 1,
            ..Metrics::default()
        };
        m.mmu.istlb_misses = 1500;
        m.l1i_misses = 12_000;
        assert!((m.istlb_mpki() - 1.5).abs() < 1e-12);
        assert!((m.l1i_mpki() - 12.0).abs() < 1e-12);
    }
}
