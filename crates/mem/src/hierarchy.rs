//! The three-level cache hierarchy plus DRAM, with per-class statistics.

use morrigan_types::CacheLine;

use crate::cache::{Cache, CacheConfig};
use crate::l2_prefetch::{L2Prefetcher, L2PrefetcherConfig};
use crate::llc::{Llc, LlcView};

/// The level of the memory hierarchy that served a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemLevel {
    /// L1 instruction cache.
    L1I,
    /// L1 data cache (also the entry point for page-walk references).
    L1D,
    /// Unified L2.
    L2,
    /// Last-level cache.
    Llc,
    /// Main memory.
    Dram,
}

impl MemLevel {
    /// All levels, ordered nearest to farthest.
    pub const ALL: [MemLevel; 5] = [
        MemLevel::L1I,
        MemLevel::L1D,
        MemLevel::L2,
        MemLevel::Llc,
        MemLevel::Dram,
    ];
}

/// The kind of reference, which selects the entry point into the hierarchy.
///
/// Instruction fetches enter at the L1I; data references and page-walk
/// references enter at the L1D (x86 page-table walkers read through the data
/// cache path, which is what gives PTEs the cache locality the paper's
/// walker model exploits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessClass {
    /// Demand instruction fetch.
    IFetch,
    /// Demand load/store.
    Data,
    /// Page-table-walker reference for a demand walk.
    PageWalk,
    /// Page-table-walker reference for a prefetch walk.
    PrefetchWalk,
    /// Instruction-cache prefetch.
    IPrefetch,
}

impl AccessClass {
    fn is_instruction_side(self) -> bool {
        matches!(self, AccessClass::IFetch | AccessClass::IPrefetch)
    }
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Total lookup latency in cycles, accumulated over every level probed.
    pub latency: u64,
    /// The level that finally supplied the line.
    pub served_by: MemLevel,
}

/// Geometry of the whole hierarchy (defaults reproduce Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Last-level cache.
    pub llc: CacheConfig,
    /// Flat DRAM access latency in cycles.
    pub dram_latency: u64,
    /// SPP-style L2 prefetcher configuration.
    pub l2_prefetch: L2PrefetcherConfig,
}

impl Default for HierarchyConfig {
    /// Table 1 of the paper: 32 KB/8w 4-cycle L1s, 512 KB/8w 8-cycle L2,
    /// 2 MB/16w 10-cycle LLC. The paper gives DRAM timing parameters
    /// (tRP=tRCD=tCAS=12); we fold them into a flat 120-cycle access,
    /// ChampSim's effective round-trip at core frequency.
    fn default() -> Self {
        Self {
            l1i: CacheConfig::from_capacity(32 * 1024, 8, 4),
            l1d: CacheConfig::from_capacity(32 * 1024, 8, 4),
            l2: CacheConfig::from_capacity(512 * 1024, 8, 8),
            llc: CacheConfig::from_capacity(2 * 1024 * 1024, 16, 10),
            dram_latency: 120,
            l2_prefetch: L2PrefetcherConfig::default(),
        }
    }
}

morrigan_types::counter_set! {
    /// Hit/served counters for one hierarchy level, per access class.
    pub struct LevelStats {
        /// References served by this level on the instruction-fetch path.
        pub ifetch: u64,
        /// References served by this level on the data path.
        pub data: u64,
        /// Demand page-walk references served by this level.
        pub demand_walk: u64,
        /// Prefetch page-walk references served by this level.
        pub prefetch_walk: u64,
        /// I-cache prefetch references served by this level.
        pub iprefetch: u64,
    }
}

impl LevelStats {
    fn bump(&mut self, class: AccessClass) {
        match class {
            AccessClass::IFetch => self.ifetch += 1,
            AccessClass::Data => self.data += 1,
            AccessClass::PageWalk => self.demand_walk += 1,
            AccessClass::PrefetchWalk => self.prefetch_walk += 1,
            AccessClass::IPrefetch => self.iprefetch += 1,
        }
    }

    /// Total references served by this level across all classes.
    pub fn total(&self) -> u64 {
        self.ifetch + self.data + self.demand_walk + self.prefetch_walk + self.iprefetch
    }
}

/// The full cache hierarchy + DRAM.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    /// Single-bank by default; the multi-core machine swaps its copy of
    /// the shared, multi-bank [`Llc`] in and out around each core's
    /// quantum (see [`MemoryHierarchy::swap_llc`]).
    llc: Llc,
    /// When installed (`cores > 1`, see
    /// [`MemoryHierarchy::install_llc_view`]), LLC probes and fills go
    /// through this epoch-buffered view, which reads `llc` as the frozen
    /// epoch-start image and never writes it.
    llc_view: Option<LlcView>,
    cfg: HierarchyConfig,
    l2_prefetcher: L2Prefetcher,
    /// Reused between [`MemoryHierarchy::access`] calls so the prefetcher
    /// train path never allocates.
    l2_pref_scratch: Vec<CacheLine>,
    served: [LevelStats; 5],
    /// Demand I-fetch lookups that missed the L1I (for MPKI accounting).
    pub l1i_demand_misses: u64,
    /// Demand I-fetch lookups (for MPKI accounting).
    pub l1i_demand_accesses: u64,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1i: Cache::new(cfg.l1i),
            l1d: Cache::new(cfg.l1d),
            l2: Cache::new(cfg.l2),
            llc: Llc::new(cfg.llc, 1),
            llc_view: None,
            l2_prefetcher: L2Prefetcher::new(cfg.l2_prefetch),
            l2_pref_scratch: Vec::with_capacity(8),
            cfg,
            served: [LevelStats::default(); 5],
            l1i_demand_misses: 0,
            l1i_demand_accesses: 0,
        }
    }

    /// This hierarchy's configuration.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Performs one reference of class `class` for physical line `line`.
    ///
    /// Probes level by level starting at the class's entry point, charges
    /// each probed level's latency, and fills the line into every probed
    /// level on the way back (inclusive allocation).
    ///
    /// Each level that missed is filled with [`Cache::insert_absent`],
    /// without a second search. That is sound because between a level's
    /// miss and its fill the only other lines installed in it are the SPP
    /// prefetches `page·64 + offset + k·delta` (k ≥ 1, delta ≠ 0), never
    /// the demand line itself.
    pub fn access(&mut self, line: CacheLine, class: AccessClass) -> AccessOutcome {
        let mut latency = 0;
        let instruction_side = class.is_instruction_side();

        // L1.
        if instruction_side {
            latency += self.cfg.l1i.latency;
            if class == AccessClass::IFetch {
                self.l1i_demand_accesses += 1;
            }
            if self.l1i.probe(line) {
                self.record(MemLevel::L1I, class);
                return AccessOutcome {
                    latency,
                    served_by: MemLevel::L1I,
                };
            }
            if class == AccessClass::IFetch {
                self.l1i_demand_misses += 1;
            }
        } else {
            latency += self.cfg.l1d.latency;
            if self.l1d.probe(line) {
                self.record(MemLevel::L1D, class);
                return AccessOutcome {
                    latency,
                    served_by: MemLevel::L1D,
                };
            }
        }

        // L2 (shared). Data-side L2 traffic trains the SPP-style prefetcher.
        latency += self.cfg.l2.latency;
        let l2_hit = self.l2.probe(line);
        if matches!(class, AccessClass::Data) {
            self.l2_pref_scratch.clear();
            self.l2_prefetcher.train(line, &mut self.l2_pref_scratch);
            for i in 0..self.l2_pref_scratch.len() {
                // L2 prefetches fill L2 (and LLC for inclusion) silently.
                let pf = self.l2_pref_scratch[i];
                self.l2.fill(pf);
                self.llc_fill(pf);
            }
        }
        if l2_hit {
            self.insert_l1(line, instruction_side);
            self.record(MemLevel::L2, class);
            return AccessOutcome {
                latency,
                served_by: MemLevel::L2,
            };
        }

        // LLC.
        latency += self.cfg.llc.latency;
        if self.llc_probe(line) {
            self.l2.insert_absent(line);
            self.insert_l1(line, instruction_side);
            self.record(MemLevel::Llc, class);
            return AccessOutcome {
                latency,
                served_by: MemLevel::Llc,
            };
        }

        // DRAM.
        latency += self.cfg.dram_latency;
        self.llc_insert_absent(line);
        self.l2.insert_absent(line);
        self.insert_l1(line, instruction_side);
        self.record(MemLevel::Dram, class);
        AccessOutcome {
            latency,
            served_by: MemLevel::Dram,
        }
    }

    /// Functionally warms the hierarchy for `line`: the sampled
    /// fast-forward's cache warming, with no latency computed and no
    /// statistics recorded. Each level uses one merged
    /// [`Cache::warm_fill`] scan — promote on hit, install as MRU on a
    /// miss — stopping at the first hit, so the final residency matches
    /// what a demand [`MemoryHierarchy::access`] would have left behind
    /// and detail windows open onto the replacement state a continuous
    /// run would have instead of a frozen snapshot.
    ///
    /// The warm is deliberately **full-depth and symmetric** (both
    /// sides, all levels, the whole skip stretch). Every cheaper
    /// variant was measured and rejected: L1-only warming left the
    /// frozen-window bias in place (the SPEC frontend figure *worsened*
    /// from +6.4 % to +7.6 % sampled IPC error), warming only the tail
    /// of each skip stretch (2 k–12.5 k instructions) still read
    /// +4–6 % there because that figure's reuse distances span the
    /// whole stretch, and instruction-side-only warming biased *every*
    /// figure by +3–12 % — unrefreshed data lines age out under
    /// one-sided fill pressure. Full warming brings the worst per-figure
    /// deviation to ≈2.7 % and the SPEC figure to +0.03 %, at a cost
    /// measured at roughly a third of the sampled run when every level
    /// scanned its set several times per reference (each level now makes
    /// one tag pass, DESIGN.md §8); EXPERIMENTS.md tracks the resulting
    /// sampled-speedup floor. The served/miss counters
    /// stay detail-window samples for the extrapolation layer, and the
    /// L2 prefetcher is neither trained nor credited. The fast-forward
    /// warms unconditionally; the pre-warming sampled numbers (about 2×
    /// speedup, 6.4 % SPEC-figure bias) are historical, recorded in
    /// DESIGN.md §11.
    pub fn warm(&mut self, line: CacheLine, instruction_side: bool) {
        let l1_hit = if instruction_side {
            self.l1i.warm_fill(line)
        } else {
            self.l1d.warm_fill(line)
        };
        if l1_hit {
            return;
        }
        if self.l2.warm_fill(line) {
            return;
        }
        if !self.llc_probe(line) {
            self.llc_insert_absent(line);
        }
    }

    /// LLC probe, routed through the epoch view when one is installed.
    #[inline]
    fn llc_probe(&mut self, line: CacheLine) -> bool {
        match &mut self.llc_view {
            Some(view) => view.probe(line, &self.llc),
            None => self.llc.probe(line),
        }
    }

    /// LLC fill, routed through the epoch view when one is installed.
    #[inline]
    fn llc_fill(&mut self, line: CacheLine) {
        match &mut self.llc_view {
            Some(view) => view.fill(line),
            None => self.llc.fill(line),
        }
    }

    /// LLC fill of a line the LLC just missed; the epoch view logs it as
    /// an ordinary fill.
    #[inline]
    fn llc_insert_absent(&mut self, line: CacheLine) {
        match &mut self.llc_view {
            Some(view) => view.fill(line),
            None => self.llc.insert_absent(line),
        }
    }

    /// L1 fill of a line the L1 just missed.
    fn insert_l1(&mut self, line: CacheLine, instruction_side: bool) {
        if instruction_side {
            self.l1i.insert_absent(line);
        } else {
            self.l1d.insert_absent(line);
        }
    }

    fn record(&mut self, level: MemLevel, class: AccessClass) {
        self.served[level as usize].bump(class);
    }

    /// Whether `line` is resident in the L1I (used by the front end to skip
    /// redundant I-prefetches).
    pub fn l1i_contains(&self, line: CacheLine) -> bool {
        self.l1i.contains(line)
    }

    /// Exchanges this hierarchy's LLC with `other`.
    ///
    /// The multi-core machine owns the shared (possibly multi-bank) LLC
    /// and swaps it into a core's hierarchy around each quantum. A
    /// one-core machine's core then mutates it directly, with no
    /// indirection on the access path; under an installed epoch view a
    /// core only reads it, as the frozen epoch-start image.
    pub fn swap_llc(&mut self, other: &mut Llc) {
        std::mem::swap(&mut self.llc, other);
    }

    /// The LLC (shared-structure occupancy auditing).
    pub fn llc(&self) -> &Llc {
        &self.llc
    }

    /// Routes this hierarchy's LLC traffic through an epoch-frozen view
    /// of a shared LLC (parallel-machine mode). The machine swaps its
    /// copy of that LLC in for each quantum
    /// ([`MemoryHierarchy::swap_llc`]), and the view only reads it;
    /// [`MemoryHierarchy::llc_view_mut`] hands the machine the buffered
    /// operations to replay at each barrier.
    pub fn install_llc_view(&mut self) {
        self.llc_view = Some(LlcView::default());
    }

    /// The installed epoch view, if any (the machine drains its logs at
    /// each epoch barrier).
    pub fn llc_view_mut(&mut self) -> Option<&mut LlcView> {
        self.llc_view.as_mut()
    }

    /// References served by `level`, broken down by class.
    pub fn served_by(&self, level: MemLevel) -> LevelStats {
        self.served[level as usize]
    }

    /// Sum of page-walk references (demand + prefetch) served by each level,
    /// ordered `[L1D-or-L1I, L2, LLC, DRAM]` as Fig 16's analysis reports.
    pub fn walk_refs_by_level(&self) -> [u64; 4] {
        let s = |l: MemLevel| {
            let st = self.served_by(l);
            st.demand_walk + st.prefetch_walk
        };
        [
            s(MemLevel::L1I) + s(MemLevel::L1D),
            s(MemLevel::L2),
            s(MemLevel::Llc),
            s(MemLevel::Dram),
        ]
    }

    /// Lines the L2 prefetcher has issued so far.
    pub fn l2_prefetches_issued(&self) -> u64 {
        self.l2_prefetcher.issued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            l1i: CacheConfig {
                sets: 4,
                ways: 2,
                latency: 4,
            },
            l1d: CacheConfig {
                sets: 4,
                ways: 2,
                latency: 4,
            },
            l2: CacheConfig {
                sets: 16,
                ways: 4,
                latency: 8,
            },
            llc: CacheConfig {
                sets: 64,
                ways: 4,
                latency: 10,
            },
            dram_latency: 120,
            l2_prefetch: L2PrefetcherConfig::disabled(),
        })
    }

    #[test]
    fn cold_miss_goes_to_dram_and_fills_everything() {
        let mut m = small();
        let line = CacheLine::new(0x1000);
        let out = m.access(line, AccessClass::Data);
        assert_eq!(out.served_by, MemLevel::Dram);
        assert_eq!(out.latency, 4 + 8 + 10 + 120);
        let again = m.access(line, AccessClass::Data);
        assert_eq!(again.served_by, MemLevel::L1D);
        assert_eq!(again.latency, 4);
    }

    #[test]
    fn instruction_and_data_paths_are_split_at_l1() {
        let mut m = small();
        let line = CacheLine::new(0x2000);
        m.access(line, AccessClass::Data);
        // Data fill does not populate L1I; an I-fetch hits at L2.
        let out = m.access(line, AccessClass::IFetch);
        assert_eq!(out.served_by, MemLevel::L2);
        // ...and fills the L1I on the way back.
        let out = m.access(line, AccessClass::IFetch);
        assert_eq!(out.served_by, MemLevel::L1I);
    }

    #[test]
    fn page_walks_enter_at_l1d() {
        let mut m = small();
        let line = CacheLine::new(0x3000);
        m.access(line, AccessClass::PageWalk);
        let out = m.access(line, AccessClass::Data);
        assert_eq!(
            out.served_by,
            MemLevel::L1D,
            "walk fills should be visible to loads"
        );
    }

    #[test]
    fn stats_attribute_by_class_and_level() {
        let mut m = small();
        let line = CacheLine::new(0x4000);
        m.access(line, AccessClass::PrefetchWalk); // DRAM
        m.access(line, AccessClass::PageWalk); // L1D
        assert_eq!(m.served_by(MemLevel::Dram).prefetch_walk, 1);
        assert_eq!(m.served_by(MemLevel::L1D).demand_walk, 1);
        assert_eq!(m.walk_refs_by_level(), [1, 0, 0, 1]);
    }

    #[test]
    fn l1i_demand_miss_accounting_ignores_prefetches() {
        let mut m = small();
        let line = CacheLine::new(0x5000);
        m.access(line, AccessClass::IPrefetch);
        assert_eq!(m.l1i_demand_accesses, 0);
        let out = m.access(line, AccessClass::IFetch);
        assert_eq!(
            out.served_by,
            MemLevel::L1I,
            "prefetch should have filled L1I"
        );
        assert_eq!(m.l1i_demand_accesses, 1);
        assert_eq!(m.l1i_demand_misses, 0);
    }

    #[test]
    fn default_config_matches_table1() {
        let cfg = HierarchyConfig::default();
        assert_eq!(cfg.l1i.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l1d.capacity_bytes(), 32 * 1024);
        assert_eq!(cfg.l2.capacity_bytes(), 512 * 1024);
        assert_eq!(cfg.llc.capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(cfg.l1i.ways, 8);
        assert_eq!(cfg.llc.ways, 16);
    }
}
