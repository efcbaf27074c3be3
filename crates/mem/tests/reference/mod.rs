//! Plain reference models of the memory structures, for the
//! equivalence proptests in `prop_reference.rs`.
//!
//! Each model is the obvious implementation of the policy: per-way
//! structs with LRU stamps, linear searches, "first free way, else
//! least-recent stamp" victims, and a hierarchy that fills every level
//! with an ordinary searching fill. None of the optimized structures'
//! layout tricks (recency-ordered sets, search-free fills, hashed tracker
//! index) appear here, so agreement is evidence about the policy, not a
//! comparison of a structure with an earlier version of itself.

use morrigan_mem::{
    AccessClass, AccessOutcome, CacheConfig, HierarchyConfig, LevelStats, MemLevel,
};
use morrigan_types::CacheLine;

/// One way: the resident line (if any) and the tick of its last use.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    line: Option<CacheLine>,
    stamp: u64,
}

/// A stamp-LRU set-associative cache.
#[derive(Debug, Clone)]
pub struct RefCache {
    sets: Vec<Vec<Way>>,
    tick: u64,
}

impl RefCache {
    pub fn new(cfg: CacheConfig) -> Self {
        Self {
            sets: vec![vec![Way::default(); cfg.ways]; cfg.sets],
            tick: 0,
        }
    }

    fn set(&mut self, line: CacheLine) -> &mut Vec<Way> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line.raw() % n) as usize]
    }

    /// Hit: refresh the stamp.
    pub fn probe(&mut self, line: CacheLine) -> bool {
        self.tick += 1;
        let tick = self.tick;
        match self.set(line).iter_mut().find(|w| w.line == Some(line)) {
            Some(way) => {
                way.stamp = tick;
                true
            }
            None => false,
        }
    }

    pub fn contains(&self, line: CacheLine) -> bool {
        let n = self.sets.len() as u64;
        self.sets[(line.raw() % n) as usize]
            .iter()
            .any(|w| w.line == Some(line))
    }

    /// Refresh a resident line; else take the first free way, else the
    /// way with the smallest stamp, and return what it held.
    pub fn fill(&mut self, line: CacheLine) -> Option<CacheLine> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set(line);
        if let Some(way) = set.iter_mut().find(|w| w.line == Some(line)) {
            way.stamp = tick;
            return None;
        }
        let victim = match set.iter().position(|w| w.line.is_none()) {
            Some(free) => free,
            None => {
                let oldest = set.iter().map(|w| w.stamp).min().expect("ways > 0");
                set.iter()
                    .position(|w| w.stamp == oldest)
                    .expect("min is present")
            }
        };
        let evicted = set[victim].line;
        set[victim] = Way {
            line: Some(line),
            stamp: tick,
        };
        evicted
    }

    /// Probe, and fill on a miss.
    pub fn warm_fill(&mut self, line: CacheLine) -> bool {
        let hit = self.probe(line);
        if !hit {
            self.fill(line);
        }
        hit
    }

    pub fn invalidate(&mut self, line: CacheLine) -> bool {
        match self.set(line).iter_mut().find(|w| w.line == Some(line)) {
            Some(way) => {
                *way = Way::default();
                true
            }
            None => false,
        }
    }

    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|w| w.line.is_some())
            .count()
    }
}

/// One page tracker of the reference SPP.
#[derive(Debug, Clone, Copy)]
struct Tracker {
    page: u64,
    stamp: u64,
    last_offset: i64,
    last_delta: i64,
}

/// The SPP-style L2 prefetcher with a linear tracker search.
#[derive(Debug, Clone)]
pub struct RefL2Prefetcher {
    trackers: Vec<Option<Tracker>>,
    degree: usize,
    enabled: bool,
    tick: u64,
    pub issued: u64,
}

impl RefL2Prefetcher {
    pub fn new(trackers: usize, degree: usize, enabled: bool) -> Self {
        Self {
            trackers: vec![None; trackers],
            degree,
            enabled,
            tick: 0,
            issued: 0,
        }
    }

    /// The lines one trained access prefetches.
    pub fn train(&mut self, line: CacheLine) -> Vec<CacheLine> {
        let mut out = Vec::new();
        if !self.enabled {
            return out;
        }
        self.tick += 1;
        let page = line.raw() / 64;
        let offset = (line.raw() % 64) as i64;
        let Some(t) = self.trackers.iter_mut().flatten().find(|t| t.page == page) else {
            let slot = match self.trackers.iter().position(Option::is_none) {
                Some(free) => free,
                None => {
                    let oldest = self.trackers.iter().flatten().map(|t| t.stamp).min();
                    self.trackers
                        .iter()
                        .position(|t| t.map(|t| t.stamp) == oldest)
                        .expect("min is present")
                }
            };
            self.trackers[slot] = Some(Tracker {
                page,
                stamp: self.tick,
                last_offset: offset,
                last_delta: 0,
            });
            return out;
        };
        t.stamp = self.tick;
        let delta = offset - t.last_offset;
        let confident = delta != 0 && delta == t.last_delta;
        t.last_delta = delta;
        t.last_offset = offset;
        if confident {
            for k in 1..=self.degree as i64 {
                let next = offset + k * delta;
                if !(0..64).contains(&next) {
                    break;
                }
                out.push(CacheLine::new(page * 64 + next as u64));
                self.issued += 1;
            }
        }
        out
    }
}

/// The three-level hierarchy plus DRAM, built from the reference models.
#[derive(Debug, Clone)]
pub struct RefHierarchy {
    cfg: HierarchyConfig,
    l1i: RefCache,
    l1d: RefCache,
    l2: RefCache,
    llc: RefCache,
    spp: RefL2Prefetcher,
    served: [LevelStats; 5],
    pub l1i_demand_misses: u64,
    pub l1i_demand_accesses: u64,
}

impl RefHierarchy {
    pub fn new(cfg: HierarchyConfig) -> Self {
        let spp = cfg.l2_prefetch;
        Self {
            cfg,
            l1i: RefCache::new(cfg.l1i),
            l1d: RefCache::new(cfg.l1d),
            l2: RefCache::new(cfg.l2),
            llc: RefCache::new(cfg.llc),
            spp: RefL2Prefetcher::new(spp.trackers, spp.degree, spp.enabled),
            served: [LevelStats::default(); 5],
            l1i_demand_misses: 0,
            l1i_demand_accesses: 0,
        }
    }

    /// Probe down to the serving level, train SPP on data references
    /// that reach the L2, and fill every level that missed.
    pub fn access(&mut self, line: CacheLine, class: AccessClass) -> AccessOutcome {
        let instruction = matches!(class, AccessClass::IFetch | AccessClass::IPrefetch);
        let (l1_level, l1_latency) = if instruction {
            (MemLevel::L1I, self.cfg.l1i.latency)
        } else {
            (MemLevel::L1D, self.cfg.l1d.latency)
        };
        let mut latency = l1_latency;
        if class == AccessClass::IFetch {
            self.l1i_demand_accesses += 1;
        }
        let l1_hit = if instruction {
            self.l1i.probe(line)
        } else {
            self.l1d.probe(line)
        };
        let served_by = if l1_hit {
            l1_level
        } else {
            if class == AccessClass::IFetch {
                self.l1i_demand_misses += 1;
            }
            latency += self.cfg.l2.latency;
            let l2_hit = self.l2.probe(line);
            if class == AccessClass::Data {
                for pf in self.spp.train(line) {
                    self.l2.fill(pf);
                    self.llc.fill(pf);
                }
            }
            let served_by = if l2_hit {
                MemLevel::L2
            } else {
                latency += self.cfg.llc.latency;
                let level = if self.llc.probe(line) {
                    MemLevel::Llc
                } else {
                    latency += self.cfg.dram_latency;
                    self.llc.fill(line);
                    MemLevel::Dram
                };
                self.l2.fill(line);
                level
            };
            if instruction {
                self.l1i.fill(line);
            } else {
                self.l1d.fill(line);
            }
            served_by
        };
        let stats = &mut self.served[served_by as usize];
        match class {
            AccessClass::IFetch => stats.ifetch += 1,
            AccessClass::Data => stats.data += 1,
            AccessClass::PageWalk => stats.demand_walk += 1,
            AccessClass::PrefetchWalk => stats.prefetch_walk += 1,
            AccessClass::IPrefetch => stats.iprefetch += 1,
        }
        AccessOutcome { latency, served_by }
    }

    /// Probe-or-fill each level down to the first hit; no statistics,
    /// no SPP training.
    pub fn warm(&mut self, line: CacheLine, instruction: bool) {
        let l1 = if instruction {
            &mut self.l1i
        } else {
            &mut self.l1d
        };
        if l1.warm_fill(line) || self.l2.warm_fill(line) {
            return;
        }
        self.llc.warm_fill(line);
    }

    pub fn served_by(&self, level: MemLevel) -> LevelStats {
        self.served[level as usize]
    }

    pub fn l2_prefetches_issued(&self) -> u64 {
        self.spp.issued
    }
}
