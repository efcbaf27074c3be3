//! A plain reference model of Morrigan (IRIP + SDP), for the equivalence
//! proptests in `prop_reference.rs`.
//!
//! Transcribed from the paper's §4.1 and its Fig 11/12 flow rather than
//! from the optimized code: every table is a `Vec` of sets of
//! `Option<Entry>` ways, an entry holds only its valid slots in a `Vec`,
//! look-ups are linear searches, and RLFU ranks its candidates with a
//! stable sort. Agreement is evidence about the policy, not a comparison
//! of the prefetcher with an earlier version of itself.
//!
//! Tie rules, which the flow leaves open and the simulator fixes:
//!
//! - Look-up walks the tables narrowest first and each set's ways in
//!   order; the first valid way whose partial tag matches answers.
//! - A fresh or promoted entry takes the first free way of its set.
//! - LRU evicts the first way with the least stamp; LFU the first way
//!   with the least `(frequency, stamp)`.
//! - RLFU ranks the ways by `(frequency, stamp)` with a stable sort, so
//!   equal keys keep way order, and evicts the way at rank
//!   `next_below(max(ways / 4, 1))`, one draw from the IRIP's own
//!   xoshiro256** seeded with `IripConfig::seed`.
//! - The spatial prediction is the *last* slot of greatest confidence
//!   (what `max_by_key` returns), among the entry's slots in storage
//!   order.
//! - A full widest-table entry replaces its *first* least-confident slot.
//! - The frequency stack allocates the first free way of its set, else
//!   the first way with the least `(count, stamp)`.

use morrigan::{MorriganConfig, MorriganStats, ReplacementPolicy};
use morrigan_types::rng::Xoshiro256StarStar;
use morrigan_types::{PageDistance, PrefetchComponent, PrefetchDecision, PrefetchOrigin, VirtPage};

/// Frequency-stack geometry: 4096 counters, 4 ways, 8-bit counts.
const FREQ_CAPACITY: usize = 4096;
const FREQ_WAYS: usize = 4;
const FREQ_COUNT_MAX: u32 = 255;

/// One miss counter of the frequency stack.
#[derive(Debug, Clone, Copy)]
struct Counter {
    vpn: VirtPage,
    count: u32,
    stamp: u64,
}

/// The bounded per-page miss-frequency tracker RLFU and LFU consult:
/// set-associative, tagged by the full VPN, emptied every `interval`
/// recorded misses (never, when `interval` is `u64::MAX`).
#[derive(Debug, Clone)]
struct Frequencies {
    sets: Vec<Vec<Option<Counter>>>,
    interval: u64,
    since_reset: u64,
    tick: u64,
}

impl Frequencies {
    fn new(interval: u64) -> Self {
        Self {
            sets: vec![vec![None; FREQ_WAYS]; FREQ_CAPACITY / FREQ_WAYS],
            interval,
            since_reset: 0,
            tick: 0,
        }
    }

    fn set(&self, vpn: VirtPage) -> usize {
        (vpn.raw() % self.sets.len() as u64) as usize
    }

    fn record(&mut self, vpn: VirtPage) {
        if self.since_reset == self.interval {
            self.reset();
        }
        self.since_reset += 1;
        self.tick += 1;
        let tick = self.tick;
        let index = self.set(vpn);
        let set = &mut self.sets[index];
        if let Some(c) = set.iter_mut().flatten().find(|c| c.vpn == vpn) {
            c.count = (c.count + 1).min(FREQ_COUNT_MAX);
            c.stamp = tick;
            return;
        }
        let way = match set.iter().position(Option::is_none) {
            Some(free) => free,
            None => {
                let mut coldest = 0;
                for (w, c) in set.iter().enumerate() {
                    let (c, best) = (c.expect("full set"), set[coldest].expect("full set"));
                    if (c.count, c.stamp) < (best.count, best.stamp) {
                        coldest = w;
                    }
                }
                coldest
            }
        };
        set[way] = Some(Counter {
            vpn,
            count: 1,
            stamp: tick,
        });
    }

    fn frequency(&self, vpn: VirtPage) -> u32 {
        self.sets[self.set(vpn)]
            .iter()
            .flatten()
            .find(|c| c.vpn == vpn)
            .map_or(0, |c| c.count)
    }

    fn reset(&mut self) {
        for set in &mut self.sets {
            set.fill(None);
        }
        self.since_reset = 0;
    }
}

/// One prediction slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    dist: PageDistance,
    conf: u32,
}

/// One prediction-table entry: its partial tag (the only thing look-ups
/// match), the full VPN it was installed for (what frequencies and set
/// selection use), its valid slots in storage order, and its last-use
/// stamp.
#[derive(Debug, Clone)]
struct Entry {
    tag: u64,
    vpn: VirtPage,
    slots: Vec<Slot>,
    stamp: u64,
}

/// One PRT: `sets × ways` entries, each with up to `width` slots.
#[derive(Debug, Clone)]
struct Table {
    sets: Vec<Vec<Option<Entry>>>,
    width: usize,
}

impl Table {
    fn set(&self, vpn: VirtPage) -> usize {
        (vpn.raw() % self.sets.len() as u64) as usize
    }

    fn tag(&self, vpn: VirtPage, tag_bits: u32) -> u64 {
        (vpn.raw() / self.sets.len() as u64) % (1 << tag_bits)
    }
}

/// The IRIP counters, in `IripStats` field order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub lookups: u64,
    pub hits: u64,
    pub predictions: u64,
    pub insertions: u64,
    pub promotions: u64,
    pub evictions: u64,
    pub slot_replacements: u64,
    pub unrepresentable_distances: u64,
    pub credits: u64,
}

/// The reference Morrigan: IRIP tables, frequency stack, RLFU draw,
/// per-thread previous-miss registers and SDP.
#[derive(Debug, Clone)]
pub struct RefMorrigan {
    cfg: MorriganConfig,
    tables: Vec<Table>,
    freq: Frequencies,
    rng: Xoshiro256StarStar,
    tick: u64,
    prev: Vec<Option<VirtPage>>,
    pub irip: Counters,
    pub stats: MorriganStats,
}

impl RefMorrigan {
    pub fn new(cfg: MorriganConfig) -> Self {
        let tables = cfg
            .irip
            .tables
            .iter()
            .map(|t| Table {
                sets: vec![vec![None; t.ways]; t.entries / t.ways],
                width: t.slots,
            })
            .collect();
        // Only RLFU resets its frequencies periodically.
        let interval = match cfg.irip.policy {
            ReplacementPolicy::Rlfu => cfg.irip.freq_reset_interval,
            _ => u64::MAX,
        };
        Self {
            tables,
            freq: Frequencies::new(interval),
            rng: Xoshiro256StarStar::new(cfg.irip.seed),
            tick: 0,
            prev: vec![None; cfg.max_threads],
            irip: Counters::default(),
            stats: MorriganStats::default(),
            cfg,
        }
    }

    /// `(table, set, way)` of the entry answering for `vpn`.
    fn locate(&self, vpn: VirtPage) -> Option<(usize, usize, usize)> {
        for (t, table) in self.tables.iter().enumerate() {
            let (set, tag) = (table.set(vpn), table.tag(vpn, self.cfg.irip.tag_bits));
            for (way, entry) in table.sets[set].iter().enumerate() {
                if let Some(entry) = entry {
                    if entry.tag == tag {
                        return Some((t, set, way));
                    }
                }
            }
        }
        None
    }

    fn entry_mut(&mut self, (t, set, way): (usize, usize, usize)) -> &mut Entry {
        self.tables[t].sets[set][way]
            .as_mut()
            .expect("located entry")
    }

    /// The way of `candidates` (`(vpn, stamp)` per way, way order) the
    /// policy evicts.
    fn victim(&mut self, candidates: &[(VirtPage, u64)]) -> usize {
        let key = |&(vpn, stamp): &(VirtPage, u64)| (self.freq.frequency(vpn), stamp);
        let first_min = |keys: Vec<(u32, u64)>| {
            (0..keys.len())
                .reduce(|best, i| if keys[i] < keys[best] { i } else { best })
                .expect("candidates")
        };
        match self.cfg.irip.policy {
            ReplacementPolicy::Lru => first_min(candidates.iter().map(|c| (0, c.1)).collect()),
            ReplacementPolicy::Random => self.rng.next_below(candidates.len() as u64) as usize,
            ReplacementPolicy::Lfu => first_min(candidates.iter().map(key).collect()),
            ReplacementPolicy::Rlfu => {
                let mut ranked: Vec<usize> = (0..candidates.len()).collect();
                ranked.sort_by_key(|&i| key(&candidates[i]));
                let pool = (candidates.len() / 4).max(1);
                ranked[self.rng.next_below(pool as u64) as usize]
            }
        }
    }

    /// Puts `entry` in table `t`: the first free way of its set, else the
    /// policy's victim.
    fn place(&mut self, t: usize, mut entry: Entry) {
        entry.tag = self.tables[t].tag(entry.vpn, self.cfg.irip.tag_bits);
        let set = self.tables[t].set(entry.vpn);
        if let Some(free) = self.tables[t].sets[set].iter().position(Option::is_none) {
            self.tables[t].sets[set][free] = Some(entry);
            return;
        }
        let candidates: Vec<(VirtPage, u64)> = self.tables[t].sets[set]
            .iter()
            .map(|e| {
                let e = e.as_ref().expect("full set");
                (e.vpn, e.stamp)
            })
            .collect();
        let way = self.victim(&candidates);
        self.tables[t].sets[set][way] = Some(entry);
        self.irip.evictions += 1;
    }

    /// Stores `d` as a successor of `prev` (Fig 12 steps 18–25).
    fn train(&mut self, prev: VirtPage, d: PageDistance) {
        let Some(at) = self.locate(prev) else {
            return;
        };
        let tick = self.tick;
        let (t, width, tables) = (at.0, self.tables[at.0].width, self.tables.len());
        let entry = self.entry_mut(at);
        entry.stamp = tick;
        if entry.slots.iter().any(|s| s.dist == d) {
            return;
        }
        let fresh = Slot { dist: d, conf: 0 };
        if entry.slots.len() < width {
            entry.slots.push(fresh);
        } else if t + 1 < tables {
            let mut moved = self.tables[t].sets[at.1][at.2]
                .take()
                .expect("located entry");
            moved.slots.push(fresh);
            self.place(t + 1, moved);
            self.irip.promotions += 1;
        } else {
            let mut weakest = 0;
            for (k, s) in entry.slots.iter().enumerate() {
                if s.conf < entry.slots[weakest].conf {
                    weakest = k;
                }
            }
            entry.slots[weakest] = fresh;
            self.irip.slot_replacements += 1;
        }
    }

    /// One iSTLB miss of `thread` on `vpn`: the decisions Morrigan emits.
    pub fn miss(&mut self, vpn: VirtPage, thread: usize) -> Vec<PrefetchDecision> {
        self.stats.misses += 1;
        let thread = thread.min(self.prev.len() - 1);
        let prev = self.prev[thread];
        self.tick += 1;
        self.irip.lookups += 1;
        self.freq.record(vpn);

        let mut out = Vec::new();
        match self.locate(vpn) {
            Some(at) => {
                let tick = self.tick;
                let max_conf_only = self.cfg.spatial_max_conf_only;
                let entry = self.entry_mut(at);
                entry.stamp = tick;
                let mut best = 0;
                for (k, s) in entry.slots.iter().enumerate() {
                    if s.conf >= entry.slots[best].conf {
                        best = k;
                    }
                }
                for (k, s) in entry.slots.iter().enumerate() {
                    let target = s.dist.apply(vpn);
                    if target == vpn {
                        continue;
                    }
                    out.push(PrefetchDecision {
                        vpn: target,
                        spatial: !max_conf_only || k == best,
                        origin: Some(PrefetchOrigin {
                            source: vpn,
                            distance: s.dist,
                        }),
                        component: PrefetchComponent::IripTable(at.0 as u8),
                    });
                }
                self.irip.hits += 1;
                self.irip.predictions += out.len() as u64;
            }
            None => {
                let fresh = Entry {
                    tag: 0,
                    vpn,
                    slots: Vec::new(),
                    stamp: self.tick,
                };
                self.place(0, fresh);
                self.irip.insertions += 1;
            }
        }
        if let Some(prev) = prev {
            let d = PageDistance::between(prev, vpn);
            if d.0 != 0 {
                if d.fits_bits(self.cfg.irip.distance_bits) {
                    self.train(prev, d);
                } else {
                    self.irip.unrepresentable_distances += 1;
                }
            }
        }

        if !out.is_empty() {
            self.stats.irip_engaged += 1;
        }
        if self.cfg.sdp_enabled && (out.is_empty() || !self.cfg.sdp_only_on_irip_miss) {
            out.push(PrefetchDecision {
                vpn: vpn.offset(1),
                spatial: true,
                origin: None,
                component: PrefetchComponent::Sdp,
            });
            self.stats.sdp_engaged += 1;
        }
        self.prev[thread] = Some(vpn);
        out
    }

    /// A prefetch-buffer hit on a prefetch `origin` produced: the slot
    /// storing that distance gains one confidence step.
    pub fn credit(&mut self, origin: PrefetchOrigin) {
        self.stats.credits += 1;
        let max = (1 << self.cfg.irip.conf_bits) - 1;
        let Some(at) = self.locate(origin.source) else {
            return;
        };
        let entry = self.entry_mut(at);
        if let Some(s) = entry.slots.iter_mut().find(|s| s.dist == origin.distance) {
            s.conf = (s.conf + 1).min(max);
            self.irip.credits += 1;
        }
    }

    /// A context switch: every entry, every frequency and every
    /// previous-miss register is forgotten.
    pub fn flush(&mut self) {
        for table in &mut self.tables {
            for set in &mut table.sets {
                set.fill(None);
            }
        }
        self.freq.reset();
        self.prev.fill(None);
    }

    /// The table answering for `vpn` and the distances its entry
    /// stores, in slot order.
    pub fn residency(&self, vpn: VirtPage) -> Option<(usize, Vec<PageDistance>)> {
        let (t, set, way) = self.locate(vpn)?;
        let entry = self.tables[t].sets[set][way].as_ref().expect("located");
        Some((t, entry.slots.iter().map(|s| s.dist).collect()))
    }

    pub fn occupancy(&self) -> usize {
        self.tables
            .iter()
            .flat_map(|t| &t.sets)
            .flatten()
            .flatten()
            .count()
    }
}
