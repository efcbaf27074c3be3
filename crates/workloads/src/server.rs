//! The QMM-like synthetic server workload generator.
//!
//! Emits an infinite instruction+data trace whose page-level control flow
//! reproduces the paper's §3.3 findings. The generator is **trace-based**:
//! code execution follows *call chains* — deterministic sequences of pages
//! standing in for cross-page call paths through a deep software stack.
//! Which chain runs next is random (skewed by popularity), but *within* a
//! chain the page sequence repeats exactly on every execution. This is the
//! property that gives real server miss streams their Markov structure:
//! when a cold chain runs, its pages miss the STLB *in order*, so the
//! miss-stream successor of a page is highly predictable (Fig 8's 51 %
//! top-successor probability) even though chain selection is random.
//!
//! Everything derives from the seed: two streams with the same config
//! replay identically.

use morrigan_types::rng::{SplitMix64, Xoshiro256StarStar};
use morrigan_types::{VirtAddr, VirtPage};

use crate::instruction::{InstructionStream, MemAccess, TraceInstruction};
use crate::zipf::PowerLawSampler;

/// Configuration of one synthetic server workload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerWorkloadConfig {
    /// Workload name for reports.
    pub name: String,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Instruction footprint in 4 KB pages (QMM-class: thousands).
    pub code_pages: u64,
    /// Data footprint in 4 KB pages.
    pub data_pages: u64,
    /// First page of the code region.
    pub code_base: VirtPage,
    /// First page of the data region.
    pub data_base: VirtPage,
    /// Mean instructions executed in a page before moving down the chain;
    /// sets the page-transition rate and with it the iSTLB pressure.
    pub run_len_mean: f64,
    /// Fraction of chain links that target a *small delta* (±1..=10
    /// pages), reproducing Fig 5's ~19 % of deltas ≤ 10.
    pub small_delta_frac: f64,
    /// Fraction of instructions performing a data access.
    pub mem_frac: f64,
    /// Probability that a data access revisits a recently touched page
    /// (temporal locality). Controls the dSTLB miss rate: the paper
    /// measures dSTLB misses at ~58 % of all STLB misses, i.e. the same
    /// order of magnitude as the iSTLB misses, not orders more.
    pub data_reuse: f64,
    /// Power-law exponent for page/chain popularity (code skew, Fig 6).
    pub code_alpha: f64,
    /// Power-law exponent for data page selection.
    pub data_alpha: f64,
    /// Number of program phases the warm region rotates through.
    pub phases: u64,
    /// Instructions per phase.
    pub phase_len: u64,
    /// Fraction of the footprint shared by all phases (the hot core).
    pub hot_core_frac: f64,
    /// Pages in the per-phase *warm pool* — the population whose STLB
    /// reuse distance exceeds capacity, producing the recurring misses of
    /// Fig 6 (the paper: 400–800 pages cause 90 % of iSTLB misses).
    pub warm_pages: u64,
    /// Probability that the next executed chain is a warm chain.
    pub p_warm: f64,
    /// Probability that the next executed chain is a cold-tail chain.
    pub p_cold: f64,
}

impl ServerWorkloadConfig {
    /// A representative QMM-class configuration derived from `seed`, with
    /// per-seed variation in footprint, locality, and phase behaviour so a
    /// suite of seeds spans the diversity of the paper's 45 workloads.
    pub fn qmm_like(name: impl Into<String>, seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed ^ 0x714c);
        let r = |mix: &mut SplitMix64, lo: f64, hi: f64| {
            lo + (mix.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * (hi - lo)
        };
        Self {
            name: name.into(),
            seed,
            code_pages: 4000 + mix.next_u64() % 6000, // 4k–10k pages (16–40 MB code)
            data_pages: 8192 + mix.next_u64() % 24576,
            code_base: VirtPage::new(0x400),
            data_base: VirtPage::new(0x10_0000),
            run_len_mean: r(&mut mix, 45.0, 140.0),
            small_delta_frac: r(&mut mix, 0.20, 0.34),
            mem_frac: r(&mut mix, 0.25, 0.35),
            data_reuse: r(&mut mix, 0.978, 0.988),
            code_alpha: r(&mut mix, 1.6, 2.4),
            data_alpha: r(&mut mix, 1.4, 2.2),
            phases: 2 + mix.next_u64() % 4,
            phase_len: 1_500_000 + mix.next_u64() % 2_000_000,
            hot_core_frac: r(&mut mix, 0.25, 0.4),
            warm_pages: 350 + mix.next_u64() % 170,
            p_warm: r(&mut mix, 0.08, 0.14),
            p_cold: r(&mut mix, 0.002, 0.005),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on zero footprints, non-positive run length, out-of-range
    /// fractions, or zero phases.
    pub fn validate(&self) {
        assert!(
            self.code_pages >= 16,
            "code footprint too small to be a server workload"
        );
        assert!(self.data_pages >= 16, "data footprint too small");
        assert!(
            self.run_len_mean >= 1.0,
            "run length must be at least one instruction"
        );
        for (name, f) in [
            ("small_delta_frac", self.small_delta_frac),
            ("mem_frac", self.mem_frac),
            ("data_reuse", self.data_reuse),
            ("hot_core_frac", self.hot_core_frac),
            ("p_warm", self.p_warm),
            ("p_cold", self.p_cold),
        ] {
            assert!(
                (0.0..=1.0).contains(&f),
                "{name} must be a fraction, got {f}"
            );
        }
        assert!(self.phases >= 1, "at least one phase required");
        assert!(self.phase_len >= 1, "phase length must be positive");
        assert!(
            self.p_warm + self.p_cold <= 1.0,
            "class probabilities must sum below 1"
        );
        assert!(self.warm_pages >= 8, "warm pool too small");
    }
}

/// One call chain: a fixed sequence of pages (global page indices within
/// the code footprint).
#[derive(Debug, Clone)]
struct Chain {
    pages: Vec<u64>,
}

/// The generator.
#[derive(Debug, Clone)]
pub struct ServerWorkload {
    cfg: ServerWorkloadConfig,
    rng: Xoshiro256StarStar,
    /// Chains of the three execution classes.
    hot_chains: Vec<Chain>,
    warm_chains: Vec<Chain>,
    cold_chains: Vec<Chain>,
    hot_sampler: PowerLawSampler,
    /// Weighted-fair-queue state over the warm chains: warm work arrives
    /// like a steady request mix with a popularity spectrum — chain *k*
    /// recurs at a stable interval proportional to `(k+1)^0.7`, so every
    /// revisit stays beyond STLB reach while the per-page miss frequency
    /// is skewed the way the paper's Fig 6 measures (a modest number of
    /// pages dominates the misses).
    warm_due: Vec<f64>,
    phase: u64,
    instructions: u64,
    /// Instructions left in the current phase; counts down from
    /// `phase_len` so the phase boundary needs no per-instruction modulo.
    phase_left: u64,
    /// Currently executing chain: (class, index) where class 0 = hot,
    /// 1 = warm, 2 = cold.
    chain: (u8, usize),
    /// Position within the chain.
    pos: usize,
    /// Instructions left before moving to the chain's next page.
    remaining: u64,
    /// Byte offset of the next fetch within the current page.
    offset: u64,
    /// Recently touched data pages, re-used for temporal locality.
    recent_data: [u64; 32],
    data_sampler: PowerLawSampler,
}

impl ServerWorkload {
    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(cfg: ServerWorkloadConfig) -> Self {
        cfg.validate();
        let rng = Xoshiro256StarStar::new(cfg.seed);
        let data_sampler = PowerLawSampler::new(cfg.data_pages, cfg.data_alpha);
        let mut w = Self {
            rng,
            hot_chains: Vec::new(),
            warm_chains: Vec::new(),
            cold_chains: Vec::new(),
            hot_sampler: PowerLawSampler::new(1, 1.0),
            warm_due: Vec::new(),
            phase: 0,
            instructions: 0,
            phase_left: cfg.phase_len,
            chain: (0, 0),
            pos: 0,
            remaining: 0,
            offset: 0,
            recent_data: [0; 32],
            data_sampler,
            cfg,
        };
        w.build_phase_chains(0);
        w
    }

    /// This workload's configuration.
    pub fn config(&self) -> &ServerWorkloadConfig {
        &self.cfg
    }

    /// Number of call chains in the current phase.
    pub fn chain_count(&self) -> usize {
        self.hot_chains.len() + self.warm_chains.len() + self.cold_chains.len()
    }

    /// (Re)builds the call chains for `phase`. Deterministic in
    /// `(seed, phase)` so phase revisits see the same chains.
    ///
    /// Three chain classes shape the STLB reuse-distance spectrum:
    ///
    /// * **hot** chains walk a pool sized to stay STLB-resident (their
    ///   pages produce I-TLB misses but mostly STLB hits);
    /// * **warm** chains walk a ~500-page per-phase pool at revisit
    ///   intervals beyond STLB reach — these produce the bulk of the
    ///   iSTLB misses, deterministically in chain order (the paper's
    ///   Markov-predictable miss stream);
    /// * **cold** chains occasionally sweep the long tail of the
    ///   footprint (compulsory-style misses).
    fn build_phase_chains(&mut self, phase: u64) {
        let cfg = &self.cfg;
        // Page *membership* derives from the seed only (not the phase):
        // the scattered candidate pool is stable, and phases slide a
        // window over it, so most of the recurring miss band persists
        // across a phase change while a fresh slice appears — the
        // "phase-change behavior" RLFU's periodic reset targets (§4.1.1).
        let mut pool_rng = Xoshiro256StarStar::new(SplitMix64::mix(cfg.seed ^ 0xcf9));

        // The hot pool must stay (mostly) STLB-resident next to the data
        // traffic, so it is capped near the STLB's 1536 entries; the rest
        // of the footprint is reachable only through warm/cold chains.
        let hot_pages = ((cfg.code_pages as f64 * cfg.hot_core_frac) as u64).clamp(16, 500);
        let warm = cfg.warm_pages.min(cfg.code_pages - hot_pages).max(8);
        let tail_start = hot_pages;

        // Scatter the tail: warm pages are drawn from a shuffled pool of
        // the whole image, the way hot-but-not-hottest functions really
        // are laid out. Scattering has two roles: demand walks pay
        // realistic latencies (leaf-PTE lines and page-directory regions
        // spread over the image), and the *deltas* between a chain's
        // consecutive pages are effectively unique — so a distance-indexed
        // predictor thrashes its table (the paper measures 93.7 %
        // conflicting accesses for DP) while page-level Markov structure
        // remains fully learnable.
        let mut candidates: Vec<u64> = (tail_start..cfg.code_pages).collect();
        pool_rng.shuffle(&mut candidates);
        let pool_len = candidates.len() as u64;
        let window_start = (phase % cfg.phases) * (warm / 8) % pool_len.max(1);
        let warm_pool: Vec<u64> = (0..warm.min(pool_len))
            .map(|i| candidates[((window_start + i) % pool_len) as usize])
            .collect();

        // Hot pool pages, shuffled so hot chains interleave the pool.
        let mut hot_pool: Vec<u64> = (0..hot_pages).collect();
        pool_rng.shuffle(&mut hot_pool);

        // A chain is a *fixed sequence* over its disjoint chunk of a pool:
        // every execution reproduces exactly the same page order (deep
        // call chains repeat verbatim — the property IRIP relies on).
        // Within a chain, execution loops back to earlier pages (returns
        // up the call stack), so pages acquire 2–3 distinct successors —
        // the Fig 7 spread — without run-to-run variance. The sequence is
        // seeded by the chain's first page, so a chain whose membership
        // survives a phase change keeps its exact sequence.
        let seed0 = cfg.seed;
        let sdf = cfg.small_delta_frac;
        let code_pages = cfg.code_pages;
        let build_chunked = |pool: &[u64], slice: usize, helpers: bool| {
            let mut chains = Vec::with_capacity(pool.len() / slice + 1);
            for chunk in pool.chunks(slice) {
                if chunk.is_empty() {
                    continue;
                }
                let mut crng = Xoshiro256StarStar::new(SplitMix64::mix(seed0 ^ chunk[0] ^ 0x11ce));
                let mut distinct: Vec<u64> = Vec::with_capacity(slice * 2);
                for &page in chunk {
                    distinct.push(page);
                    if helpers && crng.chance(sdf) {
                        // A spatially local helper page (Fig 5's small
                        // deltas; also PTE-line locality for SDP).
                        distinct.push((page + crng.range(1, 4)).min(code_pages - 1));
                    }
                }
                distinct.dedup();
                let mut pages = Vec::with_capacity(distinct.len() * 2);
                let mut fresh = 1usize;
                pages.push(distinct[0]);
                while fresh < distinct.len() {
                    if crng.chance(0.35) && pages.len() >= 2 {
                        // Return/loop back to a page earlier in this chain.
                        let back = pages[crng.next_below(pages.len() as u64) as usize];
                        if back != *pages.last().expect("non-empty") {
                            pages.push(back);
                        }
                    } else {
                        pages.push(distinct[fresh]);
                        fresh += 1;
                    }
                }
                chains.push(Chain { pages });
            }
            chains
        };

        self.hot_chains = build_chunked(&hot_pool, 8, false);
        self.warm_chains = build_chunked(&warm_pool, 10, true);

        // Cold chains sweep the long tail at random (compulsory-style
        // noise); they are rebuilt per phase and deliberately unstable.
        let mut rng = Xoshiro256StarStar::new(SplitMix64::mix(cfg.seed ^ (phase << 32) ^ 0xcf9));
        let tail = cfg.code_pages - hot_pages;
        self.cold_chains = {
            let mut chains = Vec::with_capacity(96);
            for _ in 0..96 {
                let len = rng.range(4, 11) as usize;
                let mut pages = Vec::with_capacity(len);
                let mut cur = hot_pages + rng.next_below(tail.max(1));
                pages.push(cur);
                for _ in 1..len {
                    let next = if rng.chance(cfg.small_delta_frac) {
                        let delta = rng.range(1, 11) as i64 * if rng.chance(0.5) { 1 } else { -1 };
                        cur.saturating_add_signed(delta).min(cfg.code_pages - 1)
                    } else {
                        hot_pages + rng.next_below(tail.max(1))
                    };
                    if next != cur {
                        pages.push(next);
                        cur = next;
                    }
                }
                chains.push(Chain { pages });
            }
            chains
        };
        self.hot_sampler = PowerLawSampler::new(self.hot_chains.len() as u64, cfg.code_alpha);
        // Stagger initial deadlines so the first cycle is already spread.
        self.warm_due = (0..self.warm_chains.len())
            .map(|k| Self::warm_interval(k) * (k as f64 % 7.0) / 7.0)
            .collect();
        self.phase = phase;
        self.chain = (0, 0);
        self.pos = 0;
        self.remaining = 0;
    }

    /// Revisit interval of warm chain `k` in warm-execution units: a mild
    /// power law, so chain 0 recurs ~20× more often than chain 70 while
    /// even chain 0's interval stays beyond STLB reach.
    fn warm_interval(k: usize) -> f64 {
        ((k + 1) as f64).powf(0.7)
    }

    fn pick_chain(&mut self) -> (u8, usize) {
        let u = self.rng.next_f64();
        if u < self.cfg.p_cold {
            (
                2,
                self.rng.next_below(self.cold_chains.len() as u64) as usize,
            )
        } else if u < self.cfg.p_cold + self.cfg.p_warm {
            // Weighted fair queue: run the chain whose deadline is next.
            let (k, _) = self
                .warm_due
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("deadlines are finite"))
                .expect("warm chains are non-empty");
            self.warm_due[k] += Self::warm_interval(k);
            (1, k)
        } else {
            (0, self.hot_sampler.sample(&mut self.rng) as usize)
        }
    }

    fn chain_ref(&self, chain: (u8, usize)) -> &Chain {
        match chain.0 {
            0 => &self.hot_chains[chain.1],
            1 => &self.warm_chains[chain.1],
            _ => &self.cold_chains[chain.1],
        }
    }

    /// Exponentially distributed run length with the configured mean.
    fn sample_run_len(&mut self) -> u64 {
        let u = self.rng.next_f64();
        (1.0 + -self.cfg.run_len_mean * (1.0 - u).ln()) as u64
    }

    fn data_access(&mut self) -> MemAccess {
        // Temporal locality: most accesses revisit a recent page; the
        // rest touch a fresh (popularity-skewed) page and install it in
        // the reuse window.
        let page = if self.rng.chance(self.cfg.data_reuse) {
            self.recent_data[(self.rng.next_u64() % 32) as usize]
        } else {
            let fresh = self.data_sampler.sample(&mut self.rng);
            let slot = (self.rng.next_u64() % 32) as usize;
            self.recent_data[slot] = fresh;
            fresh
        };
        let offset = (self.rng.next_u64() & 0xfff) & !7;
        // The draw that once chose a store: the latency model treats
        // loads and stores alike, but dropping it would re-seed every
        // later draw of the stream and change every record.
        let _ = self.rng.chance(0.3);
        MemAccess {
            addr: VirtAddr::new((self.cfg.data_base.raw() + page) << 12 | offset),
        }
    }
}

impl InstructionStream for ServerWorkload {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        // Phase rotation (`phase_left` counts down from `phase_len`, so
        // this fires exactly when `instructions % phase_len == 0`).
        if self.phase_left == 0 {
            self.phase_left = self.cfg.phase_len;
            let next_phase = (self.phase + 1) % self.cfg.phases;
            if next_phase != self.phase {
                self.build_phase_chains(next_phase);
            }
        }
        self.phase_left -= 1;
        self.instructions += 1;

        // Page transition: advance down the chain, or start a new chain.
        if self.remaining == 0 {
            self.pos += 1;
            if self.pos >= self.chain_ref(self.chain).pages.len() {
                self.chain = self.pick_chain();
                self.pos = 0;
            }
            self.remaining = self.sample_run_len();
            // Land anywhere in the page and walk forward, as straight-
            // line code does; landings near the page end exercise the
            // page-crossing behaviour of I-cache prefetchers (§3.5).
            self.offset = (self.rng.next_u64() % 1024) * 4;
        }
        self.remaining -= 1;

        let page = self.cfg.code_base.raw() + self.chain_ref(self.chain).pages[self.pos];
        let pc = VirtAddr::new(page << 12 | self.offset);
        self.offset = (self.offset + 4) & 0xfff;

        let mem = if self.rng.chance(self.cfg.mem_frac) {
            Some(self.data_access())
        } else {
            None
        };
        TraceInstruction { pc, mem }
    }

    fn code_region(&self) -> (VirtPage, u64) {
        (self.cfg.code_base, self.cfg.code_pages)
    }

    fn data_region(&self) -> (VirtPage, u64) {
        (self.cfg.data_base, self.cfg.data_pages)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn workload(seed: u64) -> ServerWorkload {
        ServerWorkload::new(ServerWorkloadConfig::qmm_like(format!("test-{seed}"), seed))
    }

    #[test]
    fn deterministic_replay() {
        let mut a = workload(7);
        let mut b = workload(7);
        for _ in 0..10_000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
    }

    #[test]
    fn fill_block_matches_next_instruction() {
        let mut by_one = workload(7);
        let mut by_block = workload(7);
        let expected: Vec<TraceInstruction> =
            (0..5000).map(|_| by_one.next_instruction()).collect();
        let mut block = Vec::new();
        by_block.fill_block(&mut block, 2000);
        by_block.fill_block(&mut block, 3000);
        assert_eq!(block, expected);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = workload(7);
        let mut b = workload(8);
        let same = (0..1000)
            .filter(|_| a.next_instruction() == b.next_instruction())
            .count();
        assert!(same < 100, "streams should diverge, {same} identical");
    }

    #[test]
    fn pcs_stay_in_code_region() {
        let mut w = workload(3);
        let (base, count) = w.code_region();
        for _ in 0..50_000 {
            let i = w.next_instruction();
            let page = i.pc.virt_page().raw();
            assert!(
                page >= base.raw() && page < base.raw() + count,
                "pc page {page:#x}"
            );
        }
    }

    #[test]
    fn data_stays_in_data_region() {
        let mut w = workload(3);
        let (base, count) = w.data_region();
        for _ in 0..50_000 {
            if let Some(m) = w.next_instruction().mem {
                let page = m.addr.virt_page().raw();
                assert!(page >= base.raw() && page < base.raw() + count);
            }
        }
    }

    #[test]
    fn mem_fraction_roughly_matches_config() {
        let mut w = workload(11);
        let target = w.config().mem_frac;
        let n = 100_000;
        let with_mem = (0..n)
            .filter(|_| w.next_instruction().mem.is_some())
            .count() as f64
            / n as f64;
        assert!(
            (with_mem - target).abs() < 0.02,
            "mem frac {with_mem} vs {target}"
        );
    }

    /// Extracts the page-transition stream (consecutive distinct pages).
    fn transitions(w: &mut ServerWorkload, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        let mut last = u64::MAX;
        for _ in 0..n {
            let page = w.next_instruction().pc.virt_page().raw();
            if page != last {
                out.push(page);
                last = page;
            }
        }
        out
    }

    #[test]
    fn page_transition_stream_is_skewed() {
        // Finding 2: a modest number of pages should dominate transitions.
        let mut w = workload(5);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for page in transitions(&mut w, 300_000) {
            *counts.entry(page).or_insert(0) += 1;
        }
        let total: u64 = counts.values().sum();
        let mut by_count: Vec<u64> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top_fifth: u64 = by_count.iter().take((by_count.len() / 5).max(1)).sum();
        assert!(
            top_fifth as f64 / total as f64 > 0.5,
            "top 20% of pages should take >50% of transitions, got {:.2}",
            top_fifth as f64 / total as f64
        );
    }

    #[test]
    fn small_deltas_are_present_but_not_dominant() {
        // Finding 1: deltas 1..=10 are a noticeable minority.
        let mut w = workload(9);
        let trans = transitions(&mut w, 300_000);
        let mut small = 0u64;
        for pair in trans.windows(2) {
            if pair[1].abs_diff(pair[0]) <= 10 {
                small += 1;
            }
        }
        let frac = small as f64 / (trans.len() - 1) as f64;
        // The raw *transition* stream is dominated by hot chains (small
        // within-pool steps); the paper's Fig 5 ~19 % figure applies to
        // the *miss* stream, which the fig05 experiment checks after TLB
        // filtering. Here we only assert both components exist.
        assert!((0.05..0.95).contains(&frac), "small-delta fraction {frac}");
        assert!(small > 0 && small < trans.len() as u64 - 1);
    }

    #[test]
    fn transition_successors_are_predictable() {
        // The property Markov prefetching needs (Fig 8): given a page, the
        // next page in the transition stream concentrates on few values.
        let mut w = workload(4);
        let trans = transitions(&mut w, 400_000);
        let mut succ: HashMap<u64, HashMap<u64, u64>> = HashMap::new();
        for pair in trans.windows(2) {
            *succ.entry(pair[0]).or_default().entry(pair[1]).or_insert(0) += 1;
        }
        // Over pages with ≥20 observations, the top successor should take
        // a large share (the paper measures ~51 % + 21 % + 11 %).
        let mut top_share = 0.0;
        let mut counted = 0;
        for successors in succ.values() {
            let total: u64 = successors.values().sum();
            if total < 10 {
                continue;
            }
            let max = *successors.values().max().expect("non-empty");
            top_share += max as f64 / total as f64;
            counted += 1;
        }
        assert!(
            counted > 10,
            "need a population of hot pages, got {counted}"
        );
        let mean_top = top_share / counted as f64;
        assert!(
            mean_top > 0.4,
            "top-successor probability should be high, got {mean_top:.2}"
        );
    }

    #[test]
    fn successor_counts_are_variable() {
        // Fig 7: pages differ in successor count; many have 1–2, few have
        // more than 8.
        let mut w = workload(6);
        let trans = transitions(&mut w, 400_000);
        let mut succ: HashMap<u64, HashSet<u64>> = HashMap::new();
        for pair in trans.windows(2) {
            succ.entry(pair[0]).or_default().insert(pair[1]);
        }
        let few = succ.values().filter(|s| s.len() <= 2).count();
        let many = succ.values().filter(|s| s.len() > 8).count();
        assert!(few > 0, "some pages must have 1–2 successors");
        assert!(
            many < succ.len() / 2,
            "pages with >8 successors must be a minority"
        );
    }

    #[test]
    fn phases_change_the_active_set() {
        let mut cfg = ServerWorkloadConfig::qmm_like("phasey", 13);
        cfg.phases = 4;
        cfg.phase_len = 10_000;
        let mut w = ServerWorkload::new(cfg);
        let collect_pages = |w: &mut ServerWorkload, n: usize| {
            let mut pages = HashSet::new();
            for _ in 0..n {
                pages.insert(w.next_instruction().pc.virt_page().raw());
            }
            pages
        };
        let phase0 = collect_pages(&mut w, 10_000);
        let phase1 = collect_pages(&mut w, 10_000);
        let only_in_1 = phase1.difference(&phase0).count();
        assert!(only_in_1 > 0, "phase rotation should touch new pages");
    }

    #[test]
    fn chains_are_rebuilt_deterministically_per_phase() {
        let mut cfg = ServerWorkloadConfig::qmm_like("phasey", 21);
        cfg.phases = 2;
        cfg.phase_len = 5_000;
        let mut a = ServerWorkload::new(cfg.clone());
        let mut b = ServerWorkload::new(cfg);
        for _ in 0..25_000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
    }

    #[test]
    #[should_panic(expected = "code footprint")]
    fn tiny_code_rejected() {
        let mut cfg = ServerWorkloadConfig::qmm_like("bad", 1);
        cfg.code_pages = 4;
        ServerWorkload::new(cfg);
    }
}
