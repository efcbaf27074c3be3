//! SPEC-CPU-like synthetic workloads.
//!
//! §5 of the paper measures that SPEC CPU 2006/2017 workloads have iSTLB
//! MPKI ≤ 0.5 (an order of magnitude below the QMM server workloads,
//! Fig 3) and therefore excludes them from the evaluation. This generator
//! models that behaviour: a small, loop-dominated code footprint that fits
//! comfortably in the I-TLB/STLB, paired with a strided data sweep that
//! produces the usual data-side TLB pressure.

use morrigan_types::rng::Xoshiro256StarStar;
use morrigan_types::{VirtAddr, VirtPage};

use crate::instruction::{InstructionStream, MemAccess, TraceInstruction};

/// Configuration of a SPEC-like workload.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecWorkloadConfig {
    /// Workload name.
    pub name: String,
    /// Master seed.
    pub seed: u64,
    /// Code footprint in pages (SPEC-class: tens to a couple hundred).
    pub code_pages: u64,
    /// Data footprint in pages.
    pub data_pages: u64,
    /// First page of the code region.
    pub code_base: VirtPage,
    /// First page of the data region.
    pub data_base: VirtPage,
    /// Instructions per loop iteration (stays within a handful of pages).
    pub loop_len: u64,
    /// Pages covered by one loop body.
    pub loop_pages: u64,
    /// Fraction of instructions with a data access.
    pub mem_frac: f64,
    /// Data stride in bytes for the sweep component.
    pub data_stride: u64,
}

impl SpecWorkloadConfig {
    /// A representative SPEC-class configuration derived from `seed`.
    pub fn spec_like(name: impl Into<String>, seed: u64) -> Self {
        let mut mix = morrigan_types::rng::SplitMix64::new(seed ^ 0x57ec);
        Self {
            name: name.into(),
            seed,
            code_pages: 48 + mix.next_u64() % 150,
            data_pages: 4096 + mix.next_u64() % 8192,
            code_base: VirtPage::new(0x400),
            data_base: VirtPage::new(0x10_0000),
            loop_len: 2_000 + mix.next_u64() % 20_000,
            loop_pages: 2 + mix.next_u64() % 6,
            mem_frac: 0.30,
            data_stride: [8u64, 16, 64, 4096][(mix.next_u64() % 4) as usize],
        }
    }
}

/// The SPEC-like generator: nested loops over a small code region.
#[derive(Debug, Clone)]
pub struct SpecWorkload {
    cfg: SpecWorkloadConfig,
    rng: Xoshiro256StarStar,
    in_loop: u64,
    loop_base_page: u64,
    offset: u64,
    data_cursor: u64,
}

impl SpecWorkload {
    /// Builds the generator.
    ///
    /// # Panics
    ///
    /// Panics if the loop does not fit in the code footprint.
    pub fn new(cfg: SpecWorkloadConfig) -> Self {
        assert!(
            cfg.loop_pages <= cfg.code_pages,
            "loop must fit in the code footprint"
        );
        assert!(
            cfg.code_pages > 0 && cfg.data_pages > 0,
            "footprints must be positive"
        );
        let rng = Xoshiro256StarStar::new(cfg.seed);
        Self {
            rng,
            in_loop: 0,
            loop_base_page: 0,
            offset: 0,
            cfg,
            data_cursor: 0,
        }
    }

    /// This workload's configuration.
    pub fn config(&self) -> &SpecWorkloadConfig {
        &self.cfg
    }
}

impl InstructionStream for SpecWorkload {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn next_instruction(&mut self) -> TraceInstruction {
        // Loop transitions are rare: pick a new small region occasionally.
        if self.in_loop == 0 {
            self.in_loop = self.cfg.loop_len;
            self.loop_base_page = self
                .rng
                .next_below(self.cfg.code_pages - self.cfg.loop_pages + 1);
            self.offset = 0;
        }
        self.in_loop -= 1;

        // Walk the loop body: sequential fetch wrapping within loop_pages.
        let span_bytes = self.cfg.loop_pages * 4096;
        let page = self.cfg.code_base.raw() + self.loop_base_page + self.offset / 4096;
        let pc = VirtAddr::new(page << 12 | (self.offset & 0xfff));
        self.offset = (self.offset + 4) % span_bytes;

        let mem = if self.rng.chance(self.cfg.mem_frac) {
            // Strided sweep over the data region with occasional random
            // touches (pointer chases).
            let addr = if self.rng.chance(0.9) {
                self.data_cursor =
                    (self.data_cursor + self.cfg.data_stride) % (self.cfg.data_pages * 4096);
                self.cfg.data_base.raw() * 4096 + self.data_cursor
            } else {
                self.cfg.data_base.raw() * 4096
                    + (self.rng.next_below(self.cfg.data_pages * 4096) & !7)
            };
            // The draw that once chose a store: the latency model treats
            // loads and stores alike, but dropping it would re-seed every
            // later draw of the stream and change every record.
            let _ = self.rng.chance(0.3);
            Some(MemAccess {
                addr: VirtAddr::new(addr),
            })
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
    use std::collections::HashSet;

    #[test]
    fn deterministic() {
        let mut a = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 1));
        let mut b = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 1));
        for _ in 0..5_000 {
            assert_eq!(a.next_instruction(), b.next_instruction());
        }
    }

    #[test]
    fn fill_block_matches_next_instruction() {
        let mut by_one = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 5));
        let mut by_block = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 5));
        let expected: Vec<TraceInstruction> =
            (0..5000).map(|_| by_one.next_instruction()).collect();
        let mut block = Vec::new();
        by_block.fill_block(&mut block, 5000);
        assert_eq!(block, expected);
    }

    #[test]
    fn page_transitions_are_rare() {
        // SPEC-class behaviour: far fewer page transitions per
        // kilo-instruction than the server generator.
        let mut w = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 2));
        let mut transitions = 0u64;
        let mut last = 0u64;
        let n = 100_000;
        for _ in 0..n {
            let page = w.next_instruction().pc.virt_page().raw();
            if page != last {
                transitions += 1;
                last = page;
            }
        }
        let per_kilo = transitions as f64 * 1000.0 / n as f64;
        assert!(
            per_kilo < 5.0,
            "SPEC-like transition rate too high: {per_kilo}"
        );
    }

    #[test]
    fn touched_code_pages_fit_stlb_easily() {
        let mut w = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 3));
        let mut pages = HashSet::new();
        for _ in 0..200_000 {
            pages.insert(w.next_instruction().pc.virt_page());
        }
        assert!(
            pages.len() < 256,
            "SPEC-class code footprint, got {}",
            pages.len()
        );
    }

    #[test]
    fn pcs_and_data_stay_in_their_regions() {
        let mut w = SpecWorkload::new(SpecWorkloadConfig::spec_like("s", 4));
        let (cb, cn) = w.code_region();
        let (db, dn) = w.data_region();
        for _ in 0..50_000 {
            let i = w.next_instruction();
            let p = i.pc.virt_page().raw();
            assert!(p >= cb.raw() && p < cb.raw() + cn);
            if let Some(m) = i.mem {
                let d = m.addr.virt_page().raw();
                assert!(d >= db.raw() && d < db.raw() + dn, "data page {d:#x}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "loop must fit")]
    fn oversized_loop_rejected() {
        let mut cfg = SpecWorkloadConfig::spec_like("bad", 1);
        cfg.loop_pages = cfg.code_pages + 1;
        SpecWorkload::new(cfg);
    }
}
