//! Instruction-cache prefetchers.
//!
//! Two designs matching the paper's setup:
//!
//! * [`NextLinePrefetcher`] — the baseline L1I prefetcher of Table 1. It
//!   prefetches the next line(s) after each fetch and **does not cross
//!   page boundaries** (§6.5), so it never generates translation traffic.
//! * [`FnlMma`] — a reduced model of FNL+MMA, the winning IPC-1 prefetcher
//!   (§3.5, §6.5). It combines a *footprint next-line* component (degree-N
//!   lookahead that does cross page boundaries) with a *multiple-miss-
//!   ahead* next-page predictor that learns page transitions and, near the
//!   end of a page, prefetches the start of the predicted next pages.
//!   Its page-crossing prefetches need address translations — the paper's
//!   whole point — so the simulator routes them through the MMU as
//!   prefetch page walks when translation cost is modelled.
//!
//! Both operate on *virtual line indices* (virtual address >> 6); the
//! simulator owns translation and cache filling.

#![forbid(unsafe_code)]

use std::fmt;

use morrigan_types::VirtPage;

/// Number of 64-byte lines in a 4 KB page.
pub const LINES_PER_PAGE: u64 = 64;

/// One instruction-prefetch request, in virtual line space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinePrefetch {
    /// Virtual line index (virtual address >> 6).
    pub vline: u64,
}

impl LinePrefetch {
    /// The virtual page containing this line.
    pub fn page(self) -> VirtPage {
        VirtPage::new(self.vline / LINES_PER_PAGE)
    }
}

/// The interface the simulator's front end drives on every fetched line.
///
/// `Send` lets a boxed prefetcher travel with its [`Simulator`] onto an
/// experiment-runner worker thread; implementors hold only owned tables.
///
/// [`Simulator`]: https://docs.rs/morrigan-sim
pub trait ICachePrefetcher: fmt::Debug + Send {
    /// Short identifier for experiment output.
    fn name(&self) -> &'static str;

    /// Observes a demand fetch of `vline` and pushes prefetch requests.
    fn on_fetch(&mut self, vline: u64, out: &mut Vec<LinePrefetch>);

    /// Clears prediction state.
    fn flush(&mut self) {}
}

/// The baseline next-line prefetcher (Table 1). Never crosses a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextLinePrefetcher {
    /// Lookahead depth in lines.
    pub degree: usize,
}

impl NextLinePrefetcher {
    /// Degree-1 next-line, the Table 1 baseline.
    pub fn new() -> Self {
        Self { degree: 1 }
    }
}

impl Default for NextLinePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl ICachePrefetcher for NextLinePrefetcher {
    fn name(&self) -> &'static str {
        "next-line"
    }

    fn on_fetch(&mut self, vline: u64, out: &mut Vec<LinePrefetch>) {
        let page = vline / LINES_PER_PAGE;
        for i in 1..=self.degree as u64 {
            let next = vline + i;
            if next / LINES_PER_PAGE != page {
                break; // clip at the page boundary
            }
            out.push(LinePrefetch { vline: next });
        }
    }
}

/// Configuration for the FNL+MMA-style prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnlMmaConfig {
    /// Footprint next-line lookahead depth (crosses pages).
    pub fnl_degree: usize,
    /// Next-page predictor entries (fully associative, LRU).
    pub npp_entries: usize,
    /// Predicted next pages stored per entry.
    pub npp_slots: usize,
    /// How close to the end of a page (in lines) fetch must be before the
    /// next-page predictor fires.
    pub edge_window: u64,
    /// Lines prefetched at the start of a predicted next page.
    pub lead_lines: u64,
}

impl Default for FnlMmaConfig {
    /// Tuned for the role the paper analyses: an I-cache prefetcher with
    /// *short* lookahead. The next-page predictor is deliberately small —
    /// I-cache prefetchers are built for line-granularity targets found in
    /// the L2/LLC, not for tracking a large page-transition working set
    /// (that is exactly the gap Morrigan fills, §3.5).
    fn default() -> Self {
        Self {
            fnl_degree: 2,
            npp_entries: 96,
            npp_slots: 1,
            edge_window: 4,
            lead_lines: 2,
        }
    }
}

#[derive(Debug, Clone)]
struct NppEntry {
    page: u64,
    next: Vec<u64>,
    stamp: u64,
}

/// A reduced FNL+MMA: footprint next-line + a next-page ("multiple miss
/// ahead") predictor that prefetches across page boundaries.
#[derive(Debug, Clone)]
pub struct FnlMma {
    cfg: FnlMmaConfig,
    npp: Vec<NppEntry>,
    last_page: Option<u64>,
    tick: u64,
    /// Prefetches that stayed within the fetched page.
    pub same_page_prefetches: u64,
    /// Prefetches that crossed a page boundary (need translations).
    pub cross_page_prefetches: u64,
}

impl FnlMma {
    /// Builds the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if any geometry field is zero.
    pub fn new(cfg: FnlMmaConfig) -> Self {
        assert!(
            cfg.fnl_degree > 0 && cfg.npp_entries > 0 && cfg.npp_slots > 0 && cfg.lead_lines > 0,
            "FNL+MMA geometry must be positive"
        );
        Self {
            cfg,
            npp: Vec::new(),
            last_page: None,
            tick: 0,
            same_page_prefetches: 0,
            cross_page_prefetches: 0,
        }
    }

    fn train_npp(&mut self, from: u64, to: u64) {
        self.tick += 1;
        let tick = self.tick;
        let slots = self.cfg.npp_slots;
        if let Some(e) = self.npp.iter_mut().find(|e| e.page == from) {
            e.stamp = tick;
            if !e.next.contains(&to) {
                if e.next.len() == slots {
                    e.next.remove(0);
                }
                e.next.push(to);
            }
            return;
        }
        let fresh = NppEntry {
            page: from,
            next: vec![to],
            stamp: tick,
        };
        if self.npp.len() < self.cfg.npp_entries {
            self.npp.push(fresh);
        } else {
            let (i, _) = self
                .npp
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .expect("NPP is full, hence non-empty");
            self.npp[i] = fresh;
        }
    }

    fn predicted_next_pages(&self, page: u64) -> &[u64] {
        self.npp
            .iter()
            .find(|e| e.page == page)
            .map(|e| e.next.as_slice())
            .unwrap_or(&[])
    }
}

impl ICachePrefetcher for FnlMma {
    fn name(&self) -> &'static str {
        "fnl+mma"
    }

    fn on_fetch(&mut self, vline: u64, out: &mut Vec<LinePrefetch>) {
        let page = vline / LINES_PER_PAGE;

        // Train the next-page predictor on page transitions.
        if let Some(last) = self.last_page {
            if last != page {
                self.train_npp(last, page);
            }
        }
        self.last_page = Some(page);

        // FNL: degree-N next lines, allowed to run past the page boundary.
        for i in 1..=self.cfg.fnl_degree as u64 {
            let next = vline + i;
            out.push(LinePrefetch { vline: next });
            if next / LINES_PER_PAGE == page {
                self.same_page_prefetches += 1;
            } else {
                self.cross_page_prefetches += 1;
            }
        }

        // MMA: near the end of the page, lead into the predicted next
        // pages (these always cross the boundary).
        let offset = vline % LINES_PER_PAGE;
        if offset >= LINES_PER_PAGE - self.cfg.edge_window {
            let predictions: Vec<u64> = self.predicted_next_pages(page).to_vec();
            for next_page in predictions {
                for i in 0..self.cfg.lead_lines {
                    out.push(LinePrefetch {
                        vline: next_page * LINES_PER_PAGE + i,
                    });
                    self.cross_page_prefetches += 1;
                }
            }
        }
    }

    fn flush(&mut self) {
        self.npp.clear();
        self.last_page = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(page: u64, offset: u64) -> u64 {
        page * LINES_PER_PAGE + offset
    }

    #[test]
    fn next_line_clips_at_page_boundary() {
        let mut p = NextLinePrefetcher { degree: 2 };
        let mut out = Vec::new();
        p.on_fetch(line(5, 62), &mut out);
        assert_eq!(
            out,
            vec![LinePrefetch { vline: line(5, 63) }],
            "line 64 is next page"
        );
        out.clear();
        p.on_fetch(line(5, 63), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn next_line_prefetches_within_page() {
        let mut p = NextLinePrefetcher::new();
        let mut out = Vec::new();
        p.on_fetch(line(5, 10), &mut out);
        assert_eq!(out, vec![LinePrefetch { vline: line(5, 11) }]);
    }

    #[test]
    fn fnl_crosses_page_boundary() {
        let mut p = FnlMma::new(FnlMmaConfig {
            fnl_degree: 4,
            ..FnlMmaConfig::default()
        });
        let mut out = Vec::new();
        p.on_fetch(line(5, 62), &mut out);
        let cross: Vec<_> = out
            .iter()
            .filter(|l| l.page() == VirtPage::new(6))
            .collect();
        assert_eq!(
            cross.len(),
            3,
            "lines 64,65,66 of page-space cross into page 6"
        );
        assert_eq!(p.cross_page_prefetches, 3);
        assert_eq!(p.same_page_prefetches, 1);
    }

    #[test]
    fn mma_learns_page_transitions_and_leads_into_them() {
        let mut p = FnlMma::new(FnlMmaConfig::default());
        let mut out = Vec::new();
        // Teach the transition 10 → 77.
        p.on_fetch(line(10, 63), &mut out);
        p.on_fetch(line(77, 0), &mut out);
        out.clear();
        // Re-enter page 10 near its end: MMA leads into page 77.
        p.on_fetch(line(10, 61), &mut out);
        let into_77: Vec<_> = out
            .iter()
            .filter(|l| l.page() == VirtPage::new(77))
            .collect();
        assert_eq!(
            into_77.len(),
            2,
            "lead_lines of the predicted page: {out:?}"
        );
        assert_eq!(into_77[0].vline, line(77, 0));
    }

    #[test]
    fn mma_is_quiet_mid_page() {
        let mut p = FnlMma::new(FnlMmaConfig::default());
        let mut out = Vec::new();
        p.on_fetch(line(10, 63), &mut out);
        p.on_fetch(line(77, 0), &mut out);
        out.clear();
        p.on_fetch(line(10, 20), &mut out);
        assert!(
            out.iter().all(|l| l.page() == VirtPage::new(10)),
            "mid-page: FNL only"
        );
    }

    #[test]
    fn npp_keeps_most_recent_slots() {
        let mut p = FnlMma::new(FnlMmaConfig {
            npp_slots: 2,
            ..FnlMmaConfig::default()
        });
        let mut out = Vec::new();
        for target in [20u64, 30, 40] {
            p.on_fetch(line(10, 63), &mut out);
            p.on_fetch(line(target, 0), &mut out);
        }
        assert_eq!(
            p.predicted_next_pages(10),
            &[30, 40],
            "oldest prediction evicted"
        );
        let mut single = FnlMma::new(FnlMmaConfig {
            npp_slots: 1,
            ..FnlMmaConfig::default()
        });
        for target in [20u64, 30] {
            single.on_fetch(line(10, 63), &mut out);
            single.on_fetch(line(target, 0), &mut out);
        }
        assert_eq!(
            single.predicted_next_pages(10),
            &[30],
            "one slot keeps the newest"
        );
    }

    #[test]
    fn npp_capacity_evicts_lru_page() {
        let mut p = FnlMma::new(FnlMmaConfig {
            npp_entries: 2,
            ..FnlMmaConfig::default()
        });
        let mut out = Vec::new();
        for (from, to) in [(1u64, 2u64), (3, 4), (5, 6)] {
            p.on_fetch(line(from, 0), &mut out);
            p.on_fetch(line(to, 0), &mut out);
        }
        // Entries exist for transitions observed; the oldest source page
        // fell out. (Transitions also chain: 2→3, 4→5.)
        assert!(p.predicted_next_pages(1).is_empty(), "LRU entry evicted");
    }

    #[test]
    fn flush_clears_predictor() {
        let mut p = FnlMma::new(FnlMmaConfig::default());
        let mut out = Vec::new();
        p.on_fetch(line(10, 63), &mut out);
        p.on_fetch(line(77, 0), &mut out);
        p.flush();
        assert!(p.predicted_next_pages(10).is_empty());
    }

    #[test]
    fn line_prefetch_page_math() {
        assert_eq!(LinePrefetch { vline: 64 }.page(), VirtPage::new(1));
        assert_eq!(LinePrefetch { vline: 63 }.page(), VirtPage::new(0));
    }
}
