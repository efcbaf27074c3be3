//! Run-wide stats-invariant audit: conservation laws connecting the MMU,
//! walker, prefetch-buffer, and memory-hierarchy counters.
//!
//! Every counter in the simulator is incremented at exactly one site, and
//! the sites are connected by the operation flow of the paper's Figure 12:
//! an iSTLB miss is either covered by the PB or pays a demand walk, every
//! successful prefetch-class walk was requested by exactly one of three
//! issuers, every walker memory reference lands in the hierarchy's
//! walk-class counters, and the PB is a closed ledger (everything inserted
//! is eventually taken, evicted unused, invalidated, or still resident).
//!
//! The laws that read only counters are written once, over a [`Metrics`]
//! total: [`audit_state`] checks them on the live totals at a checkpoint
//! (end of warmup, end of window) and adds the laws that read live
//! structures; [`audit_metrics`] checks them on the subtracted
//! measurement-window [`Metrics`].
//! [`Simulator::run`](crate::Simulator::run) calls both — always in debug
//! builds, and in release when `MORRIGAN_AUDIT=1` is set or
//! [`Simulator::set_audit`](crate::Simulator::set_audit) was called — and
//! panics with the rendered report if any law is violated.

use morrigan_mem::MemoryHierarchy;
use morrigan_obs::Recorder;
use morrigan_types::AuditReport;
use morrigan_vm::{Mmu, PrefetchPlacement};

use crate::metrics::Metrics;

/// Checks every cumulative conservation law against the live MMU and
/// memory hierarchy at checkpoint `at`, appending results to `report`:
/// the counter laws over the live totals, then the laws that read live
/// structures (the PB ledger and capacity, placement stagings, L1I
/// demand misses and TLB occupancies).
pub fn audit_state<R: Recorder>(
    report: &mut AuditReport,
    at: &str,
    mmu: &Mmu<R>,
    mem: &MemoryHierarchy,
) {
    let totals = Metrics::structure_totals(mmu, mem);
    check_counter_laws(report, at, &totals);
    let s = &totals.mmu;
    let ps = &totals.pb;
    let pb = mmu.prefetch_buffer();
    report.check_eq(
        at,
        "pb ledger: inserts == hits + evicted_unused + invalidations + occupancy",
        ps.inserts,
        ps.hits() + ps.evicted_unused + ps.invalidations + pb.len() as u64,
    );
    report.check_le(
        at,
        "pb occupancy ≤ pb capacity",
        pb.len() as u64,
        pb.capacity() as u64,
    );
    let staged = match mmu.config().placement {
        PrefetchPlacement::Buffer => {
            s.prefetches_issued + s.spatial_ptes_staged + s.icache_prefetches_issued
        }
        // P2TLB places prefetcher output directly in the STLB; only
        // i-cache-initiated translations are staged in the PB (§3.5).
        PrefetchPlacement::Stlb => s.icache_prefetches_issued,
    };
    report.check_eq(
        at,
        "pb.inserts == stagings under the placement policy",
        ps.inserts,
        staged,
    );
    report.check_le(
        at,
        "l1i_demand_misses ≤ l1i_demand_accesses",
        mem.l1i_demand_misses,
        mem.l1i_demand_accesses,
    );
    for (name, tlb) in [
        ("itlb", mmu.itlb()),
        ("dtlb", mmu.dtlb()),
        ("stlb", mmu.stlb()),
    ] {
        report.check_le(
            at,
            &format!("{name} occupancy ≤ configured entries"),
            tlb.occupancy() as u64,
            tlb.config().entries as u64,
        );
    }
}

/// Re-checks the counter laws on the subtracted measurement-window
/// metrics, plus the I-cache-prefetch law. Laws involving live state (PB
/// occupancy, TLB occupancy) do not survive the subtraction and are
/// checked only by [`audit_state`].
pub fn audit_metrics(report: &mut AuditReport, m: &Metrics) {
    let at = "measurement window";
    check_counter_laws(report, at, m);
    report.check_le(
        at,
        "iprefetch ready + walks ≤ iprefetch lines",
        m.iprefetch_translation_ready + m.iprefetch_translation_walks,
        m.iprefetch_lines,
    );
}

/// The conservation laws that hold on any span of counters — the live
/// totals at a checkpoint and the measurement window alike.
fn check_counter_laws(report: &mut AuditReport, at: &str, m: &Metrics) {
    let s = &m.mmu;
    let w = &m.walker;
    let ps = &m.pb;

    // --- Instruction translation path ---
    report.check_le(
        at,
        "itlb_misses ≤ instr_translations",
        s.itlb_misses,
        s.instr_translations,
    );
    report.check_le(
        at,
        "istlb_misses ≤ itlb_misses",
        s.istlb_misses,
        s.itlb_misses,
    );
    report.check_eq(
        at,
        "istlb_covered + walker.demand_instr_walks == istlb_misses",
        s.istlb_covered + w.demand_instr_walks,
        s.istlb_misses,
    );
    report.check_le(
        at,
        "istlb_covered_late ≤ istlb_covered",
        s.istlb_covered_late,
        s.istlb_covered,
    );

    // --- Prefetch buffer, seen from the MMU ---
    report.check_eq(at, "pb.hits == istlb_covered", ps.hits(), s.istlb_covered);
    report.check_eq(
        at,
        "pb.hits_inflight == istlb_covered_late",
        ps.hits_inflight,
        s.istlb_covered_late,
    );
    report.check_eq(
        at,
        "pb.hits + pb.misses == istlb_misses",
        ps.hits() + ps.misses,
        s.istlb_misses,
    );
    report.check_eq(
        at,
        "pb.refreshes == 0 (every MMU staging path checks residency first)",
        ps.refreshes,
        0,
    );

    // --- Data translation path ---
    report.check_le(
        at,
        "dtlb_misses ≤ data_translations",
        s.dtlb_misses,
        s.data_translations,
    );
    report.check_le(
        at,
        "dstlb_misses ≤ dtlb_misses",
        s.dstlb_misses,
        s.dtlb_misses,
    );
    report.check_eq(
        at,
        "walker.demand_data_walks == dstlb_misses",
        w.demand_data_walks,
        s.dstlb_misses,
    );

    // --- Walker: every prefetch-class walk has exactly one issuer ---
    report.check_eq(
        at,
        "walker.prefetch_walks == prefetches_issued + icache_prefetches_issued + correcting_walks",
        w.prefetch_walks,
        s.prefetches_issued + s.icache_prefetches_issued + s.correcting_walks,
    );

    // --- Walker references: 1..=4 memory references per walk (PSC) ---
    for (kind, walks, refs) in [
        ("demand_instr", w.demand_instr_walks, w.demand_instr_refs),
        ("demand_data", w.demand_data_walks, w.demand_data_refs),
        ("prefetch", w.prefetch_walks, w.prefetch_refs),
    ] {
        report.check_le(
            at,
            &format!("walker.{kind}_walks ≤ {kind}_refs"),
            walks,
            refs,
        );
        report.check_le(
            at,
            &format!("walker.{kind}_refs ≤ 4·{kind}_walks"),
            refs,
            4 * walks,
        );
    }

    // --- Memory hierarchy cross-check ---
    report.check_eq(
        at,
        "Σ walk_refs_by_level == walker demand + prefetch refs",
        m.walk_refs_by_level.iter().sum::<u64>(),
        w.demand_instr_refs + w.demand_data_refs + w.prefetch_refs,
    );
    let l1i = &m.l1i_served;
    report.check_eq(at, "no data references served by the L1I", l1i.data, 0);
    report.check_eq(
        at,
        "no demand-walk references served by the L1I",
        l1i.demand_walk,
        0,
    );
    report.check_eq(
        at,
        "no prefetch-walk references served by the L1I",
        l1i.prefetch_walk,
        0,
    );
}

/// Fetch-side probe conservation for page-run stepping: every
/// retired instruction either issued a real fetch-side translation probe
/// or was counted as elided (same-line fetch, or a run-covered new-line
/// fetch whose probe was skipped).
///
/// This is a hard assert rather than an [`AuditReport`] check: the
/// report's check count is part of the serialized record, so adding a
/// law there would break byte-identity with records rendered before
/// page-run stepping. The law guards the elision machinery itself and
/// must hold unconditionally.
pub fn assert_probe_conservation(probes_issued: u64, probes_elided: u64, instructions: u64) {
    assert_eq!(
        probes_issued + probes_elided,
        instructions,
        "fetch-side probe conservation violated: {probes_issued} issued + {probes_elided} \
         elided != {instructions} instructions"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use morrigan_mem::HierarchyConfig;
    use morrigan_types::{ThreadId, VirtPage};
    use morrigan_vm::{MmuConfig, PageTable};

    fn run_small(cfg: MmuConfig) -> (Mmu, MemoryHierarchy) {
        let mut pt = PageTable::new(7);
        pt.map_range(VirtPage::new(0x4000), 512);
        let mut mmu = Mmu::without_prefetching(cfg, pt);
        let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
        for i in 0..2000u64 {
            let vpn = VirtPage::new(0x4000 + (i * 37) % 512);
            mmu.translate_instr(vpn.base_addr(), ThreadId::ZERO, i * 40, &mut mem);
        }
        (mmu, mem)
    }

    #[test]
    fn clean_run_passes_every_law() {
        let (mmu, mem) = run_small(MmuConfig::default());
        let mut report = AuditReport::new("unit");
        audit_state(&mut report, "end", &mmu, &mem);
        assert!(report.is_clean(), "{}", report.render());
        assert!(report.checks > 20, "the full law set must be exercised");
    }

    #[test]
    fn corrupted_counter_is_caught_and_named() {
        let (mut mmu, mem) = run_small(MmuConfig::default());
        // Deliberately break conservation: claim one extra covered miss.
        mmu.stats.istlb_covered += 1;
        let mut report = AuditReport::new("unit");
        audit_state(&mut report, "end", &mmu, &mem);
        assert!(!report.is_clean());
        let rendered = report.render();
        assert!(
            rendered.contains("istlb_covered + walker.demand_instr_walks == istlb_misses"),
            "the violated law must be named: {rendered}"
        );
    }
}
