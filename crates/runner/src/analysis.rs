//! Per-run "why" reports and cross-run differential attribution.
//!
//! The [`AnalysisReport`] is the runner-level rendering of a
//! [`TraceAnalysis`] diagnosis: miss-stream anatomy, per-component
//! prefetch attribution, replacement forensics, walk-latency
//! histograms, and — crucially — a list of [`LawCheck`]s reconciling
//! every analysis number that also exists as an audited structure
//! counter. A report whose laws all hold is *grounded*: each of its
//! claims telescopes exactly to `MmuStats`/`WalkerStats`/`PbStats`.
//!
//! Multi-core records have no event recorder; their reports are built
//! counter-based from the [`MachineSummary`] (per-core interference
//! attribution, shootdown ledger). Those numbers are width-invariant by
//! the machine's epoch-barrier protocol, so machine reports are
//! byte-identical at any machine thread width.
//!
//! The differential path ([`explain_diff`]) reads two rendered records
//! back (via [`crate::jsonval`]) and decomposes the headline metric
//! delta along the same conservation laws into per-component
//! contributions.

use morrigan_obs::{ComponentTally, LogHistogram, TraceAnalysis};
use morrigan_sim::MachineSummary;
use morrigan_types::{PrefetchComponent, WalkKind};
use morrigan_vm::{MmuStats, PbStats, WalkerStats};

use crate::json::{json_f64, json_string, kv, obj};
use crate::jsonval::JsonValue;
use crate::spec::{RunRecord, WorkloadSpec};

/// Schema identifier stamped into every rendered report.
pub const ANALYSIS_SCHEMA: &str = "morrigan-analysis-v1";

/// Cumulative (whole-run) structure counters captured at the end of an
/// analyzed execution. The trace stream covers warmup and measurement
/// alike, so reconciliation must be against these, not the
/// measurement-window [`Metrics`](morrigan_sim::Metrics).
#[derive(Debug, Clone, Copy, Default)]
pub struct CumulativeStats {
    /// MMU counters over the whole run.
    pub mmu: MmuStats,
    /// Walker counters over the whole run.
    pub walker: WalkerStats,
    /// Prefetch-buffer counters over the whole run.
    pub pb: PbStats,
    /// Morrigan-internal counters, when the prefetcher is a Morrigan
    /// (via `as_any` downcast): IRIP predictions, IRIP evictions, and
    /// SDP issues.
    pub irip: Option<IripSnapshot>,
}

/// The Morrigan-internal counters the component laws telescope to.
#[derive(Debug, Clone, Copy, Default)]
pub struct IripSnapshot {
    /// `IripStats::predictions`: decisions the IRIP tables emitted.
    pub predictions: u64,
    /// `IripStats::evictions`: RLFU victims across all tables.
    pub evictions: u64,
    /// `Sdp::issued`: decisions the sampling-based distance prefetcher
    /// emitted.
    pub sdp_issued: u64,
}

/// One double-entry reconciliation check: an event-derived number
/// against the audited counter it must equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LawCheck {
    /// Human-readable statement of the law.
    pub law: String,
    /// The trace-analysis side.
    pub lhs: u64,
    /// The audited-counter side.
    pub rhs: u64,
}

impl LawCheck {
    fn new(law: &str, lhs: u64, rhs: u64) -> Self {
        Self {
            law: law.to_string(),
            lhs,
            rhs,
        }
    }

    /// Whether the two sides agree.
    pub fn ok(&self) -> bool {
        self.lhs == self.rhs
    }
}

/// A rendered log-histogram: summary statistics plus the non-empty
/// buckets as `(low, high, count)` triples.
#[derive(Debug, Clone, PartialEq)]
pub struct HistReport {
    /// Samples recorded.
    pub count: u64,
    /// Mean sample.
    pub mean: f64,
    /// Largest sample.
    pub max: u64,
    /// Median bucket bounds, when non-empty.
    pub p50: Option<(u64, u64)>,
    /// 90th-percentile bucket bounds, when non-empty.
    pub p90: Option<(u64, u64)>,
    /// Non-empty buckets, ascending.
    pub buckets: Vec<(u64, u64, u64)>,
}

impl HistReport {
    fn from_hist(h: &LogHistogram) -> Self {
        Self {
            count: h.count(),
            mean: h.mean(),
            max: h.max(),
            p50: h.quantile_bucket(0.5),
            p90: h.quantile_bucket(0.9),
            buckets: h.nonzero_buckets(),
        }
    }
}

/// Per-component attribution row: the raw tallies plus the derived
/// quality metrics the report surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentReport {
    /// Component name (`irip0`..`irip3`, `sdp`, `icache`, `other`).
    pub name: &'static str,
    /// The raw event tallies.
    pub tally: ComponentTally,
}

impl ComponentReport {
    /// Share of all PB hits credited to this component, given the total.
    pub fn coverage_share(&self, total_hits: u64) -> f64 {
        if total_hits == 0 {
            0.0
        } else {
            self.tally.hits as f64 / total_hits as f64
        }
    }
}

/// Miss-stream anatomy section (single-core traced runs only).
#[derive(Debug, Clone, PartialEq)]
pub struct MissAnatomy {
    /// iSTLB misses observed.
    pub total_misses: u64,
    /// Misses to a higher page than the previous miss.
    pub ascending: u64,
    /// Misses to a lower page.
    pub descending: u64,
    /// Repeat misses to the same page.
    pub repeats: u64,
    /// |Δpage| histogram between consecutive misses.
    pub distance: HistReport,
    /// Cycle-gap histogram between consecutive misses.
    pub gap_cycles: HistReport,
    /// STLB set-pressure: set count, total demand misses binned, the
    /// hottest set and its count, and the top-8 `(set, count)` pairs.
    pub set_count: usize,
    /// Demand misses binned across sets (equals the distances' source
    /// stream length).
    pub set_total: u64,
    /// The hottest set index.
    pub hottest_set: usize,
    /// The hottest set's miss count.
    pub hottest_count: u64,
    /// The top-8 hottest `(set, count)` pairs, descending by count.
    pub hot_sets: Vec<(usize, u64)>,
}

/// Per-core interference attribution for multi-core records.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineCoreRow {
    /// Core id.
    pub core: usize,
    /// Tenant workload names sharing this core (`+`-joined), with their
    /// ASIDs assigned in (core, tenant) order.
    pub tenants: String,
    /// First ASID of this core's tenants.
    pub first_asid: u16,
    /// Tenants (= ASIDs) time-sharing the core.
    pub tenant_count: usize,
    /// Window IPC.
    pub ipc: f64,
    /// Window iSTLB MPKI.
    pub istlb_mpki: f64,
    /// Window coverage.
    pub coverage: f64,
    /// Window iSTLB stall cycles.
    pub istlb_stall_cycles: u64,
    /// This core's share of machine-wide iSTLB stall cycles.
    pub stall_share: f64,
}

/// Machine section of a multi-core report.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineReport {
    /// Cores that ran.
    pub cores: usize,
    /// Context-switch quantum (instructions).
    pub quantum: u64,
    /// Whether the STLB is machine-shared.
    pub shared_stlb: bool,
    /// Shootdowns issued machine-wide.
    pub shootdowns_issued: u64,
    /// Shootdown deliveries that found a cached translation.
    pub shootdown_hits: u64,
    /// Per-core rows, core-id order.
    pub per_core: Vec<MachineCoreRow>,
}

/// The full per-run diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Whether the analysis saw every event (always true on the
    /// streaming path; false when built from a saturated ring).
    pub complete: bool,
    /// Events lost upstream of the analysis.
    pub dropped_events: u64,
    /// Events consumed.
    pub events_seen: u64,
    /// Headline window metrics: IPC, iSTLB MPKI, coverage, and the
    /// fraction of cycles stalled on iSTLB misses.
    pub ipc: f64,
    /// Window iSTLB MPKI.
    pub istlb_mpki: f64,
    /// Window coverage (PB hits / iSTLB misses).
    pub coverage: f64,
    /// Window iSTLB stall-cycle fraction.
    pub istlb_cycle_fraction: f64,
    /// Miss-stream anatomy, present on traced single-core runs.
    pub anatomy: Option<MissAnatomy>,
    /// Per-component attribution rows, present on traced runs.
    pub components: Vec<ComponentReport>,
    /// Premature IRIP evictions per table (victim re-missed within the
    /// window).
    pub premature_by_table: [u64; 4],
    /// IRIP evictions per table.
    pub irip_evict_by_table: [u64; 4],
    /// Walk-latency histograms per class: `(class name, histogram)`.
    pub walk_latency: Vec<(&'static str, HistReport)>,
    /// Reconciliation checks against the audited counters.
    pub laws: Vec<LawCheck>,
    /// Multi-core interference attribution, present on Multi records.
    pub machine: Option<MachineReport>,
}

impl AnalysisReport {
    /// Whether every reconciliation law holds.
    pub fn reconciles(&self) -> bool {
        self.laws.iter().all(LawCheck::ok)
    }

    /// Builds the report of a traced single-core run: the streamed
    /// diagnosis, the record it belongs to, and the cumulative
    /// structure counters the laws reconcile against.
    pub fn from_traced(
        analysis: &TraceAnalysis,
        record: &RunRecord,
        cumulative: &CumulativeStats,
    ) -> Self {
        let counts = analysis.counts();
        let tallies = analysis.component_tallies();
        let components = PrefetchComponent::ALL
            .iter()
            .map(|c| ComponentReport {
                name: c.name(),
                tally: tallies[c.index()],
            })
            .collect();

        let heat = analysis.set_heat();
        let mut hot: Vec<(usize, u64)> = heat
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect();
        hot.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        hot.truncate(8);
        let (hottest_set, hottest_count) = hot.first().copied().unwrap_or((0, 0));
        let (ascending, descending, repeats) = analysis.miss_directions();
        let anatomy = MissAnatomy {
            total_misses: counts.istlb_miss,
            ascending,
            descending,
            repeats,
            distance: HistReport::from_hist(analysis.miss_distance()),
            gap_cycles: HistReport::from_hist(analysis.miss_gap_cycles()),
            set_count: heat.len(),
            set_total: heat.iter().sum(),
            hottest_set,
            hottest_count,
            hot_sets: hot,
        };

        let sum = |a: &[u64]| a.iter().sum::<u64>();
        let irip_range = 0..PrefetchComponent::Sdp.index();
        let irip_sum = |a: &[u64]| a[irip_range.clone()].iter().sum::<u64>();
        let sdp = PrefetchComponent::Sdp.index();
        let mut laws = vec![
            LawCheck::new(
                "istlb_miss events == MmuStats.istlb_misses",
                counts.istlb_miss,
                cumulative.mmu.istlb_misses,
            ),
            LawCheck::new(
                "Σc prefetch_issue == MmuStats.prefetches_issued",
                sum(&counts.prefetch_issue_by_component),
                cumulative.mmu.prefetches_issued,
            ),
            LawCheck::new(
                "Σc prefetch_drop(duplicate) == MmuStats.prefetches_duplicate",
                sum(&counts.prefetch_drop_duplicate),
                cumulative.mmu.prefetches_duplicate,
            ),
            LawCheck::new(
                "Σc pb_fill == PbStats.inserts",
                sum(&counts.pb_fill_by_component),
                cumulative.pb.inserts,
            ),
            LawCheck::new(
                "Σc pb_promote == MmuStats.istlb_covered",
                sum(&counts.pb_promote_by_component),
                cumulative.mmu.istlb_covered,
            ),
            LawCheck::new(
                "Σc pb_promote(late) == PbStats.hits_inflight",
                sum(&counts.pb_promote_late_by_component),
                cumulative.pb.hits_inflight,
            ),
            LawCheck::new(
                "Σc pb_evict == PbStats.evicted_unused",
                sum(&counts.pb_evict_by_component),
                cumulative.pb.evicted_unused,
            ),
        ];
        if let Some(irip) = &cumulative.irip {
            laws.push(LawCheck::new(
                "Σ irip (issue + drops) == IripStats.predictions",
                irip_sum(&counts.prefetch_issue_by_component)
                    + irip_sum(&counts.prefetch_drop_duplicate)
                    + irip_sum(&counts.prefetch_drop_fault),
                irip.predictions,
            ));
            laws.push(LawCheck::new(
                "Σt irip_evict == IripStats.evictions",
                sum(&counts.irip_evict_by_table),
                irip.evictions,
            ));
            laws.push(LawCheck::new(
                "sdp (issue + drops) == Sdp.issued",
                counts.prefetch_issue_by_component[sdp]
                    + counts.prefetch_drop_duplicate[sdp]
                    + counts.prefetch_drop_fault[sdp],
                irip.sdp_issued,
            ));
        }

        AnalysisReport {
            workload: record.spec.workload.name(),
            prefetcher: record.spec.prefetcher.name().to_string(),
            complete: true,
            dropped_events: 0,
            events_seen: analysis.events_seen(),
            ipc: record.metrics.ipc(),
            istlb_mpki: record.metrics.istlb_mpki(),
            coverage: record.metrics.coverage(),
            istlb_cycle_fraction: record.metrics.istlb_cycle_fraction(),
            anatomy: Some(anatomy),
            components,
            premature_by_table: analysis.premature_by_table(),
            irip_evict_by_table: counts.irip_evict_by_table,
            walk_latency: WalkKind::ALL
                .iter()
                .map(|c| (c.name(), HistReport::from_hist(analysis.walk_latency(*c))))
                .collect(),
            laws,
            machine: None,
        }
    }

    /// Builds the counter-based report of a multi-core record from its
    /// [`MachineSummary`]: no event stream exists, so the anatomy and
    /// component sections stay empty and the diagnosis is interference
    /// attribution. Every input is width-invariant, so the report is
    /// byte-identical at any machine thread width.
    ///
    /// # Panics
    ///
    /// Panics when the record carries no machine summary.
    pub fn from_machine(record: &RunRecord) -> Self {
        let summary = record
            .machine
            .as_ref()
            .expect("machine reports require a multi-core record");
        let m = &record.metrics;
        let laws = vec![
            LawCheck::new(
                "Σ per-core instructions == machine instructions",
                summary.per_core.iter().map(|c| c.instructions).sum(),
                m.instructions,
            ),
            LawCheck::new(
                "Σ per-core istlb_misses == machine istlb_misses",
                summary.per_core.iter().map(|c| c.mmu.istlb_misses).sum(),
                m.mmu.istlb_misses,
            ),
            LawCheck::new(
                "shootdowns_received == issued × cores",
                summary.shootdowns_received,
                summary.shootdowns_issued * summary.cores as u64,
            ),
        ];
        AnalysisReport {
            workload: record.spec.workload.name(),
            prefetcher: record.spec.prefetcher.name().to_string(),
            complete: true,
            dropped_events: 0,
            events_seen: 0,
            ipc: m.ipc(),
            istlb_mpki: m.istlb_mpki(),
            coverage: m.coverage(),
            istlb_cycle_fraction: m.istlb_cycle_fraction(),
            anatomy: None,
            components: Vec::new(),
            premature_by_table: [0; 4],
            irip_evict_by_table: [0; 4],
            walk_latency: Vec::new(),
            laws,
            machine: Some(machine_report(record, summary)),
        }
    }

    /// Renders the report as a JSON object (schema
    /// [`ANALYSIS_SCHEMA`]).
    pub fn to_json(&self) -> String {
        report_json(self)
    }

    /// Renders the report as a human-facing markdown document.
    pub fn to_markdown(&self) -> String {
        report_markdown(self)
    }

    /// One-line digest: the report's single most load-bearing insight.
    pub fn digest(&self) -> String {
        if let Some(machine) = &self.machine {
            let worst = machine
                .per_core
                .iter()
                .max_by(|a, b| a.stall_share.total_cmp(&b.stall_share));
            return match worst {
                Some(w) => format!(
                    "{} / {}: ipc {:.3}, core {} bears {:.0}% of iSTLB stall ({})",
                    self.workload,
                    self.prefetcher,
                    self.ipc,
                    w.core,
                    w.stall_share * 100.0,
                    w.tenants
                ),
                None => format!(
                    "{} / {}: ipc {:.3}",
                    self.workload, self.prefetcher, self.ipc
                ),
            };
        }
        let total_hits: u64 = self.components.iter().map(|c| c.tally.hits).sum();
        let best = self
            .components
            .iter()
            .filter(|c| c.tally.hits > 0)
            .max_by_key(|c| c.tally.hits);
        let direction = self.anatomy.as_ref().map(|a| {
            if a.ascending >= a.descending && a.ascending >= a.repeats {
                "ascending"
            } else if a.descending >= a.repeats {
                "descending"
            } else {
                "repeating"
            }
        });
        match (best, direction) {
            (Some(b), Some(d)) => format!(
                "{} / {}: coverage {:.2}, top engine {} ({:.0}% of hits, accuracy {:.2}), \
                 miss stream mostly {}",
                self.workload,
                self.prefetcher,
                self.coverage,
                b.name,
                b.coverage_share(total_hits) * 100.0,
                b.tally.accuracy(),
                d
            ),
            _ => format!(
                "{} / {}: coverage {:.2}, istlb mpki {:.2}, no prefetch hits attributed",
                self.workload, self.prefetcher, self.coverage, self.istlb_mpki
            ),
        }
    }
}

fn machine_report(record: &RunRecord, summary: &MachineSummary) -> MachineReport {
    let (mixes, quantum) = match &record.spec.workload {
        WorkloadSpec::Multi { mixes, quantum } => (mixes.clone(), *quantum),
        _ => (Vec::new(), 0),
    };
    let total_stall: u64 = summary.per_core.iter().map(|c| c.istlb_stall_cycles).sum();
    let mut next_asid: u16 = 1;
    let per_core = summary
        .per_core
        .iter()
        .enumerate()
        .map(|(core, m)| {
            let (tenants, tenant_count, first_asid) = match mixes.get(core) {
                Some(mix) => {
                    let first = next_asid;
                    next_asid += mix.len() as u16;
                    (
                        mix.iter()
                            .map(|c| c.name.as_str())
                            .collect::<Vec<_>>()
                            .join("+"),
                        mix.len(),
                        first,
                    )
                }
                None => (String::new(), 0, 0),
            };
            MachineCoreRow {
                core,
                tenants,
                first_asid,
                tenant_count,
                ipc: m.ipc(),
                istlb_mpki: m.istlb_mpki(),
                coverage: m.coverage(),
                istlb_stall_cycles: m.istlb_stall_cycles,
                stall_share: if total_stall == 0 {
                    0.0
                } else {
                    m.istlb_stall_cycles as f64 / total_stall as f64
                },
            }
        })
        .collect();
    MachineReport {
        cores: summary.cores,
        quantum,
        shared_stlb: record.spec.system.topology.shared_stlb,
        shootdowns_issued: summary.shootdowns_issued,
        shootdown_hits: summary.shootdown_hits,
        per_core,
    }
}

// --- JSON rendering -----------------------------------------------------

fn arr_u64(values: &[u64]) -> String {
    format!(
        "[{}]",
        values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
}

fn bounds_json(b: Option<(u64, u64)>) -> String {
    match b {
        Some((lo, hi)) => format!("[{lo}, {hi}]"),
        None => "null".to_string(),
    }
}

fn hist_json(h: &HistReport) -> String {
    let buckets = h
        .buckets
        .iter()
        .map(|(lo, hi, c)| format!("[{lo}, {hi}, {c}]"))
        .collect::<Vec<_>>()
        .join(", ");
    obj(vec![
        kv("count", h.count.to_string()),
        kv("mean", json_f64(h.mean)),
        kv("max", h.max.to_string()),
        kv("p50", bounds_json(h.p50)),
        kv("p90", bounds_json(h.p90)),
        kv("buckets", format!("[{buckets}]")),
    ])
}

fn component_json(c: &ComponentReport, total_hits: u64) -> String {
    let t = &c.tally;
    obj(vec![
        kv("name", json_string(c.name)),
        kv("issued", t.issued.to_string()),
        kv("dropped_duplicate", t.dropped_duplicate.to_string()),
        kv("dropped_fault", t.dropped_fault.to_string()),
        kv("fills", t.fills.to_string()),
        kv("hits", t.hits.to_string()),
        kv("hits_late", t.hits_late.to_string()),
        kv("evicted_unused", t.evicted_unused.to_string()),
        kv("accuracy", json_f64(t.accuracy())),
        kv("late_fraction", json_f64(t.late_fraction())),
        kv("coverage_share", json_f64(c.coverage_share(total_hits))),
    ])
}

/// Renders an [`AnalysisReport`] as a standalone JSON document.
pub fn report_json(report: &AnalysisReport) -> String {
    let total_hits: u64 = report.components.iter().map(|c| c.tally.hits).sum();
    let anatomy = match &report.anatomy {
        None => "null".to_string(),
        Some(a) => {
            let hot = a
                .hot_sets
                .iter()
                .map(|(set, count)| format!("[{set}, {count}]"))
                .collect::<Vec<_>>()
                .join(", ");
            obj(vec![
                kv("total_misses", a.total_misses.to_string()),
                kv("ascending", a.ascending.to_string()),
                kv("descending", a.descending.to_string()),
                kv("repeats", a.repeats.to_string()),
                kv("distance", hist_json(&a.distance)),
                kv("gap_cycles", hist_json(&a.gap_cycles)),
                kv(
                    "set_pressure",
                    obj(vec![
                        kv("sets", a.set_count.to_string()),
                        kv("total", a.set_total.to_string()),
                        kv("hottest_set", a.hottest_set.to_string()),
                        kv("hottest_count", a.hottest_count.to_string()),
                        kv("hot_sets", format!("[{hot}]")),
                    ]),
                ),
            ])
        }
    };
    let components = report
        .components
        .iter()
        .map(|c| component_json(c, total_hits))
        .collect::<Vec<_>>()
        .join(", ");
    let walk_latency = report
        .walk_latency
        .iter()
        .map(|(name, hist)| {
            obj(vec![
                kv("class", json_string(name)),
                kv("latency", hist_json(hist)),
            ])
        })
        .collect::<Vec<_>>()
        .join(", ");
    let laws = report
        .laws
        .iter()
        .map(|law| {
            obj(vec![
                kv("law", json_string(&law.law)),
                kv("lhs", law.lhs.to_string()),
                kv("rhs", law.rhs.to_string()),
                kv("ok", law.ok().to_string()),
            ])
        })
        .collect::<Vec<_>>()
        .join(", ");
    let machine = match &report.machine {
        None => "null".to_string(),
        Some(m) => {
            let rows = m
                .per_core
                .iter()
                .map(|row| {
                    obj(vec![
                        kv("core", row.core.to_string()),
                        kv("tenants", json_string(&row.tenants)),
                        kv("first_asid", row.first_asid.to_string()),
                        kv("tenant_count", row.tenant_count.to_string()),
                        kv("ipc", json_f64(row.ipc)),
                        kv("istlb_mpki", json_f64(row.istlb_mpki)),
                        kv("coverage", json_f64(row.coverage)),
                        kv("istlb_stall_cycles", row.istlb_stall_cycles.to_string()),
                        kv("stall_share", json_f64(row.stall_share)),
                    ])
                })
                .collect::<Vec<_>>()
                .join(", ");
            obj(vec![
                kv("cores", m.cores.to_string()),
                kv("quantum", m.quantum.to_string()),
                kv("shared_stlb", m.shared_stlb.to_string()),
                kv("shootdowns_issued", m.shootdowns_issued.to_string()),
                kv("shootdown_hits", m.shootdown_hits.to_string()),
                kv("per_core", format!("[{rows}]")),
            ])
        }
    };
    obj(vec![
        kv("schema", json_string(ANALYSIS_SCHEMA)),
        kv("workload", json_string(&report.workload)),
        kv("prefetcher", json_string(&report.prefetcher)),
        kv("complete", report.complete.to_string()),
        kv("dropped_events", report.dropped_events.to_string()),
        kv("events_seen", report.events_seen.to_string()),
        kv("ipc", json_f64(report.ipc)),
        kv("istlb_mpki", json_f64(report.istlb_mpki)),
        kv("coverage", json_f64(report.coverage)),
        kv(
            "istlb_cycle_fraction",
            json_f64(report.istlb_cycle_fraction),
        ),
        kv("anatomy", anatomy),
        kv("components", format!("[{components}]")),
        kv("premature_by_table", arr_u64(&report.premature_by_table)),
        kv("irip_evict_by_table", arr_u64(&report.irip_evict_by_table)),
        kv("walk_latency", format!("[{walk_latency}]")),
        kv("laws", format!("[{laws}]")),
        kv("machine", machine),
    ])
}

// --- Markdown rendering -------------------------------------------------

fn bounds_md(b: Option<(u64, u64)>) -> String {
    match b {
        Some((lo, hi)) if lo == hi => format!("{lo}"),
        Some((lo, hi)) => format!("{lo}–{hi}"),
        None => "-".to_string(),
    }
}

/// Renders an [`AnalysisReport`] as markdown.
pub fn report_markdown(report: &AnalysisReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Run diagnosis: {} / {}\n\n",
        report.workload, report.prefetcher
    ));
    if !report.complete {
        out.push_str(&format!(
            "> **INCOMPLETE**: the trace ring dropped {} events; anatomy covers only \
             the retained suffix (exact totals are unaffected).\n\n",
            report.dropped_events
        ));
    }
    out.push_str(&format!(
        "Headline (measurement window): IPC **{:.4}**, iSTLB MPKI **{:.3}**, coverage \
         **{:.3}**, iSTLB stall fraction **{:.3}**.\n\n",
        report.ipc, report.istlb_mpki, report.coverage, report.istlb_cycle_fraction
    ));

    if let Some(a) = &report.anatomy {
        out.push_str("## Miss-stream anatomy\n\n");
        out.push_str(&format!(
            "{} iSTLB misses: {} ascending, {} descending, {} repeats. Median \
             inter-miss distance {} pages (p90 {}, max {}); median inter-miss gap \
             {} cycles.\n\n",
            a.total_misses,
            a.ascending,
            a.descending,
            a.repeats,
            bounds_md(a.distance.p50),
            bounds_md(a.distance.p90),
            a.distance.max,
            bounds_md(a.gap_cycles.p50),
        ));
        out.push_str(&format!(
            "Set pressure: {} sets, hottest set {} took {} of {} misses ({:.1}%).\n\n",
            a.set_count,
            a.hottest_set,
            a.hottest_count,
            a.set_total,
            if a.set_total == 0 {
                0.0
            } else {
                a.hottest_count as f64 / a.set_total as f64 * 100.0
            }
        ));
    }

    if !report.components.is_empty() {
        let total_hits: u64 = report.components.iter().map(|c| c.tally.hits).sum();
        out.push_str("## Per-component attribution\n\n");
        out.push_str(
            "| component | issued | dup | fault | fills | hits | late | evicted | accuracy | hit share |\n\
             |---|---|---|---|---|---|---|---|---|---|\n",
        );
        for c in &report.components {
            let t = &c.tally;
            if t.issued == 0 && t.fills == 0 && t.dropped_duplicate == 0 && t.dropped_fault == 0 {
                continue;
            }
            out.push_str(&format!(
                "| {} | {} | {} | {} | {} | {} | {} | {} | {:.3} | {:.3} |\n",
                c.name,
                t.issued,
                t.dropped_duplicate,
                t.dropped_fault,
                t.fills,
                t.hits,
                t.hits_late,
                t.evicted_unused,
                t.accuracy(),
                c.coverage_share(total_hits),
            ));
        }
        out.push('\n');
        let premature: u64 = report.premature_by_table.iter().sum();
        let evictions: u64 = report.irip_evict_by_table.iter().sum();
        if evictions > 0 {
            out.push_str(&format!(
                "Replacement forensics: {evictions} IRIP evictions \
                 (per table: {:?}), {premature} premature (victim re-missed in window; \
                 per table: {:?}).\n\n",
                report.irip_evict_by_table, report.premature_by_table
            ));
        }
    }

    if !report.walk_latency.is_empty() {
        out.push_str("## Walk latency\n\n| class | walks | mean | p50 | p90 | max |\n|---|---|---|---|---|---|\n");
        for (name, h) in &report.walk_latency {
            out.push_str(&format!(
                "| {} | {} | {:.1} | {} | {} | {} |\n",
                name,
                h.count,
                h.mean,
                bounds_md(h.p50),
                bounds_md(h.p90),
                h.max
            ));
        }
        out.push('\n');
    }

    if let Some(m) = &report.machine {
        out.push_str("## Machine interference\n\n");
        out.push_str(&format!(
            "{} cores, quantum {}, shared STLB: {}. Shootdowns issued {}, hits {}.\n\n",
            m.cores, m.quantum, m.shared_stlb, m.shootdowns_issued, m.shootdown_hits
        ));
        out.push_str(
            "| core | tenants (ASIDs) | ipc | istlb mpki | coverage | stall share |\n\
             |---|---|---|---|---|---|\n",
        );
        for row in &m.per_core {
            out.push_str(&format!(
                "| {} | {} (asid {}..{}) | {:.3} | {:.3} | {:.3} | {:.1}% |\n",
                row.core,
                row.tenants,
                row.first_asid,
                row.first_asid as usize + row.tenant_count.saturating_sub(1),
                row.ipc,
                row.istlb_mpki,
                row.coverage,
                row.stall_share * 100.0
            ));
        }
        out.push('\n');
    }

    out.push_str("## Reconciliation\n\n");
    for law in &report.laws {
        out.push_str(&format!(
            "- {} {} ({} == {})\n",
            if law.ok() { "OK " } else { "VIOLATED" },
            law.law,
            law.lhs,
            law.rhs
        ));
    }
    out.push('\n');
    out
}

// --- Differential attribution ------------------------------------------

/// The fields the differential needs from one rendered record, read
/// back out of a `figures --json` document (or a bare record object).
#[derive(Debug, Clone, Default)]
pub struct RecordDigest {
    /// Workload name.
    pub workload: String,
    /// Prefetcher name.
    pub prefetcher: String,
    /// Window instructions.
    pub instructions: u64,
    /// Window cycles.
    pub cycles: u64,
    /// Window iSTLB stall cycles.
    pub istlb_stall_cycles: u64,
    /// Window i-cache stall cycles.
    pub icache_stall_cycles: u64,
    /// Window iSTLB misses.
    pub istlb_misses: u64,
    /// Window PB-covered iSTLB misses.
    pub istlb_covered: u64,
    /// Window prefetches issued.
    pub prefetches_issued: u64,
    /// Window duplicate prefetches.
    pub prefetches_duplicate: u64,
    /// Window demand instruction walks.
    pub demand_instr_walks: u64,
    /// Summed demand instruction walk latency.
    pub demand_instr_latency: u64,
    /// PB unused evictions.
    pub pb_evicted_unused: u64,
    /// Per-component `(name, issued, fills, hits)` rows, when the
    /// record carried an analysis section.
    pub components: Vec<(String, u64, u64, u64)>,
}

impl RecordDigest {
    /// Per-kilo-instruction rate of a counter.
    fn pki(&self, count: u64) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            count as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Window IPC.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Window coverage.
    pub fn coverage(&self) -> f64 {
        if self.istlb_misses == 0 {
            0.0
        } else {
            self.istlb_covered as f64 / self.istlb_misses as f64
        }
    }
}

/// Extracts the first record object from a parsed `figures --json`
/// document; a bare record object (with a `metrics` key) passes
/// through.
pub fn first_record(doc: &JsonValue) -> Result<&JsonValue, String> {
    if doc.get("metrics").is_some() {
        return Ok(doc);
    }
    doc.get("figures")
        .and_then(|figs| {
            figs.items()
                .iter()
                .flat_map(|f| f.get("records").map(|r| r.items()).unwrap_or(&[]))
                .next()
        })
        .ok_or_else(|| {
            "document has neither a 'metrics' key (bare record) nor a non-empty \
             'figures[].records' array (figures --json dump)"
                .to_string()
        })
}

/// Digests one record object into the fields the differential uses.
pub fn digest_record(record: &JsonValue) -> Result<RecordDigest, String> {
    let metrics = record
        .get("metrics")
        .ok_or_else(|| "record has no 'metrics' object".to_string())?;
    let mmu = metrics
        .get("mmu")
        .ok_or_else(|| "record metrics have no 'mmu' object".to_string())?;
    let walker = metrics
        .get("walker")
        .ok_or_else(|| "record metrics have no 'walker' object".to_string())?;
    let need = |v: Option<u64>, what: &str| {
        v.ok_or_else(|| format!("record is missing numeric field '{what}'"))
    };
    let u = |obj: &JsonValue, key: &str| need(obj.get(key).and_then(JsonValue::as_u64), key);
    let components = record
        .get("analysis")
        .and_then(|a| a.get("components"))
        .map(|rows| {
            rows.items()
                .iter()
                .filter_map(|row| {
                    Some((
                        row.get("name")?.as_str()?.to_string(),
                        row.get("issued")?.as_u64()?,
                        row.get("fills")?.as_u64()?,
                        row.get("hits")?.as_u64()?,
                    ))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(RecordDigest {
        workload: record
            .path(&["workload", "name"])
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string(),
        prefetcher: record
            .get("prefetcher")
            .and_then(JsonValue::as_str)
            .unwrap_or("?")
            .to_string(),
        instructions: u(metrics, "instructions")?,
        cycles: u(metrics, "cycles")?,
        istlb_stall_cycles: u(metrics, "istlb_stall_cycles")?,
        icache_stall_cycles: u(metrics, "icache_stall_cycles")?,
        istlb_misses: u(mmu, "istlb_misses")?,
        istlb_covered: u(mmu, "istlb_covered")?,
        prefetches_issued: u(mmu, "prefetches_issued")?,
        prefetches_duplicate: u(mmu, "prefetches_duplicate")?,
        demand_instr_walks: u(walker, "demand_instr_walks")?,
        demand_instr_latency: u(walker, "demand_instr_latency")?,
        pb_evicted_unused: metrics
            .path(&["pb", "evicted_unused"])
            .and_then(JsonValue::as_u64)
            .unwrap_or(0),
        components,
    })
}

fn signed(x: i128) -> String {
    if x >= 0 {
        format!("+{x}")
    } else {
        format!("{x}")
    }
}

fn signed_f(x: f64) -> String {
    if x >= 0.0 {
        format!("+{x:.4}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders the differential report between two digested records,
/// decomposing the headline deltas along the audit conservation laws.
pub fn explain_diff(a: &RecordDigest, b: &RecordDigest) -> String {
    let d = |xa: u64, xb: u64| xb as i128 - xa as i128;
    let mut out = String::new();
    out.push_str(&format!(
        "# Differential: {} / {}  →  {} / {}\n\n",
        a.workload, a.prefetcher, b.workload, b.prefetcher
    ));
    if a.instructions != b.instructions {
        out.push_str(&format!(
            "> NOTE: the two runs retired different instruction counts ({} vs {}); \
             absolute deltas are not directly comparable, per-kilo-instruction rates are.\n\n",
            a.instructions, b.instructions
        ));
    }
    out.push_str(&format!(
        "IPC {:.4} → {:.4} ({}); coverage {:.3} → {:.3} ({}).\n\n",
        a.ipc(),
        b.ipc(),
        signed_f(b.ipc() - a.ipc()),
        a.coverage(),
        b.coverage(),
        signed_f(b.coverage() - a.coverage()),
    ));

    // Cycle decomposition: Δcycles = Δistlb_stall + Δicache_stall + Δother.
    let d_cycles = d(a.cycles, b.cycles);
    let d_istlb = d(a.istlb_stall_cycles, b.istlb_stall_cycles);
    let d_icache = d(a.icache_stall_cycles, b.icache_stall_cycles);
    let d_other = d_cycles - d_istlb - d_icache;
    out.push_str("## Cycle decomposition\n\n");
    out.push_str(&format!(
        "Δcycles {} = ΔiSTLB-stall {} + Δicache-stall {} + Δother {}\n\n",
        signed(d_cycles),
        signed(d_istlb),
        signed(d_icache),
        signed(d_other)
    ));

    // Miss conservation: misses == covered + demand walks, so the walk
    // delta is fully determined by the miss and coverage deltas.
    let d_miss = d(a.istlb_misses, b.istlb_misses);
    let d_cov = d(a.istlb_covered, b.istlb_covered);
    let d_walks = d(a.demand_instr_walks, b.demand_instr_walks);
    out.push_str("## Miss conservation (misses = covered + walked)\n\n");
    out.push_str(&format!(
        "ΔiSTLB misses {} = Δcovered {} + Δdemand-walks {}",
        signed(d_miss),
        signed(d_cov),
        signed(d_walks)
    ));
    out.push_str(if d_miss == d_cov + d_walks {
        "  (reconciles)\n\n"
    } else {
        "  (RESIDUAL — records disagree on the conservation law)\n\n"
    });
    let mean_walk = |digest: &RecordDigest| {
        if digest.demand_instr_walks == 0 {
            0.0
        } else {
            digest.demand_instr_latency as f64 / digest.demand_instr_walks as f64
        }
    };
    out.push_str(&format!(
        "Demand-walk rate {:.3} → {:.3} per kilo-instruction; mean demand walk \
         {:.1} → {:.1} cycles. Prefetches issued {} → {} (duplicates {} → {}), \
         PB evicted-unused {} → {}.\n\n",
        a.pki(a.demand_instr_walks),
        b.pki(b.demand_instr_walks),
        mean_walk(a),
        mean_walk(b),
        a.prefetches_issued,
        b.prefetches_issued,
        a.prefetches_duplicate,
        b.prefetches_duplicate,
        a.pb_evicted_unused,
        b.pb_evicted_unused,
    ));

    // Per-component contribution to the coverage delta, when both
    // records carried attribution.
    if !a.components.is_empty() && !b.components.is_empty() {
        out.push_str("## Per-component contribution (Δhits sums to Δcovered)\n\n");
        out.push_str("| component | issued Δ | fills Δ | hits Δ | share of Δcovered |\n|---|---|---|---|---|\n");
        let find = |digest: &RecordDigest, name: &str| {
            digest
                .components
                .iter()
                .find(|(n, _, _, _)| n == name)
                .map(|&(_, issued, fills, hits)| (issued, fills, hits))
                .unwrap_or((0, 0, 0))
        };
        let mut names: Vec<&String> = Vec::new();
        for (n, _, _, _) in a.components.iter().chain(b.components.iter()) {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        let total_dhits: i128 = names
            .iter()
            .map(|name| {
                let (_, _, ha) = find(a, name);
                let (_, _, hb) = find(b, name);
                d(ha, hb)
            })
            .sum();
        for name in &names {
            let (ia, fa, ha) = find(a, name);
            let (ib, fb, hb) = find(b, name);
            if ia == 0 && ib == 0 && fa == 0 && fb == 0 {
                continue;
            }
            let dh = d(ha, hb);
            let share = if total_dhits == 0 {
                0.0
            } else {
                dh as f64 / total_dhits as f64
            };
            out.push_str(&format!(
                "| {} | {} | {} | {} | {:.1}% |\n",
                name,
                signed(d(ia, ib)),
                signed(d(fa, fb)),
                signed(dh),
                share * 100.0
            ));
        }
        out.push('\n');
    } else {
        out.push_str(
            "Per-component attribution unavailable: one or both dumps lack an \
             'analysis' section (re-run `figures --explain` or `figures --json` on an \
             analyzed run to include it).\n\n",
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonval;

    fn digest_pair() -> (RecordDigest, RecordDigest) {
        let a = RecordDigest {
            workload: "w".into(),
            prefetcher: "baseline".into(),
            instructions: 60_000,
            cycles: 100_000,
            istlb_stall_cycles: 20_000,
            icache_stall_cycles: 5_000,
            istlb_misses: 900,
            istlb_covered: 0,
            prefetches_issued: 0,
            prefetches_duplicate: 0,
            demand_instr_walks: 900,
            demand_instr_latency: 36_000,
            pb_evicted_unused: 0,
            components: vec![],
        };
        let b = RecordDigest {
            workload: "w".into(),
            prefetcher: "morrigan".into(),
            instructions: 60_000,
            cycles: 88_000,
            istlb_stall_cycles: 9_000,
            icache_stall_cycles: 5_500,
            istlb_misses: 900,
            istlb_covered: 500,
            prefetches_issued: 700,
            prefetches_duplicate: 120,
            demand_instr_walks: 400,
            demand_instr_latency: 15_000,
            pb_evicted_unused: 150,
            components: vec![
                ("irip0".into(), 600, 620, 450),
                ("sdp".into(), 100, 110, 50),
            ],
        };
        (a, b)
    }

    #[test]
    fn diff_decomposes_along_conservation_laws() {
        let (a, b) = digest_pair();
        let doc = explain_diff(&a, &b);
        assert!(doc
            .contains("Δcycles -12000 = ΔiSTLB-stall -11000 + Δicache-stall +500 + Δother -1500"));
        assert!(doc.contains("ΔiSTLB misses +0 = Δcovered +500 + Δdemand-walks -500"));
        assert!(doc.contains("(reconciles)"));
        // b has components but a doesn't → the attribution section
        // degrades gracefully.
        assert!(doc.contains("attribution unavailable"));
    }

    #[test]
    fn diff_attributes_per_component_when_both_sides_carry_analysis() {
        let (mut a, b) = digest_pair();
        a.components = vec![("irip0".into(), 0, 0, 0), ("sdp".into(), 0, 0, 0)];
        let doc = explain_diff(&a, &b);
        assert!(doc.contains("| irip0 | +600 | +620 | +450 | 90.0% |"));
        assert!(doc.contains("| sdp | +100 | +110 | +50 | 10.0% |"));
    }

    #[test]
    fn digest_reads_back_a_rendered_record() {
        let doc = r#"{"figures": [{"figure": "f", "records": [{
            "workload": {"name": "w", "class": "server"},
            "prefetcher": "morrigan",
            "metrics": {"instructions": 10, "cycles": 20,
                "istlb_stall_cycles": 3, "icache_stall_cycles": 1,
                "mmu": {"istlb_misses": 5, "istlb_covered": 2,
                        "prefetches_issued": 4, "prefetches_duplicate": 1},
                "walker": {"demand_instr_walks": 3, "demand_instr_latency": 90},
                "pb": {"evicted_unused": 2}}}]}]}"#;
        let parsed = jsonval::parse(doc).unwrap();
        let record = first_record(&parsed).unwrap();
        let digest = digest_record(record).unwrap();
        assert_eq!(digest.workload, "w");
        assert_eq!(digest.istlb_misses, 5);
        assert_eq!(digest.demand_instr_latency, 90);
        assert!(digest.components.is_empty());
    }

    #[test]
    fn digest_rejects_a_record_without_metrics() {
        let parsed =
            jsonval::parse(r#"{"figures": [{"figure": "f", "records": [{"x": 1}]}]}"#).unwrap();
        let record = first_record(&parsed).unwrap();
        assert!(digest_record(record).is_err());
        let empty = jsonval::parse(r#"{"figures": []}"#).unwrap();
        assert!(first_record(&empty).is_err());
    }
}
