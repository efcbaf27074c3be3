//! A small hand-rolled JSON emitter for [`RunRecord`]s.
//!
//! The workspace deliberately has no JSON dependency (the libraries and
//! binaries link no external crate at all), so the `figures --json`
//! output is rendered by hand here; [`jsonval`](crate::jsonval) reads
//! it back. The schema is flat
//! and stable: one object per record with the workload/prefetcher
//! identity, the run lengths, the system knobs that distinguish specs,
//! and the full measurement metrics.

use std::sync::Arc;

use morrigan_sim::{IcachePrefetcherKind, IntervalSample, Metrics};
use morrigan_types::CounterSet;

use crate::spec::{RunRecord, WorkloadSpec};

/// Escapes a string for inclusion in a JSON document (quotes included).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders an `f64` as a JSON number (`null` for NaN/infinity, which
/// JSON cannot represent).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest representation that round-trips.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// One `"key": value` member; `value` is already rendered JSON.
pub(crate) fn kv(key: &str, value: impl AsRef<str>) -> String {
    format!("{}: {}", json_string(key), value.as_ref())
}

/// A JSON object of already-rendered members, in order.
pub(crate) fn obj(fields: Vec<String>) -> String {
    format!("{{{}}}", fields.join(", "))
}

/// A counter set as a JSON object of its counters, in declaration order.
fn counters_json(set: &impl CounterSet) -> String {
    obj(set
        .counters()
        .into_iter()
        .map(|(name, value)| kv(name, value.to_string()))
        .collect())
}

fn workload_json(workload: &WorkloadSpec) -> String {
    let class = match workload {
        WorkloadSpec::Server(_) => "server",
        WorkloadSpec::Spec(_) => "spec",
        WorkloadSpec::Smt(_) => "smt",
        WorkloadSpec::Multi { .. } => "multi",
    };
    obj(vec![
        kv("name", json_string(&workload.name())),
        kv("class", json_string(class)),
    ])
}

fn metrics_json(m: &Metrics) -> String {
    obj(vec![
        kv("instructions", m.instructions.to_string()),
        kv("cycles", m.cycles.to_string()),
        kv("ipc", json_f64(m.ipc())),
        kv("istlb_stall_cycles", m.istlb_stall_cycles.to_string()),
        kv("icache_stall_cycles", m.icache_stall_cycles.to_string()),
        kv("istlb_mpki", json_f64(m.istlb_mpki())),
        kv("itlb_mpki", json_f64(m.itlb_mpki())),
        kv("dstlb_mpki", json_f64(m.dstlb_mpki())),
        kv("l1i_mpki", json_f64(m.l1i_mpki())),
        kv("l1i_misses", m.l1i_misses.to_string()),
        kv(
            "walk_refs_by_level",
            format!(
                "[{}, {}, {}, {}]",
                m.walk_refs_by_level[0],
                m.walk_refs_by_level[1],
                m.walk_refs_by_level[2],
                m.walk_refs_by_level[3]
            ),
        ),
        kv("mmu", counters_json(&m.mmu)),
        kv("walker", counters_json(&m.walker)),
        // `pb` lists its keys: the record's order differs from
        // `PbStats`' declaration order, which its `Debug` rendering pins.
        kv(
            "pb",
            obj(vec![
                kv("hits_ready", m.pb.hits_ready.to_string()),
                kv("hits_inflight", m.pb.hits_inflight.to_string()),
                kv("misses", m.pb.misses.to_string()),
                kv("inserts", m.pb.inserts.to_string()),
                kv("refreshes", m.pb.refreshes.to_string()),
                kv("evicted_unused", m.pb.evicted_unused.to_string()),
                kv("invalidations", m.pb.invalidations.to_string()),
            ]),
        ),
        kv("l1i_served", counters_json(&m.l1i_served)),
        kv("iprefetch_lines", m.iprefetch_lines.to_string()),
        kv(
            "iprefetch_translation_ready",
            m.iprefetch_translation_ready.to_string(),
        ),
        kv(
            "iprefetch_translation_walks",
            m.iprefetch_translation_walks.to_string(),
        ),
    ])
}

/// Renders the interval sampler's time-series as a JSON array: one
/// compact object per epoch with its bounds and the headline per-epoch
/// rates (full metrics stay at the record level; the epochs carry what a
/// time-series plot needs).
fn intervals_json(samples: &[IntervalSample]) -> String {
    let epochs = samples
        .iter()
        .map(|s| {
            obj(vec![
                kv("start_instruction", s.start_instruction.to_string()),
                kv("end_instruction", s.end_instruction.to_string()),
                kv("start_cycle", s.start_cycle.to_string()),
                kv("end_cycle", s.end_cycle.to_string()),
                kv("cycles", s.metrics.cycles.to_string()),
                kv("ipc", json_f64(s.metrics.ipc())),
                kv("istlb_mpki", json_f64(s.metrics.istlb_mpki())),
                kv("l1i_mpki", json_f64(s.metrics.l1i_mpki())),
                kv("coverage", json_f64(s.metrics.coverage())),
                kv(
                    "istlb_stall_cycles",
                    s.metrics.istlb_stall_cycles.to_string(),
                ),
                kv("istlb_misses", s.metrics.mmu.istlb_misses.to_string()),
                kv(
                    "prefetches_issued",
                    s.metrics.mmu.prefetches_issued.to_string(),
                ),
            ])
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!("[{epochs}]")
}

/// Renders the machine section of a multi-core record: the topology it
/// ran under, per-core headline metrics, and the shootdown ledger. When
/// the machine recorded per-core interval time-series, each core's epoch
/// array rides along as `per_core_intervals`; the field is omitted
/// entirely otherwise so interval-off output keeps its exact historical
/// shape.
fn machine_json(record: &RunRecord, m: &morrigan_sim::MachineSummary) -> String {
    let spec = &record.spec;
    let topology = &spec.system.topology;
    let quantum = match &spec.workload {
        WorkloadSpec::Multi { quantum, .. } => quantum.to_string(),
        _ => "null".to_string(),
    };
    let per_core = m
        .per_core
        .iter()
        .map(|c| {
            obj(vec![
                kv("instructions", c.instructions.to_string()),
                kv("cycles", c.cycles.to_string()),
                kv("ipc", json_f64(c.ipc())),
                kv("istlb_mpki", json_f64(c.istlb_mpki())),
                kv("coverage", json_f64(c.coverage())),
                kv("istlb_stall_cycles", c.istlb_stall_cycles.to_string()),
            ])
        })
        .collect::<Vec<_>>()
        .join(", ");
    let mut fields = vec![
        kv("cores", m.cores.to_string()),
        kv("shared_stlb", topology.shared_stlb.to_string()),
        kv("llc_shards", topology.llc_shards.to_string()),
        kv(
            "shootdown_interval",
            topology
                .shootdown_interval
                .map_or("null".to_string(), |n| n.to_string()),
        ),
        kv("quantum", quantum),
        kv("shootdowns_issued", m.shootdowns_issued.to_string()),
        kv("shootdowns_received", m.shootdowns_received.to_string()),
        kv("shootdown_hits", m.shootdown_hits.to_string()),
        kv("per_core", format!("[{per_core}]")),
    ];
    if !m.per_core_intervals.is_empty() {
        let series = m
            .per_core_intervals
            .iter()
            .map(|samples| intervals_json(samples))
            .collect::<Vec<_>>()
            .join(", ");
        fields.push(kv("per_core_intervals", format!("[{series}]")));
    }
    obj(fields)
}

/// Renders one record as a JSON object.
pub fn record_json(record: &RunRecord) -> String {
    let spec = &record.spec;
    let icache = match spec.system.icache_prefetcher {
        IcachePrefetcherKind::None => json_string("none"),
        IcachePrefetcherKind::NextLine => json_string("next-line"),
        IcachePrefetcherKind::FnlMma { translation_cost } => obj(vec![
            kv("kind", json_string("fnl-mma")),
            kv("translation_cost", translation_cost.to_string()),
        ]),
    };
    let miss_stream = match &record.miss_stream {
        None => "null".to_string(),
        Some(s) => obj(vec![
            kv("total_misses", s.total_misses.to_string()),
            kv("unique_pages", s.page_hist.len().to_string()),
        ]),
    };
    let audit = match &record.audit {
        None => "null".to_string(),
        Some(a) => {
            let violations = a
                .violations
                .iter()
                .map(|v| {
                    obj(vec![
                        kv("law", json_string(&v.law)),
                        kv("detail", json_string(&v.detail)),
                    ])
                })
                .collect::<Vec<_>>()
                .join(", ");
            obj(vec![
                kv("context", json_string(&a.context)),
                kv("checks", a.checks.to_string()),
                kv("violations", format!("[{violations}]")),
            ])
        }
    };
    let mut fields = vec![
        kv("workload", workload_json(&spec.workload)),
        kv("prefetcher", json_string(spec.prefetcher.name())),
        kv(
            "run",
            obj(vec![
                kv(
                    "warmup_instructions",
                    spec.sim.warmup_instructions.to_string(),
                ),
                kv(
                    "measure_instructions",
                    spec.sim.measure_instructions.to_string(),
                ),
            ]),
        ),
        kv(
            "system",
            obj(vec![
                kv("perfect_istlb", spec.system.mmu.perfect_istlb.to_string()),
                kv(
                    "collect_stream_stats",
                    spec.system.mmu.collect_stream_stats.to_string(),
                ),
                kv("icache_prefetcher", icache),
                kv(
                    "context_switch_interval",
                    spec.system
                        .context_switch_interval
                        .map_or("null".to_string(), |n| n.to_string()),
                ),
            ]),
        ),
        kv("metrics", metrics_json(&record.metrics)),
        kv("miss_stream", miss_stream),
        kv("audit", audit),
        kv(
            "intervals",
            if record.intervals.is_empty() {
                "null".to_string()
            } else {
                intervals_json(&record.intervals)
            },
        ),
    ];
    // Single-core records keep their exact historical field set; the
    // machine section exists only on multi-core records, and the
    // analysis section only on records run under `Observer::Analysis` —
    // absent keys keep non-analyzed dumps byte-identical to the old
    // format.
    if let Some(m) = &record.machine {
        fields.push(kv("machine", machine_json(record, m)));
    }
    if let Some(a) = &record.analysis {
        fields.push(kv("analysis", a.to_json()));
    }
    obj(fields)
}

/// Renders the full `figures --json` document: one entry per figure,
/// each with the records that figure requested, in request order.
pub fn figures_document(figures: &[(String, Vec<Arc<RunRecord>>)]) -> String {
    let mut out = String::from("{\n  \"figures\": [\n");
    for (i, (name, records)) in figures.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&kv("figure", json_string(name)));
        out.push_str(", \"records\": [\n");
        for (j, record) in records.iter().enumerate() {
            out.push_str("      ");
            out.push_str(&record_json(record));
            out.push_str(if j + 1 < records.len() { ",\n" } else { "\n" });
        }
        out.push_str("    ]}");
        out.push_str(if i + 1 < figures.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonval::{self, JsonValue};
    use crate::spec::{PrefetcherKind, RunSpec};
    use morrigan_sim::{SimConfig, SystemConfig};
    use morrigan_workloads::ServerWorkloadConfig;

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_render_as_json_numbers() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    /// Every counter of the four counter sets reads back at
    /// `metrics.<set>.<name>` with its value: the declaration-order helper
    /// and `pb`'s explicit key list together cover every counter.
    #[test]
    fn every_counter_reads_back_from_the_record() {
        let cfg = ServerWorkloadConfig::qmm_like("json-counters", 5);
        let spec = RunSpec::server(
            &cfg,
            SystemConfig::default(),
            SimConfig {
                warmup_instructions: 10_000,
                measure_instructions: 30_000,
            },
            PrefetcherKind::Morrigan,
        );
        let record = spec.execute();
        let doc = jsonval::parse(&record_json(&record)).expect("record JSON parses");
        let m = &record.metrics;
        assert!(
            m.pb.inserts > 0,
            "a prefetching run exercises the PB counters"
        );
        for (set, counters) in [
            ("mmu", m.mmu.counters()),
            ("walker", m.walker.counters()),
            ("pb", m.pb.counters()),
            ("l1i_served", m.l1i_served.counters()),
        ] {
            let Some(JsonValue::Obj(members)) = doc.path(&["metrics", set]) else {
                panic!("metrics.{set} must be an object");
            };
            assert_eq!(members.len(), counters.len(), "metrics.{set} keys");
            for (name, value) in counters {
                let read = members.get(name).and_then(JsonValue::as_u64);
                assert_eq!(read, Some(value), "metrics.{set}.{name}");
            }
        }
    }

    #[test]
    fn document_has_balanced_structure() {
        let cfg = ServerWorkloadConfig::qmm_like("json-doc", 3);
        let spec = RunSpec::server(
            &cfg,
            SystemConfig::default(),
            SimConfig {
                warmup_instructions: 10_000,
                measure_instructions: 30_000,
            },
            PrefetcherKind::None,
        );
        let record = Arc::new(spec.execute());
        let doc = figures_document(&[("fig99".to_string(), vec![Arc::clone(&record)])]);
        assert_eq!(
            doc.matches('{').count(),
            doc.matches('}').count(),
            "balanced braces"
        );
        assert_eq!(doc.matches('[').count(), doc.matches(']').count());
        assert!(doc.contains("\"figure\": \"fig99\""));
        assert!(doc.contains("\"workload\": {\"name\": \"json-doc\""));
        assert!(doc.contains("\"prefetcher\": \"baseline\""));
        assert!(doc.contains("\"instructions\": 30000"));
        assert!(doc.contains("\"miss_stream\": null"));
        // Debug builds audit every run; release only under MORRIGAN_AUDIT=1.
        // Key off the record so the test holds in both profiles.
        if record.audit.is_some() {
            assert!(doc.contains("\"audit\": {\"context\":"));
            assert!(doc.contains("\"violations\": []"));
        } else {
            assert!(doc.contains("\"audit\": null"));
        }
    }
}
