//! Regenerates the paper's figures as text tables.
//!
//! Usage:
//!
//! ```text
//! figures                         # run everything at the default scale
//! figures fig15 fig16             # run a subset
//! figures --json out.json fig15   # also write machine-readable records
//! figures --trace t.json fig02    # also write an event trace (Perfetto)
//! figures --explain why.json fig02  # per-run "why" report (+ .md sibling)
//! figures explain a.json b.json   # differential between two --json dumps
//! MORRIGAN_DIGEST=1 figures       # one-line top-insight digest per figure
//! figures --interval 10000 ...    # per-epoch time-series in the JSON
//! figures --sample 10000:40000 .. # SMARTS sampled simulation (or --sample 1)
//! MORRIGAN_FULL=1 figures         # paper-scale run lengths (slow)
//! MORRIGAN_THREADS=4 figures      # worker-pool size override
//! figures --machine-threads 4     # host threads per multi-core machine
//! MORRIGAN_MACHINE_THREADS=4 figures  # --machine-threads via the environment
//! MORRIGAN_VERBOSE=1 figures      # per-simulation progress on stderr
//! MORRIGAN_TRACE=t.json figures   # --trace via the environment
//! MORRIGAN_INTERVAL=10000 figures # --interval via the environment
//! MORRIGAN_SAMPLE=10000:40000 figures  # --sample via the environment
//! figures --no-workload-cache     # force live workload generation
//! MORRIGAN_WORKLOAD_CACHE=dir figures  # persist workload traces on disk
//! ```
//!
//! All figures share one [`Runner`], so simulations they have in common
//! (notably the no-prefetch baselines and the Fig 5–8 miss-stream runs)
//! are executed once and served from the result cache afterwards.
//!
//! `--trace` re-executes the *first* record of the first figure run with
//! a ring-buffer event recorder attached and writes the capture in the
//! format the extension selects: `.json` for Chrome `trace_event` (open
//! in Perfetto / `chrome://tracing`), `.jsonl` for flat JSON-lines. The
//! traced run is asserted bitwise-identical to the untraced one.
//!
//! `--explain` likewise re-executes the first record, but streams every
//! event through the analysis engine and writes a structured per-run
//! diagnosis (miss anatomy, per-component attribution, replacement
//! forensics, reconciliation laws) as JSON at the given path plus a
//! human-facing markdown sibling. `figures explain a.json b.json`
//! instead reads two previously written `--json` dumps and emits a
//! differential report decomposing the metric deltas along the audit
//! conservation laws.

use std::process::ExitCode;
use std::sync::Arc;

use morrigan_experiments as exp;
use morrigan_experiments::common::{parse_cores, parse_tenants};
use morrigan_experiments::{RunRecord, Runner, Scale};
use morrigan_obs::{to_chrome_trace, to_jsonl, DEFAULT_TRACE_CAPACITY};

/// Every figure name the binary accepts, in run order.
const FIGURES: [&str; 19] = [
    "fig02", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig13",
    "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20", "fig21", "tuning",
];

/// Levenshtein edit distance, for the "did you mean" hint.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

fn closest_figure(name: &str) -> &'static str {
    FIGURES
        .iter()
        .min_by_key(|candidate| edit_distance(name, candidate))
        .expect("FIGURES is non-empty")
}

/// Every flag the binary accepts, for the "did you mean" hint on
/// unknown `--…` arguments.
const FLAGS: [&str; 12] = [
    "--json",
    "--trace",
    "--explain",
    "--out",
    "--interval",
    "--sample",
    "--cores",
    "--tenants",
    "--machine-threads",
    "--no-workload-cache",
    "--help",
    "-h",
];

fn closest_flag(arg: &str) -> &'static str {
    FLAGS
        .iter()
        .min_by_key(|candidate| edit_distance(arg, candidate))
        .expect("FLAGS is non-empty")
}

/// The export format `--trace` selects, by file extension.
enum TraceFormat {
    /// `.json`: Chrome `trace_event` — loads in Perfetto.
    Chrome,
    /// `.jsonl`: one flat JSON object per event.
    Jsonl,
}

/// Resolves the trace format from the requested path's extension.
fn trace_format(path: &str) -> Result<TraceFormat, String> {
    if path.ends_with(".jsonl") {
        Ok(TraceFormat::Jsonl)
    } else if path.ends_with(".json") {
        Ok(TraceFormat::Chrome)
    } else {
        Err(format!(
            "--trace path '{path}' must end in .json (Chrome trace_event, for Perfetto) \
             or .jsonl (flat JSON lines)"
        ))
    }
}

/// Parses a `--machine-threads` value: the host-thread budget each
/// multi-core machine's epoch driver may use, a positive integer.
fn parse_machine_threads(value: &str) -> Result<usize, String> {
    match value.trim().parse::<usize>() {
        Ok(0) | Err(_) => Err(format!(
            "--machine-threads requires a positive thread count, got '{value}'"
        )),
        Ok(n) => Ok(n),
    }
}

/// Parses an `--interval` value: a positive integer epoch length.
fn parse_interval(value: &str) -> Result<u64, String> {
    match value.trim().parse::<u64>() {
        Ok(0) | Err(_) => Err(format!(
            "--interval requires a positive integer (retired instructions per epoch), \
             got '{value}'"
        )),
        Ok(n) => Ok(n),
    }
}

/// Parses a `--sample` value: `1` for the default schedule, otherwise
/// the `detail:skip` notation.
fn parse_sample(value: &str) -> Result<morrigan_sim::SamplingConfig, String> {
    let value = value.trim();
    if value == "1" {
        return Ok(morrigan_sim::SamplingConfig::default_schedule());
    }
    morrigan_sim::SamplingConfig::parse(value).map_err(|e| format!("--sample: {e}"))
}

struct Args {
    /// Figure names to run (empty = all).
    selected: Vec<String>,
    /// Where to write the per-figure JSON document, if requested.
    json_path: Option<String>,
    /// Where to write the event trace of the first record, if requested
    /// (`--trace`, or `MORRIGAN_TRACE` when the flag is absent).
    trace_path: Option<String>,
    /// Where to write the analysis report of the first record
    /// (`--explain`; a markdown sibling is written next to it).
    explain_path: Option<String>,
    /// Interval-sampler epoch length (`--interval`; `MORRIGAN_INTERVAL`
    /// is handled by [`Runner::from_env`] when the flag is absent).
    interval: Option<u64>,
    /// SMARTS sampled-simulation schedule (`--sample`; `MORRIGAN_SAMPLE`
    /// is handled by [`Runner::from_env`] when the flag is absent).
    sample: Option<morrigan_sim::SamplingConfig>,
    /// Fig 21 sweep ceiling (`--cores`; `MORRIGAN_CORES` when absent).
    cores: Option<usize>,
    /// Fig 21 tenants per core (`--tenants`; `MORRIGAN_TENANTS` when
    /// absent).
    tenants: Option<usize>,
    /// Per-machine host-thread budget (`--machine-threads`;
    /// `MORRIGAN_MACHINE_THREADS` is handled by [`Runner::from_env`]
    /// when the flag is absent). Never changes results, only wall time.
    machine_threads: Option<usize>,
    /// `--no-workload-cache`: force live workload generation, bypassing
    /// the materialized-trace cache (`MORRIGAN_NO_WORKLOAD_CACHE=1` is
    /// the env equivalent, handled by [`Runner::from_env`]).
    no_workload_cache: bool,
    /// `--help` was requested: print usage and exit successfully.
    help: bool,
}

fn usage() -> String {
    format!(
        "usage: figures [--json <path>] [--trace <path>.json|.jsonl] [--explain <path>.json] \
         [--interval <n>] [--sample <detail:skip|1>] [--cores <1|2|4|8|…>] [--tenants <n>] \
         [--machine-threads <n>] [--no-workload-cache] [{}]...\n\
         \x20      figures explain <a.json> <b.json> [--out <path>]",
        FIGURES.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut selected = Vec::new();
    let mut json_path = None;
    let mut trace_path = None;
    let mut explain_path = None;
    let mut interval = None;
    let mut sample = None;
    let mut cores = None;
    let mut tenants = None;
    let mut machine_threads = None;
    let mut no_workload_cache = false;
    let mut help = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                json_path = Some(
                    args.next()
                        .ok_or_else(|| "--json requires a file path".to_string())?,
                );
            }
            "--trace" => {
                let path = args
                    .next()
                    .ok_or_else(|| "--trace requires a file path".to_string())?;
                trace_format(&path)?;
                trace_path = Some(path);
            }
            "--explain" => {
                let path = args
                    .next()
                    .ok_or_else(|| "--explain requires a file path".to_string())?;
                if !path.ends_with(".json") {
                    return Err(format!(
                        "--explain path '{path}' must end in .json (the report is JSON; \
                         a markdown sibling is written next to it)"
                    ));
                }
                explain_path = Some(path);
            }
            "--interval" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--interval requires an epoch length".to_string())?;
                interval = Some(parse_interval(&value)?);
            }
            "--sample" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--sample requires a detail:skip schedule".to_string())?;
                sample = Some(parse_sample(&value)?);
            }
            "--cores" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--cores requires a core count".to_string())?;
                cores =
                    Some(parse_cores(&value).map_err(|e| format!("--cores: {e}, got '{value}'"))?);
            }
            "--tenants" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--tenants requires a tenant count".to_string())?;
                tenants = Some(
                    parse_tenants(&value).map_err(|e| format!("--tenants: {e}, got '{value}'"))?,
                );
            }
            "--machine-threads" => {
                let value = args
                    .next()
                    .ok_or_else(|| "--machine-threads requires a thread count".to_string())?;
                machine_threads = Some(parse_machine_threads(&value)?);
            }
            "--no-workload-cache" => no_workload_cache = true,
            "--help" | "-h" => help = true,
            name if FIGURES.contains(&name) => selected.push(arg),
            unknown if unknown.starts_with('-') => {
                return Err(format!(
                    "unknown flag '{unknown}' — did you mean '{}'?\n{}",
                    closest_flag(unknown),
                    usage()
                ));
            }
            unknown => {
                return Err(format!(
                    "unknown figure '{unknown}' — did you mean '{}'?\nknown figures: {}",
                    closest_figure(unknown),
                    FIGURES.join(" ")
                ));
            }
        }
    }
    if trace_path.is_none() {
        if let Ok(path) = std::env::var("MORRIGAN_TRACE") {
            if !path.is_empty() {
                trace_format(&path)?;
                trace_path = Some(path);
            }
        }
    }
    // Sampling is incompatible with the other telemetry modes: the
    // interval time-series would mix estimated and measured epochs, and
    // a sampled trace would silently omit the fast-forwarded stretches.
    if sample.is_some() && interval.is_some() {
        return Err(
            "--sample and --interval are mutually exclusive: interval epochs assume full \
             detailed timing"
                .to_string(),
        );
    }
    if sample.is_some() && trace_path.is_some() {
        return Err(
            "--sample and --trace are mutually exclusive: an event trace of a sampled run \
             would omit the fast-forwarded stretches"
                .to_string(),
        );
    }
    if sample.is_some() && explain_path.is_some() {
        return Err(
            "--sample and --explain are mutually exclusive: an analysis of a sampled run \
             would omit the fast-forwarded stretches"
                .to_string(),
        );
    }
    Ok(Args {
        selected,
        json_path,
        trace_path,
        explain_path,
        interval,
        sample,
        cores,
        tenants,
        machine_threads,
        no_workload_cache,
        help,
    })
}

fn main() -> ExitCode {
    // `figures explain a.json b.json [--out <path>]` is a subcommand:
    // it reads records back instead of running simulations.
    if std::env::args().nth(1).as_deref() == Some("explain") {
        return match run_explain(std::env::args().skip(2).collect()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("{message}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    if args.help {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }

    let mut scale = Scale::from_env();
    if let Some(cores) = args.cores {
        scale.cores = cores;
    }
    if let Some(tenants) = args.tenants {
        scale.tenants = tenants;
    }
    let mut runner = Runner::from_env();
    if args.interval.is_some() {
        // An explicit --interval overrides any MORRIGAN_SAMPLE default
        // (the two modes are mutually exclusive at the runner).
        runner = runner.with_sampling(None).with_interval(args.interval);
    }
    if args.sample.is_some() {
        runner = runner.with_interval(None).with_sampling(args.sample);
    }
    if args.machine_threads.is_some() {
        runner = runner.with_machine_threads(args.machine_threads);
    }
    if args.no_workload_cache {
        runner = runner.with_workload_cache(morrigan_runner::WorkloadCache::disabled());
    }
    // --sample may also arrive via MORRIGAN_SAMPLE, which parse_args
    // cannot see; re-check the trace/explain exclusions against the
    // runner.
    if (args.trace_path.is_some() || args.explain_path.is_some()) && runner.sampling().is_some() {
        eprintln!(
            "--trace/--explain and sampled simulation (--sample / MORRIGAN_SAMPLE) are mutually \
             exclusive: telemetry of a sampled run would omit the fast-forwarded stretches"
        );
        return ExitCode::FAILURE;
    }
    let digest = std::env::var("MORRIGAN_DIGEST").is_ok_and(|v| v == "1");
    let want = |name: &str| args.selected.is_empty() || args.selected.iter().any(|a| a == name);
    eprintln!(
        "scale: {} warmup + {} measured instructions, {} workloads, {} SMT pairs ({} worker threads)",
        scale.warmup,
        scale.measure,
        scale.workloads,
        scale.smt_pairs,
        runner.threads()
    );

    // Per-figure journal slices for the JSON document: the runner
    // journals every record in batch order, so the records a figure
    // caused (fresh or cached) are exactly those past its watermark.
    let mut json_figures: Vec<(String, Vec<Arc<RunRecord>>)> = Vec::new();

    macro_rules! figure {
        ($name:literal, $module:ident) => {
            if want($name) {
                eprintln!("running {}...", $name);
                let watermark = runner.journal_len();
                println!("{}\n", exp::$module::run(&runner, &scale));
                if digest {
                    eprintln!("digest {}: {}", $name, figure_digest(&runner, watermark));
                }
                if args.json_path.is_some() {
                    json_figures.push(($name.to_string(), runner.journal_since(watermark)));
                }
            }
        };
    }

    figure!("fig02", fig02_java_mpki);
    figure!("fig03", fig03_frontend_mpki);
    figure!("fig04", fig04_translation_cycles);
    figure!("fig05", fig05_delta_cdf);
    figure!("fig06", fig06_page_skew);
    figure!("fig07", fig07_successors);
    figure!("fig08", fig08_successor_prob);
    figure!("fig09", fig09_dstlb_on_istlb);
    figure!("fig10", fig10_fnlmma_tlb);
    figure!("fig13", fig13_coverage_budget);
    figure!("fig14", fig14_replacement);
    figure!("fig15", fig15_iso_speedup);
    figure!("fig16", fig16_walk_refs);
    figure!("fig17", fig17_mono);
    figure!("fig18", fig18_other_approaches);
    figure!("fig19", fig19_icache_synergy);
    figure!("fig20", fig20_smt);
    figure!("fig21", fig21_multicore);
    figure!("tuning", tuning);

    let workload_stats = runner.workload_cache_stats();
    eprintln!(
        "{} simulations executed, {} served from the record cache; \
         {} distinct workloads materialized ({} from disk) serving {} streams, \
         ~{:.2}s of workload generation saved",
        runner.sims_executed(),
        runner.cache_hits(),
        workload_stats.built + workload_stats.loaded_from_disk,
        workload_stats.loaded_from_disk,
        workload_stats.streams_served,
        workload_stats.saved_seconds,
    );

    if let Some(path) = &args.json_path {
        let document = morrigan_runner::json::figures_document(&json_figures);
        if let Err(error) = std::fs::write(path, document) {
            eprintln!("failed to write {path}: {error}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.trace_path {
        if let Err(message) = write_trace(&runner, path) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &args.explain_path {
        if let Err(message) = write_explain(&runner, path) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }

    ExitCode::SUCCESS
}

/// One-line top insight for the records a figure just journaled
/// (`MORRIGAN_DIGEST=1`). Counter-based — no re-execution: single-core
/// figures contrast the baseline against the best prefetcher record of
/// the same workload; multi-core figures report the worst interference
/// core via the machine analysis.
fn figure_digest(runner: &Runner, watermark: usize) -> String {
    let records = runner.journal_since(watermark);
    if records.is_empty() {
        return "no simulations ran (all cached upstream of this figure)".to_string();
    }
    // Prefer the widest machine record: a 1-core machine's
    // interference attribution is trivially "core 0 bears 100%".
    if let Some(machine) = records
        .iter()
        .filter(|r| r.machine.is_some())
        .max_by_key(|r| r.machine.as_ref().map_or(0, |m| m.cores))
    {
        return morrigan_runner::AnalysisReport::from_machine(machine).digest();
    }
    let baseline = records
        .iter()
        .find(|r| r.spec.prefetcher.name() == "baseline");
    let best = records
        .iter()
        .filter(|r| r.spec.prefetcher.name() != "baseline")
        .max_by(|a, b| {
            a.metrics
                .coverage()
                .total_cmp(&b.metrics.coverage())
                .then(a.metrics.ipc().total_cmp(&b.metrics.ipc()))
        });
    match (baseline, best) {
        (Some(base), Some(best)) => format!(
            "{} / {} covers {:.0}% of iSTLB misses (mpki {:.2} → {:.2} walked, \
             speedup {:.3}x over baseline)",
            best.spec.workload.name(),
            best.spec.prefetcher.name(),
            best.metrics.coverage() * 100.0,
            base.metrics.istlb_mpki(),
            best.metrics.istlb_mpki() * (1.0 - best.metrics.coverage()),
            best.metrics.speedup_over(&base.metrics),
        ),
        _ => {
            let r = &records[0];
            format!(
                "{} / {}: ipc {:.3}, istlb mpki {:.2}, coverage {:.0}% ({} records)",
                r.spec.workload.name(),
                r.spec.prefetcher.name(),
                r.metrics.ipc(),
                r.metrics.istlb_mpki(),
                r.metrics.coverage() * 100.0,
                records.len()
            )
        }
    }
}

/// Re-executes the first journaled record's spec with the streaming
/// analysis engine attached and writes the diagnosis to `path` (JSON)
/// plus a markdown sibling. The analyzed run is asserted bitwise-equal
/// to the journaled one, and the report must reconcile: every law ties
/// an event-derived number to its audited counter.
fn write_explain(runner: &Runner, path: &str) -> Result<(), String> {
    let first = runner
        .journal_since(0)
        .into_iter()
        .next()
        .ok_or_else(|| "--explain: no simulation ran, nothing to analyze".to_string())?;
    eprintln!(
        "analyzing {} / {}...",
        first.spec.workload.name(),
        first.spec.prefetcher.name()
    );
    let record = first.spec.execute_analyzed(runner.interval());
    assert_eq!(
        record.metrics, first.metrics,
        "analysis must not perturb the simulation"
    );
    let report = record
        .analysis
        .as_ref()
        .expect("execute_analyzed always attaches a report");
    if !report.complete {
        eprintln!(
            "--explain: WARNING: {} events were dropped upstream; the report refuses to \
             claim completeness (\"complete\": false)",
            report.dropped_events
        );
    }
    if !report.reconciles() {
        return Err(format!(
            "--explain: report does not reconcile with the audited counters: {:?}",
            report
                .laws
                .iter()
                .filter(|l| !l.ok())
                .map(|l| l.law.as_str())
                .collect::<Vec<_>>()
        ));
    }
    let md_path = format!("{}.md", path.trim_end_matches(".json"));
    std::fs::write(path, format!("{}\n", report.to_json()))
        .map_err(|error| format!("failed to write {path}: {error}"))?;
    std::fs::write(&md_path, report.to_markdown())
        .map_err(|error| format!("failed to write {md_path}: {error}"))?;
    eprintln!(
        "wrote {path} and {md_path} ({} events analyzed, {} dropped, {} laws reconciled)",
        report.events_seen,
        report.dropped_events,
        report.laws.len()
    );
    Ok(())
}

/// The `figures explain <a.json> <b.json> [--out <path>]` subcommand:
/// reads two `--json` dumps (or `--explain` reports' record dumps) back
/// and writes a differential report decomposing the metric deltas along
/// the audit conservation laws.
fn run_explain(argv: Vec<String>) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut out = None;
    let mut iter = argv.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    iter.next()
                        .ok_or_else(|| "explain: --out requires a file path".to_string())?,
                );
            }
            unknown if unknown.starts_with('-') => {
                return Err(format!("explain: unknown flag '{unknown}'\n{}", usage()));
            }
            _ => paths.push(arg),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return Err(format!(
            "explain requires exactly two record dumps (got {}): \
             figures explain <a.json> <b.json> [--out <path>]",
            paths.len()
        ));
    };
    let digest_of = |path: &str| -> Result<morrigan_runner::RecordDigest, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|error| format!("explain: failed to read {path}: {error}"))?;
        let doc = morrigan_runner::jsonval::parse(&text)
            .map_err(|error| format!("explain: {path} is not valid JSON: {error}"))?;
        let record = morrigan_runner::first_record(&doc)
            .map_err(|error| format!("explain: {path}: {error}"))?;
        morrigan_runner::digest_record(record).map_err(|error| format!("explain: {path}: {error}"))
    };
    let a = digest_of(a_path)?;
    let b = digest_of(b_path)?;
    let report = morrigan_runner::explain_diff(&a, &b);
    match out {
        Some(out_path) => {
            std::fs::write(&out_path, &report)
                .map_err(|error| format!("explain: failed to write {out_path}: {error}"))?;
            eprintln!("wrote {out_path}");
        }
        None => print!("{report}"),
    }
    Ok(())
}

/// Re-executes the first journaled record's spec with a trace recorder
/// attached and writes the capture to `path` in the extension-selected
/// format. Tracing must not perturb the simulation: the traced metrics
/// are asserted identical to the journaled ones.
fn write_trace(runner: &Runner, path: &str) -> Result<(), String> {
    let first = runner
        .journal_since(0)
        .into_iter()
        .next()
        .ok_or_else(|| "--trace: no simulation ran, nothing to trace".to_string())?;
    if matches!(
        first.spec.workload,
        morrigan_runner::WorkloadSpec::Multi { .. }
    ) {
        return Err(format!(
            "--trace: the first record ({}) is a multi-core machine, which has no event \
             recorder; rerun with a single-core figure (e.g. fig02) listed first",
            first.spec.workload.name()
        ));
    }
    eprintln!(
        "tracing {} / {}...",
        first.spec.workload.name(),
        first.spec.prefetcher.name()
    );
    let (record, trace) = first
        .spec
        .execute_traced(runner.interval(), DEFAULT_TRACE_CAPACITY);
    assert_eq!(
        record.metrics, first.metrics,
        "tracing must not perturb the simulation"
    );
    let rendered = match trace_format(path)? {
        TraceFormat::Chrome => to_chrome_trace(&trace),
        TraceFormat::Jsonl => to_jsonl(&trace),
    };
    std::fs::write(path, rendered).map_err(|error| format!("failed to write {path}: {error}"))?;
    eprintln!(
        "wrote {path} ({} events captured, {} dropped by the ring)",
        trace.len(),
        trace.dropped()
    );
    Ok(())
}
