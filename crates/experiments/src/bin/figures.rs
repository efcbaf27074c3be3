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
//! figures --interval 10000 ...    # per-epoch time-series in the JSON
//! figures --cores 8 --tenants 3 fig21  # widen the multicore sweep
//! MORRIGAN_FULL=1 figures         # paper-scale run lengths (slow)
//! MORRIGAN_THREADS=4 figures      # worker-pool size override
//! MORRIGAN_WORKLOAD_CACHE_MB=0 figures  # generate every workload live
//! MORRIGAN_DIGEST=1 figures       # one-line top-insight digest per figure
//! ```
//!
//! Every flag above except `--json` is a run option with a `MORRIGAN_*`
//! twin (`--trace` is `MORRIGAN_TRACE`, `--interval` is
//! `MORRIGAN_INTERVAL`, …; `--explain` has none). [`RunOptions`] reads
//! the variables and lays the flags over them with the same parsers.
//! EXPERIMENTS.md tabulates every option.
//!
//! All figures share one [`Runner`], so simulations they have in common
//! (notably the no-prefetch baselines and the Fig 5–8 miss-stream runs)
//! are executed once and served from the result cache afterwards. Its
//! `MORRIGAN_THREADS` workers run independent simulations, each machine
//! on one thread.
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
use morrigan_experiments::{RunOptions, RunRecord, Runner};
use morrigan_obs::{to_chrome_trace, to_jsonl, TraceRecorder, DEFAULT_TRACE_CAPACITY};
use morrigan_runner::{Observer, WorkloadSpec};

/// Every figure name the binary accepts, in run order.
fn figure_names() -> impl Iterator<Item = &'static str> {
    exp::FIGURES.iter().map(|figure| figure.name)
}

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
    figure_names()
        .min_by_key(|candidate| edit_distance(name, candidate))
        .expect("FIGURES is non-empty")
}

/// Every flag the binary accepts, for the "did you mean" hint on
/// unknown `--…` arguments.
const FLAGS: [&str; 9] = [
    "--json",
    "--trace",
    "--explain",
    "--out",
    "--interval",
    "--cores",
    "--tenants",
    "--help",
    "-h",
];

fn closest_flag(arg: &str) -> &'static str {
    FLAGS
        .iter()
        .min_by_key(|candidate| edit_distance(arg, candidate))
        .expect("FLAGS is non-empty")
}

struct Args {
    /// Figure names to run (empty = all).
    selected: Vec<String>,
    /// Where to write the per-figure JSON document, if requested.
    json_path: Option<String>,
    /// The `MORRIGAN_*` variables with the run-option flags laid over
    /// them.
    options: RunOptions,
    /// `--help` was requested: print usage and exit successfully.
    help: bool,
}

fn usage() -> String {
    format!(
        "usage: figures [--json <path>] [--trace <path>.json|.jsonl] [--explain <path>.json] \
         [--interval <n>] [--cores <1|2|4|8|…>] [--tenants <n>] \
         [{}]...\n\
         \x20      figures explain <a.json> <b.json> [--out <path>]",
        figure_names().collect::<Vec<_>>().join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut selected = Vec::new();
    let mut json_path = None;
    let mut options = RunOptions::from_env();
    let mut help = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if options.parse_flag(&arg, &mut args)? {
            continue;
        }
        match arg.as_str() {
            "--json" => {
                json_path = Some(
                    args.next()
                        .ok_or_else(|| "--json requires a file path".to_string())?,
                );
            }
            "--help" | "-h" => help = true,
            name if figure_names().any(|known| known == name) => selected.push(arg),
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
                    figure_names().collect::<Vec<_>>().join(" ")
                ));
            }
        }
    }
    Ok(Args {
        selected,
        json_path,
        options,
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

    let options = &args.options;
    let scale = options.scale();
    let runner = options.runner();
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

    for figure in exp::FIGURES.iter().filter(|figure| want(figure.name)) {
        eprintln!("running {}...", figure.name);
        let watermark = runner.journal_len();
        println!("{}\n", (figure.run)(&runner, &scale));
        if options.digest {
            eprintln!(
                "digest {}: {}",
                figure.name,
                figure_digest(&runner, watermark)
            );
        }
        if args.json_path.is_some() {
            json_figures.push((figure.name.to_string(), runner.journal_since(watermark)));
        }
    }

    let workload_stats = runner.workload_cache_stats();
    eprintln!(
        "{} simulations executed, {} served from the record cache; \
         {} distinct workloads materialized serving {} streams, \
         ~{:.2}s of workload generation saved",
        runner.sims_executed(),
        runner.cache_hits(),
        workload_stats.built,
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

    if let Some(path) = &options.trace {
        if let Err(message) = write_trace(&runner, path) {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    }

    if let Some(path) = &options.explain {
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

/// Re-runs the first journaled record with the streaming analysis engine
/// attached and writes the diagnosis to `path` (JSON) plus a markdown
/// sibling. The report must reconcile: every law ties an event-derived
/// number to its audited counter.
fn write_explain(runner: &Runner, path: &str) -> Result<(), String> {
    let (record, _) = rerun_first(runner, "--explain", Observer::Analysis)?;
    let report = record
        .analysis
        .as_ref()
        .expect("the analysis observer always attaches a report");
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
        "wrote {path} and {md_path} ({} events analyzed, {} laws reconciled)",
        report.events_seen,
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

/// Re-runs the first journaled record with a trace recorder attached and
/// writes the capture to `path` in the extension-selected format.
fn write_trace(runner: &Runner, path: &str) -> Result<(), String> {
    let observer = Observer::Trace {
        capacity: DEFAULT_TRACE_CAPACITY,
    };
    let (_, trace) = rerun_first(runner, "--trace", observer)?;
    let trace = trace.expect("the trace observer always returns its recorder");
    // The path's extension was checked when the option was parsed.
    let rendered = if path.ends_with(".jsonl") {
        to_jsonl(&trace)
    } else {
        to_chrome_trace(&trace)
    };
    std::fs::write(path, rendered).map_err(|error| format!("failed to write {path}: {error}"))?;
    eprintln!(
        "wrote {path} ({} events captured, {} dropped by the ring)",
        trace.len(),
        trace.dropped()
    );
    Ok(())
}

/// Re-executes the first journaled record's spec under the runner's
/// execution settings (replaying its workload cache) with `observer`
/// attached, for the `flag` that asked. Observing must not perturb the
/// simulation: the re-run's metrics are asserted identical to the
/// journaled ones.
fn rerun_first(
    runner: &Runner,
    flag: &str,
    observer: Observer,
) -> Result<(RunRecord, Option<TraceRecorder>), String> {
    let first = runner
        .journal_since(0)
        .into_iter()
        .next()
        .ok_or_else(|| format!("{flag}: no simulation ran, nothing to re-run"))?;
    let machine = matches!(first.spec.workload, WorkloadSpec::Multi { .. });
    if machine && matches!(observer, Observer::Trace { .. }) {
        return Err(format!(
            "{flag}: the first record ({}) is a multi-core machine, which has no event \
             recorder; rerun with a single-core figure (e.g. fig02) listed first",
            first.spec.workload.name()
        ));
    }
    eprintln!(
        "{flag}: re-running {} / {}...",
        first.spec.workload.name(),
        first.spec.prefetcher.name()
    );
    let rerun = first.spec.execute_with(&runner.execution(observer));
    assert_eq!(
        rerun.0.metrics, first.metrics,
        "{flag} must not perturb the simulation"
    );
    Ok(rerun)
}
