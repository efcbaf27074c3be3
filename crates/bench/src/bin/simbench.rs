//! The throughput baseline: wall-clock MIPS per figure regeneration.
//!
//! Regenerates every figure — each with a fresh single-threaded
//! [`Runner`] so neither the result cache nor the worker pool skews the
//! number — and reports simulated instructions per wall-second (MIPS).
//! Two modes:
//!
//! * `simbench [--out PATH]` — measure and write the JSON baseline
//!   (default `BENCH_simloop.json` in the current directory).
//! * `simbench --check PATH [--tolerance FRAC]` — measure and compare
//!   against a committed baseline, exiting non-zero if the aggregate or
//!   the single-core MIPS regressed by more than `FRAC` (default 0.20).
//!   CI runs this with a small `MORRIGAN_INSTR` so a hot-path
//!   regression fails the build.
//!
//! Both modes run every figure **twice**: a full-detail pass (the MIPS
//! baseline) and a SMARTS-sampled pass at the default `detail:skip`
//! schedule. The sampled pass yields the `sampled_*` fields — per-figure
//! simulate-phase wall time and iSTLB-MPKI deviation against the full
//! pass — and `--check` gates on them: sampled MPKI must stay within 1 %
//! of full (miss counters are measured, not extrapolated, so this is
//! scale-insensitive) and the sampled simulate phase must actually be
//! faster. The bench-scale speedup claim itself is pinned by the
//! committed baseline's `sampled_speedup` (see `tests/baseline.rs`).
//!
//! The v6 schema also measures the threaded multi-core machine: the
//! figure list gains an 8-core scaling row (the fig21 sweep with its
//! ceiling raised to 8), every multi-core row records its effective
//! epoch-driver width (`machine_threads`) and the simulate-phase
//! speedup of that width over a serial (width-1) reference pass
//! (`parallel_speedup`; `0.0` on hosts without spare cores, where
//! nothing was measured). `--check` gates the committed 4-core row:
//! when it was produced at width >= 4, its speedup must be >= 2x; when
//! the committed baseline was produced on a narrower host (width < 4,
//! so nothing was measured and the field reads 0.0) the gate is
//! *skipped with a logged warning* — regenerate the baseline on a
//! >= 4-CPU host to arm it.
//!
//! The v7 schema adds page-run batching telemetry: every row carries
//! `probes_issued` / `probes_elided` / `runs_consumed` — translation
//! probes the stepping kernel actually made vs elided through same-page
//! run batching, and page-run segments consumed. Both modes fail if any
//! figure reports zero elided probes (the batching plumbing silently
//! disengaged), and `--check` gates each figure's `sampled_ipc_rel_err`
//! individually so one noisy figure can't hide inside the aggregate.
//!
//! Scale comes from [`bench_scale`]: a reduced profile unless
//! `MORRIGAN_INSTR`/`MORRIGAN_FULL` override it. Of the other run
//! options only the workload-cache ones apply: every figure gets a fresh
//! `Runner::new(1)`.

use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

use morrigan_experiments as exp;
use morrigan_experiments::{RunOptions, Runner, Scale};
use morrigan_runner::json::json_f64;
use morrigan_sim::{machine_width, SamplingConfig};

/// One measured figure regeneration.
struct FigureRun {
    name: &'static str,
    /// Largest machine the figure steps (1 for the single-core figures;
    /// the sweep ceiling for the multicore rows). `instructions` already
    /// counts every core's retirement, so `mips` is aggregate throughput
    /// and `per_core_mips` is the per-simulated-core rate.
    cores: usize,
    /// Effective epoch-driver width of the timed pass:
    /// min(cores, host parallelism). `1` on single-core figures and on
    /// hosts without spare cores.
    machine_threads: usize,
    /// Serial-reference simulate seconds over the timed pass's — how
    /// much the threaded epoch driver actually bought. `0.0` when not
    /// measured: single-core figures, sampled passes, and hosts where
    /// the effective width is already 1 (nothing to compare).
    parallel_speedup: f64,
    instructions: u64,
    seconds: f64,
    /// Wall time the figure's simulators spent pulling instructions
    /// (`fill_block` refills), summed over its runs. With the workload
    /// cache on these refills are replay copies, so this collapses from
    /// the v2 baseline's O(runs) generation cost.
    workload_gen_seconds: f64,
    /// Wall time materializing packed traces — the O(distinct workloads)
    /// generation cost the cache amortizes across the figure's runs.
    trace_build_seconds: f64,
    /// Wall time inside `Simulator::run` minus workload generation and
    /// trace materialization — the lookup/walk/retire simulation proper.
    simulate_seconds: f64,
    /// Distinct workload traces materialized for this figure.
    workloads_materialized: u64,
    /// Replay streams served from those traces (the amortization
    /// denominator: served / materialized runs ≥ 1).
    streams_served: u64,
    /// Measurement-window instructions summed over the figure's journaled
    /// records (duplicates included — both passes journal identically, so
    /// the accuracy ratios line up). Denominator for the MPKI deviation.
    record_instructions: u64,
    /// iSTLB misses summed over the figure's journaled records.
    record_istlb_misses: u64,
    /// Cycles summed over the figure's journaled records (IPC deviation).
    record_cycles: u64,
    /// Translation probes the stepping loops actually issued, summed
    /// over the figure's simulations (warmup included).
    probes_issued: u64,
    /// Probes elided — same-line fetches and same-page run batching.
    /// Zero means the counters (and likely the batching) fell off.
    probes_elided: u64,
    /// Page-run segments consumed by the stepping kernel.
    runs_consumed: u64,
}

impl FigureRun {
    fn mips(&self) -> f64 {
        self.instructions as f64 / self.seconds / 1e6
    }

    /// Per-simulated-core simulate-phase throughput:
    /// instructions / (cores × simulate-phase seconds). The v5 formula
    /// divided aggregate wall-clock MIPS by the core count, billing each
    /// core for workload generation and trace materialization that
    /// happen once per machine, not once per core.
    fn per_core_mips(&self) -> f64 {
        if self.simulate_seconds > 0.0 {
            self.instructions as f64 / (self.cores as f64 * self.simulate_seconds) / 1e6
        } else {
            0.0
        }
    }

    /// Aggregate iSTLB MPKI over the figure's journaled records.
    fn istlb_mpki(&self) -> f64 {
        self.record_istlb_misses as f64 / self.record_instructions.max(1) as f64 * 1000.0
    }

    /// Aggregate IPC over the figure's journaled records.
    fn ipc(&self) -> f64 {
        self.record_instructions as f64 / self.record_cycles.max(1) as f64
    }
}

/// The scale simbench runs at: the options' [`RunOptions::scale`] when
/// `MORRIGAN_INSTR` or `MORRIGAN_FULL` is set, otherwise a reduced
/// profile small enough that every figure regenerates in seconds yet
/// large enough to exercise every code path.
fn bench_scale(options: &RunOptions) -> Scale {
    let mut scale = options.scale();
    if options.instr.is_none() && !options.full {
        scale.warmup = 100_000;
        scale.measure = 250_000;
        scale.workloads = 2;
        scale.smt_pairs = 1;
    }
    scale
}

/// Relative deviation of `sampled` from `full`, `0.0` when `full` is
/// zero (then `sampled` must be zero too for the deviation to be zero —
/// a nonzero `sampled` against a zero `full` reads as 100 %).
fn rel_err(full: f64, sampled: f64) -> f64 {
    if full == 0.0 {
        if sampled == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        (sampled - full).abs() / full
    }
}

/// Aggregate MIPS over a subset of the runs (0.0 when the subset is
/// empty — the v4 totals report single- and multi-core throughput
/// separately so the regression gate can pin the single-core hot path
/// without the machine figure's contention noise).
fn subset_mips<'a>(runs: impl Iterator<Item = &'a FigureRun>) -> f64 {
    let (instructions, seconds) = runs.fold((0u64, 0f64), |(i, s), f| {
        (i + f.instructions, s + f.seconds)
    });
    if seconds > 0.0 {
        instructions as f64 / seconds / 1e6
    } else {
        0.0
    }
}

/// One bench figure: journal label, the largest machine it steps, the
/// scale it runs at (the 8-core scaling row raises the sweep ceiling),
/// and the regeneration entry point.
struct BenchFigure {
    name: &'static str,
    cores: usize,
    scale: Scale,
    run: fn(&Runner, &Scale) -> Box<dyn Display>,
}

/// Every figure of the `figures` binary, in its run order, plus the
/// 8-core scaling row. `sampling` selects the pass: `None` runs
/// full detailed timing, `Some` runs the SMARTS-sampled schedule on
/// every spec.
fn run_figures(
    scale: &Scale,
    sampling: Option<SamplingConfig>,
    options: &RunOptions,
) -> Vec<FigureRun> {
    let mut figures: Vec<BenchFigure> = exp::FIGURES
        .iter()
        .map(|figure| BenchFigure {
            name: figure.label,
            cores: if figure.name == "fig21" {
                scale.cores
            } else {
                1
            },
            scale: *scale,
            run: figure.run,
        })
        .collect();
    // The 8-core scaling row: the same machine sweep with the ceiling
    // raised to 8, recording how the epoch driver scales past the
    // default 4-core topology.
    let mut eight_core = *scale;
    eight_core.cores = 8;
    figures.push(BenchFigure {
        name: "fig21_multicore_8core",
        cores: 8,
        scale: eight_core,
        run: |runner, scale| Box::new(exp::fig21_multicore::run(runner, scale)),
    });

    let label = if sampling.is_some() {
        "sampled"
    } else {
        "full"
    };
    let mut runs = Vec::with_capacity(figures.len());
    for BenchFigure {
        name,
        cores,
        scale,
        run,
    } in figures
    {
        let scale = &scale;
        // Fresh per figure so neither the record cache nor the workload
        // cache amortizes *across* figures; the workload cache comes
        // from the run options so `MORRIGAN_NO_WORKLOAD_CACHE=1` gives
        // an honest live-generation A/B against the same binary.
        let runner = Runner::new(1)
            .with_sampling(sampling)
            .with_workload_cache(options.workload_cache());
        let start = Instant::now();
        std::hint::black_box(run(&runner, scale));
        let seconds = start.elapsed().as_secs_f64();
        let instructions = runner.instructions_simulated();
        // Each figure owns a fresh runner, so its phase totals are
        // exactly this figure's simulations.
        let phases = runner.phase_totals();
        let workload_stats = runner.workload_cache_stats();
        let (mut record_instructions, mut record_istlb_misses, mut record_cycles) = (0, 0, 0);
        for record in runner.journal_since(0) {
            record_instructions += record.metrics.instructions;
            record_istlb_misses += record.metrics.mmu.istlb_misses;
            record_cycles += record.metrics.cycles;
        }
        let elision = runner.elision_totals();
        let machine_threads = if cores > 1 {
            machine_width(None, cores)
        } else {
            1
        };
        // Serial-reference pass: the same figure with the epoch driver
        // pinned to one thread, so the baseline records how much the
        // threaded driver actually bought. Skipped on the sampled pass
        // and wherever the timed pass already ran at width 1 (narrow
        // host) — there is nothing to compare, and the sentinel 0.0
        // says "not measured" rather than faking a 1.0.
        let parallel_speedup = if cores > 1 && machine_threads > 1 && sampling.is_none() {
            let serial = Runner::new(1)
                .with_machine_threads(Some(1))
                .with_workload_cache(options.workload_cache());
            run(&serial, scale);
            let serial_simulate = serial.phase_totals().simulate();
            let threaded_simulate = phases.simulate();
            if threaded_simulate > 0.0 {
                serial_simulate / threaded_simulate
            } else {
                0.0
            }
        } else {
            0.0
        };
        let fig = FigureRun {
            name,
            cores,
            machine_threads,
            parallel_speedup,
            instructions,
            seconds,
            workload_gen_seconds: phases.workload_gen(),
            trace_build_seconds: phases.trace_build(),
            simulate_seconds: phases.simulate(),
            workloads_materialized: workload_stats.built + workload_stats.loaded_from_disk,
            streams_served: workload_stats.streams_served,
            record_instructions,
            record_istlb_misses,
            record_cycles,
            probes_issued: elision.probes_issued,
            probes_elided: elision.probes_elided,
            runs_consumed: elision.runs_consumed,
        };
        // The epoch driver's thread-seconds at its barriers and in
        // replay; single-core rows have no epochs.
        let epoch_split = if cores > 1 {
            format!(
                ", barrier wait {:.3} s, replay {:.3} s",
                phases.barrier_wait(),
                phases.replay()
            )
        } else {
            String::new()
        };
        eprintln!(
            "[simbench] {label} {name}: {instructions} instructions in {seconds:.3} s = \
             {:.2} MIPS over {} core(s) at width {} (workload-gen {:.3} s, trace-build \
             {:.3} s over {} traces serving {} streams, simulate {:.3} s{epoch_split}, \
             parallel speedup {:.2}, elided {}/{} probes over {} runs)",
            fig.mips(),
            fig.cores,
            fig.machine_threads,
            fig.workload_gen_seconds,
            fig.trace_build_seconds,
            fig.workloads_materialized,
            fig.streams_served,
            fig.simulate_seconds,
            fig.parallel_speedup,
            fig.probes_elided,
            fig.probes_issued + fig.probes_elided,
            fig.runs_consumed,
        );
        runs.push(fig);
    }
    runs
}

/// Renders the baseline document (the workspace deliberately carries no
/// JSON dependency; this mirrors `morrigan_runner::json`). `sampled` is
/// the SMARTS-sampled pass, aligned with `runs` by index.
fn render(scale: &Scale, runs: &[FigureRun], sampled: &[FigureRun]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"morrigan-bench-simloop-v7\",\n");
    out.push_str(&format!(
        "  \"scale\": {{\"warmup\": {}, \"measure\": {}, \"workloads\": {}, \"smt_pairs\": {}, \
         \"cores\": {}, \"tenants\": {}}},\n",
        scale.warmup, scale.measure, scale.workloads, scale.smt_pairs, scale.cores, scale.tenants
    ));
    out.push_str(&format!(
        "  \"sampling\": \"{}\",\n",
        SamplingConfig::default_schedule()
    ));
    out.push_str("  \"figures\": [\n");
    for (i, (f, s)) in runs.iter().zip(sampled).enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": \"{}\", \"cores\": {}, \"machine_threads\": {}, \
             \"instructions\": {}, \"seconds\": {}, \
             \"workload_gen_seconds\": {}, \"trace_build_seconds\": {}, \
             \"simulate_seconds\": {}, \"workloads_materialized\": {}, \
             \"streams_served\": {}, \"probes_issued\": {}, \"probes_elided\": {}, \
             \"runs_consumed\": {}, \"mips\": {}, \"per_core_mips\": {}",
            f.name,
            f.cores,
            f.machine_threads,
            f.instructions,
            json_f64(f.seconds),
            json_f64(f.workload_gen_seconds),
            json_f64(f.trace_build_seconds),
            json_f64(f.simulate_seconds),
            f.workloads_materialized,
            f.streams_served,
            f.probes_issued,
            f.probes_elided,
            f.runs_consumed,
            json_f64(f.mips()),
            json_f64(f.per_core_mips()),
        ));
        if f.cores > 1 {
            out.push_str(&format!(
                ", \"parallel_speedup\": {}",
                json_f64(f.parallel_speedup)
            ));
        }
        out.push_str(&format!(
            ", \"sampled_seconds\": {}, \"sampled_simulate_seconds\": {}, \
             \"sampled_mpki_rel_err\": {}, \"sampled_ipc_rel_err\": {}}}{}\n",
            json_f64(s.seconds),
            json_f64(s.simulate_seconds),
            json_f64(rel_err(f.istlb_mpki(), s.istlb_mpki())),
            json_f64(rel_err(f.ipc(), s.ipc())),
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    // `--check` parses the LAST "total" object for its "mips" and
    // generation seconds — this object must stay last in the document
    // and keep those keys.
    let (instructions, seconds) = totals(runs);
    let workload_gen: f64 = runs.iter().map(|f| f.workload_gen_seconds).sum();
    let trace_build: f64 = runs.iter().map(|f| f.trace_build_seconds).sum();
    let simulate: f64 = runs.iter().map(|f| f.simulate_seconds).sum();
    let materialized: u64 = runs.iter().map(|f| f.workloads_materialized).sum();
    let served: u64 = runs.iter().map(|f| f.streams_served).sum();
    let probes_issued: u64 = runs.iter().map(|f| f.probes_issued).sum();
    let probes_elided: u64 = runs.iter().map(|f| f.probes_elided).sum();
    let runs_consumed: u64 = runs.iter().map(|f| f.runs_consumed).sum();
    let acc = Accuracy::new(runs, sampled);
    out.push_str(&format!(
        "  \"total\": {{\"instructions\": {instructions}, \"seconds\": {}, \
         \"workload_gen_seconds\": {}, \"trace_build_seconds\": {}, \
         \"simulate_seconds\": {}, \"workloads_materialized\": {materialized}, \
         \"streams_served\": {served}, \"probes_issued\": {probes_issued}, \
         \"probes_elided\": {probes_elided}, \"runs_consumed\": {runs_consumed}, \
         \"single_core_mips\": {}, \
         \"multi_core_mips\": {}, \"sampled_seconds\": {}, \
         \"sampled_simulate_seconds\": {}, \"sampled_speedup\": {}, \
         \"sampled_mpki_rel_err\": {}, \"sampled_ipc_rel_err\": {}, \"mips\": {}}}\n}}\n",
        json_f64(seconds),
        json_f64(workload_gen),
        json_f64(trace_build),
        json_f64(simulate),
        json_f64(subset_mips(runs.iter().filter(|f| f.cores == 1))),
        json_f64(subset_mips(runs.iter().filter(|f| f.cores > 1))),
        json_f64(acc.sampled_seconds),
        json_f64(acc.sampled_simulate),
        json_f64(acc.speedup()),
        json_f64(acc.mpki_rel_err),
        json_f64(acc.ipc_rel_err),
        json_f64(instructions as f64 / seconds / 1e6)
    ));
    out
}

/// The sampled pass's aggregate accuracy and speed against the full one.
struct Accuracy {
    sampled_seconds: f64,
    full_simulate: f64,
    sampled_simulate: f64,
    mpki_rel_err: f64,
    ipc_rel_err: f64,
}

impl Accuracy {
    fn new(runs: &[FigureRun], sampled: &[FigureRun]) -> Self {
        let agg = |rs: &[FigureRun]| {
            rs.iter().fold((0u64, 0u64, 0u64), |(i, m, c), f| {
                (
                    i + f.record_instructions,
                    m + f.record_istlb_misses,
                    c + f.record_cycles,
                )
            })
        };
        let (fi, fm, fc) = agg(runs);
        let (si, sm, sc) = agg(sampled);
        let mpki = |misses: u64, instr: u64| misses as f64 / instr.max(1) as f64 * 1000.0;
        let ipc = |instr: u64, cycles: u64| instr as f64 / cycles.max(1) as f64;
        Accuracy {
            sampled_seconds: sampled.iter().map(|f| f.seconds).sum(),
            full_simulate: runs.iter().map(|f| f.simulate_seconds).sum(),
            sampled_simulate: sampled.iter().map(|f| f.simulate_seconds).sum(),
            mpki_rel_err: rel_err(mpki(fm, fi), mpki(sm, si)),
            ipc_rel_err: rel_err(ipc(fi, fc), ipc(si, sc)),
        }
    }

    /// Full-pass simulate seconds over sampled-pass simulate seconds.
    fn speedup(&self) -> f64 {
        if self.sampled_simulate > 0.0 {
            self.full_simulate / self.sampled_simulate
        } else {
            0.0
        }
    }
}

fn totals(runs: &[FigureRun]) -> (u64, f64) {
    (
        runs.iter().map(|f| f.instructions).sum(),
        runs.iter().map(|f| f.seconds).sum(),
    )
}

/// Pulls one numeric field out of the baseline's `"total"` object. The
/// parser is deliberately narrow: it reads exactly what [`render`]
/// writes.
fn baseline_total_field(doc: &str, key: &str) -> Option<f64> {
    let total = &doc[doc.rfind("\"total\"")?..];
    let needle = format!("\"{key}\": ");
    let value = &total[total.find(&needle)? + needle.len()..];
    let end = value.find(|c: char| c != '.' && c != '-' && c != 'e' && !c.is_ascii_digit())?;
    value[..end].parse().ok()
}

/// Pulls one numeric field out of a named figure row of the baseline
/// (the trailing quote in the needle keeps `fig21_multicore` from
/// matching its `_8core` sibling).
fn baseline_figure_field(doc: &str, figure: &str, key: &str) -> Option<f64> {
    let row = &doc[doc.find(&format!("\"figure\": \"{figure}\","))?..];
    let row = &row[..row.find('}')?];
    let needle = format!("\"{key}\": ");
    let value = &row[row.find(&needle)? + needle.len()..];
    let end = value.find(|c: char| c != '.' && c != '-' && c != 'e' && !c.is_ascii_digit())?;
    value[..end].parse().ok()
}

/// The fraction of total wall time spent producing instructions —
/// `fill_block` generation plus trace materialization. Scale-insensitive
/// (both numerator and denominator are roughly per-instruction costs),
/// which is what lets CI check it at a reduced `MORRIGAN_INSTR` against
/// the committed bench-scale baseline. A v2 baseline has no
/// `trace_build_seconds`; it reads as zero.
fn gen_ratio(seconds: f64, workload_gen: f64, trace_build: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    (workload_gen + trace_build) / seconds
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_simloop.json".to_string();
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.20_f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(p) => check_path = Some(p),
                None => return usage("--check needs a path"),
            },
            "--tolerance" => match args.next().and_then(|t| t.parse().ok()) {
                Some(t) => tolerance = t,
                None => return usage("--tolerance needs a fraction"),
            },
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let options = RunOptions::from_env();
    let scale = bench_scale(&options);
    eprintln!(
        "[simbench] scale: {} warmup + {} measure instructions, {} workloads, {} SMT pairs, \
         {} cores x {} tenants",
        scale.warmup, scale.measure, scale.workloads, scale.smt_pairs, scale.cores, scale.tenants
    );
    let runs = run_figures(&scale, None, &options);
    let sampled = run_figures(&scale, Some(SamplingConfig::default_schedule()), &options);
    let (instructions, seconds) = totals(&runs);
    let mips = instructions as f64 / seconds / 1e6;
    let single_core_mips = subset_mips(runs.iter().filter(|f| f.cores == 1));
    println!(
        "simbench: {instructions} instructions in {seconds:.3} s = {mips:.2} MIPS \
         aggregate, {single_core_mips:.2} single-core"
    );
    let acc = Accuracy::new(&runs, &sampled);
    println!(
        "simbench: sampled pass {:.3} s simulate vs {:.3} s full = {:.2}x speedup, \
         MPKI deviation {:.4}, IPC deviation {:.4}",
        acc.sampled_simulate,
        acc.full_simulate,
        acc.speedup(),
        acc.mpki_rel_err,
        acc.ipc_rel_err,
    );

    // Every row must report a real simulate phase: a figure whose
    // simulate_seconds reads 0.0 means the phase plumbing dropped its
    // profile (the multi-core machine used to), not that simulation was
    // free. Enforced in both modes so a regenerated baseline can never
    // re-commit the bug.
    let mut failed = false;
    for f in runs.iter().chain(sampled.iter()) {
        // `<=` also catches a NaN smuggled in by a broken phase profile.
        if f.simulate_seconds <= 0.0 || f.simulate_seconds.is_nan() {
            eprintln!(
                "simbench: PHASE ACCOUNTING BUG: {} ({} core(s)) reports \
                 simulate_seconds = {}",
                f.name, f.cores, f.simulate_seconds
            );
            failed = true;
        }
    }

    // Page-run batching must be visibly engaged on every figure: a
    // zero here means the counters — and almost certainly the
    // batching itself — silently fell out of the stepping kernel. Enforced in both modes so a
    // regenerated baseline can never commit the regression.
    for f in runs.iter().chain(sampled.iter()) {
        if f.probes_elided == 0 {
            eprintln!(
                "simbench: PAGE-RUN BATCHING BUG: {} ({} core(s)) reports zero \
                 elided probes over {} instructions",
                f.name, f.cores, f.instructions
            );
            failed = true;
        }
    }

    match check_path {
        None => {
            if failed {
                return ExitCode::FAILURE;
            }
            std::fs::write(&out_path, render(&scale, &runs, &sampled)).expect("write baseline");
            println!("simbench: baseline written to {out_path}");
            ExitCode::SUCCESS
        }
        Some(path) => {
            let doc = std::fs::read_to_string(&path).expect("read committed baseline");
            let committed =
                baseline_total_field(&doc, "mips").expect("baseline has a total mips field");
            let floor = committed * (1.0 - tolerance);
            println!(
                "simbench: committed baseline {committed:.2} MIPS, floor {floor:.2} \
                 (tolerance {tolerance})"
            );
            if mips < floor {
                eprintln!("simbench: THROUGHPUT REGRESSION: {mips:.2} < {floor:.2} MIPS");
                failed = true;
            }

            // The single-core hot path gets its own floor so a machine
            // figure speedup can never mask a per-core regression (and
            // vice versa). v3 baselines carry no single_core_mips; the
            // aggregate gate above covers them.
            if let Some(committed_single) = baseline_total_field(&doc, "single_core_mips") {
                let single_floor = committed_single * (1.0 - tolerance);
                println!(
                    "simbench: committed single-core {committed_single:.2} MIPS, \
                     floor {single_floor:.2}"
                );
                if single_core_mips < single_floor {
                    eprintln!(
                        "simbench: SINGLE-CORE THROUGHPUT REGRESSION: \
                         {single_core_mips:.2} < {single_floor:.2} MIPS"
                    );
                    failed = true;
                }
            }

            // Amortization gate: the share of wall time spent producing
            // instructions must stay close to the committed baseline's.
            // Losing the workload cache (back to O(runs) generation)
            // multiplies this ratio several-fold, far past the 2× + 3 pp
            // allowance; measurement noise moves it by far less.
            let committed_ratio = gen_ratio(
                baseline_total_field(&doc, "seconds").unwrap_or(0.0),
                baseline_total_field(&doc, "workload_gen_seconds").unwrap_or(0.0),
                baseline_total_field(&doc, "trace_build_seconds").unwrap_or(0.0),
            );
            let current_gen: f64 = runs
                .iter()
                .map(|f| f.workload_gen_seconds + f.trace_build_seconds)
                .sum();
            let current_ratio = gen_ratio(seconds, current_gen, 0.0);
            let ratio_ceiling = committed_ratio * 2.0 + 0.03;
            println!(
                "simbench: generation ratio {current_ratio:.4} \
                 (committed {committed_ratio:.4}, ceiling {ratio_ceiling:.4})"
            );
            if current_ratio > ratio_ceiling {
                eprintln!(
                    "simbench: WORKLOAD-GENERATION REGRESSION: ratio {current_ratio:.4} > \
                     {ratio_ceiling:.4} — is the workload cache still amortizing?"
                );
                failed = true;
            }

            // Sampled-accuracy gate: miss counters are measured on every
            // instruction in a sampled run (never extrapolated), so the
            // MPKI deviation is scale-insensitive and must stay within
            // 1 % even at CI's reduced MORRIGAN_INSTR.
            if acc.mpki_rel_err > 0.01 {
                eprintln!(
                    "simbench: SAMPLED ACCURACY REGRESSION: iSTLB MPKI deviates {:.4} \
                     (> 0.01) from the full run",
                    acc.mpki_rel_err
                );
                failed = true;
            }

            // Per-figure IPC gate: sampled IPC is extrapolated (the
            // fast-forward's cycles are recharged from the detail
            // windows' CPI regression), so unlike MPKI it CAN drift —
            // fig03 sat at a 6.4 % deviation while the aggregate
            // averaged it down to 0.6 %, because the fast-forward froze
            // the cache hierarchy and compressed the SPEC loops' reuse
            // distances. With functional cache warming in the
            // fast-forward the worst per-figure deviation measured is
            // ~2.7 % (the multicore records, whose shared-LLC epoch
            // interleaving the warm can't fully reproduce); 4 % gives
            // those headroom while still catching any one figure
            // regressing the way fig03 did (6.4 %). The regression only
            // converges over multiple detail windows, so figures whose
            // streams are too short to span a few sampling periods
            // (reduced-scale CI runs) are skipped with a note — the
            // committed baseline's bench-scale values stay pinned per
            // figure by tests/baseline.rs regardless.
            let period = SamplingConfig::default_schedule().period();
            for (f, s) in runs.iter().zip(&sampled) {
                let per_stream = f.instructions / f.streams_served.max(1);
                if per_stream < 4 * period {
                    println!(
                        "simbench: note: per-figure IPC gate skipped for {} \
                         ({per_stream} instructions/stream < 4 sampling periods)",
                        f.name
                    );
                    continue;
                }
                let err = rel_err(f.ipc(), s.ipc());
                if err > 0.04 {
                    eprintln!(
                        "simbench: SAMPLED IPC REGRESSION: {} sampled IPC deviates \
                         {err:.4} (> 0.04) from the full run",
                        f.name
                    );
                    failed = true;
                }
            }

            // Parallel-scaling gate: a committed bench-scale baseline
            // produced on a host with >= 4 spare cores must show the
            // 4-core epoch driver actually scaling (>= 2x its serial
            // reference). A baseline regenerated on a narrower host
            // records machine_threads < 4 and parallel_speedup 0.0
            // (unmeasured, not "0x") — the gate then SKIPS with a loud
            // warning instead of silently passing, so a 1-CPU runner
            // can't quietly disarm the scaling check forever. To re-arm
            // it, regenerate the baseline on a host with >= 4 available
            // CPUs: `cargo run --release -p morrigan-bench --bin
            // simbench -- --out BENCH_simloop.json` and commit the
            // result.
            let committed_width = baseline_figure_field(&doc, "fig21_multicore", "machine_threads");
            let committed_parallel =
                baseline_figure_field(&doc, "fig21_multicore", "parallel_speedup");
            if let (Some(width), Some(speedup)) = (committed_width, committed_parallel) {
                if width >= 4.0 {
                    println!(
                        "simbench: committed 4-core parallel speedup {speedup:.2}x at width \
                         {width:.0}"
                    );
                    if speedup < 2.0 {
                        eprintln!(
                            "simbench: PARALLEL SCALING REGRESSION: committed 4-core \
                             parallel_speedup {speedup:.2}x < 2x at width {width:.0}"
                        );
                        failed = true;
                    }
                } else {
                    eprintln!(
                        "simbench: WARNING: parallel-scaling gate SKIPPED — the committed \
                         baseline was generated at epoch-driver width {width:.0} (< 4), so \
                         no 4-core speedup was measured (parallel_speedup 0.0 means \
                         unmeasured). Regenerate BENCH_simloop.json on a host with >= 4 \
                         available CPUs to arm this gate."
                    );
                }
            }

            // Sampled-speed gate: the fast-forward path must actually be
            // faster than detailed stepping. The floor is deliberately
            // loose (1.05x): functional cache warming spends roughly a
            // third of the sampled pass keeping the hierarchy's
            // replacement state live across skip stretches (the price of
            // the per-figure IPC gate above), and CI checks at a reduced
            // scale where warmup transients eat most of what remains
            // (measured ~1.15x there, ~1.3x at bench scale). The
            // bench-scale speedup claim is pinned by the committed
            // baseline's sampled_speedup (see tests/baseline.rs).
            if acc.speedup() < 1.05 {
                eprintln!(
                    "simbench: SAMPLED SPEED REGRESSION: simulate-phase speedup {:.2}x < 1.05x",
                    acc.speedup()
                );
                failed = true;
            }

            if failed {
                ExitCode::FAILURE
            } else {
                println!("simbench: throughput ok");
                ExitCode::SUCCESS
            }
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("simbench: {err}");
    eprintln!("usage: simbench [--out PATH] [--check PATH] [--tolerance FRAC]");
    ExitCode::FAILURE
}
