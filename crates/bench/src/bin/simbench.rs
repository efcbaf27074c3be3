//! The throughput benchmark: wall-clock MIPS per figure regeneration.
//!
//! `simbench [--out PATH]` regenerates every figure — each with a fresh
//! single-threaded [`Runner`] so neither the result cache nor the worker
//! pool skews the number — and writes simulated instructions per
//! wall-second (MIPS), with each figure's phase split, to `PATH`
//! (default `simbench.json` in the current directory).
//!
//! Every figure runs once, in full detail. The figure list ends with an
//! 8-core scaling row (the fig21 sweep with its ceiling raised to 8).
//! Every machine runs on the runner's one thread. Every row carries the
//! page-run batching telemetry: `probes_issued` / `probes_elided` /
//! `runs_consumed`. `trace_build_seconds` is all stream construction
//! (the runner's `Phase::TraceBuild`): capturing packed traces, but also
//! opening replay cursors and building live generators, so it is
//! nonzero under `MORRIGAN_WORKLOAD_CACHE_MB=0` too.
//!
//! No throughput floor lives here: seconds measured on one host say
//! nothing about another. `simbench_ab.py`, beside this crate's
//! manifest, runs two builds' simbench interleaved on one host and gates
//! their paired ratios. What every run enforces is [`gate_failures`]:
//! checks computed from counters, which hold on any host. A failed gate
//! exits non-zero without writing the results.
//!
//! Scale comes from [`bench_scale`]: a reduced profile unless
//! `MORRIGAN_INSTR`/`MORRIGAN_FULL` override it. Of the other run
//! options only the workload-cache budget applies: every figure gets a
//! fresh `Runner::new(1)`, and `MORRIGAN_WORKLOAD_CACHE_MB=0` times live
//! generation.

use std::fmt::Display;
use std::process::ExitCode;
use std::time::Instant;

use morrigan_experiments as exp;
use morrigan_experiments::{RunOptions, Runner, Scale};
use morrigan_runner::json::json_f64;

/// One measured figure regeneration.
struct FigureRun {
    name: &'static str,
    /// Largest machine the figure steps (1 for the single-core figures;
    /// the sweep ceiling for the multicore rows). `instructions` already
    /// counts every core's retirement, so `mips` is aggregate throughput
    /// and `per_core_mips` is the per-simulated-core rate.
    cores: usize,
    instructions: u64,
    seconds: f64,
    /// Wall time the figure's simulators spent pulling instructions
    /// (`fill_block` refills), summed over its runs. With the workload
    /// cache on these refills are replay copies, far cheaper than live
    /// generation's O(runs) cost.
    workload_gen_seconds: f64,
    /// Wall time constructing the figure's instruction streams: every
    /// trace capture (the O(distinct workloads) generation cost the
    /// cache amortizes across the figure's runs), every replay cursor
    /// and every live generator.
    trace_build_seconds: f64,
    /// Wall time of the figure's runs minus workload generation and
    /// stream construction — the lookup/walk/retire simulation proper.
    simulate_seconds: f64,
    /// Distinct workload traces materialized for this figure.
    workloads_materialized: u64,
    /// Replay streams served from those traces (the amortization
    /// denominator: served / materialized runs ≥ 1).
    streams_served: u64,
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
    /// core for workload generation and stream construction that happen
    /// once per machine, not once per core.
    fn per_core_mips(&self) -> f64 {
        if self.simulate_seconds > 0.0 {
            self.instructions as f64 / (self.cores as f64 * self.simulate_seconds) / 1e6
        } else {
            0.0
        }
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

/// Aggregate MIPS over a subset of the runs (0.0 when the subset is
/// empty): the totals report single- and multi-core throughput
/// separately, so the single-core hot path reads without the machine
/// figure's contention noise.
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
/// 8-core scaling row.
fn run_figures(scale: &Scale, options: &RunOptions) -> Vec<FigureRun> {
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
        // from the run options so `MORRIGAN_WORKLOAD_CACHE_MB=0` gives
        // an honest live-generation A/B against the same binary.
        let runner = Runner::new(1).with_workload_cache(options.workload_cache());
        let start = Instant::now();
        std::hint::black_box(run(&runner, scale));
        let seconds = start.elapsed().as_secs_f64();
        let instructions = runner.instructions_simulated();
        // Each figure owns a fresh runner, so its phase totals are
        // exactly this figure's simulations.
        let phases = runner.phase_totals();
        let workload_stats = runner.workload_cache_stats();
        let elision = runner.elision_totals();
        let fig = FigureRun {
            name,
            cores,
            instructions,
            seconds,
            workload_gen_seconds: phases.workload_gen(),
            trace_build_seconds: phases.trace_build(),
            simulate_seconds: phases.simulate(),
            workloads_materialized: workload_stats.built,
            streams_served: workload_stats.streams_served,
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
            "[simbench] {name}: {instructions} instructions in {seconds:.3} s = \
             {:.2} MIPS over {} core(s) (workload-gen {:.3} s, trace-build {:.3} s over {} \
             traces serving {} streams, simulate {:.3} s{epoch_split}, elided {}/{} probes \
             over {} runs)",
            fig.mips(),
            fig.cores,
            fig.workload_gen_seconds,
            fig.trace_build_seconds,
            fig.workloads_materialized,
            fig.streams_served,
            fig.simulate_seconds,
            fig.probes_elided,
            fig.probes_issued + fig.probes_elided,
            fig.runs_consumed,
        );
        runs.push(fig);
    }
    runs
}

/// Renders the results document (the workspace deliberately carries no
/// JSON dependency; this mirrors `morrigan_runner::json`).
fn render(scale: &Scale, runs: &[FigureRun]) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"morrigan-bench-simloop-v10\",\n");
    out.push_str(&format!(
        "  \"scale\": {{\"warmup\": {}, \"measure\": {}, \"workloads\": {}, \"smt_pairs\": {}, \
         \"cores\": {}, \"tenants\": {}}},\n",
        scale.warmup, scale.measure, scale.workloads, scale.smt_pairs, scale.cores, scale.tenants
    ));
    out.push_str("  \"figures\": [\n");
    for (i, f) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"figure\": \"{}\", \"cores\": {}, \"instructions\": {}, \"seconds\": {}, \
             \"workload_gen_seconds\": {}, \"trace_build_seconds\": {}, \
             \"simulate_seconds\": {}, \"workloads_materialized\": {}, \
             \"streams_served\": {}, \"probes_issued\": {}, \"probes_elided\": {}, \
             \"runs_consumed\": {}, \"mips\": {}, \"per_core_mips\": {}}}{}\n",
            f.name,
            f.cores,
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
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    let (instructions, seconds) = totals(runs);
    let workload_gen: f64 = runs.iter().map(|f| f.workload_gen_seconds).sum();
    let trace_build: f64 = runs.iter().map(|f| f.trace_build_seconds).sum();
    let simulate: f64 = runs.iter().map(|f| f.simulate_seconds).sum();
    let materialized: u64 = runs.iter().map(|f| f.workloads_materialized).sum();
    let served: u64 = runs.iter().map(|f| f.streams_served).sum();
    let probes_issued: u64 = runs.iter().map(|f| f.probes_issued).sum();
    let probes_elided: u64 = runs.iter().map(|f| f.probes_elided).sum();
    let runs_consumed: u64 = runs.iter().map(|f| f.runs_consumed).sum();
    out.push_str(&format!(
        "  \"total\": {{\"instructions\": {instructions}, \"seconds\": {}, \
         \"workload_gen_seconds\": {}, \"trace_build_seconds\": {}, \
         \"simulate_seconds\": {}, \"workloads_materialized\": {materialized}, \
         \"streams_served\": {served}, \"probes_issued\": {probes_issued}, \
         \"probes_elided\": {probes_elided}, \"runs_consumed\": {runs_consumed}, \
         \"single_core_mips\": {}, \"multi_core_mips\": {}, \"mips\": {}}}\n}}\n",
        json_f64(seconds),
        json_f64(workload_gen),
        json_f64(trace_build),
        json_f64(simulate),
        json_f64(subset_mips(runs.iter().filter(|f| f.cores == 1))),
        json_f64(subset_mips(runs.iter().filter(|f| f.cores > 1))),
        json_f64(instructions as f64 / seconds / 1e6)
    ));
    out
}

fn totals(runs: &[FigureRun]) -> (u64, f64) {
    (
        runs.iter().map(|f| f.instructions).sum(),
        runs.iter().map(|f| f.seconds).sum(),
    )
}

/// The checks every run enforces. Each reads counters, not wall time
/// against a floor, so each holds on any host. `cache_enabled` says
/// whether the workload cache had a budget to materialize into. Returns
/// one message per failed check.
fn gate_failures(runs: &[FigureRun], cache_enabled: bool) -> Vec<String> {
    let mut failures = Vec::new();
    for f in runs {
        // A zero simulate phase means the phase plumbing dropped its
        // profile (the multi-core machine once did), not that simulation
        // was free. `is_nan` catches a broken profile's NaN.
        if f.simulate_seconds <= 0.0 || f.simulate_seconds.is_nan() {
            failures.push(format!(
                "PHASE ACCOUNTING BUG: {} ({} core(s)) reports simulate_seconds = {}",
                f.name, f.cores, f.simulate_seconds
            ));
        }
        // Zero elided probes means the counters, and almost certainly
        // the page-run batching itself, fell out of the stepping kernel.
        if f.probes_elided == 0 {
            failures.push(format!(
                "PAGE-RUN BATCHING BUG: {} ({} core(s)) reports zero elided probes over {} \
                 instructions",
                f.name, f.cores, f.instructions
            ));
        }
    }
    let materialized: u64 = runs.iter().map(|f| f.workloads_materialized).sum();
    let served: u64 = runs.iter().map(|f| f.streams_served).sum();
    if cache_enabled && served <= materialized {
        failures.push(format!(
            "WORKLOAD CACHE NOT AMORTIZING: {served} streams served from {materialized} traces"
        ));
    }
    failures
}

fn main() -> ExitCode {
    let mut out_path = "simbench.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => return usage("--out needs a path"),
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
    let runs = run_figures(&scale, &options);
    let (instructions, seconds) = totals(&runs);
    println!(
        "simbench: {instructions} instructions in {seconds:.3} s = {:.2} MIPS aggregate, \
         {:.2} single-core",
        instructions as f64 / seconds / 1e6,
        subset_mips(runs.iter().filter(|f| f.cores == 1)),
    );
    let failures = gate_failures(&runs, options.workload_cache_mb != Some(0));
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("simbench: {failure}");
        }
        return ExitCode::FAILURE;
    }
    std::fs::write(&out_path, render(&scale, &runs)).expect("write results");
    println!("simbench: every gate holds; results written to {out_path}");
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("simbench: {err}");
    eprintln!("usage: simbench [--out PATH]");
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A figure row that passes every gate: a real simulate phase,
    /// elided probes and more streams than traces.
    fn row(name: &'static str) -> FigureRun {
        FigureRun {
            name,
            cores: 1,
            instructions: 4_000_000,
            seconds: 1.0,
            workload_gen_seconds: 0.1,
            trace_build_seconds: 0.1,
            simulate_seconds: 0.8,
            workloads_materialized: 2,
            streams_served: 4,
            probes_issued: 400_000,
            probes_elided: 3_000_000,
            runs_consumed: 50_000,
        }
    }

    /// Asserts that exactly one check failed, with a message starting
    /// with `prefix`.
    fn assert_one(failures: Vec<String>, prefix: &str) {
        assert!(
            failures.len() == 1 && failures[0].starts_with(prefix),
            "expected one `{prefix}` failure, got {failures:?}"
        );
    }

    #[test]
    fn matching_passes_hold_every_gate() {
        let runs = [row("fig02"), row("fig03")];
        assert_eq!(gate_failures(&runs, true), Vec::<String>::new());
    }

    #[test]
    fn a_zero_or_nan_simulate_phase_fails() {
        for broken in [0.0, f64::NAN] {
            let mut full = row("fig21");
            full.simulate_seconds = broken;
            assert_one(
                gate_failures(&[row("fig02"), full], true),
                "PHASE ACCOUNTING BUG: fig21",
            );
        }
    }

    #[test]
    fn zero_elided_probes_fail() {
        let mut full = row("fig02");
        full.probes_elided = 0;
        assert_one(gate_failures(&[full], true), "PAGE-RUN BATCHING BUG: fig02");
    }

    #[test]
    fn a_cache_serving_each_trace_once_fails() {
        let mut full = row("fig02");
        full.streams_served = full.workloads_materialized;
        assert_one(
            gate_failures(&[full], true),
            "WORKLOAD CACHE NOT AMORTIZING",
        );
        // With the cache off nothing is materialized or served.
        let mut live = row("fig02");
        live.workloads_materialized = 0;
        live.streams_served = 0;
        assert!(gate_failures(&[live], false).is_empty());
    }
}
