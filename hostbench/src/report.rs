//! From the three phase outputs to metrics and a correctness verdict.

use morrigan_runner::json::{json_f64, json_string};

use crate::{PhaseOutput, Workload};

/// One reported metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported with tracing off (`--trace 0`).
pub const END_TO_END: [MetricDef; 3] = [
    ("mips", "Minstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 26] = [
    ("workloads.capture_ns_per_instr", "ns"),
    ("workloads.trace_mb", "MiB"),
    ("workloads.fill_ns_per_instr", "ns"),
    ("vm.translate_calls", "count"),
    ("vm.probes_elided_frac", "fraction"),
    ("vm.translate_ns", "ns"),
    ("vm.istlb_misses", "count"),
    ("vm.stlb_ns", "ns"),
    ("vm.walks", "count"),
    ("vm.walk_ns", "ns"),
    ("core.prefetcher_calls", "count"),
    ("core.prefetcher_ns_per_call", "ns"),
    ("core.prefetches_per_call", "count"),
    ("core.coverage", "fraction"),
    ("mem.accesses", "count"),
    ("mem.access_ns", "ns"),
    ("mem.warm_ns", "ns"),
    ("mem.llc_ns", "ns"),
    ("sim.simulate_s", "s"),
    ("sim.layer_accounted_frac", "fraction"),
    ("sim.residual_ns_per_instr", "ns"),
    ("sim.instr_per_run", "count"),
    ("sim.machine_serial_mips", "Minstr/s"),
    ("sim.machine_parallel_speedup", "x"),
    ("sim.ipc_err_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// The outputs of one workload's child processes; `Err` carries why a
/// child produced nothing (it crashed, or its output did not parse).
pub struct Phases {
    /// The audited pass.
    pub verify: Result<PhaseOutput, String>,
    /// The untraced pass.
    pub timed: Result<PhaseOutput, String>,
    /// The traced pass, when one ran.
    pub traced: Option<Result<PhaseOutput, String>>,
}

/// The verdict on one workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// The workload's name.
    pub workload: &'static str,
    /// Reported metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed: an audit failure, a digest that differs from
    /// the pinned one, from the verify run, or between repetitions, or a
    /// traced run that differs from the untraced one.
    pub failed: u64,
    /// Everything that went wrong, one line each.
    pub problems: Vec<String>,
    /// Context for reading the numbers.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Whether every run and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    fn fail(&mut self, runs: u64, problem: String) {
        self.failed += runs;
        self.problems.push(problem);
    }

    /// One `name value unit` line per metric (names prefixed with
    /// `prefix`), then notes and problems as `#` comments.
    pub fn lines(&self, prefix: &str) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{prefix}{name} {value:?} {unit}\n"));
        }
        for note in &self.notes {
            out.push_str(&format!("# {}: {note}\n", self.workload));
        }
        for problem in &self.problems {
            out.push_str(&format!("# {}: FAILED: {problem}\n", self.workload));
        }
        out
    }
}

/// Checks every digest labelled `<something>.spec<i>` in `phase`
/// against the verify run's `spec<i>`.
fn check_digests(o: &mut Outcome, phase: &str, out: &PhaseOutput, verify: Option<&PhaseOutput>) {
    for (label, hex) in &out.digests {
        o.attempted += 1;
        let spec = label.rsplit('.').next().unwrap_or(label);
        match verify.and_then(|v| v.digests.get(spec)) {
            Some(expected) if expected == hex => {}
            Some(expected) => o.fail(
                1,
                format!("{phase} run {label} digest {hex} differs from verify's {expected}"),
            ),
            None => o.fail(1, format!("{phase} run {label} has no verified digest")),
        }
    }
    for error in &out.errors {
        o.fail(1, format!("{phase}: {error}"));
    }
}

/// Judges one workload's phases. `specs` is the number of specs per
/// repetition; `pinned` the committed full-detail digests when the run
/// uses the pinned seed.
pub fn evaluate(
    workload: &Workload,
    specs: usize,
    pinned: Option<&[String]>,
    phases: &Phases,
) -> Outcome {
    let mut o = Outcome {
        workload: workload.name,
        ..Outcome::default()
    };
    let verified_runs = if workload.sampled() { 2 * specs } else { specs } as u64;
    o.attempted += verified_runs;
    let verify = match &phases.verify {
        Ok(v) => {
            for error in &v.errors {
                o.fail(1, format!("verify: {error}"));
            }
            if v.digests.len() as u64 != verified_runs {
                o.fail(
                    verified_runs,
                    format!(
                        "verify produced {} digests for {verified_runs} runs",
                        v.digests.len()
                    ),
                );
            }
            Some(v)
        }
        Err(e) => {
            o.fail(verified_runs, format!("verify: {e}"));
            None
        }
    };

    // The pinned digests are the full-detail results: the sampled
    // workload's references, every other workload's own runs. Sampled
    // records are only checked for stability across repetitions.
    if let (Some(pins), Some(v)) = (pinned, verify) {
        let label = if workload.sampled() { "ref" } else { "spec" };
        let got: Vec<String> = (0..specs)
            .map(|i| {
                v.digests
                    .get(&format!("{label}{i}"))
                    .cloned()
                    .unwrap_or_default()
            })
            .collect();
        if got != pins {
            let differing = (0..specs).filter(|&i| pins.get(i) != Some(&got[i])).count();
            o.fail(
                differing as u64,
                format!(
                    "full-detail digests {got:?} differ from the pinned {pins:?} \
                     (expected/seed-0.json entry: \"{}\": {got:?})",
                    workload.name
                ),
            );
        }
    }

    let timed = match &phases.timed {
        Ok(t) => {
            check_digests(&mut o, "timed", t, verify);
            Some(t)
        }
        Err(e) => {
            o.attempted += specs as u64;
            o.fail(specs as u64, format!("timed: {e}"));
            None
        }
    };
    let traced = match &phases.traced {
        Some(Ok(t)) => {
            check_digests(&mut o, "traced", t, verify);
            Some(t)
        }
        Some(Err(e)) => {
            o.attempted += specs as u64;
            o.fail(specs as u64, format!("traced: {e}"));
            None
        }
        None => None,
    };

    let ipc_err = verify.and_then(|v| v.values.get("ipc_err_pct").copied());
    if let Some(err) = ipc_err {
        o.notes
            .push(format!("sampled IPC deviates {err:.3}% from full detail"));
    }

    let value =
        |out: Option<&PhaseOutput>, name: &str| out.and_then(|p| p.values.get(name).copied());
    if let Some(t) = timed {
        if let (Some(q1), Some(q3), Some(n)) = (
            value(Some(t), "mips_q1"),
            value(Some(t), "mips_q3"),
            value(Some(t), "reps"),
        ) {
            o.notes.push(format!(
                "mips is the median of n={n} repetitions, quartiles [{q1:.4}, {q3:.4}]; \
                 n < 20 leaves no percentile above the median with ten samples beyond it"
            ));
        }
    }
    if phases.traced.is_none() {
        for (name, unit) in END_TO_END {
            match value(timed, name) {
                Some(v) => o.metrics.push((name, v, unit)),
                None if timed.is_some() => o.fail(0, format!("timed run reported no {name}")),
                None => {}
            }
        }
    } else if let Some(tr) = traced {
        let mips = value(timed, "mips");
        // Only multi-core specs have a machine width to vary; a
        // single-core simulator runs on one host thread at every width.
        let serial = value(timed, "serial_mips").or(mips);
        let speedup = mips.zip(serial).map(|(m, s)| m / s);
        let overhead = value(Some(tr), "sim.simulate_s")
            .zip(value(timed, "median_rep_s"))
            .map(|(traced, untraced)| (traced - untraced) / untraced * 100.0);
        for (name, unit) in PER_LAYER {
            let v = match name {
                "sim.machine_serial_mips" => serial,
                "sim.machine_parallel_speedup" => speedup,
                "sim.ipc_err_pct" => Some(ipc_err.unwrap_or(0.0)),
                "trace.overhead_pct" => overhead,
                _ => value(Some(tr), name),
            };
            match v {
                Some(v) => o.metrics.push((name, v, unit)),
                None => o.fail(0, format!("no value for {name}")),
            }
        }
    }
    let unmeasurable: Vec<&str> = o
        .metrics
        .iter()
        .filter(|m| !m.1.is_finite())
        .map(|m| m.0)
        .collect();
    for name in unmeasurable {
        o.fail(0, format!("{name} is not a finite number"));
    }
    o
}

/// The result object: `correct`, `attempted`, `failed` and every
/// metric with its unit. Metric names get `<workload>.` prefixes when
/// more than one workload ran.
pub fn result_json(outcomes: &[Outcome]) -> String {
    let prefixed = outcomes.len() > 1;
    let metrics: Vec<String> = outcomes
        .iter()
        .flat_map(|o| {
            o.metrics.iter().map(move |(name, value, unit)| {
                let name = if prefixed {
                    format!("{}.{name}", o.workload)
                } else {
                    name.to_string()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_string(&name),
                    json_f64(*value),
                    json_string(unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcomes.iter().all(Outcome::correct),
        outcomes.iter().map(|o| o.attempted).sum::<u64>(),
        outcomes.iter().map(|o| o.failed).sum::<u64>(),
        metrics.join(", ")
    )
}
