//! `hostbench`: host throughput of the Morrigan simulator, end to end
//! and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs as three child processes of this binary, one at a
//! time, with every `MORRIGAN_*` variable removed from their
//! environment: an audited verify run, a timed run, and (with
//! `--trace 1`) a traced run. The parent checks their result digests
//! against each other and, for seed 0, against `expected/seed-0.json`,
//! prints every metric as `name value unit`, writes the result to
//! `<target>/hostbench/<workload>.json`, and prints it as the last line.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use morrigan_hostbench::report::{evaluate, result_json, Outcome, Phases};
use morrigan_hostbench::{phases, workload, Lengths, PhaseOutput, Workload, WORKLOADS};
use morrigan_runner::jsonval;

const USAGE: &str = "usage: hostbench [--workload server|spec|sampled|smt|machine] [--seed N] \
                     [--seconds S] [--trace 0|1]";

/// Full-detail result digests of every workload at seed 0.
const PINNED: &str = include_str!("../expected/seed-0.json");

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    child: Option<String>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: 10,
        trace: false,
        child: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(workload(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => parsed.child = Some(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Where spans and results go: the cargo target directory.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("hostbench")
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!(
            "hostbench: this is a debug build, whose timings mean nothing; \
             run it with `cargo run --release`"
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("hostbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.child.as_deref() {
        Some(phase) => child(phase, &args),
        None => parent(&args),
    }
}

/// Runs one phase and prints its output in the line protocol.
fn child(phase: &str, args: &Args) -> ExitCode {
    let Some(w) = args.workload else {
        eprintln!("hostbench: --child needs --workload");
        return ExitCode::from(2);
    };
    let lengths = &Lengths::BENCH;
    let out = match phase {
        "verify" => phases::verify(w, args.seed, lengths),
        // With --trace 1 the timed child only supplies the untraced
        // baseline for trace.overhead_pct and the width-1 comparison, so
        // it runs the minimum number of repetitions.
        "timed" => {
            let seconds = if args.trace { 0.0 } else { args.seconds as f64 };
            phases::timed(w, args.seed, lengths, seconds, args.trace)
        }
        "traced" => {
            let spans = out_dir().join(format!("{}.spans.jsonl", w.name));
            phases::traced(w, args.seed, lengths, Some(&spans))
        }
        other => {
            eprintln!("hostbench: unknown phase `{other}`");
            return ExitCode::from(2);
        }
    };
    print!("{}", out.to_lines());
    ExitCode::SUCCESS
}

/// Runs one phase in a child process with `stripped` removed from its
/// environment, waiting for it to end.
fn spawn(
    phase: &str,
    w: &Workload,
    args: &Args,
    stripped: &[String],
) -> Result<PhaseOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", phase, "--workload", w.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    for var in stripped {
        cmd.env_remove(var);
    }
    if phase == "verify" {
        cmd.env("MORRIGAN_AUDIT", "1");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {phase} child: {e}"))?;
    if !out.status.success() {
        return Err(format!("the {phase} child failed ({})", out.status));
    }
    PhaseOutput::parse(&String::from_utf8_lossy(&out.stdout))
}

/// The committed full-detail digests of `name` at seed 0.
fn pinned(name: &str) -> Result<Vec<String>, String> {
    let doc = jsonval::parse(PINNED).map_err(|e| format!("expected/seed-0.json: {e}"))?;
    let entry = doc
        .get(name)
        .ok_or(format!("expected/seed-0.json has no `{name}` entry"))?;
    entry
        .items()
        .iter()
        .map(|d| {
            d.as_str()
                .map(str::to_string)
                .ok_or(format!("bad `{name}` digest"))
        })
        .collect()
}

fn parent(args: &Args) -> ExitCode {
    let selected: Vec<&Workload> = match args.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut stripped: Vec<String> = std::env::vars_os()
        .filter_map(|(key, _)| key.into_string().ok())
        .filter(|key| key.starts_with("MORRIGAN_"))
        .collect();
    stripped.sort();
    eprintln!(
        "hostbench: stripped from child environments: {}",
        if stripped.is_empty() {
            "(none)".to_string()
        } else {
            stripped.join(", ")
        }
    );
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut outcomes: Vec<Outcome> = Vec::new();
    for w in selected {
        let specs = w.specs(args.seed, &Lengths::BENCH);
        eprintln!(
            "hostbench: {} (seed {}): {} specs, {} instructions per repetition",
            w.name,
            args.seed,
            specs.len(),
            specs.iter().map(|s| s.instructions_cost()).sum::<u64>()
        );
        let pins = (args.seed == 0).then(|| pinned(w.name));
        let phases = Phases {
            verify: spawn("verify", w, args, &stripped),
            timed: spawn("timed", w, args, &stripped),
            traced: args.trace.then(|| spawn("traced", w, args, &stripped)),
        };
        let valid_pins = pins.as_ref().and_then(|p| p.as_deref().ok());
        let mut outcome = evaluate(w, specs.len(), valid_pins, &phases);
        if let Some(Err(e)) = pins {
            outcome.problems.push(e);
        }
        if let Some(cores) = specs
            .iter()
            .map(|s| s.workload.cores())
            .max()
            .filter(|&c| c > 1)
        {
            outcome.notes.push(format!(
                "machine width {} (min of {cores} cores and nproc {nproc})",
                cores.min(nproc)
            ));
        }
        let prefix = if args.workload.is_none() {
            format!("{}.", w.name)
        } else {
            String::new()
        };
        print!("{}", outcome.lines(&prefix));
        outcomes.push(outcome);
    }

    let json = result_json(&outcomes);
    let file = out_dir().join(format!("{}.json", args.workload.map_or("all", |w| w.name)));
    if let Err(err) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&file, &json))
    {
        eprintln!("hostbench: could not write {} ({err})", file.display());
    }
    println!("{json}");
    if outcomes.iter().all(Outcome::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
