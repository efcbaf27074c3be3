//! `stlbsim` — run one QMM-like workload (or an SMT pair) through one
//! STLB prefetcher and print its metrics.
//!
//! ```text
//! stlbsim [OPTIONS]
//!
//! --workload <seed>        QMM-like workload seed (default: 1)
//! --prefetcher <name>      none|sp|asp|dp|mp|morrigan|morrigan-mono
//!                          (default: morrigan)
//! --instructions <n>       measured instructions (default: 4000000)
//! --warmup <n>             warmup instructions (default: instructions/3)
//! --smt <seed>             colocate a second workload (different seed)
//! --perfect-istlb          idealized instruction STLB
//! --asap                   accelerate page walks (ASAP, §6.4)
//! --fnl-mma                replace the next-line I-prefetcher by FNL+MMA
//! --context-switch <n>     flush translation state every n instructions
//! --baseline               also run the no-prefetching baseline and
//!                          report the speedup
//! ```
//!
//! Every run is a [`RunSpec`] executed through the workload cache, the
//! same path the `figures` binary takes. `MORRIGAN_WORKLOAD_CACHE=<dir>
//! stlbsim …` freezes the workload as a hash-verified `.mpt` trace under
//! `<dir>`; later runs with the same arguments replay it.

use std::process::ExitCode;

use morrigan_experiments::{PrefetcherKind, RunOptions, RunSpec};
use morrigan_sim::{IcachePrefetcherKind, Metrics, SimConfig, SystemConfig};
use morrigan_types::VirtPage;
use morrigan_workloads::ServerWorkloadConfig;

const USAGE: &str = "usage: stlbsim [--workload <seed>] [--prefetcher \
                     none|sp|asp|dp|mp|morrigan|morrigan-mono] [--instructions <n>] \
                     [--warmup <n>] [--smt <seed>] [--perfect-istlb] [--asap] [--fnl-mma] \
                     [--context-switch <n>] [--baseline]";

#[derive(Debug)]
struct Options {
    workload: String,
    prefetcher: String,
    instructions: u64,
    warmup: Option<u64>,
    smt: Option<u64>,
    perfect_istlb: bool,
    asap: bool,
    fnl_mma: bool,
    context_switch: Option<u64>,
    baseline: bool,
    help: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            workload: "1".to_string(),
            prefetcher: "morrigan".to_string(),
            instructions: 4_000_000,
            warmup: None,
            smt: None,
            perfect_istlb: false,
            asap: false,
            fnl_mma: false,
            context_switch: None,
            baseline: false,
            help: false,
        }
    }
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        let mut number = |name: &str| {
            let text = value(name)?;
            text.parse::<u64>()
                .map_err(|e| format!("{name}: {e} (got '{text}')"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--prefetcher" => opts.prefetcher = value("--prefetcher")?,
            "--instructions" => opts.instructions = number("--instructions")?,
            "--warmup" => opts.warmup = Some(number("--warmup")?),
            "--smt" => opts.smt = Some(number("--smt")?),
            "--perfect-istlb" => opts.perfect_istlb = true,
            "--asap" => opts.asap = true,
            "--fnl-mma" => opts.fnl_mma = true,
            "--context-switch" => opts.context_switch = Some(number("--context-switch")?),
            "--baseline" => opts.baseline = true,
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown option: {other}\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// The seven prefetchers the command line names, as the runner's kinds.
fn prefetcher_kind(name: &str) -> Result<PrefetcherKind, String> {
    Ok(match name {
        "none" => PrefetcherKind::None,
        "sp" => PrefetcherKind::Sp,
        "asp" => PrefetcherKind::Asp,
        "dp" => PrefetcherKind::Dp,
        "mp" => PrefetcherKind::Mp,
        "morrigan" => PrefetcherKind::Morrigan,
        "morrigan-mono" => PrefetcherKind::MorriganMono,
        other => {
            return Err(format!(
                "unknown prefetcher: {other} (none|sp|asp|dp|mp|morrigan|morrigan-mono)"
            ))
        }
    })
}

fn report(tag: &str, m: &Metrics) {
    println!("--- {tag} ---");
    println!("instructions        {}", m.instructions);
    println!("cycles              {}", m.cycles);
    println!("IPC                 {:.4}", m.ipc());
    println!("iSTLB MPKI          {:.3}", m.istlb_mpki());
    println!("I-TLB MPKI          {:.3}", m.itlb_mpki());
    println!("dSTLB MPKI          {:.3}", m.dstlb_mpki());
    println!("L1I MPKI            {:.3}", m.l1i_mpki());
    println!(
        "translation stalls  {:.2}% of cycles",
        m.istlb_cycle_fraction() * 100.0
    );
    println!("miss coverage       {:.1}%", m.coverage() * 100.0);
    println!("demand iwalk refs   {}", m.demand_instr_walk_refs());
    println!("prefetch walk refs  {}", m.prefetch_walk_refs());
    println!(
        "mean iwalk latency  {:.1} cycles",
        m.walker.mean_instr_walk_latency()
    );
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    if opts.help {
        println!("{USAGE}");
        return Ok(());
    }
    let kind = prefetcher_kind(&opts.prefetcher)?;
    let seed: u64 = opts.workload.parse().map_err(|_| {
        format!(
            "--workload takes a QMM-like workload seed, got '{}' (to freeze a workload's \
             trace, set MORRIGAN_WORKLOAD_CACHE=<dir>)",
            opts.workload
        )
    })?;
    let sim = SimConfig {
        warmup_instructions: opts.warmup.unwrap_or(opts.instructions / 3),
        measure_instructions: opts.instructions,
    };

    let mut system = SystemConfig::default();
    system.mmu.perfect_istlb = opts.perfect_istlb;
    system.mmu.walker.asap = opts.asap;
    system.context_switch_interval = opts.context_switch;
    if opts.fnl_mma {
        system.icache_prefetcher = IcachePrefetcherKind::FnlMma {
            translation_cost: true,
        };
    }

    let first = ServerWorkloadConfig::qmm_like(format!("cli-{seed}"), seed);
    let cache = RunOptions::from_env().workload_cache();
    let execute = |prefetcher: PrefetcherKind| {
        let spec = match opts.smt {
            None => RunSpec::server(&first, system, sim, prefetcher),
            Some(smt_seed) => {
                // Setting page-number bit 30 keeps the second address
                // space clear of the first's code and data regions.
                let mut second =
                    ServerWorkloadConfig::qmm_like(format!("cli-smt-{smt_seed}"), smt_seed);
                second.code_base = VirtPage::new(second.code_base.raw() | 1 << 30);
                second.data_base = VirtPage::new(second.data_base.raw() | 1 << 30);
                RunSpec::smt(&(first.clone(), second), system, sim, prefetcher)
            }
        };
        spec.execute_cached(None, None, None, &cache).metrics
    };

    let metrics = execute(kind);
    report(&opts.prefetcher, &metrics);

    if opts.baseline && kind != PrefetcherKind::None {
        let base = execute(PrefetcherKind::None);
        report("baseline", &base);
        println!(
            "\nspeedup over baseline: {:+.2}%",
            (metrics.speedup_over(&base) - 1.0) * 100.0
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("stlbsim: {message}");
            ExitCode::FAILURE
        }
    }
}
