//! Per-figure experiment runners regenerating every table and figure of
//! the Morrigan paper's motivation (§3) and evaluation (§6).
//!
//! Each `figXX` module exposes `run(&Runner, &Scale) -> FigXXResult`: it
//! declares its simulations as variants, each a list of
//! [`common::RunSpec`]s with one per workload. [`common::run_variants`]
//! runs them as one variant-major batch on the shared [`Runner`] (worker
//! pool + content-keyed result cache, see the `morrigan-runner` crate)
//! and hands each variant its records in the order it listed its specs;
//! the module folds them into its result struct. Results render as
//! aligned text tables via `Display`. The `figures` binary runs any
//! subset by name and shares one `Runner` across figures, so common
//! baselines are simulated exactly once per invocation; `--json` writes
//! the records themselves (`morrigan_runner::json`). The `stlbsim` binary
//! runs one workload through one prefetcher on the same `RunSpec` path.
//!
//! ## Scaling
//!
//! The paper simulates 50 M warmup + 100 M measured instructions over 45
//! workloads. That is reproducible here (`MORRIGAN_FULL=1`) but slow; the
//! default [`Scale`] uses 1 M + 3 M over 10 workloads, which is enough for
//! every *shape* the paper reports (who wins, rough factors, crossovers).
//! Override with `MORRIGAN_INSTR=<measured>` and `MORRIGAN_WORKLOADS=<n>`;
//! a value that does not parse aborts (see [`RunOptions`], which reads
//! every run-level variable and flag).
//!
//! ## Fidelity notes (also in EXPERIMENTS.md)
//!
//! The substitution of synthetic traces for the proprietary Qualcomm
//! workloads preserves orderings and mechanisms, but attenuates absolute
//! coverage/speedup: on this substrate Morrigan covers ~35–45 % of iSTLB
//! misses (paper: 76 %) and gains ~1.5–3 % geomean (paper: 7.6 %) against
//! a perfect-iSTLB ceiling of ~8–9 % (paper: 11.1 %).

#![forbid(unsafe_code)]

pub mod common;
pub mod fig02_java_mpki;
pub mod fig03_frontend_mpki;
pub mod fig04_translation_cycles;
pub mod fig05_delta_cdf;
pub mod fig06_page_skew;
pub mod fig07_successors;
pub mod fig08_successor_prob;
pub mod fig09_dstlb_on_istlb;
pub mod fig10_fnlmma_tlb;
pub mod fig13_coverage_budget;
pub mod fig14_replacement;
pub mod fig15_iso_speedup;
pub mod fig16_walk_refs;
pub mod fig17_mono;
pub mod fig18_other_approaches;
pub mod fig19_icache_synergy;
pub mod fig20_smt;
pub mod fig21_multicore;
pub mod tuning;

pub use common::{PrefetcherKind, RunOptions, RunRecord, RunSpec, Runner, Scale};

use std::fmt::Display;

/// One figure of the suite, as the `figures` binary and simbench run it.
pub struct Figure {
    /// The name `figures` accepts on its command line.
    pub name: &'static str,
    /// simbench's row label; simbench's rows and `simbench_ab.py`'s
    /// per-figure ratios key on it.
    pub label: &'static str,
    /// Regenerates the figure; the result renders as its text table.
    pub run: fn(&Runner, &Scale) -> Box<dyn Display>,
}

macro_rules! figures {
    ($($name:literal, $label:literal => $module:ident;)+) => {
        [$(Figure {
            name: $name,
            label: $label,
            run: |runner, scale| Box::new($module::run(runner, scale)),
        }),+]
    };
}

/// Every figure, in run order.
pub const FIGURES: [Figure; 19] = figures! {
    "fig02", "fig02_java_mpki" => fig02_java_mpki;
    "fig03", "fig03_frontend_mpki" => fig03_frontend_mpki;
    "fig04", "fig04_translation_cycles" => fig04_translation_cycles;
    "fig05", "fig05_delta_cdf" => fig05_delta_cdf;
    "fig06", "fig06_page_skew" => fig06_page_skew;
    "fig07", "fig07_successors" => fig07_successors;
    "fig08", "fig08_successor_prob" => fig08_successor_prob;
    "fig09", "fig09_dstlb_on_istlb" => fig09_dstlb_on_istlb;
    "fig10", "fig10_fnlmma_tlb" => fig10_fnlmma_tlb;
    "fig13", "fig13_coverage_budget" => fig13_coverage_budget;
    "fig14", "fig14_replacement" => fig14_replacement;
    "fig15", "fig15_iso_speedup" => fig15_iso_speedup;
    "fig16", "fig16_walk_refs" => fig16_walk_refs;
    "fig17", "fig17_mono" => fig17_mono;
    "fig18", "fig18_other_approaches" => fig18_other_approaches;
    "fig19", "fig19_icache_synergy" => fig19_icache_synergy;
    "fig20", "fig20_smt" => fig20_smt;
    "fig21", "fig21_multicore" => fig21_multicore;
    "tuning", "table_irip_tuning" => tuning;
};
