//! Per-figure experiment runners regenerating every table and figure of
//! the Morrigan paper's motivation (§3) and evaluation (§6).
//!
//! Each `figXX` module exposes `run(&Runner, &Scale) -> FigXXResult`: it
//! declares its simulations as a batch of [`common::RunSpec`]s, hands
//! them to the shared [`Runner`] (worker pool + content-keyed result
//! cache, see the `morrigan-runner` crate), and folds the returned
//! records into its result struct. Results render as aligned text
//! tables via `Display`. The `figures` binary runs any subset by name
//! and shares one `Runner` across figures, so common baselines are
//! simulated exactly once per invocation; `--json` writes the records
//! themselves (`morrigan_runner::json`). The `stlbsim` binary runs one
//! workload through one prefetcher on the same `RunSpec` path.
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
