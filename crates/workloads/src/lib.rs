//! Synthetic workload generators standing in for the Qualcomm CVP-1/IPC-1
//! server traces the paper evaluates on (which are proprietary).
//!
//! The substitution is legitimate because Morrigan and all compared
//! prefetchers key only on the *statistical structure* of the instruction
//! STLB miss stream, which the paper characterizes precisely in §3.3. The
//! [`ServerWorkload`] generator is built to reproduce those findings:
//!
//! * **Finding 1 / Fig 5** — limited spatial locality: a configurable
//!   fraction (~19 %) of page transitions use small deltas (1–10 pages);
//!   the rest jump far.
//! * **Finding 2 / Fig 6** — skew: jump targets are drawn from a power-law
//!   over the code footprint, so a few hundred hot pages collect ~90 % of
//!   misses.
//! * **Finding 3 / Figs 7–8** — successor structure: each page's
//!   out-degree follows the paper's breakdown (many pages with 1–2
//!   successors, few with >8), and successor choice is skewed roughly
//!   51/21/11/17 across the first/second/third/other successors.
//! * **Phases** — the hot region rotates every `phase_len` instructions,
//!   exercising RLFU's periodic frequency reset.
//!
//! [`SpecWorkload`] models SPEC-CPU-like behaviour (small, loopy code
//! footprint → iSTLB MPKI below the paper's 0.5 intensity threshold), used
//! for the Fig 3 contrast. [`suites`] defines the 45-workload QMM-like
//! suite, the SPEC-like suite, and the Java-server-like configs of Fig 2.

#![forbid(unsafe_code)]

mod instruction;
mod multi;
mod packed;
mod server;
mod spec;
pub mod suites;
mod zipf;

pub use instruction::{scan_page_runs, InstructionStream, MemAccess, TraceInstruction};
pub use multi::{AsidStream, ScheduledStream};
pub use packed::{fnv1a, PackedReplay, PackedTrace, REPLAY_SLACK};
pub use server::{ServerWorkload, ServerWorkloadConfig};
pub use spec::{SpecWorkload, SpecWorkloadConfig};
pub use zipf::PowerLawSampler;
