//! Prior data-STLB prefetchers and ablation designs used as comparison
//! points in the Morrigan paper.
//!
//! All implement [`TlbPrefetcher`](morrigan_types::TlbPrefetcher) over the
//! *instruction* STLB miss stream, exactly as §3.4 configures them:
//!
//! * [`SequentialPrefetcher`] (SP) — prefetches the PTE of the next page
//!   \[Kandiraju & Sivasubramaniam, ISCA '02\].
//! * [`ArbitraryStridePrefetcher`] (ASP) — a Baer–Chen reference-prediction
//!   table indexed by the PC of the missing instruction.
//! * [`DistancePrefetcher`] (DP) — correlates the *distance* between
//!   consecutive missing pages with the distances that followed it.
//! * [`MarkovPrefetcher`] (MP) — a Markov chain over missing pages with a
//!   fixed number of successor slots per entry and LRU replacement.
//! * [`UnboundedMarkov`] — the idealized MP of §3.4 with an infinite
//!   prediction table and either capped or unlimited successors per page.
//! * [`MorriganMono`] — §6.3's ablation: Morrigan's operation with a
//!   single 203-entry, 8-slot prediction table instead of the ensemble.
//!
//! Each bounded design offers `sized_to_bits` so the Fig 15 ISO-storage
//! comparison can match Morrigan's 3.76 KB budget exactly.

#![forbid(unsafe_code)]

mod asp;
mod dp;
mod mono;
mod mp;
mod sp;
mod unbounded;

pub use asp::{ArbitraryStridePrefetcher, AspConfig};
pub use dp::{DistancePrefetcher, DpConfig};
pub use mono::MorriganMono;
pub use mp::{MarkovPrefetcher, MpConfig};
pub use sp::SequentialPrefetcher;
pub use unbounded::UnboundedMarkov;
