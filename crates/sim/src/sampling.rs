//! SMARTS-style interval sampling: detailed timing on sampled windows,
//! functional fast-forward between them.
//!
//! A sampled run alternates two stepping modes over the same instruction
//! stream:
//!
//! * **Detail windows** (`detail` instructions) run the full interval
//!   model — ROB admission, fetch-width and retire-width accounting,
//!   translation and cache latencies on the critical path.
//! * **Fast-forward segments** (`skip` instructions) execute the same
//!   instructions *functionally*: every translation, cache access,
//!   prefetcher engagement, page walk, and context switch still happens
//!   (TLBs, PSCs, caches, the PB, and all prediction tables stay warm
//!   and trained, and every architectural counter advances exactly as
//!   in a full run), but the ROB/retire/latency model is skipped and
//!   simulated time advances by the CPI pooled over the detail windows
//!   so far.
//!
//! Because the fast-forward path drives the identical MMU/memory code,
//! miss counters — and therefore MPKI and coverage — are *measured on
//! every instruction*, never extrapolated from the detail windows (the
//! only deviation from a full run is second-order, through timestamps
//! fed to timing-sensitive structures like the PB and walker).
//! Cycle-derived metrics (IPC, stall cycles) are estimates; both error
//! classes are pinned against full runs by the sampling accuracy tests.
//! Stall-cycle counters only advance during detail windows, so the run
//! scales them by the window's instruction ratio at the end (see
//! `Simulator::run`).
//!
//! The schedule is anchored at absolute retirement count zero, so a
//! core always starts with a detail window and the multi-core machine
//! can drive each core's schedule independently from its own retirement
//! counter.

/// A sampled-simulation schedule: `detail` instructions of full timing
/// followed by `skip` instructions of functional fast-forward, repeated.
///
/// Written `detail:skip` (e.g. `10000:40000` runs detailed timing on
/// 20 % of the stream).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Instructions per detailed-timing window (≥ 1).
    pub detail: u64,
    /// Instructions fast-forwarded between detail windows (≥ 1).
    pub skip: u64,
}

impl SamplingConfig {
    /// A balanced default: 12.5 k detailed / 37.5 k fast-forwarded, i.e.
    /// detailed timing on 25 % of the stream. Chosen by an error-bound
    /// sweep: among schedules keeping the bench-scale speedup ≥ 2×, this
    /// one minimized the aggregate IPC deviation on the bench workload
    /// set (window long enough that post-skip transients are noise,
    /// detail fraction high enough to anchor the cycle-regression fit).
    pub fn default_schedule() -> Self {
        Self {
            detail: 12_500,
            skip: 37_500,
        }
    }

    /// One full schedule period in instructions.
    pub fn period(&self) -> u64 {
        self.detail + self.skip
    }

    /// Fraction of the stream that runs under detailed timing.
    pub fn detail_fraction(&self) -> f64 {
        self.detail as f64 / self.period() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_one_quarter_detailed() {
        let d = SamplingConfig::default_schedule();
        assert!(d.detail >= 1 && d.skip >= 1);
        assert!((d.detail_fraction() - 0.25).abs() < 1e-12);
    }
}
