//! Host-side phase profiling: where a simulation's *wall time* goes,
//! split into workload generation, stream construction, and
//! simulation proper, with the multi-core machine's epoch barrier waits
//! and shared-state replay broken out of the latter.
//!
//! The buckets are timed at refill, stream-construction and epoch
//! granularity (two `Instant` reads per 1024-instruction refill, four
//! per machine thread per epoch, far below measurement noise), so they
//! are always on. Per-layer host cost inside the simulation
//! (translation, walks, cache set scans, the prefetcher, retirement) is
//! measured from outside the simulator by `hostbench --trace 1`.

/// Wall-time bucket a slice of host time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Generating instructions (stream refills).
    WorkloadGen,
    /// Constructing a run's instruction streams, timed around the stream
    /// construction in the runner's one execution path
    /// (`RunSpec::execute_with`), not inside the simulator: the full
    /// generation and packing cost when the workload cache materializes
    /// a trace, a replay cursor on a cache hit, and the live generator's
    /// construction when a stream is generated live (a zero trace
    /// budget, or a trace over it).
    TraceBuild,
    /// The multi-core machine's epoch barriers: each host thread's time
    /// inside its two `wait` calls per epoch, summed over threads. Part
    /// of simulation time ([`PhaseProfile::simulate`] includes it).
    BarrierWait,
    /// The multi-core machine's replay phase: each host thread's time
    /// replaying its LLC shards (and the shared STLB) and delivering
    /// shootdowns, summed over threads. Part of simulation time.
    Replay,
}

impl Phase {
    /// All phases, in [`Self::index`] order.
    pub const ALL: [Phase; 4] = [
        Phase::WorkloadGen,
        Phase::TraceBuild,
        Phase::BarrierWait,
        Phase::Replay,
    ];

    /// Dense index into [`PhaseProfile`]'s bucket array.
    pub fn index(self) -> usize {
        match self {
            Phase::WorkloadGen => 0,
            Phase::TraceBuild => 1,
            Phase::BarrierWait => 2,
            Phase::Replay => 3,
        }
    }

    /// Stable lowercase name used in JSON reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::WorkloadGen => "workload_gen",
            Phase::TraceBuild => "trace_build",
            Phase::BarrierWait => "barrier_wait",
            Phase::Replay => "replay",
        }
    }
}

/// Accumulated wall seconds per phase for one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseProfile {
    buckets: [f64; 4],
    total: f64,
}

impl PhaseProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds wall seconds to one bucket.
    pub fn add(&mut self, phase: Phase, seconds: f64) {
        self.buckets[phase.index()] += seconds;
    }

    /// Adds to the run's total wall time (timed around the whole loop,
    /// independent of the buckets).
    pub fn add_total(&mut self, seconds: f64) {
        self.total += seconds;
    }

    /// Seconds attributed to one bucket.
    pub fn seconds(&self, phase: Phase) -> f64 {
        self.buckets[phase.index()]
    }

    /// Total wall seconds across the profiled region.
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Seconds spent generating workload instructions (live refills —
    /// cheap replay copies when the workload cache is on).
    pub fn workload_gen(&self) -> f64 {
        self.seconds(Phase::WorkloadGen)
    }

    /// Seconds spent constructing instruction streams (see
    /// [`Phase::TraceBuild`]).
    pub fn trace_build(&self) -> f64 {
        self.seconds(Phase::TraceBuild)
    }

    /// Thread-seconds the multi-core machine's host threads spent in
    /// epoch barriers (zero for single-core runs).
    pub fn barrier_wait(&self) -> f64 {
        self.seconds(Phase::BarrierWait)
    }

    /// Thread-seconds the multi-core machine's host threads spent
    /// replaying shared-state logs and delivering shootdowns (zero for
    /// single-core runs).
    pub fn replay(&self) -> f64 {
        self.seconds(Phase::Replay)
    }

    /// Seconds spent simulating: the total minus workload generation
    /// and stream construction, clamped at zero because timer
    /// granularity can make the buckets nominally overshoot a tiny
    /// total. Barrier and replay time are part of it.
    pub fn simulate(&self) -> f64 {
        (self.total - self.workload_gen() - self.trace_build()).max(0.0)
    }

    /// Folds another profile into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        for i in 0..self.buckets.len() {
            self.buckets[i] += other.buckets[i];
        }
        self.total += other.total;
    }
}
