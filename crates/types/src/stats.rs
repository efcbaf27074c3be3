//! Counters and aggregate statistics shared across the workspace.

use std::fmt;

/// A saturating up-counter with a configurable ceiling, e.g. the 2-bit
/// confidence counters attached to IRIP prediction slots (§6.1).
///
/// ```
/// use morrigan_types::stats::SatCounter;
/// let mut c = SatCounter::with_bits(2);
/// for _ in 0..10 { c.increment(); }
/// assert_eq!(c.value(), 3); // saturates at 2^2 - 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SatCounter {
    value: u32,
    max: u32,
}

impl SatCounter {
    /// A counter saturating at `max`.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero (a counter that cannot count is a bug).
    pub fn new(max: u32) -> Self {
        assert!(max > 0, "saturating counter ceiling must be positive");
        Self { value: 0, max }
    }

    /// A counter saturating at `2^bits - 1`.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or greater than 31.
    pub fn with_bits(bits: u32) -> Self {
        assert!((1..=31).contains(&bits), "counter width must be in 1..=31");
        Self::new((1u32 << bits) - 1)
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u32 {
        self.value
    }

    /// The saturation ceiling.
    #[inline]
    pub fn max(&self) -> u32 {
        self.max
    }

    /// Increments, saturating at the ceiling.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Resets to zero (slot replacement resets confidence, §4.1.1).
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }
}

impl Default for SatCounter {
    /// A 2-bit counter, the width the paper uses for prediction slots.
    fn default() -> Self {
        Self::with_bits(2)
    }
}

/// A hit/total ratio that formats as a percentage and never divides by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ratio {
    /// Numerator (e.g. hits, covered misses).
    pub part: u64,
    /// Denominator (e.g. lookups, baseline misses).
    pub total: u64,
}

impl Ratio {
    /// Builds a ratio from raw counts.
    pub fn new(part: u64, total: u64) -> Self {
        Self { part, total }
    }

    /// Records one event, hit or not.
    #[inline]
    pub fn record(&mut self, hit: bool) {
        self.total += 1;
        if hit {
            self.part += 1;
        }
    }

    /// The fraction `part / total`, or 0.0 when the denominator is zero.
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.part as f64 / self.total as f64
        }
    }

    /// The fraction as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}% ({}/{})", self.percent(), self.part, self.total)
    }
}

/// Geometric mean of a sequence of positive values; the aggregation the
/// paper uses for speedups ("geometric mean performance", §1, §6.2).
///
/// Returns 0.0 for an empty slice (there is no meaningful mean, and 0 is an
/// obviously-wrong sentinel that surfaces misuse in plots).
///
/// # Panics
///
/// Panics if any value is non-positive: a non-positive speedup indicates a
/// broken experiment, not a valid data point.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geometric mean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Misses per kilo-instruction, the MPKI metric used throughout §3.
pub fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_counter_saturates_both_ways() {
        let mut c = SatCounter::with_bits(2);
        assert_eq!(c.value(), 0);
        c.decrement();
        assert_eq!(c.value(), 0);
        for _ in 0..5 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        c.decrement();
        assert_eq!(c.value(), 2);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    #[should_panic(expected = "ceiling must be positive")]
    fn sat_counter_rejects_zero_ceiling() {
        let _ = SatCounter::new(0);
    }

    #[test]
    fn ratio_handles_zero_total() {
        let r = Ratio::default();
        assert_eq!(r.fraction(), 0.0);
        assert_eq!(r.percent(), 0.0);
    }

    #[test]
    fn ratio_records() {
        let mut r = Ratio::default();
        r.record(true);
        r.record(false);
        r.record(true);
        assert_eq!(r.part, 2);
        assert_eq!(r.total, 3);
        assert!((r.fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(format!("{r}"), "66.67% (2/3)");
    }

    #[test]
    fn geomean_basics() {
        assert_eq!(geometric_mean(&[]), 0.0);
        assert!((geometric_mean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive values")]
    fn geomean_rejects_zero() {
        let _ = geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn mpki_math() {
        assert_eq!(mpki(0, 0), 0.0);
        assert!((mpki(1500, 1_000_000) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
