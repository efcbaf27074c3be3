//! Stats-invariant auditing primitives.
//!
//! Every figure the workspace reproduces is a ratio of counters, so a
//! silently broken counter becomes a silently wrong paper claim. This
//! module provides the vocabulary for *conservation-law audits*: an
//! [`AuditReport`] accumulates named law checks and records the offending
//! values of any that fail, and the [`CounterSet`] trait exposes a stats
//! struct's monotone counters by name so window snapshots can be checked
//! for monotonicity generically (`end - start` underflows are the classic
//! symptom of a counter that was reset or double-subtracted mid-run).
//!
//! The laws themselves live next to the structures they connect (see
//! `morrigan_sim::audit`); this crate only defines the reporting types so
//! every layer — `vm`, `mem`, `sim`, `runner` — can speak them.

/// One violated conservation law: the law's name and the offending values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The law that failed, stated as the equation or inequality it
    /// encodes (e.g. `"istlb_covered + demand_instr_walks == istlb_misses"`).
    pub law: String,
    /// The concrete counter values that broke it, with the checkpoint at
    /// which they were observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.law, self.detail)
    }
}

/// The outcome of running an invariant set: how many laws were checked
/// and which of them failed, with offending values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// What was audited (e.g. the run description).
    pub context: String,
    /// Total number of law checks performed.
    pub checks: u64,
    /// Every failed check, in check order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// An empty report for `context`.
    pub fn new(context: impl Into<String>) -> Self {
        AuditReport {
            context: context.into(),
            checks: 0,
            violations: Vec::new(),
        }
    }

    /// Records one law check; `detail` is only rendered on failure.
    pub fn check(&mut self, law: &str, holds: bool, detail: impl FnOnce() -> String) {
        self.checks += 1;
        if !holds {
            self.violations.push(Violation {
                law: law.to_string(),
                detail: detail(),
            });
        }
    }

    /// Checks the equality law `law` (`lhs == rhs`), recording both sides
    /// on failure. `at` names the checkpoint (e.g. `"end-of-window"`).
    pub fn check_eq(&mut self, at: &str, law: &str, lhs: u64, rhs: u64) {
        self.check(law, lhs == rhs, || {
            format!("at {at}: left side is {lhs}, right side is {rhs}")
        });
    }

    /// Checks the inequality law `law` (`lhs <= rhs`).
    pub fn check_le(&mut self, at: &str, law: &str, lhs: u64, rhs: u64) {
        self.check(law, lhs <= rhs, || {
            format!("at {at}: left side is {lhs}, right side is {rhs}")
        });
    }

    /// Whether every check passed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Human-readable summary: one line per violation, or a clean bill.
    pub fn render(&self) -> String {
        if self.is_clean() {
            return format!(
                "stats audit of {}: {} checks, no violations",
                self.context, self.checks
            );
        }
        let mut out = format!(
            "stats audit of {} FAILED: {} of {} checks violated\n",
            self.context,
            self.violations.len(),
            self.checks
        );
        for v in &self.violations {
            out.push_str(&format!("  - {v}\n"));
        }
        out
    }
}

/// A stats struct whose fields are monotone (never-decreasing) counters,
/// exposed by stable name for generic checks.
///
/// Every struct with a window-subtraction `Sub` impl should implement
/// this: the subtraction is only meaningful if each field at the window
/// end is at least its value at the window start.
/// [`counter_set!`](crate::counter_set) declares a struct together with
/// its `Add`, `Sub` and this impl.
pub trait CounterSet {
    /// `(name, value)` for every monotone counter, in declaration order.
    fn counters(&self) -> Vec<(&'static str, u64)>;
}

/// Declares a counter set: a stats struct of `pub u64` monotone counters,
/// written once. Emits the struct (deriving `Debug, Clone, Copy,
/// Default, PartialEq, Eq`) with field-wise [`Add`](std::ops::Add) and
/// [`Sub`](std::ops::Sub) and a [`CounterSet`] impl, all in declaration
/// order, so adding or renaming a counter is a one-line change.
///
/// `Sub` isolates a window (`end - start`); `Add` is its inverse, so
/// summing epoch deltas reconstitutes the window totals.
///
/// ```
/// morrigan_types::counter_set! {
///     /// Hits and misses of some structure.
///     pub struct Probes {
///         /// Lookups that hit.
///         pub hits: u64,
///         /// Lookups that missed.
///         pub misses: u64,
///     }
/// }
/// use morrigan_types::CounterSet;
/// let end = Probes { hits: 7, misses: 3 };
/// let start = Probes { hits: 2, misses: 1 };
/// assert_eq!(end - start, Probes { hits: 5, misses: 2 });
/// assert_eq!((end - start).counters(), vec![("hits", 5), ("misses", 2)]);
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* pub $field:ident: u64,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* pub $field: u64,)+
        }

        impl ::std::ops::Add for $name {
            type Output = $name;

            fn add(self, rhs: $name) -> $name {
                $name { $($field: self.$field + rhs.$field,)+ }
            }
        }

        impl ::std::ops::Sub for $name {
            type Output = $name;

            fn sub(self, rhs: $name) -> $name {
                $name { $($field: self.$field - rhs.$field,)+ }
            }
        }

        impl $crate::CounterSet for $name {
            fn counters(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }
    };
}

/// Checks field-wise monotonicity between two snapshots of a
/// [`CounterSet`]: every counter at `end` must be `>=` its value at
/// `start`. `set` names the struct in the law (e.g. `"mmu"`).
///
/// # Panics
///
/// Panics if the two snapshots disagree on counter names — that is a
/// programming error in the `CounterSet` impl, not a stats violation.
pub fn check_monotonic<T: CounterSet>(
    report: &mut AuditReport,
    at: &str,
    set: &str,
    start: &T,
    end: &T,
) {
    let start = start.counters();
    let end = end.counters();
    assert_eq!(
        start.len(),
        end.len(),
        "CounterSet impl must be snapshot-independent"
    );
    for ((name, s), (end_name, e)) in start.into_iter().zip(end) {
        assert_eq!(name, end_name, "CounterSet field order must be stable");
        report.check(
            &format!("{set}.{name} is monotone over the window"),
            e >= s,
            || format!("at {at}: start {s}, end {e}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::counter_set! {
        /// A two-counter set for the unit tests.
        struct Two {
            /// First counter.
            pub a: u64,
            /// Second counter.
            pub b: u64,
        }
    }

    #[test]
    fn declared_set_round_trips_and_names_in_order() {
        let start = Two { a: 5, b: 10 };
        let delta = Two { a: 2, b: 0 };
        assert_eq!((start + delta) - delta, start);
        assert_eq!((start + delta) - start, delta);
        assert_eq!(start.counters(), vec![("a", 5), ("b", 10)]);
        assert_eq!(Two::default(), Two { a: 0, b: 0 });
    }

    #[test]
    fn clean_report_renders_summary() {
        let mut r = AuditReport::new("unit");
        r.check_eq("t0", "a == b", 3, 3);
        r.check_le("t0", "a <= c", 3, 5);
        assert!(r.is_clean());
        assert_eq!(r.checks, 2);
        assert!(r.render().contains("2 checks, no violations"));
    }

    #[test]
    fn violation_names_the_law_and_values() {
        let mut r = AuditReport::new("unit");
        r.check_eq("end-of-window", "hits + misses == lookups", 7, 9);
        assert!(!r.is_clean());
        let rendered = r.render();
        assert!(rendered.contains("hits + misses == lookups"));
        assert!(rendered.contains("left side is 7, right side is 9"));
        assert!(rendered.contains("end-of-window"));
    }

    #[test]
    fn detail_closure_only_runs_on_failure() {
        let mut r = AuditReport::new("unit");
        r.check("always holds", true, || unreachable!("must stay lazy"));
        assert!(r.is_clean());
    }

    #[test]
    fn monotonicity_catches_a_decreasing_counter() {
        let mut r = AuditReport::new("unit");
        let start = Two { a: 5, b: 10 };
        let good = Two { a: 5, b: 12 };
        check_monotonic(&mut r, "t1", "two", &start, &good);
        assert!(r.is_clean());

        let bad = Two { a: 4, b: 12 };
        check_monotonic(&mut r, "t1", "two", &start, &bad);
        assert_eq!(r.violations.len(), 1);
        assert!(r.violations[0].law.contains("two.a is monotone"));
    }
}
