//! Chunked, autovectorizable tag-scan kernels for the SoA
//! set-associative structures (TLB sets, PSC sets, cache sets).
//!
//! Every lookup hot path in the simulator reduces to "find the first
//! slot in a short `u64` tag array equal to a key", and every fill path
//! of the stamp-LRU structures (TLB, PSC) to "find the hit slot, else
//! the LRU victim"; recency-ordered cache sets need only the first.
//! The naive `iter().position(..)` form compiles to a compare-and-branch
//! per way; the kernels here accumulate a branch-free equality bitmask
//! over the whole set instead, which LLVM lowers to one or two `u64x8`-style
//! vector compares plus a movemask for the 4/6/8/16-way geometries the
//! simulator configures. Semantics are pinned to the scalar forms by
//! the equality tests at the bottom of this module — callers may treat
//! the kernels as drop-in replacements, which is what keeps
//! full-fidelity simulator output byte-identical.

/// Widest set the branch-free kernels cover with a single `u64` mask;
/// wider slices (none are configured today) fall back to the scalar
/// scan they are pinned against.
const MASK_WIDTH: usize = 64;

/// First index in `tags` equal to `key`.
///
/// Semantically identical to `tags.iter().position(|&t| t == key)`;
/// the loop is branch-free so the per-way compares vectorize.
#[inline(always)]
pub fn find_tag(tags: &[u64], key: u64) -> Option<usize> {
    if tags.len() > MASK_WIDTH {
        return tags.iter().position(|&t| t == key);
    }
    let mut mask: u64 = 0;
    for (i, &t) in tags.iter().enumerate() {
        mask |= ((t == key) as u64) << i;
    }
    if mask != 0 {
        Some(mask.trailing_zeros() as usize)
    } else {
        None
    }
}

/// Replacement scan for a fill: the first slot whose tag equals `key`
/// (`hit == true`), else the first slot holding the minimum stamp
/// (`hit == false`). With the stamp-0-is-empty encoding the SoA
/// structures use, the returned victim is an empty way when one exists
/// and the true LRU way otherwise.
///
/// Identical to the fused compare-and-track scalar loop it replaced:
/// strict-less-than argmin keeps the first occurrence of the minimum,
/// and a two-pass min + first-position-of-min returns that same slot.
/// `tags` and `stamps` must be the same length and non-empty.
#[inline(always)]
pub fn find_hit_or_victim(tags: &[u64], stamps: &[u64], key: u64) -> (usize, bool) {
    debug_assert_eq!(tags.len(), stamps.len());
    debug_assert!(!tags.is_empty());
    if let Some(way) = find_tag(tags, key) {
        return (way, true);
    }
    let min = stamps.iter().copied().min().expect("non-empty set");
    let way = find_tag(stamps, min).expect("min came from this slice");
    (way, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The scalar reference the kernels are pinned against.
    fn scalar_find(tags: &[u64], key: u64) -> Option<usize> {
        tags.iter().position(|&t| t == key)
    }

    /// The fused compare-and-track loop `Tlb::insert` and `Cache::fill`
    /// used before the kernels existed (early break on hit, strict
    /// less-than victim tracking).
    fn scalar_hit_or_victim(tags: &[u64], stamps: &[u64], key: u64) -> (usize, bool) {
        let mut victim = 0;
        let mut victim_stamp = u64::MAX;
        for (way, (&t, &s)) in tags.iter().zip(stamps).enumerate() {
            if t == key {
                return (way, true);
            }
            if s < victim_stamp {
                victim = way;
                victim_stamp = s;
            }
        }
        (victim, false)
    }

    #[test]
    fn find_tag_matches_position_on_configured_geometries() {
        // Every set geometry the simulator configures: 4-way (dtlb,
        // psc), 6-way (stlb), 8-way (itlb, l1), 16-way (llc).
        for ways in [1, 4, 6, 8, 16] {
            let tags: Vec<u64> = (0..ways as u64).map(|i| i * 7 + 3).collect();
            for key in 0..(ways as u64 * 8) {
                assert_eq!(find_tag(&tags, key), scalar_find(&tags, key));
            }
            // Duplicate tags: first match must win.
            let dup = vec![9u64; ways];
            assert_eq!(find_tag(&dup, 9), Some(0));
        }
    }

    #[test]
    fn hit_or_victim_prefers_hit_then_first_min_stamp() {
        let tags = [10, 20, 30, 40];
        let stamps = [5, 2, 2, 7];
        assert_eq!(find_hit_or_victim(&tags, &stamps, 30), (2, true));
        // No hit: first of the two minimum stamps wins, like the
        // strict-less-than tracker.
        assert_eq!(find_hit_or_victim(&tags, &stamps, 99), (1, false));
        assert_eq!(
            find_hit_or_victim(&tags, &stamps, 99),
            scalar_hit_or_victim(&tags, &stamps, 99)
        );
    }

    proptest! {
        #[test]
        fn find_tag_equals_scalar(
            tags in prop::collection::vec(0u64..32, 1..80),
            key in 0u64..32,
        ) {
            prop_assert_eq!(find_tag(&tags, key), scalar_find(&tags, key));
        }

        #[test]
        fn hit_or_victim_equals_fused_scalar(
            pairs in prop::collection::vec((0u64..16, 0u64..8), 1..20),
            key in 0u64..16,
        ) {
            let tags: Vec<u64> = pairs.iter().map(|p| p.0).collect();
            let stamps: Vec<u64> = pairs.iter().map(|p| p.1).collect();
            prop_assert_eq!(
                find_hit_or_victim(&tags, &stamps, key),
                scalar_hit_or_victim(&tags, &stamps, key)
            );
        }
    }
}
