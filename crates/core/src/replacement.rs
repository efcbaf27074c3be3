//! Replacement policies for IRIP's prediction tables.
//!
//! §6.1.2 compares four policies; the paper's finding (its Fig 14) is that
//! frequency beats recency at small budgets, and that adding a random
//! second-chance component on top of LFU (→ RLFU) buys another ~5 % of
//! miss coverage by protecting recently installed entries that have not
//! yet accumulated hits.

use morrigan_types::rng::Xoshiro256StarStar;
use morrigan_types::VirtPage;

use crate::frequency::FrequencyStack;

/// Which replacement policy a prediction table uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplacementPolicy {
    /// Evict the least recently used entry (what the prior-art Markov
    /// prefetcher uses; loses track of hot-but-not-recent pages, §3.4).
    Lru,
    /// Evict a uniformly random entry.
    Random,
    /// Evict the entry whose page misses least frequently.
    Lfu,
    /// Random-Least-Frequently-Used (the paper's contribution): evict a
    /// uniformly random entry from the least-frequently-used *quarter* of
    /// the set. The randomness acts as a second chance for recently
    /// installed entries, which necessarily sit near the bottom of the
    /// frequency stack, while still protecting the hottest entries like
    /// LFU.
    Rlfu,
}

impl ReplacementPolicy {
    /// All policies, in the order Fig 14 plots them.
    pub const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Random,
        ReplacementPolicy::Lfu,
        ReplacementPolicy::Rlfu,
    ];

    /// Short name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::Lfu => "lfu",
            ReplacementPolicy::Rlfu => "rlfu",
        }
    }

    /// Picks a victim among `candidates`, each described by
    /// `(vpn, lru_stamp)`. Frequencies come from `freq`; randomness from
    /// `rng` (deterministic xoshiro state owned by the caller).
    ///
    /// Returns an index into `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn choose_victim(
        self,
        candidates: &[(VirtPage, u64)],
        freq: &FrequencyStack,
        rng: &mut Xoshiro256StarStar,
    ) -> usize {
        assert!(
            !candidates.is_empty(),
            "victim selection requires candidates"
        );
        match self {
            ReplacementPolicy::Lru => candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &(_, stamp))| stamp)
                .map(|(i, _)| i)
                .expect("non-empty"),
            ReplacementPolicy::Random => rng.next_below(candidates.len() as u64) as usize,
            ReplacementPolicy::Lfu => candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &(vpn, stamp))| (freq.frequency(vpn), stamp))
                .map(|(i, _)| i)
                .expect("non-empty"),
            ReplacementPolicy::Rlfu => {
                // Rank by frequency ascending and draw uniformly from the
                // coldest quarter (at least one): frequency drives the
                // choice like LFU, and the randomness within the cold pool
                // acts as the second chance for recently installed entries.
                let mut ranked: Vec<usize> = (0..candidates.len()).collect();
                ranked.sort_by_key(|&i| (freq.frequency(candidates[i].0), candidates[i].1));
                let pool = (candidates.len() / 4).max(1);
                ranked[rng.next_below(pool as u64) as usize]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(v: u64) -> VirtPage {
        VirtPage::new(v)
    }

    fn hot_cold_stack() -> FrequencyStack {
        let mut f = FrequencyStack::new(64, 1_000_000);
        for _ in 0..10 {
            f.record(p(1)); // hot
        }
        f.record(p(2)); // warm
        f
    }

    #[test]
    fn lru_picks_oldest() {
        let mut rng = Xoshiro256StarStar::new(1);
        let f = FrequencyStack::default();
        let candidates = [(p(1), 30), (p(2), 10), (p(3), 20)];
        let idx = ReplacementPolicy::Lru.choose_victim(&candidates, &f, &mut rng);
        assert_eq!(idx, 1);
    }

    #[test]
    fn lfu_picks_coldest() {
        let mut rng = Xoshiro256StarStar::new(1);
        let f = hot_cold_stack();
        // Page 3 has frequency 0 → coldest regardless of recency.
        let candidates = [(p(1), 1), (p(2), 2), (p(3), 99)];
        let idx = ReplacementPolicy::Lfu.choose_victim(&candidates, &f, &mut rng);
        assert_eq!(idx, 2);
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut rng = Xoshiro256StarStar::new(1);
        let f = FrequencyStack::default(); // all frequencies 0
        let candidates = [(p(1), 30), (p(2), 10), (p(3), 20)];
        let idx = ReplacementPolicy::Lfu.choose_victim(&candidates, &f, &mut rng);
        assert_eq!(idx, 1, "equal frequencies fall back to LRU order");
    }

    #[test]
    fn rlfu_never_evicts_the_hottest() {
        let mut rng = Xoshiro256StarStar::new(42);
        let f = hot_cold_stack();
        // Pool = coldest quarter of 8 = 2 entries (the freq-0 pages with
        // the oldest stamps: pages 3 and 4).
        let candidates = [
            (p(1), 1),
            (p(2), 2),
            (p(3), 3),
            (p(4), 4),
            (p(5), 5),
            (p(6), 6),
            (p(7), 7),
            (p(8), 8),
        ];
        for _ in 0..200 {
            let idx = ReplacementPolicy::Rlfu.choose_victim(&candidates, &f, &mut rng);
            assert!(
                idx == 2 || idx == 3,
                "victim must come from the cold pool, got {idx}"
            );
        }
    }

    #[test]
    fn rlfu_actually_randomizes_within_the_pool() {
        let mut rng = Xoshiro256StarStar::new(7);
        let f = hot_cold_stack();
        let candidates = [
            (p(1), 1),
            (p(2), 2),
            (p(3), 3),
            (p(4), 4),
            (p(5), 5),
            (p(6), 6),
            (p(7), 7),
            (p(8), 8),
        ];
        let mut seen = [false; 8];
        for _ in 0..200 {
            seen[ReplacementPolicy::Rlfu.choose_victim(&candidates, &f, &mut rng)] = true;
        }
        assert!(
            seen[2] && seen[3],
            "both cold-pool entries should be chosen sometimes"
        );
        assert!(!seen[0] && !seen[1], "hot/warm entries must be protected");
    }

    #[test]
    fn random_covers_all_candidates() {
        let mut rng = Xoshiro256StarStar::new(3);
        let f = FrequencyStack::default();
        let candidates = [(p(1), 1), (p(2), 2), (p(3), 3)];
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[ReplacementPolicy::Random.choose_victim(&candidates, &f, &mut rng)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_candidate_is_always_chosen() {
        let mut rng = Xoshiro256StarStar::new(3);
        let f = FrequencyStack::default();
        let candidates = [(p(9), 5)];
        for policy in ReplacementPolicy::ALL {
            assert_eq!(policy.choose_victim(&candidates, &f, &mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "requires candidates")]
    fn empty_candidates_rejected() {
        let mut rng = Xoshiro256StarStar::new(3);
        let f = FrequencyStack::default();
        ReplacementPolicy::Lru.choose_victim(&[], &f, &mut rng);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ReplacementPolicy::Rlfu.name(), "rlfu");
        assert_eq!(ReplacementPolicy::ALL.len(), 4);
    }
}
