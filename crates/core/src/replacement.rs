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
    /// `rng` (deterministic xoshiro state owned by the caller). `keys` is
    /// scratch space RLFU ranks in; its contents on entry are ignored,
    /// and a caller that keeps it across calls allocates nothing.
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
        keys: &mut Vec<(u32, u64, usize)>,
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
                // Draw a rank uniformly from the coldest quarter (at least
                // one) of the candidates ordered by (frequency, stamp):
                // frequency drives the choice like LFU, and the randomness
                // within the cold pool acts as the second chance for
                // recently installed entries. The index breaks ties, so
                // the rank-`r` key is the one a stable sort puts at `r`,
                // and selecting it needs no sort.
                let pool = (candidates.len() / 4).max(1);
                let rank = rng.next_below(pool as u64) as usize;
                keys.clear();
                keys.extend(
                    candidates
                        .iter()
                        .enumerate()
                        .map(|(i, &(vpn, stamp))| (freq.frequency(vpn), stamp, i)),
                );
                let (_, &mut (_, _, victim), _) = keys.select_nth_unstable(rank);
                victim
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
        let idx = ReplacementPolicy::Lru.choose_victim(&candidates, &f, &mut rng, &mut Vec::new());
        assert_eq!(idx, 1);
    }

    #[test]
    fn lfu_picks_coldest() {
        let mut rng = Xoshiro256StarStar::new(1);
        let f = hot_cold_stack();
        // Page 3 has frequency 0 → coldest regardless of recency.
        let candidates = [(p(1), 1), (p(2), 2), (p(3), 99)];
        let idx = ReplacementPolicy::Lfu.choose_victim(&candidates, &f, &mut rng, &mut Vec::new());
        assert_eq!(idx, 2);
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut rng = Xoshiro256StarStar::new(1);
        let f = FrequencyStack::default(); // all frequencies 0
        let candidates = [(p(1), 30), (p(2), 10), (p(3), 20)];
        let idx = ReplacementPolicy::Lfu.choose_victim(&candidates, &f, &mut rng, &mut Vec::new());
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
            let idx =
                ReplacementPolicy::Rlfu.choose_victim(&candidates, &f, &mut rng, &mut Vec::new());
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
            seen[ReplacementPolicy::Rlfu.choose_victim(
                &candidates,
                &f,
                &mut rng,
                &mut Vec::new(),
            )] = true;
        }
        assert!(
            seen[2] && seen[3],
            "both cold-pool entries should be chosen sometimes"
        );
        assert!(!seen[0] && !seen[1], "hot/warm entries must be protected");
    }

    #[test]
    fn rlfu_ties_keep_candidate_order() {
        // Equal (frequency, stamp) keys rank in candidate order, as a
        // stable sort ranks them: the victim is the drawn rank itself.
        let f = FrequencyStack::default();
        let candidates: Vec<(VirtPage, u64)> = (0..40).map(|v| (p(v), 7)).collect();
        let mut keys = Vec::new();
        for seed in 0..50 {
            let mut rng = Xoshiro256StarStar::new(seed);
            let rank = rng.clone().next_below(10) as usize;
            let idx = ReplacementPolicy::Rlfu.choose_victim(&candidates, &f, &mut rng, &mut keys);
            assert_eq!(idx, rank, "seed {seed}");
        }
    }

    #[test]
    fn random_covers_all_candidates() {
        let mut rng = Xoshiro256StarStar::new(3);
        let f = FrequencyStack::default();
        let candidates = [(p(1), 1), (p(2), 2), (p(3), 3)];
        let mut seen = [false; 3];
        for _ in 0..300 {
            seen[ReplacementPolicy::Random.choose_victim(
                &candidates,
                &f,
                &mut rng,
                &mut Vec::new(),
            )] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn single_candidate_is_always_chosen() {
        let mut rng = Xoshiro256StarStar::new(3);
        let f = FrequencyStack::default();
        let candidates = [(p(9), 5)];
        for policy in ReplacementPolicy::ALL {
            assert_eq!(
                policy.choose_victim(&candidates, &f, &mut rng, &mut Vec::new()),
                0
            );
        }
    }

    #[test]
    #[should_panic(expected = "requires candidates")]
    fn empty_candidates_rejected() {
        let mut rng = Xoshiro256StarStar::new(3);
        let f = FrequencyStack::default();
        ReplacementPolicy::Lru.choose_victim(&[], &f, &mut rng, &mut Vec::new());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(ReplacementPolicy::Rlfu.name(), "rlfu");
        assert_eq!(ReplacementPolicy::ALL.len(), 4);
    }
}
