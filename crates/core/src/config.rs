//! Configuration of the Morrigan prefetcher and its IRIP ensemble.

use crate::replacement::ReplacementPolicy;

/// Geometry of one prediction table (PRT).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrtConfig {
    /// Total entries; must divide into `ways` with a power-of-two set count.
    pub entries: usize,
    /// Associativity. `entries == ways` makes the table fully associative.
    pub ways: usize,
    /// Prediction slots (and confidence counters) per entry.
    pub slots: usize,
}

impl PrtConfig {
    /// Storage of one entry in bits: a partial tag plus, per slot, a
    /// distance and a confidence counter (§6.1: 16 + s·(15 + 2) bits).
    pub fn entry_bits(&self, tag_bits: u32, distance_bits: u32, conf_bits: u32) -> u64 {
        tag_bits as u64 + self.slots as u64 * (distance_bits as u64 + conf_bits as u64)
    }

    /// Storage of the whole table in bits.
    pub fn table_bits(&self, tag_bits: u32, distance_bits: u32, conf_bits: u32) -> u64 {
        self.entries as u64 * self.entry_bits(tag_bits, distance_bits, conf_bits)
    }
}

/// Configuration of the IRIP ensemble.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IripConfig {
    /// The prediction tables, narrowest first. Slot counts must be strictly
    /// increasing: an entry that outgrows table *i* migrates to table
    /// *i + 1* (§4.2 steps 19–23).
    pub tables: Vec<PrtConfig>,
    /// Bits of the partial tag stored per entry (§6.1: 16).
    pub tag_bits: u32,
    /// Bits per stored distance (§6.1: 15). Distances that do not fit are
    /// not representable and are skipped.
    pub distance_bits: u32,
    /// Bits per confidence counter (§6.1: 2).
    pub conf_bits: u32,
    /// Replacement policy for the prediction tables.
    pub policy: ReplacementPolicy,
    /// Misses between frequency-stack resets (§4.1.1: periodic reset to
    /// adapt to phase changes). The paper does not publish the interval;
    /// 8192 misses re-learns a phase in well under a millisecond of
    /// simulated time while keeping hot pages stable within a phase.
    pub freq_reset_interval: u64,
    /// Seed for RLFU's randomized victim choice (deterministic replay).
    pub seed: u64,
}

impl Default for IripConfig {
    /// The empirically selected configuration of §6.1.3: 128-entry 32-way
    /// PRT-S1/S2/S4 and a 64-entry 16-way PRT-S8 — the 3.76 KB operating
    /// point used throughout the paper's evaluation.
    fn default() -> Self {
        Self {
            tables: vec![
                PrtConfig {
                    entries: 128,
                    ways: 32,
                    slots: 1,
                },
                PrtConfig {
                    entries: 128,
                    ways: 32,
                    slots: 2,
                },
                PrtConfig {
                    entries: 128,
                    ways: 32,
                    slots: 4,
                },
                PrtConfig {
                    entries: 64,
                    ways: 16,
                    slots: 8,
                },
            ],
            tag_bits: 16,
            distance_bits: 15,
            conf_bits: 2,
            policy: ReplacementPolicy::Rlfu,
            freq_reset_interval: 8192,
            seed: 0x4d6f_7272_6967_616e, // "Morrigan"
        }
    }
}

impl IripConfig {
    /// The fully-associative variant of the default geometry (used in
    /// §6.1.1/§6.1.2's budget and replacement sweeps before the
    /// associativity study of §6.1.3).
    pub fn fully_associative() -> Self {
        let mut cfg = Self::default();
        for t in &mut cfg.tables {
            t.ways = t.entries;
        }
        cfg
    }

    /// Scales every table's entry count by `factor`, preserving geometry
    /// ratios (used for the Fig 13/14 budget sweeps and the ×2 SMT
    /// configuration of §6.6).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive or a scaled table would be empty.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        let mut cfg = self.clone();
        for t in &mut cfg.tables {
            let entries = ((t.entries as f64 * factor).round() as usize).max(1);
            // Keep the set count a power of two by adjusting ways: round
            // entries to the nearest multiple of a power-of-two set count.
            let sets = (t.entries / t.ways).max(1);
            let ways = (entries / sets).max(1);
            t.entries = sets * ways;
            t.ways = ways;
        }
        cfg
    }

    /// Total prediction-state storage in bits.
    pub fn storage_bits(&self) -> u64 {
        self.tables
            .iter()
            .map(|t| t.table_bits(self.tag_bits, self.distance_bits, self.conf_bits))
            .sum()
    }

    /// Total prediction-state storage in kilobytes.
    pub fn storage_kb(&self) -> f64 {
        self.storage_bits() as f64 / 8.0 / 1024.0
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on an empty ensemble, non-increasing slot counts, a zero
    /// geometry, or a non-power-of-two set count.
    pub fn validate(&self) {
        assert!(
            !self.tables.is_empty(),
            "IRIP needs at least one prediction table"
        );
        assert!(
            (1..=63).contains(&self.distance_bits),
            "distance bits must be in 1..=63"
        );
        let mut prev_slots = 0;
        for t in &self.tables {
            assert!(
                t.entries > 0 && t.ways > 0,
                "table geometry must be positive"
            );
            assert!(t.entries % t.ways == 0, "entries must divide into ways");
            assert!(
                (t.entries / t.ways).is_power_of_two(),
                "set count must be a power of two, got {}",
                t.entries / t.ways
            );
            assert!(
                t.slots > prev_slots,
                "slot counts must be strictly increasing"
            );
            prev_slots = t.slots;
        }
    }
}

/// Configuration of the composite Morrigan prefetcher.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MorriganConfig {
    /// The IRIP ensemble.
    pub irip: IripConfig,
    /// Whether the SDP module is present.
    pub sdp_enabled: bool,
    /// Engage SDP only when IRIP produced no prefetches (the paper's
    /// design, §4.1.2). Setting this to `false` is the `abl_sdp_always`
    /// ablation: SDP fires on every miss, alongside IRIP.
    pub sdp_only_on_irip_miss: bool,
    /// Apply page-table-locality spatial prefetching only to the
    /// highest-confidence predicted distance (the paper's design, §4.1.1).
    /// Setting this to `false` is the `abl_spatial` ablation: every
    /// prediction prefetches its whole PTE line.
    pub spatial_max_conf_only: bool,
    /// Number of SMT hardware threads sharing the tables (each gets its own
    /// previous-miss register, §4.3).
    pub max_threads: usize,
}

impl Default for MorriganConfig {
    fn default() -> Self {
        Self {
            irip: IripConfig::default(),
            sdp_enabled: true,
            sdp_only_on_irip_miss: true,
            spatial_max_conf_only: true,
            max_threads: 1,
        }
    }
}

impl MorriganConfig {
    /// The SMT configuration of §6.6: table capacity doubled, two threads.
    pub fn smt() -> Self {
        Self {
            irip: IripConfig::default().scaled(2.0),
            max_threads: 2,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_geometry_matches_paper() {
        let cfg = IripConfig::default();
        cfg.validate();
        assert_eq!(cfg.tables.len(), 4);
        assert_eq!(cfg.tables[0].slots, 1);
        assert_eq!(cfg.tables[3].slots, 8);
        assert_eq!(cfg.tables[3].entries, 64);
    }

    #[test]
    fn default_storage_is_about_3_76_kb() {
        // §6.1: 16-bit tag + 15-bit distances + 2-bit counters over
        // 128/128/128/64 entries with 1/2/4/8 slots.
        let kb = IripConfig::default().storage_kb();
        assert!(
            (3.5..4.0).contains(&kb),
            "storage should be ≈3.76 KB, got {kb:.2}"
        );
    }

    #[test]
    fn entry_bits_formula() {
        let t = PrtConfig {
            entries: 128,
            ways: 32,
            slots: 2,
        };
        assert_eq!(t.entry_bits(16, 15, 2), 16 + 2 * 17);
        assert_eq!(t.table_bits(16, 15, 2), 128 * 50);
    }

    #[test]
    fn scaled_doubles_capacity() {
        let base = IripConfig::default();
        let smt = base.scaled(2.0);
        smt.validate();
        for (a, b) in base.tables.iter().zip(&smt.tables) {
            assert_eq!(b.entries, a.entries * 2);
        }
        assert!((smt.storage_kb() - 2.0 * base.storage_kb()).abs() < 0.01);
    }

    #[test]
    fn scaled_small_fractions_stay_valid() {
        for f in [0.1, 0.25, 0.5, 0.75, 1.5, 3.0] {
            IripConfig::default().scaled(f).validate();
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn validate_rejects_non_increasing_slots() {
        let mut cfg = IripConfig::default();
        cfg.tables[1].slots = 1;
        cfg.validate();
    }

    #[test]
    fn fully_associative_variant() {
        let cfg = IripConfig::fully_associative();
        cfg.validate();
        for t in &cfg.tables {
            assert_eq!(t.entries, t.ways);
        }
    }

    #[test]
    fn smt_config_doubles_tables() {
        let cfg = MorriganConfig::smt();
        assert_eq!(cfg.max_threads, 2);
        assert!((cfg.irip.storage_kb() - 2.0 * IripConfig::default().storage_kb()).abs() < 0.01);
    }
}
