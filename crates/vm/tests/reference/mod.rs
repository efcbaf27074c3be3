//! Plain reference models of the translation structures, for the
//! equivalence proptests in `prop_reference.rs`.
//!
//! Each model is the obvious implementation of the policy: per-way
//! structs with LRU stamps, one tick counter, linear searches and "first
//! free way, else least-recent stamp" victims. None of the optimized
//! structures' layout tricks (structure-of-arrays tags, stamp-0 empty
//! encoding, the one-entry way memo, batched scans) appear here, so
//! agreement is evidence about the policy, not a comparison of a
//! structure with an earlier version of itself.

use morrigan_types::{PhysPage, VirtPage};
use morrigan_vm::TlbConfig;

/// One resident translation and the tick of its last use.
#[derive(Debug, Clone, Copy)]
struct Way {
    vpn: VirtPage,
    pfn: PhysPage,
    stamp: u64,
    instruction: bool,
}

/// A stamp-LRU set-associative TLB.
#[derive(Debug, Clone)]
pub struct RefTlb {
    sets: Vec<Vec<Option<Way>>>,
    tick: u64,
    /// Valid instruction entries evicted by data fills.
    pub instr_evicted_by_data: u64,
    /// Valid data entries evicted by instruction fills.
    pub data_evicted_by_instr: u64,
}

impl RefTlb {
    pub fn new(cfg: TlbConfig) -> Self {
        Self {
            sets: vec![vec![None; cfg.ways]; cfg.entries / cfg.ways],
            tick: 0,
            instr_evicted_by_data: 0,
            data_evicted_by_instr: 0,
        }
    }

    fn set_index(&self, vpn: VirtPage) -> usize {
        (vpn.raw() % self.sets.len() as u64) as usize
    }

    fn find(&self, vpn: VirtPage) -> Option<&Way> {
        self.sets[self.set_index(vpn)]
            .iter()
            .flatten()
            .find(|w| w.vpn == vpn)
    }

    fn find_mut(&mut self, vpn: VirtPage) -> Option<&mut Way> {
        let set = self.set_index(vpn);
        self.sets[set].iter_mut().flatten().find(|w| w.vpn == vpn)
    }

    /// Hit: refresh the stamp and return the translation.
    pub fn lookup(&mut self, vpn: VirtPage) -> Option<PhysPage> {
        self.tick += 1;
        let tick = self.tick;
        let way = self.find_mut(vpn)?;
        way.stamp = tick;
        Some(way.pfn)
    }

    /// `count` back-to-back lookups of a resident page.
    pub fn touch_repeat(&mut self, vpn: VirtPage, count: u64) {
        for _ in 0..count {
            assert!(
                self.lookup(vpn).is_some(),
                "touch_repeat needs a resident page"
            );
        }
    }

    pub fn contains(&self, vpn: VirtPage) -> bool {
        self.find(vpn).is_some()
    }

    pub fn peek(&self, vpn: VirtPage) -> Option<PhysPage> {
        self.find(vpn).map(|w| w.pfn)
    }

    /// Refresh a resident page; else take the first free way, else the
    /// way with the smallest stamp, and return the page it held.
    pub fn insert(&mut self, vpn: VirtPage, pfn: PhysPage, instruction: bool) -> Option<VirtPage> {
        self.tick += 1;
        let fresh = Way {
            vpn,
            pfn,
            stamp: self.tick,
            instruction,
        };
        if let Some(way) = self.find_mut(vpn) {
            *way = fresh;
            return None;
        }
        let index = self.set_index(vpn);
        let set = &mut self.sets[index];
        if let Some(free) = set.iter_mut().find(|w| w.is_none()) {
            *free = Some(fresh);
            return None;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|w| w.expect("the set is full").stamp)
            .expect("ways > 0");
        let old = victim.replace(fresh).expect("the set is full");
        if old.instruction && !instruction {
            self.instr_evicted_by_data += 1;
        } else if !old.instruction && instruction {
            self.data_evicted_by_instr += 1;
        }
        Some(old.vpn)
    }

    /// Removes a page; returns whether it was resident.
    pub fn invalidate(&mut self, vpn: VirtPage) -> bool {
        let index = self.set_index(vpn);
        match self.sets[index]
            .iter_mut()
            .find(|w| w.is_some_and(|w| w.vpn == vpn))
        {
            Some(way) => {
                *way = None;
                true
            }
            None => false,
        }
    }

    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.fill(None);
        }
    }

    pub fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    pub fn occupancy_for_asid(&self, asid: u16) -> usize {
        self.sets
            .iter()
            .flatten()
            .flatten()
            .filter(|w| w.vpn.asid() == asid)
            .count()
    }
}
