//! TLBs and the translation cache.
//!
//! Figure 4: fully-associative 32-entry L1 TLBs (I and D), a private
//! 1024-entry 4-way L2 TLB, and a translation cache with 24 fully
//! associative entries per intermediate translation step.
//!
//! MI6 relevance:
//! - TLB entries cache the DRAM-region permission established at walk time
//!   ([`TlbEntry::region_ok`]); because no 4 KiB page straddles a region,
//!   the cached bit stays valid until the monitor changes the allocation
//!   and shoots the TLB down (paper Section 5.3).
//! - All of these structures are per-core and scrubbed by `purge`
//!   ([`Tlb::flush_all`], [`TranslationCache::flush`]); the L2 TLB is
//!   discarded one set per cycle, which the purge cost model charges
//!   (Section 7.1).

use mi6_isa::{PageTableEntry, PhysAddr, VirtAddr, PAGE_SHIFT};

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number (of the 4 KiB page being looked up, with low
    /// bits ignored for superpages).
    pub vpn: u64,
    /// Leaf level (0 = 4 KiB, 1 = 2 MiB, 2 = 1 GiB).
    pub level: usize,
    /// The leaf PTE (permissions + physical page number).
    pub pte: PageTableEntry,
    /// Cached result of the DRAM-region check performed during the walk
    /// (paper Section 5.3 optimization).
    pub region_ok: bool,
}

impl TlbEntry {
    /// Whether this entry translates `vpn`.
    pub fn matches(&self, vpn: u64) -> bool {
        let span_pages = 1u64 << (9 * self.level);
        self.vpn == vpn & !(span_pages - 1)
    }

    /// The physical address for a virtual address this entry covers.
    pub fn translate(&self, va: VirtAddr) -> PhysAddr {
        let span_bits = PAGE_SHIFT + 9 * self.level as u32;
        let base = (self.pte.ppn() << PAGE_SHIFT) & !((1u64 << span_bits) - 1);
        PhysAddr::new(base | (va.raw() & ((1u64 << span_bits) - 1)))
    }
}

/// A set-associative TLB with true-LRU replacement within each set.
///
/// With `sets == 1` it degenerates to the fully associative L1 TLB.
#[derive(Clone, Debug)]
pub struct Tlb {
    sets: Vec<Vec<(TlbEntry, u64)>>, // (entry, last-use stamp)
    ways: usize,
    use_clock: u64,
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` total capacity in `sets` sets.
    pub fn new(entries: usize, sets: usize) -> Tlb {
        assert!(entries.is_multiple_of(sets));
        assert!(sets.is_power_of_two());
        Tlb {
            sets: vec![Vec::new(); sets],
            ways: entries / sets,
            use_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The paper's fully associative 32-entry L1 TLB.
    pub fn paper_l1() -> Tlb {
        Tlb::new(32, 1)
    }

    /// The paper's 1024-entry 4-way L2 TLB (256 sets).
    pub fn paper_l2() -> Tlb {
        Tlb::new(1024, 256)
    }

    fn set_of(&self, vpn: u64) -> usize {
        (vpn as usize) & (self.sets.len() - 1)
    }

    /// Looks up a virtual page number; counts hit/miss and refreshes LRU.
    pub fn lookup(&mut self, vpn: u64) -> Option<TlbEntry> {
        self.use_clock += 1;
        let clock = self.use_clock;
        // Superpage entries for a vpn may live in a different set than the
        // 4 KiB-indexed one; index superpages by their own base vpn. For
        // simplicity (and because the OS here maps 4 KiB pages), check the
        // vpn's set and set 0 candidates for superpages.
        let set = self.set_of(vpn);
        for probe in [set, 0] {
            if let Some((entry, stamp)) = self.sets[probe].iter_mut().find(|(e, _)| e.matches(vpn))
            {
                *stamp = clock;
                let hit = *entry;
                self.hits += 1;
                return Some(hit);
            }
            if self.sets.len() == 1 {
                break;
            }
        }
        self.misses += 1;
        None
    }

    /// Inserts an entry, evicting the LRU way of its set if full.
    pub fn insert(&mut self, entry: TlbEntry) {
        self.use_clock += 1;
        let set = if entry.level > 0 && self.sets.len() > 1 {
            0
        } else {
            self.set_of(entry.vpn)
        };
        let set_vec = &mut self.sets[set];
        if let Some(slot) = set_vec.iter_mut().find(|(e, _)| e.vpn == entry.vpn) {
            *slot = (entry, self.use_clock);
            return;
        }
        if set_vec.len() == self.ways {
            let lru = set_vec
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("set not empty");
            set_vec.remove(lru);
        }
        set_vec.push((entry, self.use_clock));
    }

    /// Flushes everything (`sfence.vma`, purge, TLB shootdown).
    pub fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Number of sets (purge charges one cycle per L2 set).
    pub fn set_count(&self) -> usize {
        self.sets.len()
    }

    /// Number of valid entries (test aid).
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// A translation cache: per intermediate walk level, maps the virtual
/// prefix to the physical page of the next-level table, letting the walker
/// skip upper levels.
#[derive(Clone, Debug)]
pub struct TranslationCache {
    /// `levels[i]` caches entries for walk level `i+1` (the intermediate
    /// steps; leaf level 0 results go to the TLBs instead).
    levels: Vec<Vec<((u64, u64), u64)>>, // ((prefix, table page), stamp)
    entries_per_level: usize,
    use_clock: u64,
}

impl TranslationCache {
    /// Creates a cache with `entries` per intermediate level.
    pub fn new(entries: usize) -> TranslationCache {
        TranslationCache {
            levels: vec![Vec::new(); mi6_isa::paging::LEVELS - 1],
            entries_per_level: entries,
            use_clock: 0,
        }
    }

    /// Looks up the table page for walk level `level` (1-based among
    /// intermediates: level 1 means "the table consulted with vpn(1)").
    /// `prefix` must be the vpn bits above that level.
    pub fn lookup(&mut self, level: usize, prefix: u64) -> Option<PhysAddr> {
        debug_assert!((1..mi6_isa::paging::LEVELS).contains(&level));
        self.use_clock += 1;
        let clock = self.use_clock;
        let lvl = &mut self.levels[level - 1];
        if let Some(((_, page), stamp)) = lvl.iter_mut().find(|((p, _), _)| *p == prefix) {
            *stamp = clock;
            return Some(PhysAddr::new(*page));
        }
        None
    }

    /// Records that the table consulted at `level` for `prefix` lives at
    /// `table_page`.
    pub fn insert(&mut self, level: usize, prefix: u64, table_page: PhysAddr) {
        debug_assert!((1..mi6_isa::paging::LEVELS).contains(&level));
        self.use_clock += 1;
        let clock = self.use_clock;
        let cap = self.entries_per_level;
        let lvl = &mut self.levels[level - 1];
        if let Some(slot) = lvl.iter_mut().find(|((p, _), _)| *p == prefix) {
            *slot = ((prefix, table_page.raw()), clock);
            return;
        }
        if lvl.len() == cap {
            let lru = lvl
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(i, _)| i)
                .expect("level not empty");
            lvl.remove(lru);
        }
        lvl.push(((prefix, table_page.raw()), clock));
    }

    /// Flushes everything.
    pub fn flush(&mut self) {
        for lvl in &mut self.levels {
            lvl.clear();
        }
    }

    /// Total valid entries (test aid).
    pub fn occupancy(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

mi6_snapshot::snap_struct! { TlbEntry { vpn, level, pte, region_ok } }

impl SnapState for Tlb {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.ways);
        w.u64(self.use_clock);
        w.u64(self.hits);
        w.u64(self.misses);
        self.sets.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let ways = r.usize()?;
        let use_clock = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let sets: Vec<Vec<(TlbEntry, u64)>> = SnapState::load(r)?;
        if !sets.len().is_power_of_two() || sets.iter().any(|s| s.len() > ways) {
            return Err(SnapError::BadValue {
                what: "TLB geometry".into(),
            });
        }
        Ok(Tlb {
            sets,
            ways,
            use_clock,
            hits,
            misses,
        })
    }
}

impl SnapState for TranslationCache {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.entries_per_level);
        w.u64(self.use_clock);
        self.levels.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let entries_per_level = r.usize()?;
        let use_clock = r.u64()?;
        let levels: Vec<Vec<((u64, u64), u64)>> = SnapState::load(r)?;
        if levels.len() != mi6_isa::paging::LEVELS - 1
            || levels.iter().any(|l| l.len() > entries_per_level)
        {
            return Err(SnapError::BadValue {
                what: "translation cache geometry".into(),
            });
        }
        Ok(TranslationCache {
            levels,
            entries_per_level,
            use_clock,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(vpn: u64, ppn: u64) -> TlbEntry {
        TlbEntry {
            vpn,
            level: 0,
            pte: PageTableEntry::leaf(ppn, true, true, false, true),
            region_ok: true,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::paper_l1();
        tlb.insert(leaf(0x42, 0x99));
        let e = tlb.lookup(0x42).expect("hit");
        assert_eq!(e.pte.ppn(), 0x99);
        assert_eq!(tlb.hits, 1);
        assert_eq!(tlb.misses, 0);
    }

    #[test]
    fn miss_counts() {
        let mut tlb = Tlb::paper_l1();
        assert!(tlb.lookup(0x1).is_none());
        assert_eq!(tlb.misses, 1);
    }

    #[test]
    fn lru_eviction_fully_associative() {
        let mut tlb = Tlb::new(2, 1);
        tlb.insert(leaf(1, 1));
        tlb.insert(leaf(2, 2));
        // touch 1 so 2 becomes LRU
        assert!(tlb.lookup(1).is_some());
        tlb.insert(leaf(3, 3));
        assert!(tlb.lookup(1).is_some());
        assert!(tlb.lookup(2).is_none(), "LRU entry evicted");
        assert!(tlb.lookup(3).is_some());
    }

    #[test]
    fn set_associative_indexing() {
        let mut tlb = Tlb::paper_l2();
        assert_eq!(tlb.set_count(), 256);
        // vpns 0 and 256 share a set; fill 4 ways + 1.
        for i in 0..5u64 {
            tlb.insert(leaf(i * 256, i));
        }
        // The first insert (vpn 0) was LRU and is gone.
        assert!(tlb.lookup(0).is_none());
        assert!(tlb.lookup(4 * 256).is_some());
    }

    #[test]
    fn superpage_translation() {
        let mut tlb = Tlb::paper_l1();
        // 2 MiB page at vpn 0x200 (level 1), ppn 0x400.
        tlb.insert(TlbEntry {
            vpn: 0x200,
            level: 1,
            pte: PageTableEntry::leaf(0x400, true, true, false, true),
            region_ok: true,
        });
        let e = tlb.lookup(0x2ff).expect("covered by superpage");
        let pa = e.translate(VirtAddr::new((0x2ff << 12) | 0x34));
        assert_eq!(pa.raw(), (0x400u64 << 12) | (0xff << 12) | 0x34);
    }

    #[test]
    fn flush_all_empties() {
        let mut tlb = Tlb::paper_l1();
        tlb.insert(leaf(1, 1));
        tlb.flush_all();
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    fn region_bit_carried() {
        let mut tlb = Tlb::paper_l1();
        let mut e = leaf(7, 7);
        e.region_ok = false;
        tlb.insert(e);
        assert!(!tlb.lookup(7).unwrap().region_ok);
    }

    #[test]
    fn translation_cache_round_trip() {
        let mut tc = TranslationCache::new(24);
        assert!(tc.lookup(1, 0x5).is_none());
        tc.insert(1, 0x5, PhysAddr::new(0x8000));
        assert_eq!(tc.lookup(1, 0x5), Some(PhysAddr::new(0x8000)));
        tc.flush();
        assert!(tc.lookup(1, 0x5).is_none());
    }

    #[test]
    fn translation_cache_lru() {
        let mut tc = TranslationCache::new(2);
        tc.insert(2, 1, PhysAddr::new(0x1000));
        tc.insert(2, 2, PhysAddr::new(0x2000));
        assert!(tc.lookup(2, 1).is_some()); // refresh 1
        tc.insert(2, 3, PhysAddr::new(0x3000));
        assert!(tc.lookup(2, 2).is_none());
        assert!(tc.lookup(2, 1).is_some());
        assert!(tc.lookup(2, 3).is_some());
    }
}
