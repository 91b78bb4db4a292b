//! Sparse physical memory.
//!
//! The simulator separates *function* from *timing*: [`PhysMem`] holds the
//! architectural contents of DRAM and is read/written directly by the
//! functional side of the core (and by loaders and the security monitor),
//! while the cache models in this crate track tags and dirtiness only.
//! This is the standard functional/timing split of architectural
//! simulators; it is safe here because MI6 forbids memory sharing between
//! protection domains, so there is never a cross-core data race whose value
//! timing could change.

use mi6_isa::{PhysAddr, PAGE_SIZE};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_BYTES: usize = PAGE_SIZE as usize;

/// Multiply-shift hasher for page indices. Page numbers are small dense
/// integers and this map sits on the functional load/store/fetch path,
/// where SipHash is pure overhead; Fibonacci hashing spreads dense keys
/// across the table just as well.
#[derive(Clone, Default)]
pub(crate) struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("page keys hash via write_u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_BYTES]>, BuildHasherDefault<PageHasher>>;

/// Byte-addressable sparse physical memory.
///
/// Pages are allocated lazily on first write; reads of untouched memory
/// return zero, like zero-initialized DRAM.
///
/// ```
/// use mi6_mem::PhysMem;
/// use mi6_isa::PhysAddr;
///
/// let mut mem = PhysMem::new(2 << 30);
/// mem.write_u64(PhysAddr::new(0x1000), 0xdead_beef);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x1000)), 0xdead_beef);
/// assert_eq!(mem.read_u64(PhysAddr::new(0x2000)), 0);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PhysMem {
    size: u64,
    pages: PageMap,
}

impl PhysMem {
    /// Creates a memory of `size` bytes (must be page-aligned).
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of the page size.
    pub fn new(size: u64) -> PhysMem {
        assert!(
            size.is_multiple_of(PAGE_SIZE),
            "memory size must be page aligned"
        );
        PhysMem {
            size,
            pages: PageMap::default(),
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Whether `addr` is within the memory.
    pub fn contains(&self, addr: PhysAddr) -> bool {
        addr.raw() < self.size
    }

    /// Number of pages actually allocated.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte. Out-of-range reads return 0 (the caller is expected
    /// to have validated the address; the core raises access faults before
    /// reaching memory).
    pub fn read_u8(&self, addr: PhysAddr) -> u8 {
        let page = addr.raw() / PAGE_SIZE;
        match self.pages.get(&page) {
            Some(data) => data[(addr.raw() % PAGE_SIZE) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside the memory.
    pub fn write_u8(&mut self, addr: PhysAddr, value: u8) {
        assert!(self.contains(addr), "physical write out of range: {addr}");
        let page = addr.raw() / PAGE_SIZE;
        let data = self
            .pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
        data[(addr.raw() % PAGE_SIZE) as usize] = value;
    }

    /// Reads `n <= 8` little-endian bytes as a u64. Accesses may straddle
    /// page boundaries.
    pub fn read_bytes(&self, addr: PhysAddr, n: usize) -> u64 {
        debug_assert!(n <= 8);
        let off = (addr.raw() % PAGE_SIZE) as usize;
        if off + n <= PAGE_BYTES {
            // Within one page: a single map lookup and a slice copy,
            // instead of a hash lookup per byte.
            match self.pages.get(&(addr.raw() / PAGE_SIZE)) {
                None => 0,
                Some(data) => {
                    let mut buf = [0u8; 8];
                    buf[..n].copy_from_slice(&data[off..off + n]);
                    u64::from_le_bytes(buf)
                }
            }
        } else {
            let mut out = 0u64;
            for i in 0..n {
                out |= (self.read_u8(PhysAddr::new(addr.raw() + i as u64)) as u64) << (8 * i);
            }
            out
        }
    }

    /// Writes the low `n <= 8` bytes of `value`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if the access ends outside the memory.
    pub fn write_bytes(&mut self, addr: PhysAddr, value: u64, n: usize) {
        debug_assert!(n <= 8);
        let off = (addr.raw() % PAGE_SIZE) as usize;
        if off + n <= PAGE_BYTES {
            assert!(
                addr.raw() + n as u64 <= self.size,
                "physical write out of range: {addr}"
            );
            let data = self
                .pages
                .entry(addr.raw() / PAGE_SIZE)
                .or_insert_with(|| Box::new([0u8; PAGE_BYTES]));
            data[off..off + n].copy_from_slice(&value.to_le_bytes()[..n]);
        } else {
            for i in 0..n {
                self.write_u8(
                    PhysAddr::new(addr.raw() + i as u64),
                    (value >> (8 * i)) as u8,
                );
            }
        }
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: PhysAddr) -> u64 {
        self.read_bytes(addr, 8)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: PhysAddr, value: u64) {
        self.write_bytes(addr, value, 8)
    }

    /// Reads a little-endian u32 (one instruction word).
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        self.read_bytes(addr, 4) as u32
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: PhysAddr, value: u32) {
        self.write_bytes(addr, value as u64, 4)
    }

    /// Copies a program image (32-bit words) to consecutive addresses.
    pub fn load_words(&mut self, base: PhysAddr, words: &[u32]) {
        for (i, &w) in words.iter().enumerate() {
            self.write_u32(PhysAddr::new(base.raw() + 4 * i as u64), w);
        }
    }

    /// Zeroes `len` bytes starting at `base` (used by the security monitor
    /// to scrub DRAM regions before reassignment).
    pub fn scrub(&mut self, base: PhysAddr, len: u64) {
        // Drop whole pages where possible; zero partial pages.
        let mut addr = base.raw();
        let end = base.raw() + len;
        while addr < end {
            let page = addr / PAGE_SIZE;
            let page_start = page * PAGE_SIZE;
            let page_end = page_start + PAGE_SIZE;
            if addr == page_start && page_end <= end {
                self.pages.remove(&page);
                addr = page_end;
            } else {
                let stop = end.min(page_end);
                while addr < stop {
                    if self.pages.contains_key(&page) {
                        self.write_u8(PhysAddr::new(addr), 0);
                    }
                    addr += 1;
                }
            }
        }
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

/// 8-byte words per page.
const PAGE_WORDS: usize = PAGE_BYTES / 8;

/// Pages are written in ascending page-index order so identical memory
/// contents always produce identical snapshot bytes (the backing map is
/// hash-ordered); the reader rejects any other order, which also catches
/// a duplicated page.
///
/// Each page is a 512-bit map of its non-zero 8-byte words (bit `b` of
/// map word `k` stands for page word `64 * k + b`) followed by those
/// words in address order. Resident memory is mostly zeros, so this is
/// several times smaller than the raw 4 KiB that version 1 wrote. An
/// all-zero page is still written (an empty map, no words): it stays
/// resident after a restore, so a re-snapshot is byte-identical.
impl SnapState for PhysMem {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.size);
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        w.usize(indices.len());
        let mut words = Vec::with_capacity(PAGE_BYTES);
        for idx in indices {
            w.u64(idx);
            let mut map = [0u64; PAGE_WORDS / 64];
            words.clear();
            for (i, word) in self.pages[&idx].chunks_exact(8).enumerate() {
                if word != [0u8; 8] {
                    map[i / 64] |= 1 << (i % 64);
                    words.extend_from_slice(word);
                }
            }
            for m in map {
                w.u64(m);
            }
            w.bytes(&words);
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let size = r.u64()?;
        if !size.is_multiple_of(PAGE_SIZE) {
            return Err(SnapError::BadValue {
                what: format!("memory size {size} not page aligned"),
            });
        }
        let n = r.len()?;
        let mut pages = PageMap::with_capacity_and_hasher(n, BuildHasherDefault::default());
        let mut prev = None;
        for _ in 0..n {
            let idx = r.u64()?;
            if idx >= size / PAGE_SIZE {
                return Err(SnapError::BadValue {
                    what: format!("page index {idx} outside memory"),
                });
            }
            if let Some(prev) = prev.filter(|&p| idx <= p) {
                return Err(SnapError::BadValue {
                    what: format!("page index {idx} follows {prev}"),
                });
            }
            prev = Some(idx);
            let page = if r.version() >= 2 {
                load_sparse_page(r)?
            } else {
                Box::new(r.bytes(PAGE_BYTES)?.try_into().expect("fixed-size page"))
            };
            pages.insert(idx, page);
        }
        Ok(PhysMem { size, pages })
    }
}

/// Decodes one word-mapped page, scattering its words into a zeroed page.
fn load_sparse_page(r: &mut SnapReader<'_>) -> Result<Box<[u8; PAGE_BYTES]>, SnapError> {
    let mut map = [0u64; PAGE_WORDS / 64];
    for m in &mut map {
        *m = r.u64()?;
    }
    let count: usize = map.iter().map(|m| m.count_ones() as usize).sum();
    let mut words = r.bytes(8 * count)?.chunks_exact(8);
    let mut page = Box::new([0u8; PAGE_BYTES]);
    for (k, &m) in map.iter().enumerate() {
        let mut bits = m;
        while bits != 0 {
            let i = 64 * k + bits.trailing_zeros() as usize;
            page[8 * i..8 * i + 8].copy_from_slice(words.next().expect("one word per map bit"));
            bits &= bits - 1;
        }
    }
    Ok(page)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialized() {
        let mem = PhysMem::new(1 << 20);
        assert_eq!(mem.read_u64(PhysAddr::new(0x500)), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u64(PhysAddr::new(0x100), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u64(PhysAddr::new(0x100)), 0x0102_0304_0506_0708);
        assert_eq!(mem.read_u8(PhysAddr::new(0x100)), 0x08); // little endian
        assert_eq!(mem.read_u32(PhysAddr::new(0x104)), 0x0102_0304);
    }

    #[test]
    fn cross_page_access() {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u64(PhysAddr::new(PAGE_SIZE - 4), 0x1122_3344_5566_7788);
        assert_eq!(
            mem.read_u64(PhysAddr::new(PAGE_SIZE - 4)),
            0x1122_3344_5566_7788
        );
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn partial_width_writes() {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u64(PhysAddr::new(0), u64::MAX);
        mem.write_bytes(PhysAddr::new(2), 0, 2);
        assert_eq!(mem.read_u64(PhysAddr::new(0)), 0xffff_ffff_0000_ffff);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn write_out_of_range_panics() {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u8(PhysAddr::new(1 << 20), 1);
    }

    #[test]
    fn load_words_places_program() {
        let mut mem = PhysMem::new(1 << 20);
        mem.load_words(PhysAddr::new(0x1000), &[0xaabbccdd, 0x11223344]);
        assert_eq!(mem.read_u32(PhysAddr::new(0x1000)), 0xaabbccdd);
        assert_eq!(mem.read_u32(PhysAddr::new(0x1004)), 0x11223344);
    }

    fn encode(mem: &PhysMem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        mem.save(&mut w);
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<PhysMem, SnapError> {
        let mut r = SnapReader::new(bytes);
        let mem = PhysMem::load(&mut r)?;
        r.expect_end()?;
        Ok(mem)
    }

    /// An all-zero page, a fully dense page, a page with only its last
    /// word set, and a typical sparse page.
    fn codec_mix() -> PhysMem {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u64(PhysAddr::new(0x1000), 5);
        mem.write_u64(PhysAddr::new(0x1000), 0);
        for i in 0..PAGE_WORDS as u64 {
            mem.write_u64(PhysAddr::new(0x3000 + 8 * i), !i);
        }
        mem.write_u64(PhysAddr::new(0x5000 + PAGE_SIZE - 8), 0xfeed);
        for (i, off) in [0u64, 8, 0x200, 0x208, 0x7f8, 0x800]
            .into_iter()
            .enumerate()
        {
            mem.write_u64(PhysAddr::new(0x8000 + off), 0x1111 * (i as u64 + 1));
        }
        mem.write_u8(PhysAddr::new(0x8abc), 0x80);
        mem
    }

    fn same_contents(a: &PhysMem, b: &PhysMem) {
        assert_eq!(a.size, b.size);
        assert_eq!(a.pages.len(), b.pages.len());
        for (idx, page) in &a.pages {
            assert_eq!(
                b.pages.get(idx).map(|p| &p[..]),
                Some(&page[..]),
                "page {idx}"
            );
        }
    }

    #[test]
    fn sparse_pages_round_trip_and_re_encode_identically() {
        let mem = codec_mix();
        let bytes = encode(&mem);
        let back = decode(&bytes).unwrap();
        same_contents(&mem, &back);
        assert_eq!(back.resident_pages(), 4, "the all-zero page stays resident");
        assert_eq!(encode(&back), bytes);
        // Size, count, then per page an index and a 64-byte map: the
        // all-zero page has no words, the dense one all 512.
        let words = PAGE_WORDS + 1 + 7;
        assert_eq!(bytes.len(), 16 + 4 * (8 + 64) + 8 * words);
    }

    #[test]
    fn duplicate_or_descending_page_indices_are_rejected() {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u64(PhysAddr::new(0x1000), 1);
        mem.write_u64(PhysAddr::new(0x2000), 2);
        let bytes = encode(&mem);
        // Second page entry: size, count, page 1 (index, map, one word).
        let second = 16 + 8 + 64 + 8;
        for idx in [1u64, 0] {
            let mut bad = bytes.clone();
            bad[second..second + 8].copy_from_slice(&idx.to_le_bytes());
            assert!(
                matches!(decode(&bad), Err(SnapError::BadValue { .. })),
                "index {idx} after 1 accepted"
            );
        }
    }

    #[test]
    fn scrub_zeroes_and_releases() {
        let mut mem = PhysMem::new(1 << 20);
        mem.write_u64(PhysAddr::new(0x1000), 7);
        mem.write_u64(PhysAddr::new(0x2008), 9);
        mem.scrub(PhysAddr::new(0x1000), PAGE_SIZE);
        assert_eq!(mem.read_u64(PhysAddr::new(0x1000)), 0);
        // partial scrub
        mem.scrub(PhysAddr::new(0x2008), 8);
        assert_eq!(mem.read_u64(PhysAddr::new(0x2008)), 0);
    }
}
