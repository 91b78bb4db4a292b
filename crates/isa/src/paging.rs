//! Virtual memory: Sv39-like three-level paging.
//!
//! Virtual addresses are 39 bits (three 9-bit VPN fields plus a 12-bit page
//! offset); physical addresses are up to 56 bits. Page-table entries follow
//! the RISC-V layout: permission bits in the low byte, the physical page
//! number starting at bit 10. Leaf entries may appear at any level, giving
//! 4 KiB, 2 MiB, and 1 GiB pages.
//!
//! MI6 relevance: every page-table-walk access is a *physical* memory access
//! and is therefore subject to the DRAM-region check (paper Section 5.3).
//! Because DRAM regions are large and aligned, no 4 KiB page straddles two
//! regions, so a region permission established at walk time can be cached in
//! the TLB entry.

use std::fmt;

/// Number of bits in the page offset.
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Number of page-table levels (root is level 2, leaves at level 0).
pub const LEVELS: usize = 3;
/// Number of PTEs per page-table page.
pub const PTES_PER_PAGE: u64 = 512;
/// Total virtual address bits.
pub const VA_BITS: u32 = 39;

/// A virtual byte address.
///
/// ```
/// use mi6_isa::VirtAddr;
/// let va = VirtAddr::new((5 << 30) | (3 << 21) | (7 << 12) | 0xabc);
/// assert_eq!(va.offset(), 0xabc);
/// assert_eq!(va.vpn(0), 7);
/// assert_eq!(va.vpn(1), 3);
/// assert_eq!(va.vpn(2), 5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// Wraps a raw 64-bit value.
    pub const fn new(addr: u64) -> VirtAddr {
        VirtAddr(addr)
    }

    /// The raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Byte offset within the 4 KiB page.
    pub const fn offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// The 9-bit virtual page number field for a walk level (0 = leaf level).
    ///
    /// # Panics
    ///
    /// Panics if `level >= 3`.
    pub const fn vpn(self, level: usize) -> u64 {
        assert!(level < LEVELS);
        (self.0 >> (PAGE_SHIFT + 9 * level as u32)) & 0x1ff
    }

    /// Whether the address is canonical for 39-bit virtual addressing
    /// (bits 63..39 equal bit 38).
    pub const fn is_canonical(self) -> bool {
        let top = self.0 >> (VA_BITS - 1);
        top == 0 || top == (1 << (64 - VA_BITS + 1)) - 1
    }

    /// The address rounded down to its page base.
    pub const fn page_base(self) -> VirtAddr {
        VirtAddr(self.0 & !(PAGE_SIZE - 1))
    }
}

impl fmt::Debug for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VirtAddr({:#x})", self.0)
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for VirtAddr {
    fn from(v: u64) -> VirtAddr {
        VirtAddr(v)
    }
}

/// A physical byte address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PhysAddr(pub u64);

impl PhysAddr {
    /// Wraps a raw physical address.
    pub const fn new(addr: u64) -> PhysAddr {
        PhysAddr(addr)
    }

    /// The raw address value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Byte offset within the 4 KiB page.
    pub const fn offset(self) -> u64 {
        self.0 & (PAGE_SIZE - 1)
    }

    /// The address rounded down to its page base.
    pub const fn page_base(self) -> PhysAddr {
        PhysAddr(self.0 & !(PAGE_SIZE - 1))
    }

    /// The 64-byte cache-line address (address with line offset cleared).
    pub const fn line_base(self) -> PhysAddr {
        PhysAddr(self.0 & !63)
    }
}

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PhysAddr({:#x})", self.0)
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl From<u64> for PhysAddr {
    fn from(v: u64) -> PhysAddr {
        PhysAddr(v)
    }
}

/// A page-table entry.
///
/// Layout (RISC-V Sv39 style):
/// - bit 0: valid
/// - bit 1: readable
/// - bit 2: writable
/// - bit 3: executable
/// - bit 4: user-accessible
/// - bits 10..54: physical page number
///
/// An entry with `V=1` and `R=W=X=0` is a pointer to the next-level table;
/// any other valid entry is a leaf.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct PageTableEntry(pub u64);

impl PageTableEntry {
    /// Valid bit.
    pub const V: u64 = 1 << 0;
    /// Readable bit.
    pub const R: u64 = 1 << 1;
    /// Writable bit.
    pub const W: u64 = 1 << 2;
    /// Executable bit.
    pub const X: u64 = 1 << 3;
    /// User-accessible bit.
    pub const U: u64 = 1 << 4;

    /// An invalid (all-zero) entry.
    pub const INVALID: PageTableEntry = PageTableEntry(0);

    /// Builds a leaf entry mapping to `ppn` with the given permissions.
    pub const fn leaf(ppn: u64, r: bool, w: bool, x: bool, user: bool) -> PageTableEntry {
        let mut bits = Self::V | (ppn << 10);
        if r {
            bits |= Self::R;
        }
        if w {
            bits |= Self::W;
        }
        if x {
            bits |= Self::X;
        }
        if user {
            bits |= Self::U;
        }
        PageTableEntry(bits)
    }

    /// Builds a non-leaf entry pointing at the next-level table page.
    pub const fn table(ppn: u64) -> PageTableEntry {
        PageTableEntry(Self::V | (ppn << 10))
    }

    /// Whether the entry is valid.
    pub const fn valid(self) -> bool {
        self.0 & Self::V != 0
    }

    /// Whether this valid entry is a leaf (any of R/W/X set).
    pub const fn is_leaf(self) -> bool {
        self.0 & (Self::R | Self::W | Self::X) != 0
    }

    /// Readable permission.
    pub const fn readable(self) -> bool {
        self.0 & Self::R != 0
    }

    /// Writable permission.
    pub const fn writable(self) -> bool {
        self.0 & Self::W != 0
    }

    /// Executable permission.
    pub const fn executable(self) -> bool {
        self.0 & Self::X != 0
    }

    /// User-accessible permission.
    pub const fn user(self) -> bool {
        self.0 & Self::U != 0
    }

    /// The physical page number field.
    pub const fn ppn(self) -> u64 {
        (self.0 >> 10) & ((1 << 44) - 1)
    }

    /// The raw bits.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for PageTableEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.valid() {
            return write!(f, "PageTableEntry(invalid)");
        }
        write!(
            f,
            "PageTableEntry(ppn={:#x}{}{}{}{}{})",
            self.ppn(),
            if self.is_leaf() { ", leaf" } else { ", table" },
            if self.readable() { " R" } else { "" },
            if self.writable() { " W" } else { "" },
            if self.executable() { " X" } else { "" },
            if self.user() { " U" } else { "" },
        )
    }
}

/// The kind of memory access being translated, for permission checks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

impl AccessKind {
    /// Whether `pte` grants this kind of access for the given mode.
    ///
    /// Supervisor code may not touch user pages (no `sum` relaxation is
    /// modeled — the MI6 OS uses an identity table of supervisor pages).
    pub fn permitted(self, pte: PageTableEntry, user_mode: bool) -> bool {
        if user_mode != pte.user() {
            return false;
        }
        match self {
            AccessKind::Fetch => pte.executable(),
            AccessKind::Load => pte.readable(),
            AccessKind::Store => pte.writable(),
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Fetch => "fetch",
            AccessKind::Load => "load",
            AccessKind::Store => "store",
        })
    }
}

/// The size in bytes of the region mapped by a leaf at `level`
/// (level 0 → 4 KiB, level 1 → 2 MiB, level 2 → 1 GiB).
pub const fn leaf_span(level: usize) -> u64 {
    PAGE_SIZE << (9 * level as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_fields() {
        // va = vpn2=5, vpn1=3, vpn0=7, offset=0x123
        let va = VirtAddr::new((5 << 30) | (3 << 21) | (7 << 12) | 0x123);
        assert_eq!(va.vpn(2), 5);
        assert_eq!(va.vpn(1), 3);
        assert_eq!(va.vpn(0), 7);
        assert_eq!(va.offset(), 0x123);
    }

    #[test]
    fn canonical_addresses() {
        assert!(VirtAddr::new(0x0000_003f_ffff_ffff).is_canonical());
        assert!(VirtAddr::new(0xffff_ffc0_0000_0000).is_canonical());
        assert!(!VirtAddr::new(0x0000_0040_0000_0000).is_canonical());
    }

    #[test]
    fn pte_leaf_round_trip() {
        let pte = PageTableEntry::leaf(0x1234, true, false, true, true);
        assert!(pte.valid());
        assert!(pte.is_leaf());
        assert!(pte.readable());
        assert!(!pte.writable());
        assert!(pte.executable());
        assert!(pte.user());
        assert_eq!(pte.ppn(), 0x1234);
    }

    #[test]
    fn pte_table_is_not_leaf() {
        let pte = PageTableEntry::table(0x55);
        assert!(pte.valid());
        assert!(!pte.is_leaf());
        assert_eq!(pte.ppn(), 0x55);
    }

    #[test]
    fn invalid_pte() {
        assert!(!PageTableEntry::INVALID.valid());
    }

    #[test]
    fn access_permission_checks() {
        let user_rx = PageTableEntry::leaf(1, true, false, true, true);
        assert!(AccessKind::Fetch.permitted(user_rx, true));
        assert!(AccessKind::Load.permitted(user_rx, true));
        assert!(!AccessKind::Store.permitted(user_rx, true));
        // supervisor may not touch user pages
        assert!(!AccessKind::Load.permitted(user_rx, false));
        let sup_rw = PageTableEntry::leaf(1, true, true, false, false);
        assert!(AccessKind::Store.permitted(sup_rw, false));
        assert!(!AccessKind::Store.permitted(sup_rw, true));
    }

    #[test]
    fn leaf_spans() {
        assert_eq!(leaf_span(0), 4 << 10);
        assert_eq!(leaf_span(1), 2 << 20);
        assert_eq!(leaf_span(2), 1 << 30);
    }

    #[test]
    fn line_base() {
        assert_eq!(PhysAddr::new(0x1047).line_base(), PhysAddr::new(0x1040));
    }

    #[test]
    fn page_bases() {
        assert_eq!(VirtAddr::new(0x1fff).page_base(), VirtAddr::new(0x1000));
        assert_eq!(PhysAddr::new(0x1fff).page_base(), PhysAddr::new(0x1000));
    }
}
