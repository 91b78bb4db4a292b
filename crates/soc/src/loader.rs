//! User programs, page-table construction, and the program loader.
//!
//! The loader plays the role of the untrusted OS's `execve`: it allocates
//! physical pages *sequentially* from a per-core base (mirroring the
//! paper's observation in Section 7.2 that a freshly booted Linux
//! allocates pages sequentially — which is exactly what makes PART's index
//! change hurt), builds a three-level page table, copies the program
//! image, and maps the kernel's own pages as supervisor-only so traps can
//! be handled without switching address spaces.

use mi6_isa::{PageTableEntry, PhysAddr, VirtAddr, PAGE_SIZE};
use mi6_mem::PhysMem;
use std::fmt;

/// Virtual address of the first code page.
pub const CODE_VA: u64 = 0x0001_0000;
/// Virtual address of the data/heap segment.
pub const DATA_VA: u64 = 0x1000_0000;
/// Top of the user stack.
pub const STACK_TOP_VA: u64 = 0x7000_0000;

/// A relocatable user program produced by the workload generators.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Human-readable name (benchmark name in the harness output).
    pub name: String,
    /// Code words, placed at [`CODE_VA`]. Entry is the first word.
    pub code: Vec<u32>,
    /// Size of the zero-initialised data/heap segment at [`DATA_VA`].
    pub data_size: u64,
    /// Initialisers applied to the data segment: (byte offset, value).
    pub data_init: Vec<(u64, u64)>,
    /// Stack bytes reserved below [`STACK_TOP_VA`].
    pub stack_size: u64,
}

impl Program {
    /// The entry point virtual address.
    pub fn entry_va(&self) -> u64 {
        CODE_VA
    }

    /// Initial stack pointer (16-byte aligned, below the stack top).
    pub fn initial_sp(&self) -> u64 {
        STACK_TOP_VA - 16
    }
}

/// Error produced by the loader.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LoadError {
    /// The program image or data segment exceeds the per-core physical
    /// allocation window.
    OutOfPhysicalMemory,
    /// The page-table region is exhausted.
    OutOfTablePages,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LoadError::OutOfPhysicalMemory => "out of physical memory for user pages",
            LoadError::OutOfTablePages => "out of page-table pages",
        })
    }
}

impl std::error::Error for LoadError {}

/// A three-level page-table under construction in physical memory.
#[derive(Debug)]
pub struct AddressSpace {
    root: u64,
    next_table: u64,
    table_limit: u64,
}

impl AddressSpace {
    /// Creates an address space whose table pages are carved from
    /// `[table_base, table_base + table_bytes)`.
    pub fn new(mem: &mut PhysMem, table_base: u64, table_bytes: u64) -> AddressSpace {
        assert_eq!(table_base % PAGE_SIZE, 0);
        // Zero the root page (PhysMem is zero-initialised, but the region
        // may be reused across loads).
        mem.scrub(PhysAddr::new(table_base), PAGE_SIZE);
        AddressSpace {
            root: table_base,
            next_table: table_base + PAGE_SIZE,
            table_limit: table_base + table_bytes,
        }
    }

    /// The `satp` value activating this address space.
    pub fn satp(&self) -> u64 {
        self.root >> 12
    }

    /// Wraps an existing table (from a `satp` value) for read-only walks
    /// with [`AddressSpace::translate`].
    pub fn probe(satp: u64) -> AddressSpace {
        AddressSpace {
            root: satp << 12,
            next_table: 0,
            table_limit: 0,
        }
    }

    fn alloc_table(&mut self, mem: &mut PhysMem) -> Result<u64, LoadError> {
        if self.next_table >= self.table_limit {
            return Err(LoadError::OutOfTablePages);
        }
        let page = self.next_table;
        self.next_table += PAGE_SIZE;
        mem.scrub(PhysAddr::new(page), PAGE_SIZE);
        Ok(page)
    }

    /// Maps one 4 KiB page `va -> pa` with the given permissions.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError::OutOfTablePages`] when the table region is
    /// exhausted.
    ///
    /// # Panics
    ///
    /// Panics if the mapping already exists (double map) or addresses are
    /// unaligned.
    #[allow(clippy::too_many_arguments)] // mirrors the PTE flag set
    pub fn map_page(
        &mut self,
        mem: &mut PhysMem,
        va: u64,
        pa: u64,
        r: bool,
        w: bool,
        x: bool,
        user: bool,
    ) -> Result<(), LoadError> {
        assert_eq!(va % PAGE_SIZE, 0, "unaligned va");
        assert_eq!(pa % PAGE_SIZE, 0, "unaligned pa");
        let v = VirtAddr::new(va);
        let mut table = self.root;
        for level in (1..mi6_isa::paging::LEVELS).rev() {
            let slot = table + v.vpn(level) * 8;
            let pte = PageTableEntry(mem.read_u64(PhysAddr::new(slot)));
            let next = if pte.valid() {
                assert!(!pte.is_leaf(), "superpage in the way of a 4K mapping");
                pte.ppn() << 12
            } else {
                let page = self.alloc_table(mem)?;
                mem.write_u64(PhysAddr::new(slot), PageTableEntry::table(page >> 12).raw());
                page
            };
            table = next;
        }
        let slot = table + v.vpn(0) * 8;
        let old = PageTableEntry(mem.read_u64(PhysAddr::new(slot)));
        assert!(!old.valid(), "double mapping of {va:#x}");
        mem.write_u64(
            PhysAddr::new(slot),
            PageTableEntry::leaf(pa >> 12, r, w, x, user).raw(),
        );
        Ok(())
    }

    /// Translates a virtual address by software walk (test/loader aid).
    pub fn translate(&self, mem: &PhysMem, va: u64) -> Option<u64> {
        let v = VirtAddr::new(va);
        let mut table = self.root;
        for level in (0..mi6_isa::paging::LEVELS).rev() {
            let slot = table + v.vpn(level) * 8;
            let pte = PageTableEntry(mem.read_u64(PhysAddr::new(slot)));
            if !pte.valid() {
                return None;
            }
            if pte.is_leaf() {
                let span = mi6_isa::paging::leaf_span(level);
                let base = (pte.ppn() << 12) & !(span - 1);
                return Some(base | (va & (span - 1)));
            }
            table = pte.ppn() << 12;
        }
        None
    }
}

/// A sequential physical page allocator (the toy OS's page frame
/// allocator — deliberately sequential, see the module docs).
#[derive(Clone, Copy, Debug)]
pub struct FrameAllocator {
    next: u64,
    limit: u64,
}

impl FrameAllocator {
    /// Allocates frames from `[base, base + bytes)`.
    pub fn new(base: u64, bytes: u64) -> FrameAllocator {
        assert_eq!(base % PAGE_SIZE, 0);
        FrameAllocator {
            next: base,
            limit: base + bytes,
        }
    }

    /// Allocates the next frame.
    pub fn alloc(&mut self) -> Result<u64, LoadError> {
        if self.next >= self.limit {
            return Err(LoadError::OutOfPhysicalMemory);
        }
        let page = self.next;
        self.next += PAGE_SIZE;
        Ok(page)
    }

    /// The next frame that would be returned (exclusive high-water mark).
    pub fn high_water(&self) -> u64 {
        self.next
    }
}

/// The result of loading a program: everything the machine needs to start
/// the user process.
#[derive(Clone, Copy, Debug)]
pub struct UserImage {
    /// Page-table root for `satp`.
    pub satp: u64,
    /// Entry point (virtual).
    pub entry: u64,
    /// Initial stack pointer (virtual).
    pub sp: u64,
    /// First physical frame used for user pages.
    pub phys_base: u64,
    /// One past the last physical frame used.
    pub phys_end: u64,
}

/// Loads `program` into `mem`, building its page table.
///
/// `kernel_pages` is a list of `(pa, writable)` pages to identity-map as
/// supervisor pages (kernel text and per-core data), so the trap handler
/// runs without an address-space switch.
///
/// # Errors
///
/// Returns [`LoadError`] when the physical windows are exhausted.
pub fn load_program(
    mem: &mut PhysMem,
    program: &Program,
    table_base: u64,
    table_bytes: u64,
    frames: &mut FrameAllocator,
    kernel_pages: &[(u64, bool)],
) -> Result<UserImage, LoadError> {
    let mut aspace = AddressSpace::new(mem, table_base, table_bytes);
    let phys_base = frames.high_water();
    // Kernel pages: identity, supervisor.
    for &(pa, writable) in kernel_pages {
        aspace.map_page(mem, pa, pa, true, writable, !writable, false)?;
    }
    // Code.
    let code_bytes = (program.code.len() as u64) * 4;
    let code_pages = code_bytes.div_ceil(PAGE_SIZE);
    for i in 0..code_pages {
        let pa = frames.alloc()?;
        aspace.map_page(mem, CODE_VA + i * PAGE_SIZE, pa, true, false, true, true)?;
        // Copy this page's worth of code.
        let start = (i * PAGE_SIZE / 4) as usize;
        let end = program.code.len().min(start + (PAGE_SIZE / 4) as usize);
        mem.load_words(PhysAddr::new(pa), &program.code[start..end]);
    }
    // Data.
    let data_pages = program.data_size.div_ceil(PAGE_SIZE);
    let mut data_phys = Vec::with_capacity(data_pages as usize);
    for i in 0..data_pages {
        let pa = frames.alloc()?;
        data_phys.push(pa);
        aspace.map_page(mem, DATA_VA + i * PAGE_SIZE, pa, true, true, false, true)?;
    }
    for &(off, value) in &program.data_init {
        debug_assert!(off + 8 <= program.data_size);
        let page = (off / PAGE_SIZE) as usize;
        let pa = data_phys[page] + off % PAGE_SIZE;
        mem.write_u64(PhysAddr::new(pa), value);
    }
    // Stack.
    let stack_pages = program.stack_size.div_ceil(PAGE_SIZE).max(1);
    for i in 0..stack_pages {
        let pa = frames.alloc()?;
        aspace.map_page(
            mem,
            STACK_TOP_VA - (i + 1) * PAGE_SIZE,
            pa,
            true,
            true,
            false,
            true,
        )?;
    }
    Ok(UserImage {
        satp: aspace.satp(),
        entry: program.entry_va(),
        sp: program.initial_sp(),
        phys_base,
        phys_end: frames.high_water(),
    })
}

// ---------------------------------------------------------------- snapshot

mi6_snapshot::snap_struct! { UserImage { satp, entry, sp, phys_base, phys_end } }

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> PhysMem {
        PhysMem::new(256 << 20)
    }

    #[test]
    fn map_and_translate() {
        let mut m = mem();
        let mut a = AddressSpace::new(&mut m, 0x20_0000, 1 << 20);
        a.map_page(&mut m, 0x1000_0000, 0x40_0000, true, true, false, true)
            .unwrap();
        assert_eq!(a.translate(&m, 0x1000_0123), Some(0x40_0123));
        assert_eq!(a.translate(&m, 0x1000_2000), None);
    }

    #[test]
    #[should_panic(expected = "double mapping")]
    fn double_map_panics() {
        let mut m = mem();
        let mut a = AddressSpace::new(&mut m, 0x20_0000, 1 << 20);
        a.map_page(&mut m, 0x1000, 0x40_0000, true, false, false, true)
            .unwrap();
        a.map_page(&mut m, 0x1000, 0x41_0000, true, false, false, true)
            .unwrap();
    }

    #[test]
    fn table_exhaustion_reported() {
        let mut m = mem();
        // Room for the root only: the first map needs two more tables.
        let mut a = AddressSpace::new(&mut m, 0x20_0000, PAGE_SIZE);
        let err = a
            .map_page(&mut m, 0x1000, 0x40_0000, true, false, false, true)
            .unwrap_err();
        assert_eq!(err, LoadError::OutOfTablePages);
    }

    #[test]
    fn frames_are_sequential() {
        let mut f = FrameAllocator::new(0x100_0000, 4 * PAGE_SIZE);
        assert_eq!(f.alloc().unwrap(), 0x100_0000);
        assert_eq!(f.alloc().unwrap(), 0x100_1000);
        assert_eq!(f.alloc().unwrap(), 0x100_2000);
        assert_eq!(f.alloc().unwrap(), 0x100_3000);
        assert_eq!(f.alloc().unwrap_err(), LoadError::OutOfPhysicalMemory);
    }

    #[test]
    fn load_places_code_and_data() {
        let mut m = mem();
        let program = Program {
            name: "t".into(),
            code: vec![0x11111111; 1030], // > 1 page of code
            data_size: 2 * PAGE_SIZE,
            data_init: vec![(8, 0xabcd), (PAGE_SIZE + 16, 0x1234)],
            stack_size: PAGE_SIZE,
        };
        let mut frames = FrameAllocator::new(0x100_0000, 16 << 20);
        let img = load_program(
            &mut m,
            &program,
            0x20_0000,
            1 << 20,
            &mut frames,
            &[(0x2000, false), (0x8000, true)],
        )
        .unwrap();
        assert_eq!(img.entry, CODE_VA);
        let aspace_probe = AddressSpace {
            root: (img.satp) << 12,
            next_table: 0,
            table_limit: 0,
        };
        // Code virtual page 1 maps to the second sequential frame.
        let pa = aspace_probe.translate(&m, CODE_VA + PAGE_SIZE).unwrap();
        assert_eq!(pa, 0x100_1000);
        assert_eq!(m.read_u32(PhysAddr::new(pa)), 0x11111111);
        // Data initialisers landed.
        let dpa = aspace_probe.translate(&m, DATA_VA + 8).unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(dpa)), 0xabcd);
        let dpa2 = aspace_probe
            .translate(&m, DATA_VA + PAGE_SIZE + 16)
            .unwrap();
        assert_eq!(m.read_u64(PhysAddr::new(dpa2)), 0x1234);
        // Kernel pages are supervisor-mapped.
        assert_eq!(aspace_probe.translate(&m, 0x2000), Some(0x2000));
        // Stack mapped below the top.
        assert!(aspace_probe
            .translate(&m, STACK_TOP_VA - PAGE_SIZE)
            .is_some());
        assert!(img.phys_end > img.phys_base);
    }
}
