//! # mi6-isa
//!
//! The instruction-set architecture used by the MI6 reproduction.
//!
//! This is a compact, RISC-V-inspired 64-bit ISA with fixed 32-bit instruction
//! encodings, three privilege levels (user / supervisor / machine), a RISC-V
//! style CSR space, precise traps, and Sv39-like three-level paging. It also
//! defines the MI6 paper's single ISA addition: the [`Inst::Purge`]
//! instruction, which scrubs all per-core microarchitectural state
//! (paper Section 6.1).
//!
//! The ISA is deliberately *not* bit-compatible with RISC-V: the MI6
//! evaluation never depends on encoding specifics, only on instruction mix and
//! privilege/trap semantics, so this crate favours a regular, easily verified
//! encoding (see `DESIGN.md` at the repository root for the substitution
//! argument).
//!
//! ## Quick example
//!
//! ```
//! use mi6_isa::{Assembler, Inst, Reg};
//!
//! let mut asm = Assembler::new(0x1000);
//! let done = asm.new_label();
//! asm.li(Reg::A0, 5);
//! asm.li(Reg::A1, 0);
//! let top = asm.here();
//! asm.push(Inst::add(Reg::A1, Reg::A1, Reg::A0));
//! asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
//! asm.beqz(Reg::A0, done);
//! asm.jump(top);
//! asm.bind(done);
//! let words = asm.assemble().unwrap();
//! assert!(!words.is_empty());
//! ```

pub mod asm;
pub mod csr;
pub mod encode;
pub mod inst;
pub mod paging;
pub mod privilege;
pub mod reg;
pub mod snap;
pub mod trap;

pub use asm::{AsmError, Assembler, Label};
pub use encode::{decode, encode, DecodeError, EncodeError};
pub use inst::{AluOp, BranchCond, CsrOp, ExecUnit, ImmField, ImmForm, Inst, MemWidth};
pub use paging::{AccessKind, PageTableEntry, PhysAddr, VirtAddr, PAGE_SHIFT, PAGE_SIZE};
pub use privilege::PrivLevel;
pub use reg::Reg;
pub use trap::{Exception, Interrupt, TrapCause};

/// Number of bytes in one instruction word.
pub const INST_BYTES: u64 = 4;
