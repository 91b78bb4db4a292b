//! A small two-pass assembler.
//!
//! The workload generators, the toy kernel, and the security-monitor stubs
//! are all emitted through [`Assembler`]: instructions are pushed in order,
//! control flow targets are named with [`Label`]s, and [`Assembler::assemble`]
//! resolves offsets and produces the final 32-bit words.
//!
//! ```
//! use mi6_isa::{Assembler, Inst, Reg};
//!
//! # fn main() -> Result<(), mi6_isa::AsmError> {
//! let mut asm = Assembler::new(0x1000);
//! let done = asm.new_label();
//! asm.li(Reg::A0, 10);          // counter
//! asm.li(Reg::A1, 0);           // accumulator
//! let top = asm.here();
//! asm.push(Inst::add(Reg::A1, Reg::A1, Reg::A0));
//! asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
//! asm.bnez(Reg::A0, top);
//! asm.bind(done);
//! asm.push(Inst::Ecall);
//! let words = asm.assemble()?;
//! assert_eq!(words.len() as u64 * 4, asm.len_bytes());
//! # Ok(())
//! # }
//! ```

use crate::encode::{encode, EncodeError};
use crate::inst::{BranchCond, Inst};
use crate::reg::Reg;
use crate::INST_BYTES;
use std::fmt;

/// A forward- or backward-referencable position in the instruction stream.
///
/// Labels are cheap handles; they are created by [`Assembler::new_label`] or
/// [`Assembler::here`] and bound to a position with [`Assembler::bind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Error produced by [`Assembler::assemble`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound.
    UnboundLabel {
        /// The unbound label.
        label: Label,
        /// Index of the referencing instruction.
        at: usize,
    },
    /// An instruction failed to encode (offset or immediate out of range).
    Encode(EncodeError),
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label, at } => {
                write!(
                    f,
                    "label {label:?} referenced at instruction {at} was never bound"
                )
            }
            AsmError::Encode(e) => write!(f, "encoding failed: {e}"),
        }
    }
}

impl std::error::Error for AsmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AsmError::Encode(e) => Some(e),
            AsmError::UnboundLabel { .. } => None,
        }
    }
}

impl From<EncodeError> for AsmError {
    fn from(e: EncodeError) -> AsmError {
        AsmError::Encode(e)
    }
}

/// One assembler item: a finished instruction or a control-flow instruction
/// whose offset awaits label resolution.
#[derive(Clone, Copy, Debug)]
enum Item {
    Done(Inst),
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        target: Label,
    },
    Jal {
        rd: Reg,
        target: Label,
    },
}

/// A two-pass assembler for the MI6 ISA.
///
/// See the [module documentation](self) for an example.
#[derive(Clone, Debug, Default)]
pub struct Assembler {
    base: u64,
    items: Vec<Item>,
    labels: Vec<Option<usize>>,
}

impl Assembler {
    /// Creates an assembler whose first instruction will live at virtual (or
    /// physical) byte address `base`.
    pub fn new(base: u64) -> Assembler {
        Assembler {
            base,
            items: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// The base address passed to [`Assembler::new`].
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Size of the program in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.items.len() as u64 * INST_BYTES
    }

    /// Creates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Creates a label already bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound or belongs to another assembler.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.items.len());
    }

    /// Pushes a finished instruction.
    pub fn push(&mut self, inst: Inst) {
        self.items.push(Item::Done(inst));
    }

    /// Pushes `n` no-ops.
    pub fn nops(&mut self, n: usize) {
        for _ in 0..n {
            self.push(Inst::NOP);
        }
    }

    /// Loads an arbitrary 64-bit constant into `rd`.
    ///
    /// Emits the shortest `movz`/`movk` sequence (1–4 instructions); small
    /// non-negative values use a single `movz`. The instruction count is
    /// fixed once the value is known, so label offsets remain stable.
    pub fn li(&mut self, rd: Reg, value: u64) {
        let halves = [
            (value & 0xffff) as u16,
            ((value >> 16) & 0xffff) as u16,
            ((value >> 32) & 0xffff) as u16,
            ((value >> 48) & 0xffff) as u16,
        ];
        // First instruction must be a movz (zeroing); pick the lowest
        // nonzero half, or half 0 when the value is zero.
        let first = halves.iter().position(|&h| h != 0).unwrap_or(0);
        self.push(Inst::Movz {
            rd,
            imm16: halves[first],
            sh16: first as u8,
        });
        for (i, &h) in halves.iter().enumerate().skip(first + 1) {
            if h != 0 {
                self.push(Inst::Movk {
                    rd,
                    imm16: h,
                    sh16: i as u8,
                });
            }
        }
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: BranchCond, rs1: Reg, rs2: Reg, target: Label) {
        self.items.push(Item::Branch {
            cond,
            rs1,
            rs2,
            target,
        });
    }

    /// `beq rs1, rs2, target`
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Eq, rs1, rs2, target);
    }

    /// `bne rs1, rs2, target`
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Ne, rs1, rs2, target);
    }

    /// `blt rs1, rs2, target` (signed)
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Lt, rs1, rs2, target);
    }

    /// `bge rs1, rs2, target` (signed)
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Ge, rs1, rs2, target);
    }

    /// `bltu rs1, rs2, target`
    pub fn bltu(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(BranchCond::Ltu, rs1, rs2, target);
    }

    /// Branch if `rs` is zero.
    pub fn beqz(&mut self, rs: Reg, target: Label) {
        self.beq(rs, Reg::ZERO, target);
    }

    /// Branch if `rs` is nonzero.
    pub fn bnez(&mut self, rs: Reg, target: Label) {
        self.bne(rs, Reg::ZERO, target);
    }

    /// Unconditional jump to a label (`jal zero`).
    pub fn jump(&mut self, target: Label) {
        self.items.push(Item::Jal {
            rd: Reg::ZERO,
            target,
        });
    }

    /// Call a label, leaving the return address in `ra`.
    pub fn call(&mut self, target: Label) {
        self.items.push(Item::Jal {
            rd: Reg::RA,
            target,
        });
    }

    /// Return from a call (`jalr zero, 0(ra)`).
    pub fn ret(&mut self) {
        self.push(Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            off: 0,
        });
    }

    /// Resolves all labels and encodes the program.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if a referenced label was never
    /// bound, or [`AsmError::Encode`] if an offset/immediate does not fit.
    pub fn assemble(&self) -> Result<Vec<u32>, AsmError> {
        let mut words = Vec::with_capacity(self.items.len());
        for (idx, item) in self.items.iter().enumerate() {
            let inst = self.resolve(idx, item)?;
            words.push(encode(inst)?);
        }
        Ok(words)
    }

    /// Resolves labels and returns the instruction list without encoding.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError::UnboundLabel`] if a referenced label was never
    /// bound.
    pub fn instructions(&self) -> Result<Vec<Inst>, AsmError> {
        self.items
            .iter()
            .enumerate()
            .map(|(idx, item)| self.resolve(idx, item))
            .collect()
    }

    fn resolve(&self, idx: usize, item: &Item) -> Result<Inst, AsmError> {
        let offset_to = |target: Label| -> Result<i32, AsmError> {
            let bound = self.labels[target.0].ok_or(AsmError::UnboundLabel {
                label: target,
                at: idx,
            })?;
            Ok((bound as i64 - idx as i64) as i32 * INST_BYTES as i32)
        };
        Ok(match *item {
            Item::Done(inst) => inst,
            Item::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => Inst::Branch {
                cond,
                rs1,
                rs2,
                off: offset_to(target)?,
            },
            Item::Jal { rd, target } => Inst::Jal {
                rd,
                off: offset_to(target)?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::decode;

    #[test]
    fn forward_and_backward_branches() {
        let mut asm = Assembler::new(0);
        let end = asm.new_label();
        let top = asm.here();
        asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
        asm.beqz(Reg::A0, end); // forward: +2 insts = +8
        asm.jump(top); // backward: -2 insts = -8
        asm.bind(end);
        asm.push(Inst::Ecall);
        let insts = asm.instructions().unwrap();
        assert_eq!(
            insts[1],
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::A0,
                rs2: Reg::ZERO,
                off: 8
            }
        );
        assert_eq!(
            insts[2],
            Inst::Jal {
                rd: Reg::ZERO,
                off: -8
            }
        );
    }

    #[test]
    fn unbound_label_reported() {
        let mut asm = Assembler::new(0);
        let l = asm.new_label();
        asm.jump(l);
        let err = asm.assemble().unwrap_err();
        assert!(matches!(err, AsmError::UnboundLabel { at: 0, .. }));
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut asm = Assembler::new(0);
        let l = asm.here();
        asm.bind(l);
    }

    #[test]
    fn li_expansions() {
        for value in [
            0u64,
            1,
            0xffff,
            0x10000,
            0xdead_beef,
            0xffff_ffff_ffff_ffff,
            1 << 48,
            0x1234_5678_9abc_def0,
        ] {
            let mut asm = Assembler::new(0);
            asm.li(Reg::A0, value);
            // simulate the movz/movk sequence
            let mut reg = 0u64;
            for inst in asm.instructions().unwrap() {
                match inst {
                    Inst::Movz { imm16, sh16, .. } => reg = (imm16 as u64) << (sh16 * 16),
                    Inst::Movk { imm16, sh16, .. } => {
                        let sh = sh16 * 16;
                        reg = (reg & !(0xffffu64 << sh)) | ((imm16 as u64) << sh);
                    }
                    other => panic!("unexpected {other}"),
                }
            }
            assert_eq!(reg, value, "li({value:#x}) materialized {reg:#x}");
        }
    }

    #[test]
    fn assembled_words_decode_back() {
        let mut asm = Assembler::new(0);
        let done = asm.new_label();
        asm.li(Reg::A0, 5);
        let top = asm.here();
        asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
        asm.bnez(Reg::A0, top);
        asm.bind(done);
        asm.ret();
        let words = asm.assemble().unwrap();
        let insts = asm.instructions().unwrap();
        for (w, i) in words.iter().zip(&insts) {
            assert_eq!(&decode(*w).unwrap(), i);
        }
    }

    #[test]
    fn call_and_ret() {
        let mut asm = Assembler::new(0);
        let f = asm.new_label();
        asm.call(f);
        asm.push(Inst::Ecall);
        asm.bind(f);
        asm.ret();
        let insts = asm.instructions().unwrap();
        assert_eq!(
            insts[0],
            Inst::Jal {
                rd: Reg::RA,
                off: 8
            }
        );
        assert_eq!(
            insts[2],
            Inst::Jalr {
                rd: Reg::ZERO,
                rs1: Reg::RA,
                off: 0
            }
        );
    }

    #[test]
    fn branch_too_far_is_encode_error() {
        let mut asm = Assembler::new(0);
        let far = asm.new_label();
        asm.beqz(Reg::A0, far);
        // 40000 instructions ≈ 160 KB > ±128 KiB branch range
        asm.nops(40000);
        asm.bind(far);
        assert!(matches!(asm.assemble(), Err(AsmError::Encode(_))));
    }
}
