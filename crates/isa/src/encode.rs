//! Fixed 32-bit instruction encoding.
//!
//! Every [`Inst`] encodes to exactly one 32-bit word. The encoding is
//! deliberately regular (unlike RISC-V's): a 6-bit opcode in the low bits and
//! three 5-bit register fields, with immediates occupying the upper bits.
//!
//! | format | `[5:0]` | `[10:6]` | `[15:11]` | `[31:16]` |
//! |---|---|---|---|---|
//! | R | opcode | rd | rs1 | rs2 in `[20:16]` |
//! | I | opcode | rd | rs1 | imm16 (signed) |
//! | load | opcode | rd | rs1 | offset16 (signed bytes) |
//! | store | opcode | rs2 | rs1 | offset16 (signed bytes) |
//! | branch | opcode | rs1 | rs2 | offset16 (signed words) |
//! | jal | opcode | rd | imm21 in `[31:11]` (signed words) | |
//! | movz/movk | opcode | rd | sh16 in `[12:11]` | imm16 |
//! | csr | opcode | rd | rs1 | csr12 in `[27:16]` |
//! | shift | opcode | rd | rs1 | shamt6 in `[21:16]` |
//!
//! Branch offsets span ±128 KiB and `jal` spans ±4 MiB; the [`Assembler`]
//! reports an [`EncodeError`] if a generated program exceeds these.
//!
//! [`Assembler`]: crate::asm::Assembler

use crate::inst::{AluOp, BranchCond, CsrOp, ImmField, Inst, MemWidth};
use crate::reg::Reg;
use std::fmt;

/// Error produced when an instruction's fields do not fit its encoding.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncodeError {
    /// An immediate or offset is outside the encodable range.
    ImmOutOfRange {
        /// The instruction being encoded (display form is in the message).
        inst: Inst,
        /// The offending value.
        value: i64,
        /// Number of signed bits available.
        bits: u32,
    },
    /// A control-flow byte offset is not a multiple of 4.
    MisalignedOffset {
        /// The instruction being encoded.
        inst: Inst,
        /// The offending byte offset.
        off: i32,
    },
    /// A shift amount is outside `0..64`.
    ShiftTooLarge {
        /// The instruction being encoded.
        inst: Inst,
        /// The offending shift amount.
        sh: i32,
    },
    /// An [`Inst::AluImm`] names an operation with no immediate form.
    NoImmediateForm {
        /// The instruction being encoded.
        inst: Inst,
    },
    /// A CSR address does not fit in 12 bits.
    CsrOutOfRange {
        /// The offending CSR address.
        csr: u16,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::ImmOutOfRange { inst, value, bits } => {
                write!(
                    f,
                    "immediate {value} does not fit in {bits} signed bits: `{inst}`"
                )
            }
            EncodeError::MisalignedOffset { inst, off } => {
                write!(
                    f,
                    "control-flow offset {off} is not a multiple of 4: `{inst}`"
                )
            }
            EncodeError::ShiftTooLarge { inst, sh } => {
                write!(f, "shift amount {sh} is outside 0..64: `{inst}`")
            }
            EncodeError::NoImmediateForm { inst } => {
                write!(f, "operation has no immediate form: `{inst}`")
            }
            EncodeError::CsrOutOfRange { csr } => {
                write!(f, "csr address {csr:#x} does not fit in 12 bits")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Error produced when a 32-bit word is not a valid instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError {
    /// The word that failed to decode.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// What a non-ALU opcode selects: an instruction form, with the width
/// and signedness, condition or CSR operation within it; for an
/// instruction without operands, the instruction itself.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Form {
    Movz,
    Movk,
    Load(MemWidth, bool),
    Store(MemWidth),
    Branch(BranchCond),
    Jal,
    Jalr,
    Bare(Inst),
    Csr(CsrOp),
}

/// The first opcode after the [`AluOp`] table's: its register forms are
/// 0..=18 and its immediate forms 19..=27.
const FIRST_FORM_OPCODE: u32 = 28;

/// Every non-ALU form and its mnemonic, in opcode order: row `i` has
/// opcode `FIRST_FORM_OPCODE + i`. Snapshots store encoded words, so the
/// row order is an on-disk contract.
const FORMS: [(Form, &str); 33] = [
    (Form::Movz, "movz"),
    (Form::Movk, "movk"),
    (Form::Load(MemWidth::B, true), "lb"),
    (Form::Load(MemWidth::B, false), "lbu"),
    (Form::Load(MemWidth::H, true), "lh"),
    (Form::Load(MemWidth::H, false), "lhu"),
    (Form::Load(MemWidth::W, true), "lw"),
    (Form::Load(MemWidth::W, false), "lwu"),
    (Form::Load(MemWidth::D, true), "ld"),
    (Form::Store(MemWidth::B), "sb"),
    (Form::Store(MemWidth::H), "sh"),
    (Form::Store(MemWidth::W), "sw"),
    (Form::Store(MemWidth::D), "sd"),
    (Form::Branch(BranchCond::Eq), "beq"),
    (Form::Branch(BranchCond::Ne), "bne"),
    (Form::Branch(BranchCond::Lt), "blt"),
    (Form::Branch(BranchCond::Ge), "bge"),
    (Form::Branch(BranchCond::Ltu), "bltu"),
    (Form::Branch(BranchCond::Geu), "bgeu"),
    (Form::Jal, "jal"),
    (Form::Jalr, "jalr"),
    (Form::Bare(Inst::Ecall), "ecall"),
    (Form::Bare(Inst::Ebreak), "ebreak"),
    (Form::Bare(Inst::Sret), "sret"),
    (Form::Bare(Inst::Mret), "mret"),
    (Form::Bare(Inst::Wfi), "wfi"),
    (Form::Bare(Inst::Fence), "fence"),
    (Form::Bare(Inst::FenceI), "fence.i"),
    (Form::Bare(Inst::SfenceVma), "sfence.vma"),
    (Form::Csr(CsrOp::Rw), "csrrw"),
    (Form::Csr(CsrOp::Rs), "csrrs"),
    (Form::Csr(CsrOp::Rc), "csrrc"),
    (Form::Bare(Inst::Purge), "purge"),
];

impl Form {
    /// The opcode and mnemonic of a non-ALU instruction.
    ///
    /// # Panics
    ///
    /// On an [`Inst::Alu`] or [`Inst::AluImm`]: their opcodes come from
    /// the [`AluOp`] table.
    fn row(inst: Inst) -> (u32, &'static str) {
        let form = match inst {
            Inst::Alu { .. } | Inst::AluImm { .. } => unreachable!("`{inst}` has an ALU opcode"),
            Inst::Movz { .. } => Form::Movz,
            Inst::Movk { .. } => Form::Movk,
            // A 64-bit load has nothing to extend: `ld` is its one opcode.
            Inst::Load { width, signed, .. } => Form::Load(width, signed || width.bytes() == 8),
            Inst::Store { width, .. } => Form::Store(width),
            Inst::Branch { cond, .. } => Form::Branch(cond),
            Inst::Jal { .. } => Form::Jal,
            Inst::Jalr { .. } => Form::Jalr,
            Inst::Csr { op, .. } => Form::Csr(op),
            bare => Form::Bare(bare),
        };
        let i = FORMS
            .iter()
            .position(|&(f, _)| f == form)
            .expect("every non-ALU form has a row");
        (FIRST_FORM_OPCODE + i as u32, FORMS[i].1)
    }
}

/// The mnemonic [`Inst`]'s `Display` prints: an [`Inst::AluImm`] whose
/// operation has no immediate form gets the register form's.
pub(crate) fn mnemonic(inst: Inst) -> &'static str {
    match inst {
        Inst::Alu { op, .. } => op.mnemonic(),
        Inst::AluImm { op, .. } => op.imm_form().map_or(op.mnemonic(), |form| form.mnemonic),
        _ => Form::row(inst).1,
    }
}

fn fits_signed(value: i64, bits: u32) -> bool {
    let min = -(1i64 << (bits - 1));
    let max = (1i64 << (bits - 1)) - 1;
    (min..=max).contains(&value)
}

fn check_imm(inst: Inst, value: i64, bits: u32) -> Result<u32, EncodeError> {
    if fits_signed(value, bits) {
        Ok((value as u32) & ((1u32 << bits) - 1))
    } else {
        Err(EncodeError::ImmOutOfRange { inst, value, bits })
    }
}

fn check_word_off(inst: Inst, off: i32, bits: u32) -> Result<u32, EncodeError> {
    if off % 4 != 0 {
        return Err(EncodeError::MisalignedOffset { inst, off });
    }
    check_imm(inst, (off / 4) as i64, bits)
}

/// Packs `opcode`, register fields `a` in `[10:6]` and `b` in `[15:11]`,
/// and `hi` in the bits above.
fn pack(opcode: u32, a: Reg, b: Reg, hi: u32) -> u32 {
    opcode | (a.index() as u32) << 6 | (b.index() as u32) << 11 | hi << 16
}

/// Encodes an instruction to its 32-bit word.
///
/// # Errors
///
/// Returns [`EncodeError`] when an immediate, offset, shift amount, or CSR
/// address does not fit in the encoding, or when an [`Inst::AluImm`]'s
/// operation has no immediate form.
pub fn encode(inst: Inst) -> Result<u32, EncodeError> {
    use Inst::*;
    let opcode = match inst {
        Alu { op, .. } => op as u32,
        AluImm { op, .. } => {
            op.imm_form()
                .ok_or(EncodeError::NoImmediateForm { inst })?
                .opcode
        }
        _ => Form::row(inst).0,
    };
    Ok(match inst {
        Alu { rd, rs1, rs2, .. } => pack(opcode, rd, rs1, rs2.index() as u32),
        AluImm { op, rd, rs1, imm } => {
            let shamt = op
                .imm_form()
                .is_some_and(|form| form.field == ImmField::Shamt);
            if shamt && !(0..64).contains(&imm) {
                return Err(EncodeError::ShiftTooLarge { inst, sh: imm });
            }
            pack(opcode, rd, rs1, check_imm(inst, imm as i64, 16)?)
        }
        Movz { rd, imm16, sh16 } | Movk { rd, imm16, sh16 } => {
            debug_assert!(sh16 < 4);
            opcode | (rd.index() as u32) << 6 | ((sh16 & 3) as u32) << 11 | (imm16 as u32) << 16
        }
        Load { rd, rs1, off, .. } | Jalr { rd, rs1, off } => {
            pack(opcode, rd, rs1, check_imm(inst, off as i64, 16)?)
        }
        Store { rs2, rs1, off, .. } => pack(opcode, rs2, rs1, check_imm(inst, off as i64, 16)?),
        Branch { rs1, rs2, off, .. } => pack(opcode, rs1, rs2, check_word_off(inst, off, 16)?),
        Jal { rd, off } => opcode | (rd.index() as u32) << 6 | check_word_off(inst, off, 21)? << 11,
        Csr { rd, rs1, csr, .. } => {
            if csr >= 1 << 12 {
                return Err(EncodeError::CsrOutOfRange { csr });
            }
            pack(opcode, rd, rs1, csr as u32)
        }
        _ => opcode,
    })
}

fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

/// Decodes a 32-bit word into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] when the opcode is unassigned.
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    let opcode = word & 0x3f;
    let rd = Reg::new(((word >> 6) & 0x1f) as u8);
    let rs1 = Reg::new(((word >> 11) & 0x1f) as u8);
    let imm = sext(word >> 16, 16);
    if let Some(&op) = AluOp::ALL.get(opcode as usize) {
        let rs2 = Reg::new(((word >> 16) & 0x1f) as u8);
        return Ok(Inst::Alu { op, rd, rs1, rs2 });
    }
    if let Some(op) = AluOp::from_imm_opcode(opcode) {
        let imm = match op.imm_form().map(|form| form.field) {
            Some(ImmField::Shamt) => ((word >> 16) & 0x3f) as i32,
            _ => imm,
        };
        return Ok(Inst::AluImm { op, rd, rs1, imm });
    }
    let (form, _) = opcode
        .checked_sub(FIRST_FORM_OPCODE)
        .and_then(|i| FORMS.get(i as usize))
        .ok_or(DecodeError { word })?;
    let (imm16, sh16) = ((word >> 16) as u16, ((word >> 11) & 3) as u8);
    Ok(match *form {
        Form::Movz => Inst::Movz { rd, imm16, sh16 },
        Form::Movk => Inst::Movk { rd, imm16, sh16 },
        Form::Load(width, signed) => Inst::Load {
            rd,
            rs1,
            off: imm,
            width,
            signed,
        },
        Form::Store(width) => Inst::Store {
            rs2: rd,
            rs1,
            off: imm,
            width,
        },
        Form::Branch(cond) => Inst::Branch {
            cond,
            rs1: rd,
            rs2: rs1,
            off: imm * 4,
        },
        Form::Jal => Inst::Jal {
            rd,
            off: sext(word >> 11, 21) * 4,
        },
        Form::Jalr => Inst::Jalr { rd, rs1, off: imm },
        Form::Bare(inst) => inst,
        Form::Csr(op) => Inst::Csr {
            op,
            rd,
            rs1,
            csr: ((word >> 16) & 0xfff) as u16,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(inst: Inst) {
        let word = encode(inst).unwrap_or_else(|e| panic!("encode failed: {e}"));
        let back = decode(word).unwrap_or_else(|e| panic!("decode failed: {e}"));
        assert_eq!(
            inst, back,
            "round trip mismatch for `{inst}` ({word:#010x})"
        );
    }

    #[test]
    fn round_trip_r_type() {
        for (rd, rs1, rs2) in [(Reg::A0, Reg::A1, Reg::A2), (Reg::ZERO, Reg::T6, Reg::SP)] {
            for op in AluOp::ALL {
                round_trip(Inst::alu(op, rd, rs1, rs2));
            }
        }
    }

    #[test]
    fn round_trip_immediates() {
        for op in AluOp::ALL {
            let imms: &[i32] = match op.imm_form().map(|form| form.field) {
                None => continue,
                Some(ImmField::Simm16) => &[-32768, -1, 0, 1, 32767],
                Some(ImmField::Shamt) => &[0, 1, 31, 63],
            };
            for &imm in imms {
                round_trip(Inst::alu_imm(op, Reg::A0, Reg::A1, imm));
                round_trip(Inst::alu_imm(op, Reg::T0, Reg::T0, imm));
            }
        }
    }

    /// Snapshots store encoded words, so every computational opcode is
    /// an on-disk contract: each word here is written out from the
    /// layout in the module docs (`a0`, `a1`, `a2` are x10, x11, x12).
    #[test]
    fn alu_words_keep_their_encoding() {
        let (rd, rs1, rs2) = (10 << 6, 11 << 11, 12 << 16);
        let register = [
            (AluOp::Add, 0),
            (AluOp::Sub, 1),
            (AluOp::And, 2),
            (AluOp::Or, 3),
            (AluOp::Xor, 4),
            (AluOp::Sll, 5),
            (AluOp::Srl, 6),
            (AluOp::Sra, 7),
            (AluOp::Slt, 8),
            (AluOp::Sltu, 9),
            (AluOp::Mul, 10),
            (AluOp::Mulh, 11),
            (AluOp::Div, 12),
            (AluOp::Divu, 13),
            (AluOp::Rem, 14),
            (AluOp::Remu, 15),
            (AluOp::Fadd, 16),
            (AluOp::Fmul, 17),
            (AluOp::Fdiv, 18),
        ];
        assert_eq!(register.map(|(op, _)| op), AluOp::ALL);
        for (op, opcode) in register {
            let inst = Inst::alu(op, Reg::A0, Reg::A1, Reg::A2);
            assert_eq!(encode(inst), Ok(opcode | rd | rs1 | rs2), "`{inst}`");
        }
        let immediate = [
            (AluOp::Add, 19),
            (AluOp::And, 20),
            (AluOp::Or, 21),
            (AluOp::Xor, 22),
            (AluOp::Slt, 23),
            (AluOp::Sltu, 24),
            (AluOp::Sll, 25),
            (AluOp::Srl, 26),
            (AluOp::Sra, 27),
        ];
        for (op, opcode) in immediate {
            let inst = Inst::alu_imm(op, Reg::A0, Reg::A1, 63);
            assert_eq!(encode(inst), Ok(opcode | rd | rs1 | 63 << 16), "`{inst}`");
        }
        for op in AluOp::ALL {
            if immediate.iter().all(|&(o, ..)| o != op) {
                let inst = Inst::alu_imm(op, Reg::A0, Reg::A1, 1);
                assert_eq!(encode(inst), Err(EncodeError::NoImmediateForm { inst }));
            }
        }
    }

    /// The same contract for every other form: each word is written out
    /// from the module-doc layout (`-8` is `0xfff8` as a 16-bit byte
    /// offset, `0xfffe` as 16-bit and `0x1ffffe` as 21-bit word offsets).
    #[test]
    fn form_words_keep_their_encoding() {
        use {BranchCond::*, CsrOp::*, MemWidth::*};
        let (a0, a1) = (Reg::A0, Reg::A1);
        let (rd, rs1, off) = (10 << 6, 11 << 11, 0xfff8 << 16);
        let load = |width, signed| Inst::Load {
            rd: a0,
            rs1: a1,
            off: -8,
            width,
            signed,
        };
        let store = |width| Inst::Store {
            rs2: a0,
            rs1: a1,
            off: -8,
            width,
        };
        let branch = |cond| Inst::Branch {
            cond,
            rs1: a0,
            rs2: a1,
            off: -8,
        };
        let csr = |op| Inst::Csr {
            op,
            rd: a0,
            rs1: a1,
            csr: 0x342,
        };
        let (imm16, sh16) = (0xbeef, 3);
        let cases = [
            (
                Inst::Movz {
                    rd: a0,
                    imm16,
                    sh16,
                },
                28 | rd | 3 << 11 | 0xbeef << 16,
            ),
            (
                Inst::Movk {
                    rd: a0,
                    imm16,
                    sh16,
                },
                29 | rd | 3 << 11 | 0xbeef << 16,
            ),
            (load(B, true), 30 | rd | rs1 | off),
            (load(B, false), 31 | rd | rs1 | off),
            (load(H, true), 32 | rd | rs1 | off),
            (load(H, false), 33 | rd | rs1 | off),
            (load(W, true), 34 | rd | rs1 | off),
            (load(W, false), 35 | rd | rs1 | off),
            (load(D, true), 36 | rd | rs1 | off),
            (store(B), 37 | rd | rs1 | off),
            (store(H), 38 | rd | rs1 | off),
            (store(W), 39 | rd | rs1 | off),
            (store(D), 40 | rd | rs1 | off),
            (branch(Eq), 41 | rd | rs1 | 0xfffe << 16),
            (branch(Ne), 42 | rd | rs1 | 0xfffe << 16),
            (branch(Lt), 43 | rd | rs1 | 0xfffe << 16),
            (branch(Ge), 44 | rd | rs1 | 0xfffe << 16),
            (branch(Ltu), 45 | rd | rs1 | 0xfffe << 16),
            (branch(Geu), 46 | rd | rs1 | 0xfffe << 16),
            (Inst::Jal { rd: a0, off: -8 }, 47 | rd | 0x1ffffe << 11),
            (
                Inst::Jalr {
                    rd: a0,
                    rs1: a1,
                    off: -8,
                },
                48 | rd | rs1 | off,
            ),
            (Inst::Ecall, 49),
            (Inst::Ebreak, 50),
            (Inst::Sret, 51),
            (Inst::Mret, 52),
            (Inst::Wfi, 53),
            (Inst::Fence, 54),
            (Inst::FenceI, 55),
            (Inst::SfenceVma, 56),
            (csr(Rw), 57 | rd | rs1 | 0x342 << 16),
            (csr(Rs), 58 | rd | rs1 | 0x342 << 16),
            (csr(Rc), 59 | rd | rs1 | 0x342 << 16),
            (Inst::Purge, 60),
        ];
        let opcodes: Vec<u32> = cases.iter().map(|&(_, word)| word & 0x3f).collect();
        assert_eq!(opcodes, (28..=60).collect::<Vec<u32>>());
        for (inst, word) in cases {
            assert_eq!(encode(inst), Ok(word), "`{inst}`");
            assert_eq!(decode(word), Ok(inst), "{word:#010x}");
        }
        // A 64-bit load has nothing to extend, so no unsigned opcode.
        assert_eq!(encode(load(D, false)), encode(load(D, true)));
    }

    #[test]
    fn round_trip_mov_wide() {
        for sh16 in 0..4u8 {
            round_trip(Inst::Movz {
                rd: Reg::A3,
                imm16: 0xbeef,
                sh16,
            });
            round_trip(Inst::Movk {
                rd: Reg::A3,
                imm16: 0x1234,
                sh16,
            });
        }
    }

    #[test]
    fn round_trip_loads_stores() {
        for width in MemWidth::ALL {
            for off in [-32768, -8, 0, 8, 32767] {
                round_trip(Inst::Store {
                    rs2: Reg::A1,
                    rs1: Reg::SP,
                    off,
                    width,
                });
                round_trip(Inst::Load {
                    rd: Reg::A0,
                    rs1: Reg::SP,
                    off,
                    width,
                    signed: true,
                });
                if width != MemWidth::D {
                    round_trip(Inst::Load {
                        rd: Reg::A0,
                        rs1: Reg::SP,
                        off,
                        width,
                        signed: false,
                    });
                }
            }
        }
    }

    #[test]
    fn round_trip_branches() {
        for cond in BranchCond::ALL {
            for off in [-131072, -4, 0, 4, 131068] {
                round_trip(Inst::Branch {
                    cond,
                    rs1: Reg::A0,
                    rs2: Reg::A1,
                    off,
                });
            }
        }
    }

    #[test]
    fn round_trip_jumps() {
        for off in [-4 << 20, -4, 0, 4, (1 << 22) - 4] {
            round_trip(Inst::Jal { rd: Reg::RA, off });
        }
        round_trip(Inst::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            off: 0,
        });
        round_trip(Inst::Jalr {
            rd: Reg::RA,
            rs1: Reg::T0,
            off: -16,
        });
    }

    #[test]
    fn round_trip_system() {
        for inst in [
            Inst::Ecall,
            Inst::Ebreak,
            Inst::Sret,
            Inst::Mret,
            Inst::Wfi,
            Inst::Fence,
            Inst::FenceI,
            Inst::SfenceVma,
            Inst::Purge,
        ] {
            round_trip(inst);
        }
        for op in [CsrOp::Rw, CsrOp::Rs, CsrOp::Rc] {
            round_trip(Inst::Csr {
                op,
                rd: Reg::A0,
                rs1: Reg::A1,
                csr: 0x342,
            });
        }
    }

    #[test]
    fn imm_out_of_range_rejected() {
        let err = encode(Inst::addi(Reg::A0, Reg::A0, 40000)).unwrap_err();
        assert!(matches!(err, EncodeError::ImmOutOfRange { bits: 16, .. }));
    }

    #[test]
    fn misaligned_branch_rejected() {
        let err = encode(Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            off: 6,
        })
        .unwrap_err();
        assert!(matches!(err, EncodeError::MisalignedOffset { off: 6, .. }));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let err = encode(Inst::Branch {
            cond: BranchCond::Eq,
            rs1: Reg::A0,
            rs2: Reg::A1,
            off: 1 << 20,
        })
        .unwrap_err();
        assert!(matches!(err, EncodeError::ImmOutOfRange { .. }));
    }

    #[test]
    fn shift_too_large_rejected() {
        let err = encode(Inst::alu_imm(AluOp::Sll, Reg::A0, Reg::A0, 64)).unwrap_err();
        assert!(matches!(err, EncodeError::ShiftTooLarge { sh: 64, .. }));
        let err = encode(Inst::alu_imm(AluOp::Sra, Reg::A0, Reg::A0, -1)).unwrap_err();
        assert!(matches!(err, EncodeError::ShiftTooLarge { sh: -1, .. }));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(decode(63).is_err());
        assert!(decode(61).is_err());
    }

    #[test]
    fn all_valid_opcodes_decode() {
        let mut seen = 0;
        for opc in 0..64u32 {
            if decode(opc).is_ok() {
                seen += 1;
            }
        }
        assert_eq!(seen, 61);
    }
}
