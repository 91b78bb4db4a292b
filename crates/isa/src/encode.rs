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

// Opcode values. Grouped by format; the decoder matches on these.
// Opcodes 0..=27 belong to the `AluOp` table: its register forms are
// 0..=18 and its immediate forms 19..=27.
mod op {
    pub const MOVZ: u32 = 28;
    pub const MOVK: u32 = 29;
    pub const LB: u32 = 30;
    pub const LBU: u32 = 31;
    pub const LH: u32 = 32;
    pub const LHU: u32 = 33;
    pub const LW: u32 = 34;
    pub const LWU: u32 = 35;
    pub const LD: u32 = 36;
    pub const SB: u32 = 37;
    pub const SH: u32 = 38;
    pub const SW: u32 = 39;
    pub const SD: u32 = 40;
    pub const BEQ: u32 = 41;
    pub const BNE: u32 = 42;
    pub const BLT: u32 = 43;
    pub const BGE: u32 = 44;
    pub const BLTU: u32 = 45;
    pub const BGEU: u32 = 46;
    pub const JAL: u32 = 47;
    pub const JALR: u32 = 48;
    pub const ECALL: u32 = 49;
    pub const EBREAK: u32 = 50;
    pub const SRET: u32 = 51;
    pub const MRET: u32 = 52;
    pub const WFI: u32 = 53;
    pub const FENCE: u32 = 54;
    pub const FENCEI: u32 = 55;
    pub const SFENCE: u32 = 56;
    pub const CSRRW: u32 = 57;
    pub const CSRRS: u32 = 58;
    pub const CSRRC: u32 = 59;
    pub const PURGE: u32 = 60;
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

fn r(op: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    op | (rd.index() as u32) << 6 | (rs1.index() as u32) << 11 | (rs2.index() as u32) << 16
}

fn i_type(inst: Inst, op: u32, rd: Reg, rs1: Reg, imm: i32) -> Result<u32, EncodeError> {
    let imm16 = check_imm(inst, imm as i64, 16)?;
    Ok(op | (rd.index() as u32) << 6 | (rs1.index() as u32) << 11 | imm16 << 16)
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
    Ok(match inst {
        Alu { op, rd, rs1, rs2 } => r(op as u32, rd, rs1, rs2),
        AluImm { op, rd, rs1, imm } => {
            let form = op.imm_form().ok_or(EncodeError::NoImmediateForm { inst })?;
            if form.field == ImmField::Shamt && !(0..64).contains(&imm) {
                return Err(EncodeError::ShiftTooLarge { inst, sh: imm });
            }
            i_type(inst, form.opcode, rd, rs1, imm)?
        }
        Movz { rd, imm16, sh16 } => {
            debug_assert!(sh16 < 4);
            op::MOVZ | (rd.index() as u32) << 6 | ((sh16 & 3) as u32) << 11 | (imm16 as u32) << 16
        }
        Movk { rd, imm16, sh16 } => {
            debug_assert!(sh16 < 4);
            op::MOVK | (rd.index() as u32) << 6 | ((sh16 & 3) as u32) << 11 | (imm16 as u32) << 16
        }
        Load {
            rd,
            rs1,
            off,
            width,
            signed,
        } => {
            let o = match (width, signed) {
                (MemWidth::B, true) => op::LB,
                (MemWidth::B, false) => op::LBU,
                (MemWidth::H, true) => op::LH,
                (MemWidth::H, false) => op::LHU,
                (MemWidth::W, true) => op::LW,
                (MemWidth::W, false) => op::LWU,
                (MemWidth::D, _) => op::LD,
            };
            i_type(inst, o, rd, rs1, off)?
        }
        Store {
            rs2,
            rs1,
            off,
            width,
        } => {
            let o = match width {
                MemWidth::B => op::SB,
                MemWidth::H => op::SH,
                MemWidth::W => op::SW,
                MemWidth::D => op::SD,
            };
            i_type(inst, o, rs2, rs1, off)?
        }
        Branch {
            cond,
            rs1,
            rs2,
            off,
        } => {
            let o = match cond {
                BranchCond::Eq => op::BEQ,
                BranchCond::Ne => op::BNE,
                BranchCond::Lt => op::BLT,
                BranchCond::Ge => op::BGE,
                BranchCond::Ltu => op::BLTU,
                BranchCond::Geu => op::BGEU,
            };
            let w = check_word_off(inst, off, 16)?;
            o | (rs1.index() as u32) << 6 | (rs2.index() as u32) << 11 | w << 16
        }
        Jal { rd, off } => {
            let w = check_word_off(inst, off, 21)?;
            op::JAL | (rd.index() as u32) << 6 | w << 11
        }
        Jalr { rd, rs1, off } => i_type(inst, op::JALR, rd, rs1, off)?,
        Ecall => op::ECALL,
        Ebreak => op::EBREAK,
        Sret => op::SRET,
        Mret => op::MRET,
        Wfi => op::WFI,
        Fence => op::FENCE,
        FenceI => op::FENCEI,
        SfenceVma => op::SFENCE,
        Csr {
            op: csr_op,
            rd,
            rs1,
            csr,
        } => {
            if csr >= 1 << 12 {
                return Err(EncodeError::CsrOutOfRange { csr });
            }
            let o = match csr_op {
                CsrOp::Rw => op::CSRRW,
                CsrOp::Rs => op::CSRRS,
                CsrOp::Rc => op::CSRRC,
            };
            o | (rd.index() as u32) << 6 | (rs1.index() as u32) << 11 | (csr as u32) << 16
        }
        Purge => op::PURGE,
    })
}

fn sext(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn field_rd(word: u32) -> Reg {
    Reg::new(((word >> 6) & 0x1f) as u8)
}

fn field_rs1(word: u32) -> Reg {
    Reg::new(((word >> 11) & 0x1f) as u8)
}

fn field_rs2(word: u32) -> Reg {
    Reg::new(((word >> 16) & 0x1f) as u8)
}

fn field_imm16(word: u32) -> i32 {
    sext(word >> 16, 16)
}

/// Decodes a 32-bit word into an instruction.
///
/// # Errors
///
/// Returns [`DecodeError`] when the opcode is unassigned.
pub fn decode(word: u32) -> Result<Inst, DecodeError> {
    let opcode = word & 0x3f;
    let rd = field_rd(word);
    let rs1 = field_rs1(word);
    let imm = field_imm16(word);
    if let Some(&op) = AluOp::ALL.get(opcode as usize) {
        let rs2 = field_rs2(word);
        return Ok(Inst::Alu { op, rd, rs1, rs2 });
    }
    if let Some(op) = AluOp::from_imm_opcode(opcode) {
        let imm = match op.imm_form().map(|form| form.field) {
            Some(ImmField::Shamt) => ((word >> 16) & 0x3f) as i32,
            _ => imm,
        };
        return Ok(Inst::AluImm { op, rd, rs1, imm });
    }
    Ok(match opcode {
        op::MOVZ => Inst::Movz {
            rd,
            imm16: (word >> 16) as u16,
            sh16: ((word >> 11) & 3) as u8,
        },
        op::MOVK => Inst::Movk {
            rd,
            imm16: (word >> 16) as u16,
            sh16: ((word >> 11) & 3) as u8,
        },
        op::LB => load(rd, rs1, imm, MemWidth::B, true),
        op::LBU => load(rd, rs1, imm, MemWidth::B, false),
        op::LH => load(rd, rs1, imm, MemWidth::H, true),
        op::LHU => load(rd, rs1, imm, MemWidth::H, false),
        op::LW => load(rd, rs1, imm, MemWidth::W, true),
        op::LWU => load(rd, rs1, imm, MemWidth::W, false),
        op::LD => load(rd, rs1, imm, MemWidth::D, true),
        op::SB => store(rd, rs1, imm, MemWidth::B),
        op::SH => store(rd, rs1, imm, MemWidth::H),
        op::SW => store(rd, rs1, imm, MemWidth::W),
        op::SD => store(rd, rs1, imm, MemWidth::D),
        op::BEQ => branch(BranchCond::Eq, word),
        op::BNE => branch(BranchCond::Ne, word),
        op::BLT => branch(BranchCond::Lt, word),
        op::BGE => branch(BranchCond::Ge, word),
        op::BLTU => branch(BranchCond::Ltu, word),
        op::BGEU => branch(BranchCond::Geu, word),
        op::JAL => Inst::Jal {
            rd,
            off: sext(word >> 11, 21) * 4,
        },
        op::JALR => Inst::Jalr { rd, rs1, off: imm },
        op::ECALL => Inst::Ecall,
        op::EBREAK => Inst::Ebreak,
        op::SRET => Inst::Sret,
        op::MRET => Inst::Mret,
        op::WFI => Inst::Wfi,
        op::FENCE => Inst::Fence,
        op::FENCEI => Inst::FenceI,
        op::SFENCE => Inst::SfenceVma,
        op::CSRRW => csr_inst(CsrOp::Rw, word),
        op::CSRRS => csr_inst(CsrOp::Rs, word),
        op::CSRRC => csr_inst(CsrOp::Rc, word),
        op::PURGE => Inst::Purge,
        _ => return Err(DecodeError { word }),
    })
}

fn load(rd: Reg, rs1: Reg, off: i32, width: MemWidth, signed: bool) -> Inst {
    Inst::Load {
        rd,
        rs1,
        off,
        width,
        signed,
    }
}

fn store(rs2: Reg, rs1: Reg, off: i32, width: MemWidth) -> Inst {
    Inst::Store {
        rs2,
        rs1,
        off,
        width,
    }
}

fn branch(cond: BranchCond, word: u32) -> Inst {
    Inst::Branch {
        cond,
        rs1: field_rd(word),
        rs2: field_rs1(word),
        off: field_imm16(word) * 4,
    }
}

fn csr_inst(op: CsrOp, word: u32) -> Inst {
    Inst::Csr {
        op,
        rd: field_rd(word),
        rs1: field_rs1(word),
        csr: ((word >> 16) & 0xfff) as u16,
    }
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
