//! Functional execution semantics for computational instructions.
//!
//! Pure functions: the timing pipeline decides *when* these run, this
//! module decides *what* they produce. Computational operations evaluate
//! through [`AluOp::eval`](mi6_isa::AluOp::eval), which follows RISC-V
//! division semantics (x/0 = all ones, signed overflow wraps) and
//! operates on f64 bit patterns held in integer registers.

use mi6_isa::Inst;

/// Computes the result of a register-writing computational instruction.
///
/// `a` and `b` are the values of the first and second source registers
/// (zero where the instruction has fewer sources); `pc` is the
/// instruction's address (used by `jal`/`jalr` link results).
///
/// # Panics
///
/// Panics if called on a non-computational instruction (loads, stores,
/// system instructions) — the pipeline routes those elsewhere.
pub fn eval(inst: &Inst, a: u64, b: u64, pc: u64) -> u64 {
    match *inst {
        Inst::Alu { op, .. } => op.eval(a, b),
        Inst::AluImm { op, imm, .. } => op.eval(a, imm as i64 as u64),
        Inst::Movz { imm16, sh16, .. } => (imm16 as u64) << (sh16 * 16),
        Inst::Movk { imm16, sh16, .. } => {
            let sh = sh16 * 16;
            (a & !(0xffffu64 << sh)) | ((imm16 as u64) << sh)
        }
        Inst::Jal { .. } | Inst::Jalr { .. } => pc.wrapping_add(4),
        ref other => panic!("eval called on non-computational instruction `{other}`"),
    }
}

/// The effective byte address of a load or store.
///
/// # Panics
///
/// Panics on non-memory instructions.
pub fn effective_address(inst: &Inst, base: u64) -> u64 {
    match *inst {
        Inst::Load { off, .. } | Inst::Store { off, .. } => base.wrapping_add(off as i64 as u64),
        ref other => panic!("effective_address on `{other}`"),
    }
}

/// Applies width and signedness to a raw loaded value.
pub fn extend_load(inst: &Inst, raw: u64) -> u64 {
    match *inst {
        Inst::Load { width, signed, .. } => {
            let bits = width.bytes() * 8;
            if bits == 64 {
                raw
            } else {
                let masked = raw & ((1u64 << bits) - 1);
                if signed && (masked >> (bits - 1)) & 1 == 1 {
                    masked | !((1u64 << bits) - 1)
                } else {
                    masked
                }
            }
        }
        ref other => panic!("extend_load on `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mi6_isa::{AluOp, MemWidth, Reg};

    fn r3(op: AluOp) -> Inst {
        Inst::alu(op, Reg::A0, Reg::A1, Reg::A2)
    }

    #[test]
    fn alu_basics() {
        assert_eq!(eval(&r3(AluOp::Add), 5, 7, 0), 12);
        assert_eq!(eval(&r3(AluOp::Sub), 5, 7, 0), u64::MAX - 1);
        assert_eq!(eval(&r3(AluOp::Sra), u64::MAX, 4, 0), u64::MAX);
        assert_eq!(eval(&r3(AluOp::Srl), u64::MAX, 63, 0), 1);
        assert_eq!(eval(&r3(AluOp::Slt), u64::MAX, 0, 0), 1);
        assert_eq!(eval(&r3(AluOp::Sltu), u64::MAX, 0, 0), 0);
    }

    #[test]
    fn riscv_division_semantics() {
        assert_eq!(eval(&r3(AluOp::Div), 7, 0, 0), u64::MAX);
        assert_eq!(eval(&r3(AluOp::Rem), 7, 0, 0), 7);
        // overflow: i64::MIN / -1 wraps to i64::MIN, remainder 0
        let min = i64::MIN as u64;
        assert_eq!(eval(&r3(AluOp::Div), min, u64::MAX, 0), min);
        assert_eq!(eval(&r3(AluOp::Rem), min, u64::MAX, 0), 0);
        assert_eq!(eval(&r3(AluOp::Divu), 7, 2, 0), 3);
    }

    #[test]
    fn mulh_signed_high_bits() {
        let a = i64::MAX as u64;
        let b = i64::MAX as u64;
        let expect = (((i64::MAX as i128) * (i64::MAX as i128)) >> 64) as u64;
        assert_eq!(eval(&r3(AluOp::Mulh), a, b, 0), expect);
    }

    #[test]
    fn fp_on_bit_patterns() {
        let a = 1.5f64.to_bits();
        let b = 2.0f64.to_bits();
        assert_eq!(f64::from_bits(eval(&r3(AluOp::Fmul), a, b, 0)), 3.0);
        assert_eq!(f64::from_bits(eval(&r3(AluOp::Fdiv), a, b, 0)), 0.75);
    }

    #[test]
    fn wide_moves() {
        let movz = Inst::Movz {
            rd: Reg::A0,
            imm16: 0xbeef,
            sh16: 2,
        };
        assert_eq!(eval(&movz, 0xffff_ffff, 0, 0), 0xbeef_0000_0000);
        let movk = Inst::Movk {
            rd: Reg::A0,
            imm16: 0x1234,
            sh16: 0,
        };
        assert_eq!(
            eval(&movk, 0xdead_0000_0000_beef, 0, 0),
            0xdead_0000_0000_1234
        );
    }

    #[test]
    fn link_result() {
        assert_eq!(
            eval(
                &Inst::Jal {
                    rd: Reg::RA,
                    off: 64
                },
                0,
                0,
                0x1000
            ),
            0x1004
        );
    }

    #[test]
    fn effective_address_wraps() {
        let ld = Inst::ld(Reg::A0, Reg::A1, -8);
        assert_eq!(effective_address(&ld, 0x1000), 0xff8);
    }

    #[test]
    fn load_extension() {
        let lb = Inst::Load {
            rd: Reg::A0,
            rs1: Reg::A1,
            off: 0,
            width: MemWidth::B,
            signed: true,
        };
        assert_eq!(extend_load(&lb, 0x80), 0xffff_ffff_ffff_ff80);
        let lbu = Inst::Load {
            rd: Reg::A0,
            rs1: Reg::A1,
            off: 0,
            width: MemWidth::B,
            signed: false,
        };
        assert_eq!(extend_load(&lbu, 0x180), 0x80);
        let lw = Inst::Load {
            rd: Reg::A0,
            rs1: Reg::A1,
            off: 0,
            width: MemWidth::W,
            signed: true,
        };
        assert_eq!(extend_load(&lw, 0x8000_0000), 0xffff_ffff_8000_0000);
        let ld = Inst::ld(Reg::A0, Reg::A1, 0);
        assert_eq!(extend_load(&ld, u64::MAX), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "non-computational")]
    fn eval_rejects_loads() {
        let _ = eval(&Inst::ld(Reg::A0, Reg::A1, 0), 0, 0, 0);
    }
}
