//! Instruction definitions.
//!
//! Every instruction the MI6 cores execute is a variant of [`Inst`]. The set
//! covers the integer RV64-style operations the SPEC-shaped workloads need
//! (ALU, mul/div, loads/stores, branches, jumps), the privileged instructions
//! required by the untrusted OS and the security monitor (`ecall`, `sret`,
//! `mret`, CSR accesses, fences), a small floating-point group that exercises
//! the FP/MUL/DIV pipeline, and the MI6 paper's new [`Inst::Purge`]
//! instruction. The computational operations share two variants,
//! [`Inst::Alu`] and [`Inst::AluImm`], over one [`AluOp`] table.

use crate::reg::Reg;
use std::fmt;

/// Memory access width for loads and stores.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MemWidth {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    D,
}

impl MemWidth {
    /// Access size in bytes.
    pub const fn bytes(self) -> u64 {
        match self {
            MemWidth::B => 1,
            MemWidth::H => 2,
            MemWidth::W => 4,
            MemWidth::D => 8,
        }
    }

    /// All widths, smallest first.
    pub const ALL: [MemWidth; 4] = [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D];
}

/// Branch comparison condition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// `rs1 == rs2`
    Eq,
    /// `rs1 != rs2`
    Ne,
    /// signed `rs1 < rs2`
    Lt,
    /// signed `rs1 >= rs2`
    Ge,
    /// unsigned `rs1 < rs2`
    Ltu,
    /// unsigned `rs1 >= rs2`
    Geu,
}

impl BranchCond {
    /// Evaluates the condition on two register values.
    ///
    /// ```
    /// use mi6_isa::BranchCond;
    /// assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0 signed
    /// assert!(!BranchCond::Ltu.eval(u64::MAX, 0));
    /// ```
    pub fn eval(self, a: u64, b: u64) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i64) < (b as i64),
            BranchCond::Ge => (a as i64) >= (b as i64),
            BranchCond::Ltu => a < b,
            BranchCond::Geu => a >= b,
        }
    }

    /// All conditions.
    pub const ALL: [BranchCond; 6] = [
        BranchCond::Eq,
        BranchCond::Ne,
        BranchCond::Lt,
        BranchCond::Ge,
        BranchCond::Ltu,
        BranchCond::Geu,
    ];
}

/// The unit that executes an [`AluOp`]; the core sets each unit's latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecUnit {
    /// The single-cycle integer ALU pipes.
    Alu,
    /// The FP/MUL/DIV pipe's multiplier (pipelined).
    Mul,
    /// The FP/MUL/DIV pipe's integer divider (not pipelined).
    Div,
    /// The FP/MUL/DIV pipe's floating-point adder and multiplier (pipelined).
    Fp,
    /// The FP/MUL/DIV pipe's floating-point divider (not pipelined).
    Fdiv,
}

/// How an immediate form holds its immediate in bits `[31:16]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImmField {
    /// A signed 16-bit value, sign-extended to 64 bits.
    Simm16,
    /// A shift amount in `0..64`, in bits `[21:16]`.
    Shamt,
}

/// The register-immediate form of an [`AluOp`] ([`Inst::AluImm`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ImmForm {
    /// The form's opcode.
    pub opcode: u32,
    /// The form's mnemonic.
    pub mnemonic: &'static str,
    /// How the form encodes its immediate.
    pub field: ImmField,
}

/// Declares [`AluOp`] from one table with a row per operation: its doc,
/// mnemonic, [`ExecUnit`], optional immediate form and semantics. The
/// register-form opcode is the row's index, so the row order is part of
/// the instruction encoding, which snapshots store.
macro_rules! alu_ops {
    ($(
        $(#[$doc:meta])*
        $op:ident $mnemonic:literal, $unit:ident
        $(, $field:ident $imm_opcode:literal $imm_mnemonic:literal)?
        => |$a:ident, $b:ident| $eval:expr;
    )+) => {
        /// A computational operation: the `op` of [`Inst::Alu`] and
        /// [`Inst::AluImm`].
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum AluOp {
            $($(#[$doc])* $op,)+
        }

        impl AluOp {
            /// All operations in opcode order: the register form of `ALL[i]`
            /// has opcode `i`.
            pub const ALL: [AluOp; [$(AluOp::$op),+].len()] = [$(AluOp::$op),+];

            /// The register form's mnemonic.
            pub(crate) const fn mnemonic(self) -> &'static str {
                match self {
                    $(AluOp::$op => $mnemonic,)+
                }
            }

            /// The unit that executes this operation.
            pub const fn unit(self) -> ExecUnit {
                match self {
                    $(AluOp::$op => ExecUnit::$unit,)+
                }
            }

            /// The register-immediate form, if the operation has one.
            pub const fn imm_form(self) -> Option<ImmForm> {
                match self {
                    $($(AluOp::$op => Some(ImmForm {
                        opcode: $imm_opcode,
                        mnemonic: $imm_mnemonic,
                        field: ImmField::$field,
                    }),)?)+
                    _ => None,
                }
            }

            /// The operation whose immediate form has `opcode`.
            pub(crate) const fn from_imm_opcode(opcode: u32) -> Option<AluOp> {
                match opcode {
                    $($($imm_opcode => Some(AluOp::$op),)?)+
                    _ => None,
                }
            }

            /// Computes `a op b`: `b` is `rs2`'s value, or the immediate
            /// sign-extended to 64 bits.
            ///
            /// ```
            /// use mi6_isa::AluOp;
            /// assert_eq!(AluOp::Sub.eval(5, 7), u64::MAX - 1);
            /// assert_eq!(AluOp::Div.eval(7, 0), u64::MAX); // RISC-V: x / 0 = -1
            /// ```
            pub fn eval(self, a: u64, b: u64) -> u64 {
                match self {
                    $(AluOp::$op => {
                        let ($a, $b) = (a, b);
                        $eval
                    })+
                }
            }
        }
    };
}

alu_ops! {
    /// `rd = rs1 + rs2`
    Add "add", Alu, Simm16 19 "addi" => |a, b| a.wrapping_add(b);
    /// `rd = rs1 - rs2`
    Sub "sub", Alu => |a, b| a.wrapping_sub(b);
    /// `rd = rs1 & rs2`
    And "and", Alu, Simm16 20 "andi" => |a, b| a & b;
    /// `rd = rs1 | rs2`
    Or "or", Alu, Simm16 21 "ori" => |a, b| a | b;
    /// `rd = rs1 ^ rs2`
    Xor "xor", Alu, Simm16 22 "xori" => |a, b| a ^ b;
    /// `rd = rs1 << (rs2 & 63)`
    Sll "sll", Alu, Shamt 25 "slli" => |a, b| a << (b & 63);
    /// `rd = rs1 >> (rs2 & 63)` (logical)
    Srl "srl", Alu, Shamt 26 "srli" => |a, b| a >> (b & 63);
    /// `rd = rs1 >> (rs2 & 63)` (arithmetic)
    Sra "sra", Alu, Shamt 27 "srai" => |a, b| ((a as i64) >> (b & 63)) as u64;
    /// `rd = (rs1 <s rs2) ? 1 : 0`
    Slt "slt", Alu, Simm16 23 "slti" => |a, b| ((a as i64) < (b as i64)) as u64;
    /// `rd = (rs1 <u rs2) ? 1 : 0`
    Sltu "sltu", Alu, Simm16 24 "sltiu" => |a, b| (a < b) as u64;
    /// `rd = rs1 * rs2` (low 64 bits)
    Mul "mul", Mul => |a, b| a.wrapping_mul(b);
    /// `rd = (rs1 * rs2) >> 64` (signed high)
    Mulh "mulh", Mul => |a, b| (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64;
    /// signed division (RISC-V semantics: x/0 = -1, overflow wraps)
    Div "div", Div => |a, b| match b {
        0 => u64::MAX,
        _ => (a as i64).wrapping_div(b as i64) as u64,
    };
    /// unsigned division (x/0 = all ones)
    Divu "divu", Div => |a, b| a.checked_div(b).unwrap_or(u64::MAX);
    /// signed remainder (x%0 = x, overflow gives 0)
    Rem "rem", Div => |a, b| match b {
        0 => a,
        _ => (a as i64).wrapping_rem(b as i64) as u64,
    };
    /// unsigned remainder (x%0 = x)
    Remu "remu", Div => |a, b| a.checked_rem(b).unwrap_or(a);
    /// `rd = f64(rs1) + f64(rs2)` as bit patterns
    Fadd "fadd", Fp => |a, b| (f64::from_bits(a) + f64::from_bits(b)).to_bits();
    /// `rd = f64(rs1) * f64(rs2)` as bit patterns
    Fmul "fmul", Fp => |a, b| (f64::from_bits(a) * f64::from_bits(b)).to_bits();
    /// `rd = f64(rs1) / f64(rs2)` as bit patterns
    Fdiv "fdiv", Fdiv => |a, b| (f64::from_bits(a) / f64::from_bits(b)).to_bits();
}

/// CSR access operation (read-write / read-set / read-clear).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CsrOp {
    /// Atomic swap: `rd = csr; csr = rs1`.
    Rw,
    /// Read and set bits: `rd = csr; csr |= rs1`.
    Rs,
    /// Read and clear bits: `rd = csr; csr &= !rs1`.
    Rc,
}

/// A decoded instruction.
///
/// Offsets in control-flow instructions are byte offsets relative to the
/// instruction's own PC and must be multiples of 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Inst {
    // ---- computational (ALU, mul/div and FP; one `AluOp` each) ----
    /// `rd = rs1 op rs2`
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// `rd = rs1 op imm`, for an `op` with an [`AluOp::imm_form`]; `addi
    /// x0, x0, 0` is the canonical NOP.
    AluImm {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },

    // ---- wide-constant construction (ARM-style move wide) ----
    /// `rd = imm16 << (sh16 * 16)` (other bits zeroed)
    Movz { rd: Reg, imm16: u16, sh16: u8 },
    /// keep other bits, replace 16-bit field: `rd = (rd & !mask) | imm16 << (sh16*16)`
    Movk { rd: Reg, imm16: u16, sh16: u8 },

    // ---- memory ----
    /// Load `width` bytes from `rs1 + off` into `rd`.
    Load {
        rd: Reg,
        rs1: Reg,
        off: i32,
        width: MemWidth,
        /// Sign-extend the loaded value when true.
        signed: bool,
    },
    /// Store the low `width` bytes of `rs2` to `rs1 + off`.
    Store {
        rs2: Reg,
        rs1: Reg,
        off: i32,
        width: MemWidth,
    },

    // ---- control flow ----
    /// Conditional branch to `pc + off`.
    Branch {
        cond: BranchCond,
        rs1: Reg,
        rs2: Reg,
        off: i32,
    },
    /// `rd = pc + 4; pc += off`
    Jal { rd: Reg, off: i32 },
    /// `rd = pc + 4; pc = (rs1 + off) & !1`
    Jalr { rd: Reg, rs1: Reg, off: i32 },

    // ---- system ----
    /// Environment call (syscall / monitor call depending on privilege).
    Ecall,
    /// Breakpoint.
    Ebreak,
    /// Return from supervisor trap.
    Sret,
    /// Return from machine trap.
    Mret,
    /// Wait for interrupt.
    Wfi,
    /// Memory fence (orders the store buffer).
    Fence,
    /// Instruction fence (synchronizes I-cache with stores).
    FenceI,
    /// Supervisor fence: flush TLBs and translation caches.
    SfenceVma,
    /// CSR access.
    Csr {
        op: CsrOp,
        rd: Reg,
        rs1: Reg,
        csr: u16,
    },
    /// MI6's microarchitectural purge (paper Section 6.1): scrub all per-core
    /// microarchitectural state (L1 caches, TLBs, translation caches, branch
    /// predictors, in-flight bookkeeping). Machine-mode only.
    Purge,
}

impl Inst {
    /// Canonical no-op.
    pub const NOP: Inst = Inst::addi(Reg::ZERO, Reg::ZERO, 0);

    /// Convenience constructor for [`Inst::Alu`].
    pub const fn alu(op: AluOp, rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::Alu { op, rd, rs1, rs2 }
    }

    /// Convenience constructor for [`Inst::AluImm`].
    pub const fn alu_imm(op: AluOp, rd: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst::AluImm { op, rd, rs1, imm }
    }

    /// Convenience constructor for `add`.
    pub const fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Inst {
        Inst::alu(AluOp::Add, rd, rs1, rs2)
    }

    /// Convenience constructor for `addi`.
    pub const fn addi(rd: Reg, rs1: Reg, imm: i32) -> Inst {
        Inst::alu_imm(AluOp::Add, rd, rs1, imm)
    }

    /// Convenience constructor for a 64-bit (`D`) load.
    pub const fn ld(rd: Reg, rs1: Reg, off: i32) -> Inst {
        Inst::Load {
            rd,
            rs1,
            off,
            width: MemWidth::D,
            signed: true,
        }
    }

    /// Convenience constructor for a 64-bit (`D`) store.
    pub const fn sd(rs2: Reg, rs1: Reg, off: i32) -> Inst {
        Inst::Store {
            rs2,
            rs1,
            off,
            width: MemWidth::D,
        }
    }

    /// True for conditional branches only.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// True for loads and stores.
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// True for loads.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// True for stores.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// True for instructions executed on the FP/MUL/DIV pipeline.
    pub fn is_muldiv_fp(&self) -> bool {
        matches!(self, Inst::Alu { op, .. } if op.unit() != ExecUnit::Alu)
    }

    /// True for system instructions that serialize the pipeline (traps,
    /// returns, CSR accesses, fences, purge).
    pub fn is_system(&self) -> bool {
        matches!(
            self,
            Inst::Ecall
                | Inst::Ebreak
                | Inst::Sret
                | Inst::Mret
                | Inst::Wfi
                | Inst::Fence
                | Inst::FenceI
                | Inst::SfenceVma
                | Inst::Csr { .. }
                | Inst::Purge
        )
    }

    /// The destination register written by this instruction, if any.
    /// `Reg::ZERO` destinations are reported as `None` (writes to x0 are
    /// discarded architecturally).
    pub fn dest(&self) -> Option<Reg> {
        let rd = match *self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Movz { rd, .. }
            | Inst::Movk { rd, .. }
            | Inst::Load { rd, .. }
            | Inst::Jal { rd, .. }
            | Inst::Jalr { rd, .. }
            | Inst::Csr { rd, .. } => rd,
            _ => return None,
        };
        if rd.is_zero() {
            None
        } else {
            Some(rd)
        }
    }

    /// Source registers read by this instruction (up to two; `Reg::ZERO`
    /// sources are kept — reading x0 is free but uniform handling is simpler).
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        match *self {
            Inst::Alu { rs1, rs2, .. } | Inst::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Inst::AluImm { rs1, .. }
            | Inst::Load { rs1, .. }
            | Inst::Jalr { rs1, .. }
            | Inst::Csr { rs1, .. } => (Some(rs1), None),
            Inst::Store { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Inst::Movk { rd, .. } => (Some(rd), None),
            Inst::Movz { .. }
            | Inst::Jal { .. }
            | Inst::Ecall
            | Inst::Ebreak
            | Inst::Sret
            | Inst::Mret
            | Inst::Wfi
            | Inst::Fence
            | Inst::FenceI
            | Inst::SfenceVma
            | Inst::Purge => (None, None),
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Inst::AluImm { op, rd, rs1, imm } => match op.imm_form() {
                Some(form) => write!(f, "{} {rd}, {rs1}, {imm}", form.mnemonic),
                // Not encodable: `encode` rejects it.
                None => write!(f, "{}i {rd}, {rs1}, {imm}", op.mnemonic()),
            },
            Inst::Movz { rd, imm16, sh16 } => write!(f, "movz {rd}, {imm16:#x}, lsl {}", sh16 * 16),
            Inst::Movk { rd, imm16, sh16 } => write!(f, "movk {rd}, {imm16:#x}, lsl {}", sh16 * 16),
            Inst::Load {
                rd,
                rs1,
                off,
                width,
                signed,
            } => {
                let u = if signed { "" } else { "u" };
                let w = match width {
                    MemWidth::B => "b",
                    MemWidth::H => "h",
                    MemWidth::W => "w",
                    MemWidth::D => "d",
                };
                write!(f, "l{w}{u} {rd}, {off}({rs1})")
            }
            Inst::Store {
                rs2,
                rs1,
                off,
                width,
            } => {
                let w = match width {
                    MemWidth::B => "b",
                    MemWidth::H => "h",
                    MemWidth::W => "w",
                    MemWidth::D => "d",
                };
                write!(f, "s{w} {rs2}, {off}({rs1})")
            }
            Inst::Branch {
                cond,
                rs1,
                rs2,
                off,
            } => {
                let c = match cond {
                    BranchCond::Eq => "beq",
                    BranchCond::Ne => "bne",
                    BranchCond::Lt => "blt",
                    BranchCond::Ge => "bge",
                    BranchCond::Ltu => "bltu",
                    BranchCond::Geu => "bgeu",
                };
                write!(f, "{c} {rs1}, {rs2}, {off}")
            }
            Inst::Jal { rd, off } => write!(f, "jal {rd}, {off}"),
            Inst::Jalr { rd, rs1, off } => write!(f, "jalr {rd}, {off}({rs1})"),
            Inst::Ecall => f.write_str("ecall"),
            Inst::Ebreak => f.write_str("ebreak"),
            Inst::Sret => f.write_str("sret"),
            Inst::Mret => f.write_str("mret"),
            Inst::Wfi => f.write_str("wfi"),
            Inst::Fence => f.write_str("fence"),
            Inst::FenceI => f.write_str("fence.i"),
            Inst::SfenceVma => f.write_str("sfence.vma"),
            Inst::Csr { op, rd, rs1, csr } => {
                let o = match op {
                    CsrOp::Rw => "csrrw",
                    CsrOp::Rs => "csrrs",
                    CsrOp::Rc => "csrrc",
                };
                write!(f, "{o} {rd}, {csr:#x}, {rs1}")
            }
            Inst::Purge => f.write_str("purge"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_has_no_dest() {
        assert_eq!(Inst::NOP.dest(), None);
        assert!(!Inst::NOP.is_mem());
    }

    #[test]
    fn dest_skips_x0() {
        let i = Inst::add(Reg::ZERO, Reg::A0, Reg::A1);
        assert_eq!(i.dest(), None);
        let i = Inst::add(Reg::A0, Reg::A1, Reg::A2);
        assert_eq!(i.dest(), Some(Reg::A0));
    }

    #[test]
    fn classification() {
        assert!(Inst::ld(Reg::A0, Reg::SP, 0).is_load());
        assert!(Inst::sd(Reg::A0, Reg::SP, 0).is_store());
        assert!(Inst::Purge.is_system());
        assert!(Inst::alu(AluOp::Mul, Reg::A0, Reg::A1, Reg::A2).is_muldiv_fp());
    }

    #[test]
    fn branch_cond_eval_signed_unsigned() {
        assert!(BranchCond::Eq.eval(3, 3));
        assert!(BranchCond::Ne.eval(3, 4));
        assert!(BranchCond::Ge.eval(0, u64::MAX)); // 0 >= -1 signed
        assert!(BranchCond::Geu.eval(u64::MAX, 0));
        assert!(!BranchCond::Geu.eval(0, 1));
    }

    #[test]
    fn movk_reads_its_own_dest() {
        let i = Inst::Movk {
            rd: Reg::A0,
            imm16: 7,
            sh16: 1,
        };
        assert_eq!(i.sources().0, Some(Reg::A0));
    }

    #[test]
    fn store_sources() {
        let i = Inst::sd(Reg::A1, Reg::SP, 16);
        let (s1, s2) = i.sources();
        assert_eq!(s1, Some(Reg::SP));
        assert_eq!(s2, Some(Reg::A1));
    }

    #[test]
    fn display_smoke() {
        assert_eq!(
            Inst::add(Reg::A0, Reg::A1, Reg::A2).to_string(),
            "add a0, a1, a2"
        );
        assert_eq!(Inst::ld(Reg::A0, Reg::SP, 8).to_string(), "ld a0, 8(sp)");
        assert_eq!(Inst::Purge.to_string(), "purge");
    }
}
