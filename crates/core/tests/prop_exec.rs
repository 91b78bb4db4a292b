//! Property tests: the functional execution semantics match independent
//! reference implementations.
//!
//! Dependency-free property testing: each property is checked over a
//! deterministic stream of pseudo-random inputs (splitmix64) plus the
//! classic boundary values, which is where these semantics actually break.

use mi6_core::exec;
use mi6_isa::{AluOp, Inst, MemWidth, Reg};

const CASES: usize = 2_000;

/// Interesting boundary values checked in every pairwise property.
const EDGES: &[u64] = &[
    0,
    1,
    2,
    u64::MAX,
    u64::MAX - 1,
    i64::MAX as u64,
    i64::MIN as u64,
    0x8000_0000,
    0x7fff_ffff,
    0xffff_ffff,
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Drives `check` over every pair of edge values plus `CASES` random pairs.
fn for_pairs(seed: u64, mut check: impl FnMut(u64, u64)) {
    for &a in EDGES {
        for &b in EDGES {
            check(a, b);
        }
    }
    let mut rng = SplitMix64(seed);
    for _ in 0..CASES {
        check(rng.next_u64(), rng.next_u64());
    }
}

fn r3(op: AluOp) -> Inst {
    Inst::alu(op, Reg::A0, Reg::A1, Reg::A2)
}

#[test]
fn div_rem_identity() {
    // RISC-V guarantees: a == div(a,b)*b + rem(a,b) for all inputs
    // (including b == 0 and the signed-overflow case).
    for_pairs(1, |a, b| {
        let d = exec::eval(&r3(AluOp::Div), a, b, 0);
        let r = exec::eval(&r3(AluOp::Rem), a, b, 0);
        assert_eq!(d.wrapping_mul(b).wrapping_add(r), a, "signed a={a} b={b}");
        let du = exec::eval(&r3(AluOp::Divu), a, b, 0);
        let ru = exec::eval(&r3(AluOp::Remu), a, b, 0);
        assert_eq!(
            du.wrapping_mul(b).wrapping_add(ru),
            a,
            "unsigned a={a} b={b}"
        );
    });
}

#[test]
fn mulh_matches_i128() {
    for_pairs(2, |a, b| {
        let got = exec::eval(&r3(AluOp::Mulh), a, b, 0);
        let want = (((a as i64 as i128) * (b as i64 as i128)) >> 64) as u64;
        assert_eq!(got, want, "a={a} b={b}");
    });
}

#[test]
fn movz_movk_compose_any_constant() {
    for_pairs(3, |value, _| {
        // Building a value with movz + 3 movk always reproduces it.
        let mut reg = exec::eval(
            &Inst::Movz {
                rd: Reg::A0,
                imm16: value as u16,
                sh16: 0,
            },
            0,
            0,
            0,
        );
        for sh16 in 1..4u8 {
            reg = exec::eval(
                &Inst::Movk {
                    rd: Reg::A0,
                    imm16: (value >> (16 * sh16)) as u16,
                    sh16,
                },
                reg,
                0,
                0,
            );
        }
        assert_eq!(reg, value);
    });
}

#[test]
fn load_extension_idempotent() {
    for_pairs(4, |raw, sel| {
        let signed = sel & 1 != 0;
        for width in [MemWidth::B, MemWidth::H, MemWidth::W, MemWidth::D] {
            let inst = Inst::Load {
                rd: Reg::A0,
                rs1: Reg::A1,
                off: 0,
                width,
                signed,
            };
            let once = exec::extend_load(&inst, raw);
            let twice = exec::extend_load(&inst, once);
            assert_eq!(once, twice, "width {width:?} raw {raw:#x}");
        }
    });
}

#[test]
fn shifts_match_reference() {
    for_pairs(5, |a, sel| {
        let sh = (sel % 64) as i32;
        let sll = exec::eval(&Inst::alu_imm(AluOp::Sll, Reg::A0, Reg::A1, sh), a, 0, 0);
        assert_eq!(sll, a << sh);
        let srl = exec::eval(&Inst::alu_imm(AluOp::Srl, Reg::A0, Reg::A1, sh), a, 0, 0);
        assert_eq!(srl, a >> sh);
        let sra = exec::eval(&Inst::alu_imm(AluOp::Sra, Reg::A0, Reg::A1, sh), a, 0, 0);
        assert_eq!(sra, ((a as i64) >> sh) as u64);
    });
}
