//! Lowers a [`Profile`] to an assembled user [`Program`].
//!
//! The generated program is one big measurement loop whose body mixes the
//! behaviours the profile asks for:
//!
//! 1. a sequential **streaming** sweep (libquantum-style),
//! 2. a **pointer chase** through a randomly-permuted linked list
//!    (mcf/omnetpp-style; every hop is a data-dependent load),
//! 3. **random accesses** into a working set via an in-register xorshift
//!    (gcc-style capacity/conflict pressure; odd sites store, producing
//!    dirty lines and writebacks),
//! 4. `branch_sites` distinct **data-dependent branch** sites (astar/
//!    gobmk-style predictor and BTB footprint),
//! 5. independent **ILP** ALU operations (h264ref-style),
//! 6. **multiply/divide** work (bzip2/hmmer-style),
//! 7. an optional periodic **syscall** (xalancbmk-style).
//!
//! All sizes must be powers of two (wrap-around uses AND masks).

use crate::profile::{BranchStyle, Profile, WorkloadParams};
use mi6_isa::{AluOp, Assembler, Inst, Reg};
use mi6_soc::kernel;
use mi6_soc::loader::{Program, CODE_VA, DATA_VA};

/// A small deterministic PRNG (splitmix64) so workload generation needs no
/// external crates and a given seed always produces the same data layout.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Register allocation for generated code (documented for readers of the
/// disassembly).
mod regs {
    use mi6_isa::Reg;
    /// Stream array base VA.
    pub const STREAM_BASE: Reg = Reg::S0;
    /// Stream offset cursor.
    pub const STREAM_OFF: Reg = Reg::S1;
    /// Pointer-chase cursor (holds a VA).
    pub const CHASE: Reg = Reg::S2;
    /// Working-set base VA.
    pub const WS_BASE: Reg = Reg::S3;
    /// xorshift PRNG state.
    pub const RNG: Reg = Reg::S4;
    /// Remaining iterations.
    pub const ITER: Reg = Reg::S5;
    /// Syscall countdown.
    pub const SYS_CNT: Reg = Reg::S6;
    /// Stream wrap mask.
    pub const STREAM_MASK: Reg = Reg::S7;
    /// Working-set wrap mask.
    pub const WS_MASK: Reg = Reg::S8;
    /// Accumulator (keeps loads live).
    pub const ACC: Reg = Reg::S9;
}

/// Builds the program for a profile at the given scale.
pub fn generate(name: &str, profile: &Profile, params: &WorkloadParams) -> Program {
    let mut rng = SplitMix64(params.seed);
    // ---- data layout ----
    let stream_off = 0u64;
    let chase_off = stream_off + profile.stream_bytes;
    let ws_off = chase_off + profile.chase_bytes;
    let data_size = (ws_off + profile.ws_bytes).max(4096);
    let mut data_init = Vec::new();
    // Pointer-chase permutation: one cycle visiting every node once.
    if profile.chase_bytes > 0 {
        let nodes = (profile.chase_bytes / 64) as usize;
        let mut order: Vec<usize> = (1..nodes).collect();
        rng.shuffle(&mut order);
        // Chain: 0 -> order[0] -> order[1] -> ... -> back to 0.
        let mut cur = 0usize;
        for &next in order.iter().chain(std::iter::once(&0)) {
            data_init.push((
                chase_off + cur as u64 * 64,
                DATA_VA + chase_off + next as u64 * 64,
            ));
            cur = next;
        }
    }

    // ---- code ----
    let mut asm = Assembler::new(CODE_VA);
    asm.li(regs::STREAM_BASE, DATA_VA + stream_off);
    asm.li(regs::STREAM_OFF, 0);
    asm.li(regs::CHASE, DATA_VA + chase_off);
    asm.li(regs::WS_BASE, DATA_VA + ws_off);
    asm.li(regs::RNG, params.seed | 1);
    asm.li(regs::ACC, 0);
    if profile.stream_bytes > 0 {
        asm.li(regs::STREAM_MASK, profile.stream_bytes - 1);
    }
    if profile.ws_bytes > 0 {
        asm.li(regs::WS_MASK, (profile.ws_bytes - 1) & !7);
    }
    if profile.syscall_every > 0 {
        asm.li(regs::SYS_CNT, profile.syscall_every as u64);
    }
    let iterations = params
        .target_kinsts
        .saturating_mul(1000)
        .div_ceil(profile.insts_per_iteration())
        .max(1);
    asm.li(regs::ITER, iterations);

    let top = asm.here();
    // 1. streaming sweep
    for _ in 0..profile.stream_lines_per_iter {
        asm.push(Inst::add(Reg::T0, regs::STREAM_BASE, regs::STREAM_OFF));
        asm.push(Inst::ld(Reg::T1, Reg::T0, 0));
        asm.push(Inst::add(regs::ACC, regs::ACC, Reg::T1));
        asm.push(Inst::addi(regs::STREAM_OFF, regs::STREAM_OFF, 64));
        asm.push(Inst::alu(
            AluOp::And,
            regs::STREAM_OFF,
            regs::STREAM_OFF,
            regs::STREAM_MASK,
        ));
    }
    // 2. pointer chase
    for _ in 0..profile.chase_nodes_per_iter {
        asm.push(Inst::ld(regs::CHASE, regs::CHASE, 0));
    }
    // advance the PRNG once per iteration (xorshift64)
    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::RNG, 12));
    asm.push(Inst::alu(AluOp::Xor, regs::RNG, regs::RNG, Reg::T0));
    asm.push(Inst::alu_imm(AluOp::Sll, Reg::T0, regs::RNG, 25));
    asm.push(Inst::alu(AluOp::Xor, regs::RNG, regs::RNG, Reg::T0));
    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::RNG, 27));
    asm.push(Inst::alu(AluOp::Xor, regs::RNG, regs::RNG, Reg::T0));
    // 3. random working-set accesses
    for site in 0..profile.ws_accesses_per_iter {
        let shift = 3 + (site % 13) as i32;
        asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::RNG, shift));
        asm.push(Inst::alu(AluOp::And, Reg::T0, Reg::T0, regs::WS_MASK));
        asm.push(Inst::add(Reg::T0, regs::WS_BASE, Reg::T0));
        if site % 2 == 1 {
            asm.push(Inst::sd(regs::ACC, Reg::T0, 0));
        } else {
            asm.push(Inst::ld(Reg::T1, Reg::T0, 0));
            asm.push(Inst::add(regs::ACC, regs::ACC, Reg::T1));
        }
    }
    // 4. data-dependent branch sites
    for site in 0..profile.branch_sites {
        let skip = asm.new_label();
        match profile.branch_style {
            BranchStyle::Hard => {
                if site % 4 == 0 {
                    // A fresh pseudo-random bit per iteration: never
                    // predictable (sets the high baseline MPKI).
                    let shift = (site % 48) as i32;
                    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::RNG, shift));
                    asm.push(Inst::alu_imm(AluOp::And, Reg::T0, Reg::T0, 1));
                } else {
                    // Deep periodic patterns (period up to 64): learnable
                    // once the local/global histories warm up, so a purge
                    // costs real re-learning — the astar effect the paper
                    // measures in Figure 7.
                    let shift = (site % 6) as i32;
                    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::ITER, shift));
                    asm.push(Inst::alu_imm(AluOp::And, Reg::T0, Reg::T0, 1));
                }
            }
            BranchStyle::Medium => {
                if site % 8 == 0 {
                    // A sprinkling of data-dependent bits sets the
                    // realistic baseline MPKI (SPEC int codes sit near
                    // 10-20 MPKI on this predictor).
                    let shift = (site % 48) as i32;
                    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::RNG, shift));
                    asm.push(Inst::alu_imm(AluOp::And, Reg::T0, Reg::T0, 1));
                } else {
                    // Periodic in the iteration counter: learnable
                    // patterns of period 2..16 depending on the site.
                    let shift = (site % 4) as i32;
                    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::ITER, shift));
                    asm.push(Inst::alu_imm(AluOp::And, Reg::T0, Reg::T0, 1));
                }
            }
            BranchStyle::Easy => {
                // Long-period counter bit: almost always the same way.
                let shift = 7 + (site % 3) as i32;
                asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, regs::ITER, shift));
                asm.push(Inst::alu_imm(AluOp::And, Reg::T0, Reg::T0, 1));
            }
        }
        asm.beqz(Reg::T0, skip);
        asm.push(Inst::addi(regs::ACC, regs::ACC, 1));
        asm.bind(skip);
    }
    // 5. ILP block: independent single-cycle ops
    for op in 0..profile.ilp_ops {
        let r = [Reg::T2, Reg::T3, Reg::T4, Reg::T5][op as usize % 4];
        if op % 2 == 0 {
            asm.push(Inst::addi(r, r, 1));
        } else {
            asm.push(Inst::alu_imm(AluOp::Xor, r, r, 0x55));
        }
    }
    // 6. multiply / divide
    for op in 0..profile.muldiv_ops {
        if op % 4 == 3 {
            asm.push(Inst::alu(
                AluOp::Divu,
                Reg::T6,
                regs::RNG,
                regs::STREAM_MASK,
            ));
        } else {
            asm.push(Inst::alu(AluOp::Mul, Reg::T6, regs::RNG, regs::RNG));
        }
    }
    // 7. periodic syscall
    if profile.syscall_every > 0 {
        let skip = asm.new_label();
        asm.push(Inst::addi(regs::SYS_CNT, regs::SYS_CNT, -1));
        asm.bnez(regs::SYS_CNT, skip);
        asm.li(Reg::A7, kernel::sys::PRINT);
        asm.push(Inst::Ecall);
        asm.li(regs::SYS_CNT, profile.syscall_every as u64);
        asm.bind(skip);
    }
    // loop close
    asm.push(Inst::addi(regs::ITER, regs::ITER, -1));
    asm.bnez(regs::ITER, top);
    // exit(acc) so the result is architecturally live
    asm.push(Inst::addi(Reg::A0, regs::ACC, 0));
    asm.li(Reg::A7, kernel::sys::EXIT);
    asm.push(Inst::Ecall);

    Program {
        name: name.to_string(),
        code: asm
            .assemble()
            .unwrap_or_else(|e| panic!("workload `{name}` failed to assemble: {e}")),
        data_size,
        data_init,
        stack_size: 16 * 1024,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_profile() -> Profile {
        Profile {
            stream_bytes: 4096,
            stream_lines_per_iter: 2,
            chase_bytes: 4096,
            chase_nodes_per_iter: 2,
            ws_bytes: 4096,
            ws_accesses_per_iter: 2,
            branch_sites: 4,
            branch_style: BranchStyle::Medium,
            ilp_ops: 4,
            muldiv_ops: 1,
            syscall_every: 16,
        }
    }

    #[test]
    fn generates_valid_code() {
        let p = generate("t", &minimal_profile(), &WorkloadParams::tiny());
        assert!(!p.code.is_empty());
        // every word decodes
        for &w in &p.code {
            mi6_isa::decode(w).expect("valid encoding");
        }
        assert!(p.data_size >= 3 * 4096);
    }

    #[test]
    fn chase_links_form_one_cycle() {
        let profile = minimal_profile();
        let p = generate("t", &profile, &WorkloadParams::tiny());
        let nodes = (profile.chase_bytes / 64) as usize;
        let chase_off = profile.stream_bytes;
        // Follow the links; we must visit every node exactly once.
        let link_of = |off: u64| -> u64 {
            p.data_init
                .iter()
                .find(|(o, _)| *o == off)
                .map(|(_, v)| *v)
                .expect("link present")
        };
        let mut visited = std::collections::HashSet::new();
        let mut cur = chase_off;
        for _ in 0..nodes {
            assert!(visited.insert(cur), "revisited node at {cur:#x}");
            let next_va = link_of(cur);
            cur = next_va - DATA_VA;
        }
        assert_eq!(cur, chase_off, "chain closes into a cycle");
    }

    #[test]
    fn deterministic_for_seed() {
        let a = generate("t", &minimal_profile(), &WorkloadParams::tiny());
        let b = generate("t", &minimal_profile(), &WorkloadParams::tiny());
        assert_eq!(a.code, b.code);
        assert_eq!(a.data_init, b.data_init);
    }

    #[test]
    fn iteration_count_scales_with_target() {
        let small = generate(
            "t",
            &minimal_profile(),
            &WorkloadParams::tiny().with_target_kinsts(10),
        );
        let big = generate(
            "t",
            &minimal_profile(),
            &WorkloadParams::tiny().with_target_kinsts(1000),
        );
        // Same code, different loop counts — compare the `li ITER` words.
        assert_eq!(small.code.len(), big.code.len());
        assert_ne!(small.code, big.code);
    }
}
