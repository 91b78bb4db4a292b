//! The tiny untrusted OS and the machine-mode stub.
//!
//! The kernel is deliberately small but *real*: it is assembled into the
//! toy ISA and executes on the simulated pipeline, so every trap costs
//! genuine fetches, loads, stores, and branches — the footprint whose
//! cold restart after a FLUSH the paper measures (Section 7.1, and the
//! xalancbmk syscall anecdote of Figure 6).
//!
//! Per trap the handler saves all 31 integer registers to a per-core save
//! area (via `sscratch`), dispatches on `scause`, and restores:
//!
//! - **supervisor timer**: reprograms `stimecmp`, runs a small scheduler
//!   stub that touches kernel data, and returns.
//! - **user `ecall`**: `a7 = 0` exits (escalating to machine mode, which
//!   halts the simulated core), `a7 = 1` is the "print" syscall that runs
//!   a buffer-walking loop, everything else is a no-op.
//! - anything unexpected escalates to machine mode.

use mi6_isa::csr;
use mi6_isa::{AluOp, Assembler, CsrOp, Inst, Reg};

/// Physical/virtual address of the machine-mode stub (`mtvec`).
pub const M_STUB_BASE: u64 = 0x1000;
/// Physical/virtual address of the kernel trap handler (`stvec`).
pub const KERNEL_BASE: u64 = 0x2000;
/// Base of per-core kernel data pages (save area + scratch buffers).
pub const KDATA_BASE: u64 = 0x8000;
/// Bytes of kernel data per core (one page).
pub const KDATA_STRIDE: u64 = 0x1000;
/// Offset of the scheduler's working array within a core's kernel page.
pub const SCHED_BUF_OFF: i32 = 0x800;
/// Offset of the print syscall's buffer within a core's kernel page.
pub const PRINT_BUF_OFF: i32 = 0xc00;

/// Syscall numbers (in `a7`).
pub mod sys {
    /// Terminate the program; the machine run loop observes the halt.
    pub const EXIT: u64 = 0;
    /// "Print": a syscall with a realistic kernel-side footprint.
    pub const PRINT: u64 = 1;
    /// No-op syscall (minimum round-trip cost).
    pub const NOP: u64 = 2;
}

/// The kernel data page for a core.
pub fn kdata_base(core: usize) -> u64 {
    KDATA_BASE + core as u64 * KDATA_STRIDE
}

/// Kernel pages to map into every address space as `(pa, writable)`.
pub fn kernel_pages(cores: usize) -> Vec<(u64, bool)> {
    let mut pages = vec![(KERNEL_BASE, false), (KERNEL_BASE + 0x1000, false)];
    for core in 0..cores {
        pages.push((kdata_base(core), true));
    }
    pages
}

fn csrr(rd: Reg, csr: u16) -> Inst {
    Inst::Csr {
        op: CsrOp::Rs,
        rd,
        rs1: Reg::ZERO,
        csr,
    }
}

fn csrw(csr: u16, rs1: Reg) -> Inst {
    Inst::Csr {
        op: CsrOp::Rw,
        rd: Reg::ZERO,
        rs1,
        csr,
    }
}

/// Assembles the machine-mode stub: any machine trap halts the core
/// (the simulation convention for "the run is over"). In the full MI6
/// machine the security monitor replaces this stub.
pub fn build_m_stub() -> Vec<u32> {
    let mut asm = Assembler::new(M_STUB_BASE);
    asm.push(Inst::Ebreak);
    asm.assemble().expect("m-stub assembles")
}

/// Assembles the supervisor kernel. `timer_interval` is baked into the
/// timer handler (cycles between scheduler ticks).
pub fn build_kernel(timer_interval: u64) -> Vec<u32> {
    let mut asm = Assembler::new(KERNEL_BASE);
    let timer = asm.new_label();
    let syscall = asm.new_label();
    let restore = asm.new_label();
    let escalate = asm.new_label();
    let sys_exit = asm.new_label();
    let sys_print = asm.new_label();

    // ---- save all registers ----
    // t0 <- save base, sscratch <- user t0
    asm.push(Inst::Csr {
        op: CsrOp::Rw,
        rd: Reg::T0,
        rs1: Reg::T0,
        csr: csr::SSCRATCH,
    });
    for i in 1..32u8 {
        let r = Reg::new(i);
        if r == Reg::T0 {
            continue;
        }
        asm.push(Inst::sd(r, Reg::T0, i as i32 * 8));
    }
    // user t0 via a second swap-free read
    asm.push(csrr(Reg::T1, csr::SSCRATCH));
    asm.push(Inst::sd(Reg::T1, Reg::T0, 5 * 8));

    // ---- dispatch on scause ----
    asm.push(csrr(Reg::T1, csr::SCAUSE));
    // supervisor timer interrupt: (1<<63) | 5
    asm.li(Reg::T2, (1 << 63) | 5);
    asm.beq(Reg::T1, Reg::T2, timer);
    // ecall from user: 8
    asm.li(Reg::T2, 8);
    asm.beq(Reg::T1, Reg::T2, syscall);
    asm.jump(escalate);

    // ---- timer handler ----
    asm.bind(timer);
    asm.push(csrr(Reg::T2, csr::CYCLE));
    asm.li(Reg::T3, timer_interval);
    asm.push(Inst::add(Reg::T2, Reg::T2, Reg::T3));
    asm.push(csrw(csr::STIMECMP, Reg::T2));
    // Scheduler stub: walk 32 words of kernel data (run-queue touch).
    asm.push(Inst::addi(Reg::T3, Reg::T0, SCHED_BUF_OFF));
    asm.li(Reg::T4, 32);
    let sched_loop = asm.here();
    asm.push(Inst::ld(Reg::T5, Reg::T3, 0));
    asm.push(Inst::addi(Reg::T5, Reg::T5, 1));
    asm.push(Inst::sd(Reg::T5, Reg::T3, 0));
    asm.push(Inst::addi(Reg::T3, Reg::T3, 8));
    asm.push(Inst::addi(Reg::T4, Reg::T4, -1));
    asm.bnez(Reg::T4, sched_loop);
    asm.jump(restore);

    // ---- syscall dispatch ----
    asm.bind(syscall);
    // sepc += 4 so sret resumes past the ecall
    asm.push(csrr(Reg::T2, csr::SEPC));
    asm.push(Inst::addi(Reg::T2, Reg::T2, 4));
    asm.push(csrw(csr::SEPC, Reg::T2));
    asm.push(Inst::ld(Reg::T3, Reg::T0, 17 * 8)); // saved a7
    asm.beqz(Reg::T3, sys_exit);
    asm.li(Reg::T4, sys::PRINT);
    asm.beq(Reg::T3, Reg::T4, sys_print);
    asm.jump(restore); // unknown syscall: no-op

    // ---- exit: escalate to machine mode, which halts ----
    asm.bind(sys_exit);
    asm.bind(escalate);
    asm.push(Inst::Ecall);

    // ---- print: walk the print buffer (realistic kernel footprint) ----
    asm.bind(sys_print);
    asm.push(Inst::addi(Reg::T3, Reg::T0, PRINT_BUF_OFF));
    asm.li(Reg::T4, 64);
    let print_loop = asm.here();
    asm.push(Inst::ld(Reg::T5, Reg::T3, 0));
    asm.push(Inst::alu(AluOp::Xor, Reg::T5, Reg::T5, Reg::T4));
    asm.push(Inst::sd(Reg::T5, Reg::T3, 0));
    asm.push(Inst::addi(Reg::T3, Reg::T3, 8));
    asm.push(Inst::addi(Reg::T4, Reg::T4, -1));
    asm.bnez(Reg::T4, print_loop);
    asm.jump(restore);

    // ---- restore all registers and return ----
    asm.bind(restore);
    for i in 1..32u8 {
        let r = Reg::new(i);
        if r == Reg::T0 {
            continue;
        }
        asm.push(Inst::ld(r, Reg::T0, i as i32 * 8));
    }
    asm.push(csrw(csr::SSCRATCH, Reg::T0));
    asm.push(Inst::ld(Reg::T0, Reg::T0, 5 * 8));
    asm.push(Inst::Sret);

    asm.assemble().expect("kernel assembles")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_fits_in_its_pages() {
        let words = build_kernel(100_000);
        // Two pages are mapped for kernel text.
        assert!(
            words.len() * 4 <= 2 * 4096,
            "kernel is {} bytes",
            words.len() * 4
        );
        assert!(words.len() > 80, "kernel should have a real footprint");
    }

    #[test]
    fn m_stub_is_one_ebreak() {
        let words = build_m_stub();
        assert_eq!(words.len(), 1);
        assert_eq!(mi6_isa::decode(words[0]).unwrap(), Inst::Ebreak);
    }

    #[test]
    fn kernel_pages_cover_cores() {
        let pages = kernel_pages(2);
        assert!(pages.contains(&(KERNEL_BASE, false)));
        assert!(pages.contains(&(kdata_base(0), true)));
        assert!(pages.contains(&(kdata_base(1), true)));
    }
}
