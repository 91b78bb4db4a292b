//! End-to-end pipeline tests: assemble small programs, run them on the
//! core + memory hierarchy, and check architectural results and
//! microarchitectural counters.

use mi6_core::{Core, CoreConfig, SecurityConfig};
use mi6_isa::csr;
use mi6_isa::{AluOp, Assembler, Inst, PhysAddr, PrivLevel, Reg};
use mi6_mem::{MemConfig, MemSystem, Port};

const BOOT: u64 = 0x1000;

/// Runs an assembled machine-mode program until `ebreak` (or a cycle cap).
fn run(asm: &Assembler, sec: SecurityConfig) -> (Core, MemSystem, u64) {
    run_with(asm, sec, |_core, _mem| {})
}

fn run_with(
    asm: &Assembler,
    sec: SecurityConfig,
    setup: impl FnOnce(&mut Core, &mut MemSystem),
) -> (Core, MemSystem, u64) {
    let words = asm.assemble().expect("assembles");
    let mut mem = MemSystem::new(MemConfig::paper_base(), 1);
    mem.phys.load_words(PhysAddr::new(asm.base()), &words);
    let mut core = Core::new(0, CoreConfig::paper(), sec);
    core.reset_to(asm.base(), PrivLevel::Machine);
    setup(&mut core, &mut mem);
    let mut now = 0u64;
    while !core.halted {
        core.tick(now, &mut mem);
        mem.tick(now);
        now += 1;
        assert!(now < 3_000_000, "program did not halt");
    }
    (core, mem, now)
}

#[test]
fn arithmetic_loop_computes_sum() {
    // sum = 1 + 2 + ... + 100 = 5050
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::A0, 100); // counter
    asm.li(Reg::A1, 0); // sum
    let top = asm.here();
    asm.push(Inst::add(Reg::A1, Reg::A1, Reg::A0));
    asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
    asm.bnez(Reg::A0, top);
    asm.push(Inst::Ebreak);
    let (core, _, cycles) = run(&asm, SecurityConfig::insecure());
    assert_eq!(core.regs[Reg::A1.index() as usize], 5050);
    assert!(core.stats.committed_instructions >= 303);
    assert!(cycles > 0);
    // The loop-closing branch trains through its history warmup (each new
    // local/global history value starts at a weakly-not-taken counter, so
    // the first ~a dozen iterations can mispredict) and then predicts
    // perfectly.
    assert!(
        core.stats.branch_mispredicts < 25,
        "got {}",
        core.stats.branch_mispredicts
    );
}

#[test]
fn mul_div_results() {
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::A0, 7);
    asm.li(Reg::A1, 6);
    asm.push(Inst::alu(AluOp::Mul, Reg::A2, Reg::A0, Reg::A1));
    asm.push(Inst::alu(AluOp::Div, Reg::A3, Reg::A2, Reg::A0));
    asm.push(Inst::alu(AluOp::Rem, Reg::A4, Reg::A2, Reg::A1));
    asm.push(Inst::Ebreak);
    let (core, _, _) = run(&asm, SecurityConfig::insecure());
    assert_eq!(core.regs[Reg::A2.index() as usize], 42);
    assert_eq!(core.regs[Reg::A3.index() as usize], 6);
    assert_eq!(core.regs[Reg::A4.index() as usize], 0);
}

#[test]
fn store_load_forwarding() {
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::SP, 0x10_0000);
    asm.li(Reg::A0, 0xdead_beef);
    asm.push(Inst::sd(Reg::A0, Reg::SP, 0));
    asm.push(Inst::ld(Reg::A1, Reg::SP, 0)); // forwarded from SQ
    asm.push(Inst::sd(Reg::A1, Reg::SP, 8));
    asm.push(Inst::ld(Reg::A2, Reg::SP, 8));
    asm.push(Inst::Ebreak);
    let (core, mem, _) = run(&asm, SecurityConfig::insecure());
    assert_eq!(core.regs[Reg::A1.index() as usize], 0xdead_beef);
    assert_eq!(core.regs[Reg::A2.index() as usize], 0xdead_beef);
    assert_eq!(mem.phys.read_u64(PhysAddr::new(0x10_0000)), 0xdead_beef);
    assert_eq!(mem.phys.read_u64(PhysAddr::new(0x10_0008)), 0xdead_beef);
}

#[test]
fn partial_width_store_load() {
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::SP, 0x10_0000);
    asm.li(Reg::A0, 0x1122_3344_5566_7788);
    asm.push(Inst::sd(Reg::A0, Reg::SP, 0));
    // lb of byte 1 (0x77), sign extended
    asm.push(Inst::Load {
        rd: Reg::A1,
        rs1: Reg::SP,
        off: 1,
        width: mi6_isa::MemWidth::B,
        signed: true,
    });
    // lhu of bytes 2..4 (0x5566)
    asm.push(Inst::Load {
        rd: Reg::A2,
        rs1: Reg::SP,
        off: 2,
        width: mi6_isa::MemWidth::H,
        signed: false,
    });
    asm.push(Inst::Ebreak);
    let (core, _, _) = run(&asm, SecurityConfig::insecure());
    assert_eq!(core.regs[Reg::A1.index() as usize], 0x77);
    assert_eq!(core.regs[Reg::A2.index() as usize], 0x5566);
}

#[test]
fn data_dependent_branches_mispredict() {
    // Branch on bit i of an LFSR-ish pattern: unpredictable, so the
    // mispredict counter must be substantial.
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::A0, 2000); // iterations
    asm.li(Reg::A1, 0x9e3779b97f4a7c15); // "random" bits
    asm.li(Reg::A3, 0);
    let top = asm.here();
    let skip = asm.new_label();
    asm.push(Inst::alu_imm(AluOp::And, Reg::A2, Reg::A1, 1));
    // rotate the pattern
    asm.push(Inst::alu_imm(AluOp::Srl, Reg::T0, Reg::A1, 1));
    asm.push(Inst::alu_imm(AluOp::Sll, Reg::T1, Reg::A1, 63));
    asm.push(Inst::alu(AluOp::Or, Reg::A1, Reg::T0, Reg::T1));
    asm.beqz(Reg::A2, skip);
    asm.push(Inst::addi(Reg::A3, Reg::A3, 1));
    asm.bind(skip);
    asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
    asm.bnez(Reg::A0, top);
    asm.push(Inst::Ebreak);
    let (core, _, _) = run(&asm, SecurityConfig::insecure());
    // The pattern has period 64 with mixed outcomes; the tournament
    // predictor learns parts of it but the warmup and aliasing leave far
    // more mispredicts than a biased loop.
    assert!(
        core.stats.branch_mispredicts > 30,
        "got {}",
        core.stats.branch_mispredicts
    );
    // Architectural check: count the 1-bits actually encountered.
    let mut pattern: u64 = 0x9e3779b97f4a7c15;
    let mut expect = 0u64;
    for _ in 0..2000 {
        expect += pattern & 1;
        pattern = pattern.rotate_right(1);
    }
    assert_eq!(core.regs[Reg::A3.index() as usize], expect);
}

#[test]
fn biased_branches_predict_well() {
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::A0, 5000);
    let top = asm.here();
    asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
    asm.bnez(Reg::A0, top);
    asm.push(Inst::Ebreak);
    let (core, _, _) = run(&asm, SecurityConfig::insecure());
    let mpki = core.stats.mispredicts_per_kinst();
    assert!(mpki < 3.0, "biased loop mpki {mpki}");
}

#[test]
fn call_return_uses_ras() {
    let mut asm = Assembler::new(BOOT);
    let func = asm.new_label();
    asm.li(Reg::A0, 200);
    asm.li(Reg::A1, 0);
    let top = asm.here();
    asm.call(func);
    asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
    asm.bnez(Reg::A0, top);
    asm.push(Inst::Ebreak);
    asm.bind(func);
    asm.push(Inst::addi(Reg::A1, Reg::A1, 1));
    asm.ret();
    let (core, _, _) = run(&asm, SecurityConfig::insecure());
    assert_eq!(core.regs[Reg::A1.index() as usize], 200);
    // Returns predicted by the RAS: very few jump mispredicts.
    assert!(
        core.stats.jump_mispredicts < 10,
        "got {}",
        core.stats.jump_mispredicts
    );
}

#[test]
fn purge_stalls_at_least_512_cycles() {
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::A0, 1);
    asm.push(Inst::Purge);
    asm.push(Inst::Ebreak);
    let (core, _, cycles) = run(&asm, SecurityConfig::mi6());
    assert_eq!(core.stats.purges, 1);
    assert!(core.stats.flush_stall_cycles >= 512);
    assert!(cycles >= 512);
}

#[test]
fn purge_resets_branch_predictor() {
    // A history-dependent (alternating) branch trains up, then a purge
    // wipes the predictor; the relearning phase must cost clearly more
    // mispredicts than continuing warm.
    fn loop_then(purge: bool) -> u64 {
        let mut asm = Assembler::new(BOOT);
        asm.li(Reg::S0, 4); // phases
        let phase = asm.here();
        asm.li(Reg::A0, 400);
        asm.li(Reg::S2, 0); // toggler
        let top = asm.here();
        let skip = asm.new_label();
        asm.push(Inst::alu_imm(AluOp::Xor, Reg::S2, Reg::S2, 1));
        asm.beqz(Reg::S2, skip); // alternating branch: needs history
        asm.push(Inst::addi(Reg::A4, Reg::A4, 1));
        asm.bind(skip);
        asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
        asm.bnez(Reg::A0, top);
        if purge {
            asm.push(Inst::Purge);
        } else {
            asm.push(Inst::NOP);
        }
        asm.push(Inst::addi(Reg::S0, Reg::S0, -1));
        asm.bnez(Reg::S0, phase);
        asm.push(Inst::Ebreak);
        let (core, _, _) = run(&asm, SecurityConfig::mi6());
        core.stats.branch_mispredicts
    }
    let with_purge = loop_then(true);
    let without = loop_then(false);
    assert!(
        with_purge > without + 10,
        "purge {with_purge} vs warm {without}"
    );
}

#[test]
fn purge_requires_machine_mode_and_region_fault_traps() {
    // Drop to user mode via mret into user code that tries `purge`: must
    // trap back to machine mode with IllegalInst. Handler and user code
    // live at fixed addresses.
    let mut asm = Assembler::new(BOOT);
    let handler_addr = 0x2000u64;
    let user_addr = 0x3000u64;
    asm.li(Reg::T0, handler_addr);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MTVEC,
    });
    asm.li(Reg::T0, user_addr);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MEPC,
    });
    // MPP stays 0 (user) after reset; mret drops to user.
    asm.push(Inst::Mret);
    let boot_words = asm.assemble().unwrap();

    let mut user_asm = Assembler::new(user_addr);
    user_asm.push(Inst::Purge); // illegal in user mode
    user_asm.push(Inst::Ebreak);
    let user_words = user_asm.assemble().unwrap();

    let mut handler_asm = Assembler::new(handler_addr);
    // read mcause into a0, halt
    handler_asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rs,
        rd: Reg::A0,
        rs1: Reg::ZERO,
        csr: csr::MCAUSE,
    });
    handler_asm.push(Inst::Ebreak);
    let handler_words = handler_asm.assemble().unwrap();

    let mut mem = MemSystem::new(MemConfig::paper_base(), 1);
    mem.phys.load_words(PhysAddr::new(BOOT), &boot_words);
    mem.phys.load_words(PhysAddr::new(user_addr), &user_words);
    mem.phys
        .load_words(PhysAddr::new(handler_addr), &handler_words);
    let mut core = Core::new(0, CoreConfig::paper(), SecurityConfig::insecure());
    core.reset_to(BOOT, PrivLevel::Machine);
    let mut now = 0;
    while !core.halted {
        core.tick(now, &mut mem);
        mem.tick(now);
        now += 1;
        assert!(now < 1_000_000);
    }
    assert_eq!(
        core.regs[Reg::A0.index() as usize],
        mi6_isa::Exception::IllegalInst.code()
    );
    assert_eq!(core.stats.traps, 1);
}

#[test]
fn region_check_suppresses_and_faults() {
    // With region checks on and mregions limited to region 0, a *user*
    // load from region 1 (at 32 MiB) must raise a DramRegionFault.
    // (Machine mode bypasses the check — Section 4.1 — so the violating
    // access runs in user mode with bare translation.)
    let handler_addr = 0x2000u64;
    let user_addr = 0x3000u64;
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::T0, handler_addr);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MTVEC,
    });
    asm.li(Reg::T1, 1); // allow only region 0
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T1,
        csr: csr::MREGIONS,
    });
    asm.li(Reg::T0, user_addr);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MEPC,
    });
    asm.push(Inst::Mret); // MPP=0 after reset: drop to user, bare satp
    let words = asm.assemble().unwrap();

    let mut user_asm = Assembler::new(user_addr);
    user_asm.li(Reg::A0, 32 << 20); // region 1 base
    user_asm.push(Inst::ld(Reg::A1, Reg::A0, 0));
    user_asm.push(Inst::Ebreak);
    let user_words = user_asm.assemble().unwrap();

    let mut handler_asm = Assembler::new(handler_addr);
    handler_asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rs,
        rd: Reg::A5,
        rs1: Reg::ZERO,
        csr: csr::MCAUSE,
    });
    handler_asm.push(Inst::Ebreak);
    let handler_words = handler_asm.assemble().unwrap();

    let mut sec = SecurityConfig::mi6();
    sec.flush_on_trap = false; // isolate the region-check behaviour
    sec.machine_mode_guard = false;
    let mut mem = MemSystem::new(MemConfig::paper_base(), 1);
    mem.phys.load_words(PhysAddr::new(BOOT), &words);
    mem.phys.load_words(PhysAddr::new(user_addr), &user_words);
    mem.phys
        .load_words(PhysAddr::new(handler_addr), &handler_words);
    let mut core = Core::new(0, CoreConfig::paper(), sec);
    core.reset_to(BOOT, PrivLevel::Machine);
    let mut now = 0;
    while !core.halted {
        core.tick(now, &mut mem);
        mem.tick(now);
        now += 1;
        assert!(now < 1_000_000);
    }
    assert_eq!(
        core.regs[Reg::A5.index() as usize],
        mi6_isa::Exception::DramRegionFault.code()
    );
    assert_eq!(core.stats.region_faults, 1);
    assert!(core.stats.region_suppressed >= 1);
}

#[test]
fn nonspec_is_much_slower_on_memory_code() {
    fn run_loads(sec: SecurityConfig) -> u64 {
        let mut asm = Assembler::new(BOOT);
        asm.li(Reg::SP, 0x10_0000);
        asm.li(Reg::A0, 500);
        let top = asm.here();
        asm.push(Inst::ld(Reg::A1, Reg::SP, 0));
        asm.push(Inst::ld(Reg::A2, Reg::SP, 8));
        asm.push(Inst::ld(Reg::A3, Reg::SP, 16));
        asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
        asm.bnez(Reg::A0, top);
        asm.push(Inst::Ebreak);
        let (_, _, cycles) = run(&asm, sec);
        cycles
    }
    let base = run_loads(SecurityConfig::insecure());
    let nonspec = run_loads(SecurityConfig {
        nonspec_all_modes: true,
        ..SecurityConfig::insecure()
    });
    assert!(
        nonspec > base * 2,
        "nonspec {nonspec} vs base {base} — expected large slowdown"
    );
}

#[test]
fn machine_mode_fetch_window_enforced() {
    // With the guard on and a fetch window covering only the boot code, a
    // jump outside the window must fault.
    let handler_addr = 0x2000u64;
    let outside = 0x5000u64;
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::T0, handler_addr);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MTVEC,
    });
    asm.li(Reg::T0, BOOT);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MFETCHBASE,
    });
    asm.li(Reg::T0, 0x3000);
    asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rw,
        rd: Reg::ZERO,
        rs1: Reg::T0,
        csr: csr::MFETCHBOUND,
    });
    asm.li(Reg::T1, outside);
    asm.push(Inst::Jalr {
        rd: Reg::ZERO,
        rs1: Reg::T1,
        off: 0,
    });
    let words = asm.assemble().unwrap();

    let mut handler_asm = Assembler::new(handler_addr);
    handler_asm.push(Inst::Csr {
        op: mi6_isa::CsrOp::Rs,
        rd: Reg::A5,
        rs1: Reg::ZERO,
        csr: csr::MCAUSE,
    });
    handler_asm.push(Inst::Ebreak);
    let handler_words = handler_asm.assemble().unwrap();

    let mut out_asm = Assembler::new(outside);
    out_asm.push(Inst::Ebreak); // must never retire
    let out_words = out_asm.assemble().unwrap();

    let mut sec = SecurityConfig::mi6();
    sec.flush_on_trap = false;
    sec.region_checks = false;
    let mut mem = MemSystem::new(MemConfig::paper_base(), 1);
    mem.phys.load_words(PhysAddr::new(BOOT), &words);
    mem.phys
        .load_words(PhysAddr::new(handler_addr), &handler_words);
    mem.phys.load_words(PhysAddr::new(outside), &out_words);
    let mut core = Core::new(0, CoreConfig::paper(), sec);
    core.reset_to(BOOT, PrivLevel::Machine);
    let mut now = 0;
    while !core.halted {
        core.tick(now, &mut mem);
        mem.tick(now);
        now += 1;
        assert!(now < 1_000_000);
    }
    // Wait: the handler itself is outside [BOOT, 0x3000)? 0x2000 is inside.
    assert_eq!(
        core.regs[Reg::A5.index() as usize],
        mi6_isa::Exception::InstAccessFault.code()
    );
}

#[test]
fn memory_order_violation_recovers() {
    // A load issued before an older store to the same address resolves
    // must be squashed and re-executed with the right value. The store's
    // address arrives late through a serial divide chain; an outer loop
    // warms the I-cache so fetch latency doesn't serialize the pair.
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::SP, 0x10_0000);
    asm.li(Reg::S1, 3); // outer iterations
    let outer = asm.here();
    asm.li(Reg::A0, 7);
    asm.push(Inst::sd(Reg::A0, Reg::SP, 0));
    asm.push(Inst::Fence); // drain the store buffer between rounds
                           // T0 = SP, computed slowly: T2 = ((3/1)/1)/1... (16 cycles per div).
    asm.li(Reg::T2, 3);
    asm.li(Reg::T3, 1);
    for _ in 0..5 {
        asm.push(Inst::alu(AluOp::Div, Reg::T2, Reg::T2, Reg::T3));
    }
    asm.push(Inst::add(Reg::T0, Reg::SP, Reg::T2));
    asm.push(Inst::addi(Reg::T0, Reg::T0, -3));
    asm.li(Reg::A1, 42);
    asm.push(Inst::sd(Reg::A1, Reg::T0, 0)); // store to 0x10_0000, late addr
    asm.push(Inst::ld(Reg::A2, Reg::SP, 0)); // younger load, fast addr
    asm.push(Inst::addi(Reg::S1, Reg::S1, -1));
    asm.bnez(Reg::S1, outer);
    asm.push(Inst::Ebreak);
    let (core, _, _) = run(&asm, SecurityConfig::insecure());
    assert_eq!(
        core.regs[Reg::A2.index() as usize],
        42,
        "load must observe the older store"
    );
    assert!(
        core.stats.mem_order_violations >= 1,
        "got {} violations",
        core.stats.mem_order_violations
    );
}

#[test]
fn flush_on_trap_charges_stall_and_colds_the_caches() {
    // Measure a single ecall round trip with and without flush-on-trap.
    fn trap_cost(flush: bool) -> u64 {
        let handler_addr = 0x2000u64;
        let mut asm = Assembler::new(BOOT);
        asm.li(Reg::T0, handler_addr);
        asm.push(Inst::Csr {
            op: mi6_isa::CsrOp::Rw,
            rd: Reg::ZERO,
            rs1: Reg::T0,
            csr: csr::MTVEC,
        });
        asm.push(Inst::Ecall);
        asm.push(Inst::Ebreak);
        let words = asm.assemble().unwrap();
        let mut handler_asm = Assembler::new(handler_addr);
        // mepc += 4; mret
        handler_asm.push(Inst::Csr {
            op: mi6_isa::CsrOp::Rs,
            rd: Reg::T1,
            rs1: Reg::ZERO,
            csr: csr::MEPC,
        });
        handler_asm.push(Inst::addi(Reg::T1, Reg::T1, 4));
        handler_asm.push(Inst::Csr {
            op: mi6_isa::CsrOp::Rw,
            rd: Reg::ZERO,
            rs1: Reg::T1,
            csr: csr::MEPC,
        });
        handler_asm.push(Inst::Mret);
        let handler_words = handler_asm.assemble().unwrap();
        let sec = SecurityConfig {
            flush_on_trap: flush,
            ..SecurityConfig::insecure()
        };
        let mut mem = MemSystem::new(MemConfig::paper_base(), 1);
        mem.phys.load_words(PhysAddr::new(BOOT), &words);
        mem.phys
            .load_words(PhysAddr::new(handler_addr), &handler_words);
        let mut core = Core::new(0, CoreConfig::paper(), sec);
        core.reset_to(BOOT, PrivLevel::Machine);
        let mut now = 0;
        while !core.halted {
            core.tick(now, &mut mem);
            mem.tick(now);
            now += 1;
            assert!(now < 1_000_000);
        }
        now
    }
    let base = trap_cost(false);
    let flushed = trap_cost(true);
    // Trap entry + mret each trigger a >= 512-cycle purge.
    assert!(
        flushed >= base + 2 * 512,
        "flushed {flushed} vs base {base}"
    );
}

#[test]
fn icache_warmup_visible_in_stats() {
    let mut asm = Assembler::new(BOOT);
    asm.li(Reg::A0, 100);
    let top = asm.here();
    asm.push(Inst::addi(Reg::A0, Reg::A0, -1));
    asm.bnez(Reg::A0, top);
    asm.push(Inst::Ebreak);
    let (_, mem, _) = run(&asm, SecurityConfig::insecure());
    let l1i = mem.l1_stats(0, Port::IFetch);
    assert!(l1i.misses >= 1, "cold I-cache must miss");
    assert!(l1i.hits > l1i.misses * 10, "loop fetches must hit");
}
