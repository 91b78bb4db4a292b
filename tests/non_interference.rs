//! The paper's Property 1, as an executable test: with the full MI6
//! configuration, a victim enclave's activity must not influence an
//! attacker enclave's timing *at all* (strong timing independence,
//! Section 5.4); on BASE the same experiment shows a timing channel.

use mi6::isa::{AluOp, Assembler, Inst, Reg};
use mi6::mem::RegionId;
use mi6::monitor::SecurityMonitor;
use mi6::soc::loader::{Program, CODE_VA, DATA_VA};
use mi6::soc::{SimBuilder, Variant};

fn attacker(sweeps: u64) -> Program {
    let mut asm = Assembler::new(CODE_VA);
    asm.li(Reg::S0, DATA_VA);
    asm.li(Reg::S1, sweeps);
    let sweep = asm.here();
    asm.li(Reg::T0, 0);
    asm.li(Reg::T1, 64 << 10);
    let line = asm.here();
    asm.push(Inst::add(Reg::T2, Reg::S0, Reg::T0));
    asm.push(Inst::ld(Reg::T3, Reg::T2, 0));
    asm.push(Inst::addi(Reg::T0, Reg::T0, 64));
    asm.bne(Reg::T0, Reg::T1, line);
    asm.push(Inst::addi(Reg::S1, Reg::S1, -1));
    asm.bnez(Reg::S1, sweep);
    asm.push(Inst::Ecall);
    Program {
        name: "attacker".into(),
        code: asm.assemble().unwrap(),
        data_size: 64 << 10,
        data_init: vec![],
        stack_size: 4096,
    }
}

/// Victim variants with *different* memory behaviour: the secret is
/// "which program is the victim running".
fn victim(kind: u32) -> Program {
    let mut asm = Assembler::new(CODE_VA);
    asm.li(Reg::S0, DATA_VA);
    asm.li(Reg::S2, (512 << 10) - 64);
    asm.li(Reg::T0, 0);
    let top = asm.here();
    match kind {
        0 => asm.nops(4), // silent
        1 => {
            // streaming hammer
            asm.push(Inst::add(Reg::T2, Reg::S0, Reg::T0));
            asm.push(Inst::ld(Reg::T3, Reg::T2, 0));
            asm.push(Inst::addi(Reg::T0, Reg::T0, 64));
            asm.push(Inst::alu(AluOp::And, Reg::T0, Reg::T0, Reg::S2));
        }
        _ => {
            // store hammer (writebacks)
            asm.push(Inst::add(Reg::T2, Reg::S0, Reg::T0));
            asm.push(Inst::sd(Reg::T3, Reg::T2, 0));
            asm.push(Inst::addi(Reg::T0, Reg::T0, 4096));
            asm.push(Inst::alu(AluOp::And, Reg::T0, Reg::T0, Reg::S2));
        }
    }
    asm.jump(top);
    Program {
        name: format!("victim-{kind}"),
        code: asm.assemble().unwrap(),
        data_size: 512 << 10,
        data_init: vec![],
        stack_size: 4096,
    }
}

fn attacker_finish(variant: Variant, victim_kind: u32) -> u64 {
    let mut m = SimBuilder::new(variant)
        .cores(2)
        .without_timer()
        .build()
        .unwrap();
    let mut monitor = SecurityMonitor::new(&m);
    let atk = monitor
        .create_enclave(&mut m, &attacker(12), &[RegionId(5)])
        .unwrap();
    let vic = monitor
        .create_enclave(&mut m, &victim(victim_kind), &[RegionId(6)])
        .unwrap();
    monitor.schedule(&mut m, 0, atk).unwrap();
    monitor.schedule(&mut m, 1, vic).unwrap();
    while !m.core(0).halted {
        m.tick();
        assert!(m.now() < 400_000_000, "attacker never finished");
    }
    m.now()
}

#[test]
fn mi6_strong_timing_independence() {
    // Under full MI6 the attacker's finish time must be *bit-identical*
    // for every victim behaviour.
    let t0 = attacker_finish(Variant::SecureMi6, 0);
    let t1 = attacker_finish(Variant::SecureMi6, 1);
    let t2 = attacker_finish(Variant::SecureMi6, 2);
    assert_eq!(t0, t1, "load-hammer victim leaked into attacker timing");
    assert_eq!(t0, t2, "store-hammer victim leaked into attacker timing");
}

#[test]
fn base_has_a_timing_channel() {
    // Sanity check of the experiment itself: on the insecure baseline the
    // victim's traffic IS visible to the attacker. (If this ever fails,
    // the non-interference test above is vacuous.)
    let quiet = attacker_finish(Variant::Base, 0);
    let noisy = attacker_finish(Variant::Base, 1);
    assert_ne!(quiet, noisy, "expected a timing channel on BASE");
}
