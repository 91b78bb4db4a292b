//! The attack MI6 closes: cross-core LLC contention as a timing channel.
//!
//! An "attacker" enclave on core 0 sweeps a probe buffer a fixed number
//! of times and exits; we record its finish time. A "victim" enclave on
//! core 1 either idles (pure ALU spin) or hammers memory. The security
//! monitor gives the two enclaves DRAM regions that map to *disjoint LLC
//! set quadrants* (regions 5 and 6: different low region bits), exactly
//! as MI6's allocation policy requires.
//!
//! - On the **BASE** machine the LLC is not partitioned and its MSHRs,
//!   entry mux, and queues are shared, so the victim's memory traffic
//!   shifts the attacker's finish time — a timing channel.
//! - On the full **MI6** machine (Figure-3 LLC: set partitioning,
//!   per-core MSHR partitions, round-robin pipeline arbiter, split UQs,
//!   duplicated Downgrade-L1, retry-bit DQ, constant-latency DRAM with
//!   MSHRs sized to never backpressure it) the attacker's finish time is
//!   **identical to the cycle** whatever the victim does — the strong
//!   timing independence of Section 5.4.
//!
//! Run: `cargo run --release --example cache_side_channel`

use mi6::isa::{AluOp, Assembler, Inst, Reg};
use mi6::mem::RegionId;
use mi6::monitor::SecurityMonitor;
use mi6::soc::loader::{Program, CODE_VA, DATA_VA};
use mi6::soc::{SimBuilder, Variant};

/// Attacker enclave: fixed number of probe sweeps over 128 KiB, then a
/// monitor call (ecall) to exit.
fn attacker() -> Program {
    let mut asm = Assembler::new(CODE_VA);
    asm.li(Reg::S0, DATA_VA);
    asm.li(Reg::S1, 30); // sweeps
    let sweep = asm.here();
    asm.li(Reg::T0, 0);
    asm.li(Reg::T1, 128 << 10);
    let line = asm.here();
    asm.push(Inst::add(Reg::T2, Reg::S0, Reg::T0));
    asm.push(Inst::ld(Reg::T3, Reg::T2, 0));
    asm.push(Inst::addi(Reg::T0, Reg::T0, 64));
    asm.bne(Reg::T0, Reg::T1, line);
    asm.push(Inst::addi(Reg::S1, Reg::S1, -1));
    asm.bnez(Reg::S1, sweep);
    asm.push(Inst::Ecall); // enclave exit -> monitor
    Program {
        name: "attacker".into(),
        code: asm.assemble().expect("assembles"),
        data_size: 128 << 10,
        data_init: vec![],
        stack_size: 4096,
    }
}

/// Victim enclave: endless loop, either pure ALU (quiet) or a memory
/// hammer over 1 MiB (noisy). Never exits; the run ends when the
/// attacker does.
fn victim(noisy: bool) -> Program {
    let mut asm = Assembler::new(CODE_VA);
    asm.li(Reg::S0, DATA_VA);
    asm.li(Reg::S2, (1 << 20) - 64); // wrap mask
    asm.li(Reg::T0, 0);
    let top = asm.here();
    if noisy {
        asm.push(Inst::add(Reg::T2, Reg::S0, Reg::T0));
        asm.push(Inst::ld(Reg::T3, Reg::T2, 0));
        asm.push(Inst::addi(Reg::T0, Reg::T0, 64));
        asm.push(Inst::alu(AluOp::And, Reg::T0, Reg::T0, Reg::S2));
    } else {
        asm.push(Inst::addi(Reg::T2, Reg::T2, 1));
        asm.push(Inst::alu_imm(AluOp::Xor, Reg::T3, Reg::T3, 5));
        asm.nops(2);
    }
    asm.jump(top);
    Program {
        name: if noisy {
            "victim-noisy"
        } else {
            "victim-quiet"
        }
        .into(),
        code: asm.assemble().expect("assembles"),
        data_size: 1 << 20,
        data_init: vec![],
        stack_size: 4096,
    }
}

/// Loads both enclaves in set-disjoint regions and returns the cycle at
/// which the attacker halts.
pub fn attacker_finish_time(variant: Variant, noisy_victim: bool) -> u64 {
    let mut m = SimBuilder::new(variant)
        .cores(2)
        .without_timer()
        .build()
        .unwrap();
    let mut monitor = SecurityMonitor::new(&m);
    // Regions 5 and 6: low region bits 01 vs 10 — disjoint LLC quadrants
    // under the partitioned index.
    let atk = monitor
        .create_enclave(&mut m, &attacker(), &[RegionId(5)])
        .expect("attacker enclave");
    let vic = monitor
        .create_enclave(&mut m, &victim(noisy_victim), &[RegionId(6)])
        .expect("victim enclave");
    monitor.schedule(&mut m, 0, atk).expect("schedule attacker");
    monitor.schedule(&mut m, 1, vic).expect("schedule victim");
    let cap = 400_000_000;
    while !m.core(0).halted && m.now() < cap {
        m.tick();
    }
    assert!(m.core(0).halted, "attacker did not finish");
    m.now()
}

fn main() {
    println!("attacker enclave finish time with quiet vs noisy victim enclave:\n");
    for variant in [Variant::Base, Variant::SecureMi6] {
        let quiet = attacker_finish_time(variant, false);
        let noisy = attacker_finish_time(variant, true);
        let delta = noisy as i64 - quiet as i64;
        println!(
            "{:<10} quiet: {:>10}  noisy: {:>10}  delta: {:>8} cycles   {}",
            variant.name(),
            quiet,
            noisy,
            delta,
            if delta == 0 {
                "<- strong timing independence (no channel)"
            } else {
                "<- victim visible to attacker (timing channel!)"
            }
        );
    }
}
