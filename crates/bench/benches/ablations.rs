//! Ablations of the Figure-3 LLC mechanisms (DESIGN.md).
//!
//! Each configuration simulates the same workload with one mechanism
//! toggled; the simulated cycle count is the ablation readout, and host
//! wall time (printed by the harness) is proportional to it. Run with
//! `cargo bench -p mi6-bench --bench ablations`.

use mi6_bench::microbench::bench_n;
use mi6_mem::{DowngradeOrg, DqOrg, MemConfig, MshrOrg, UqOrg};
use mi6_soc::SimBuilder;
use mi6_workloads::{Workload, WorkloadParams};

/// Runs the workload on BASE (the Figure-2 LLC) with `toggle` applied.
fn simulate(label: &str, toggle: impl FnOnce(&mut MemConfig)) -> u64 {
    let mut machine = SimBuilder::base()
        .without_timer()
        .tune_mem(toggle)
        .workload(
            0,
            Workload::Bzip2.build(&WorkloadParams::tiny().with_target_kinsts(20)),
        )
        .build()
        .expect("build");
    let stats = machine.run_to_completion(50_000_000).expect("run");
    eprintln!("ablation[{label}]: {} simulated cycles", stats.cycles);
    stats.cycles
}

fn bench_ablation(name: &'static str, toggle: impl Fn(&mut MemConfig)) {
    bench_n(name, 3, || {
        simulate(name, &toggle);
    });
}

fn main() {
    bench_ablation("llc baseline (fig2)", |_| {});

    // Split UQ vs shared UQ (paper: zero overhead).
    bench_ablation("llc split UQ", |m| m.llc.uq = UqOrg::PerCore);

    // Duplicated vs single Downgrade-L1 (paper: zero overhead).
    bench_ablation("llc duplicated downgrade", |m| {
        m.llc.downgrade = DowngradeOrg::PerPartition;
        m.llc.mshrs = MshrOrg::PerCore { per_core: 12 };
    });

    // DQ retry bit vs two-cycle dequeue (paper: negligible).
    bench_ablation("llc DQ retry bit", |m| m.llc.dq = DqOrg::RetryBit);

    // Arbiter latency as a function of core count (paper Sec 5.4.4:
    // average extra latency is N/2 cycles).
    for n in [2u32, 4, 8] {
        bench_ablation(
            match n {
                2 => "llc arbiter 2 cores (+1 cycle)",
                4 => "llc arbiter 4 cores (+2 cycles)",
                _ => "llc arbiter 8 cores (+4 cycles)",
            },
            move |m| m.llc.pipeline_latency += n / 2,
        );
    }
}
