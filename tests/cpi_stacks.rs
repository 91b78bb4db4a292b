//! CPI-stack correctness: the always-on top-down attribution must
//! account *every* commit slot of *every* cycle — `sum(slots) ==
//! cycles × commit_width` — on every kernel shape that stresses a
//! different blocking reason, on both the insecure baseline and the full
//! enclave machine. A leaked or double-charged slot anywhere in the
//! commit/squash/purge/idle-skip paths breaks the equality, so this is
//! the pin that keeps future pipeline work honest about attribution.

use mi6::core::{CpiCategory, CpiStack};
use mi6::soc::{Machine, SimBuilder, Variant};
use mi6::workloads::{generate, BranchStyle, Profile, WorkloadParams};

/// The kernel shapes, each leaning on a different stack category:
/// store pressure (SB/SQ), load pressure (LQ + LLC hits), DRAM misses
/// (serve-level splits plus idle-skip), and mispredict-heavy control
/// flow (squash attribution).
fn kernels() -> Vec<(&'static str, Profile)> {
    let quiet = Profile {
        stream_bytes: 0,
        stream_lines_per_iter: 0,
        chase_bytes: 0,
        chase_nodes_per_iter: 0,
        ws_bytes: 0,
        ws_accesses_per_iter: 0,
        branch_sites: 2,
        branch_style: BranchStyle::Easy,
        ilp_ops: 2,
        muldiv_ops: 0,
        syscall_every: 0,
    };
    vec![
        (
            "store-heavy",
            Profile {
                ws_bytes: 16 << 10,
                ws_accesses_per_iter: 24,
                ..quiet
            },
        ),
        (
            "load-heavy",
            Profile {
                stream_bytes: 64 << 10,
                stream_lines_per_iter: 4,
                chase_bytes: 128 << 10,
                chase_nodes_per_iter: 8,
                ..quiet
            },
        ),
        (
            "miss-heavy",
            Profile {
                chase_bytes: 4 << 20,
                chase_nodes_per_iter: 8,
                ..quiet
            },
        ),
        (
            "branchy",
            Profile {
                branch_sites: 32,
                branch_style: BranchStyle::Hard,
                ilp_ops: 4,
                syscall_every: 48,
                ..quiet
            },
        ),
    ]
}

fn run_kernel(variant: Variant, name: &str, profile: &Profile) -> (Machine, u64) {
    let params = WorkloadParams::tiny().with_target_kinsts(40);
    let mut m = SimBuilder::new(variant)
        .timer_interval(50_000)
        .workload(0, generate(name, profile, &params))
        .build()
        .unwrap();
    let stats = m
        .run_to_completion(300_000_000)
        .unwrap_or_else(|e| panic!("running {name} on {variant}: {e}"));
    let committed = stats.core[0].committed_instructions;
    (m, committed)
}

fn check_stack(variant: Variant, name: &str, cpi: &CpiStack, width: u64, committed: u64, sys: u64) {
    assert!(cpi.cycles > 0, "{variant}/{name}: no cycles accounted");
    assert_eq!(
        cpi.total_slots(),
        cpi.cycles * width,
        "{variant}/{name}: slots leak — stack {cpi:?}"
    );
    // One Base slot per ordinary retirement. Redirecting system
    // instructions (ecall/ebreak/sret/mret/purge) count as committed but
    // charge their slot to the squash/flush they trigger, so the gap is
    // bounded by the redirect counters (+1 for the final halting ebreak).
    let base = cpi.get(CpiCategory::Base);
    assert!(
        base <= committed,
        "{variant}/{name}: more base slots than retirements"
    );
    assert!(
        committed - base <= sys + 1,
        "{variant}/{name}: base gap {} exceeds {sys} redirects",
        committed - base
    );
}

#[test]
fn sum_invariant_holds_on_every_kernel_shape_and_variant() {
    for variant in [Variant::Base, Variant::Fpma] {
        for (name, profile) in kernels() {
            let (m, committed) = run_kernel(variant, name, &profile);
            let core = m.core(0);
            let width = core.config().commit_width as u64;
            let s = &core.stats;
            let sys = s.traps + s.trap_returns + s.purges;
            check_stack(variant, name, &core.cpi, width, committed, sys);
        }
    }
}

#[test]
fn kernel_shapes_surface_their_expected_categories() {
    // DRAM-bound pointer chase: misses must be attributed to the DRAM
    // serve level, and the idle-skip fast-forward must show up as
    // explicit Idle slots rather than silently vanishing.
    let (name, profile) = &kernels()[2];
    let (m, _) = run_kernel(Variant::Base, name, profile);
    let cpi = &m.core(0).cpi;
    assert!(
        cpi.get(CpiCategory::MemDram) + cpi.get(CpiCategory::MemPending) > 0,
        "miss-heavy run attributes no DRAM/pending slots: {cpi:?}"
    );
    assert!(
        cpi.get(CpiCategory::Idle) > 0,
        "miss-heavy run never idle-skipped: {cpi:?}"
    );

    // Hard branches: squash shadows must attribute mispredict slots.
    let (name, profile) = &kernels()[3];
    let (m, _) = run_kernel(Variant::Base, name, profile);
    let cpi = &m.core(0).cpi;
    assert!(
        cpi.get(CpiCategory::SquashMispredict) > 0,
        "branchy run attributes no mispredict slots: {cpi:?}"
    );

    // The enclave machine flushes on every trap: the flush mechanism's
    // cost must be explicit in the stack.
    let (m, _) = run_kernel(Variant::Fpma, name, profile);
    let cpi = &m.core(0).cpi;
    assert!(
        cpi.get(CpiCategory::Flush) > 0,
        "F+P+M+A run attributes no flush slots: {cpi:?}"
    );
}
