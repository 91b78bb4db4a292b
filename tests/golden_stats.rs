//! Golden-stats determinism tests for the simulation kernel.
//!
//! The golden numbers below were captured from the pre-split monolithic
//! `core.rs` / `llc.rs` implementations on a fixed-seed workload; the
//! split pipeline-stage modules must reproduce them exactly (cycle-exact
//! refactor). If a *deliberate* timing-model change shifts them, update
//! the constants in the same commit and say so.

use mi6::mem::{DowngradeOrg, DqOrg, MemConfig, MshrOrg, UqOrg};
use mi6::soc::{MachineStats, SimBuilder, Variant};
use mi6::workloads::{generate, BranchStyle, Profile, Workload, WorkloadParams};

/// The fixed-seed reference run: gcc at 40 kinsts with a 50k-cycle timer
/// (exercises traps, the LLC, the branch predictors, and page walks).
fn reference_run(variant: Variant) -> MachineStats {
    let mut m = SimBuilder::new(variant)
        .timer_interval(50_000)
        .workload(
            0,
            Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40)),
        )
        .build()
        .unwrap();
    m.run_to_completion(300_000_000).unwrap()
}

/// The stats fields a cycle-exact refactor must preserve.
fn fingerprint(stats: &MachineStats) -> [u64; 8] {
    let core = &stats.core[0];
    [
        stats.cycles,
        core.committed_instructions,
        core.branch_mispredicts,
        core.squashed_instructions,
        core.traps,
        stats.llc.misses,
        stats.llc.hits,
        stats.dram.0 + stats.dram.1,
    ]
}

#[test]
fn base_matches_golden() {
    let stats = reference_run(Variant::Base);
    assert_eq!(
        fingerprint(&stats),
        GOLDEN_BASE,
        "BASE fingerprint changed — the refactor is not cycle-exact\nfull stats: {stats:?}"
    );
}

#[test]
fn fpma_matches_golden() {
    let stats = reference_run(Variant::Fpma);
    assert_eq!(
        fingerprint(&stats),
        GOLDEN_FPMA,
        "F+P+M+A fingerprint changed — the refactor is not cycle-exact\nfull stats: {stats:?}"
    );
}

/// Captured from the monolithic implementation (see module docs), with
/// one deliberate timing change since: the store-buffer hit-latency fix
/// (PR 5) made drained stores occupy the SB for the modeled L1 hit
/// latency instead of retiring instantly, which costs this BASE run one
/// cycle (69857 → 69858; the F+P+M+A run is unaffected). The LSQ index
/// refactor in the same PR is timing-neutral — it reproduced the prior
/// constants exactly before the SB fix landed.
const GOLDEN_BASE: [u64; 8] = [69858, 35161, 587, 681, 3, 2052, 73, 2052];
const GOLDEN_FPMA: [u64; 8] = [79544, 35161, 743, 804, 3, 2054, 147, 2056];

/// The idle-heavy reference run: a dependent pointer chase over a 4 MiB
/// arena (4× the LLC), so nearly every load goes to DRAM and the core
/// spends most cycles fully stalled — exactly the regime the event-driven
/// fast-forward skips through. Captured *before* the fast-forward landed,
/// so this golden pins it to cycle-exactness where it is riskiest. The
/// timer keeps firing mid-stall, pinning trap delivery during skips too.
fn idle_reference_run() -> MachineStats {
    let profile = Profile {
        stream_bytes: 0,
        stream_lines_per_iter: 0,
        chase_bytes: 4 << 20,
        chase_nodes_per_iter: 8,
        ws_bytes: 0,
        ws_accesses_per_iter: 0,
        branch_sites: 1,
        branch_style: BranchStyle::Easy,
        ilp_ops: 0,
        muldiv_ops: 0,
        syscall_every: 0,
    };
    let program = generate(
        "idle-heavy",
        &profile,
        &WorkloadParams::tiny().with_target_kinsts(20),
    );
    let mut m = SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .workload(0, program)
        .build()
        .unwrap();
    m.run_to_completion(300_000_000).unwrap()
}

#[test]
fn idle_heavy_matches_golden() {
    let stats = idle_reference_run();
    assert_eq!(
        fingerprint(&stats),
        GOLDEN_IDLE,
        "idle-heavy fingerprint changed — the fast-forward is not cycle-exact\nfull stats: {stats:?}"
    );
}

/// Captured from the tick-every-cycle implementation (before the
/// next-event fast-forward); the fast-forward must reproduce it exactly.
const GOLDEN_IDLE: [u64; 8] = [881769, 18546, 64, 779, 19, 5873, 389, 5873];

/// The Figure-3 LLC ablations (paper Section 5.4): bzip2 on BASE (the
/// Figure-2 LLC), then with one MI6 mechanism swapped in through
/// `tune_mem`. The split UQ, the duplicated Downgrade-L1 and the
/// retry-bit DQ cost nothing (the paper: zero or negligible overhead);
/// the round-robin arbiter adds about N/2 cycles of LLC latency for N
/// cores.
#[test]
fn llc_ablations_match_golden() {
    let toggles: [fn(&mut MemConfig); 7] = [
        |_| {},
        |m| m.llc.uq = UqOrg::PerCore,
        |m| {
            m.llc.downgrade = DowngradeOrg::PerPartition;
            m.llc.mshrs = MshrOrg::PerCore { per_core: 12 };
        },
        |m| m.llc.dq = DqOrg::RetryBit,
        // The arbiter's extra N/2 cycles for N = 2, 4 and 8 cores.
        |m| m.llc.pipeline_latency += 1,
        |m| m.llc.pipeline_latency += 2,
        |m| m.llc.pipeline_latency += 4,
    ];
    let cycles = toggles.map(|toggle| {
        let mut m = SimBuilder::base()
            .without_timer()
            .tune_mem(toggle)
            .workload(
                0,
                Workload::Bzip2.build(&WorkloadParams::tiny().with_target_kinsts(20)),
            )
            .build()
            .unwrap();
        m.run_to_completion(50_000_000).unwrap().cycles
    });
    assert_eq!(cycles, GOLDEN_ABLATIONS, "LLC ablation cycles changed");
}

/// The seven runs' cycles, captured when they were a `cargo bench`
/// target. A deliberate timing change updates them in the same commit.
const GOLDEN_ABLATIONS: [u64; 7] = [39_250, 39_250, 39_250, 39_250, 39_596, 39_956, 40_718];

/// The snapshot round-trip property: interrupting the reference run at an
/// arbitrary mid-pipeline cycle, serializing the whole machine, restoring
/// into a freshly built one, and continuing must reproduce the exact
/// golden fingerprint of the uninterrupted run — for both BASE and the
/// F+P+M+A enclave configuration.
#[test]
fn snapshot_roundtrip_reproduces_golden_fingerprints() {
    for (variant, golden) in [(Variant::Base, GOLDEN_BASE), (Variant::Fpma, GOLDEN_FPMA)] {
        let mut warm = SimBuilder::new(variant)
            .timer_interval(50_000)
            .workload(
                0,
                Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40)),
            )
            .build()
            .unwrap();
        // Deep mid-run: past several timer traps, with the pipeline and
        // memory hierarchy full of in-flight state.
        warm.run_cycles(55_000);
        assert!(
            !warm.all_halted(),
            "{variant}: snapshot point must be mid-run"
        );
        let snap = warm.snapshot();
        // Restore into a *fresh* machine built from the same configuration
        // (no workload placed — the snapshot carries memory and images).
        let mut resumed = SimBuilder::new(variant)
            .timer_interval(50_000)
            .build()
            .unwrap();
        resumed.restore(&snap).unwrap();
        let stats = resumed.run_to_completion(300_000_000).unwrap();
        assert_eq!(
            fingerprint(&stats),
            golden,
            "{variant}: snapshot+restore diverged from the uninterrupted run\nfull stats: {stats:?}"
        );
    }
}

/// A committed snapshot fixture, captured at cycle 55,000 of the BASE
/// reference run *before* the struct-of-arrays ROB landed (PR 7), must
/// still restore and finish on the golden fingerprint. This pins two
/// things at once: the SoA `Rob` reads the exact byte format the
/// array-of-structs implementation wrote (no `FORMAT_VERSION` bump), and
/// the derived LSQ index — including parked mem-op worklist membership —
/// is rebuilt correctly from deep mid-run state with loads, walks, and
/// traps in flight.
#[test]
fn pre_soa_fixture_restores_and_matches_golden() {
    let bytes = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/pre_soa_base.mi6snap"
    ))
    .expect("fixture exists");
    let mut m = SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .build()
        .unwrap();
    m.restore(&bytes).unwrap();
    assert_eq!(m.now(), 55_000, "fixture was captured at cycle 55k");
    let stats = m.run_to_completion(300_000_000).unwrap();
    assert_eq!(
        fingerprint(&stats),
        GOLDEN_BASE,
        "pre-SoA snapshot diverged after restore\nfull stats: {stats:?}"
    );
}

/// A snapshot must refuse to load into a machine whose configuration or
/// snapshot-format version does not match, with a clear error.
#[test]
fn snapshot_refuses_mismatched_config_and_version() {
    let mut m = SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .workload(
            0,
            Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40)),
        )
        .build()
        .unwrap();
    m.run_cycles(10_000);
    let snap = m.snapshot();
    // Wrong variant.
    let mut other = SimBuilder::new(Variant::Fpma)
        .timer_interval(50_000)
        .build()
        .unwrap();
    let err = other.restore(&snap).unwrap_err().to_string();
    assert!(err.contains("does not match"), "unhelpful error: {err}");
    // Wrong timer interval (same variant).
    let mut other = SimBuilder::new(Variant::Base).build().unwrap();
    assert!(other.restore(&snap).is_err());
    // Corrupt format version.
    let mut bad = snap.clone();
    bad[4] ^= 0xff;
    let mut same = SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .build()
        .unwrap();
    let err = same.restore(&bad).unwrap_err().to_string();
    assert!(err.contains("version"), "unhelpful error: {err}");
}

#[test]
fn reruns_are_bit_identical() {
    for variant in [Variant::Base, Variant::Fpma] {
        let a = reference_run(variant);
        let b = reference_run(variant);
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{variant} is nondeterministic"
        );
    }
}

#[test]
fn every_variant_smoke() {
    for variant in Variant::ALL {
        let mut m = SimBuilder::new(variant)
            .without_timer()
            .workload(
                0,
                Workload::Hmmer.build(&WorkloadParams::tiny().with_target_kinsts(10)),
            )
            .build()
            .unwrap();
        let stats = m.run_to_completion(100_000_000).unwrap();
        assert!(
            stats.core[0].committed_instructions > 5_000,
            "{variant}: {} instructions",
            stats.core[0].committed_instructions
        );
    }
}
