//! Observability must be timing-neutral: re-running the golden reference
//! workload with pipeline tracing *and* metrics sampling enabled has to
//! reproduce the exact same stats fingerprint as the untraced run, and
//! the artifacts it writes must pass the `mi6-obs` schema checkers.
//!
//! The golden constants are duplicated from `golden_stats.rs` on
//! purpose: if a deliberate timing change updates one file but not the
//! other, the mismatch is a loud reminder that observability neutrality
//! was re-verified (or not) against the new numbers.

use mi6::soc::{MachineStats, SimBuilder, Variant};
use mi6::workloads::{Workload, WorkloadParams};
use std::path::PathBuf;

const GOLDEN_BASE: [u64; 8] = [69858, 35161, 587, 681, 3, 2052, 73, 2052];
const GOLDEN_FPMA: [u64; 8] = [79544, 35161, 743, 804, 3, 2054, 147, 2056];

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

/// The golden reference run with full observability attached. Returns
/// the stats and core 0's commit width (the CPI-stack slot divisor).
fn observed_run(variant: Variant, trace: &PathBuf, metrics: &PathBuf) -> (MachineStats, u64) {
    let mut m = SimBuilder::new(variant)
        .timer_interval(50_000)
        .workload(
            0,
            Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40)),
        )
        .trace_path(trace)
        .metrics(metrics, 1_000)
        .build()
        .unwrap();
    let stats = m.run_to_completion(300_000_000).unwrap();
    let width = m.core(0).config().commit_width as u64;
    (stats, width)
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mi6-obs-neutrality-{}-{name}", std::process::id()))
}

#[test]
fn tracing_and_metrics_do_not_perturb_golden_fingerprints() {
    for (variant, golden) in [(Variant::Base, GOLDEN_BASE), (Variant::Fpma, GOLDEN_FPMA)] {
        let trace = tmp(&format!("{variant:?}.trace"));
        let metrics = tmp(&format!("{variant:?}.metrics.jsonl"));
        let (stats, width) = observed_run(variant, &trace, &metrics);
        assert_eq!(
            fingerprint(&stats),
            golden,
            "{variant}: enabling trace+metrics changed the timing\nfull stats: {stats:?}"
        );

        // The always-on CPI stack accounted every commit slot of every
        // cycle — on the *golden* run, so the attribution demonstrably
        // never perturbed timing while staying exhaustive.
        let cpi = &stats.cpi[0];
        assert_eq!(
            cpi.total_slots(),
            cpi.cycles * width,
            "{variant}: CPI stack leaks slots: {cpi:?}"
        );
        assert_eq!(
            cpi.cycles, stats.core[0].cycles,
            "{variant}: stack cycle counter diverged from the core's"
        );

        // The trace must be a well-formed O3PipeView stream covering the
        // whole run: every committed and squashed op leaves a record.
        let tsum = mi6_obs::check_trace_file(&trace).expect("trace validates");
        assert!(
            tsum.ops as u64 >= stats.core[0].committed_instructions,
            "{variant}: trace has {} ops for {} committed instructions",
            tsum.ops,
            stats.core[0].committed_instructions
        );
        assert!(tsum.squashed > 0, "{variant}: no squashed ops traced");

        // The metrics stream must be schema-valid, sampled across the
        // run, and carry the headline occupancy series.
        let msum = mi6_obs::check_metrics_file(&metrics).expect("metrics validate");
        assert!(msum.rows > 0);
        let (first, last) = msum.cycle_range;
        assert!(first <= 1_000, "first sample late: {first}");
        assert!(
            last >= stats.cycles - 1_000,
            "last sample early: {last} of {} cycles",
            stats.cycles
        );
        for needed in [
            "rob_occupancy",
            "iq_occupancy",
            "mshr_occupancy",
            "arb_grants",
        ] {
            assert!(
                msum.metrics.iter().any(|m| m == needed),
                "{variant}: metric `{needed}` missing from {:?}",
                msum.metrics
            );
        }
        // Every CPI-stack category streams as a per-window counter, under
        // the same names the `--json` lines use.
        for metric in mi6_obs::CPI_KEYS {
            assert!(
                msum.metrics.iter().any(|m| m == metric),
                "{variant}: metric `{metric}` missing from {:?}",
                msum.metrics
            );
        }

        std::fs::remove_file(&trace).ok();
        std::fs::remove_file(&metrics).ok();
    }
}

/// Tracing with a cap must stop recording new ops at the cap without
/// touching timing, and still produce a valid (truncated) trace.
#[test]
fn trace_limit_truncates_without_perturbing_timing() {
    let trace = tmp("limited.trace");
    let metrics = tmp("limited.metrics.jsonl");
    let mut m = SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .workload(
            0,
            Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40)),
        )
        .trace_path(&trace)
        .trace_limit(2_000)
        .metrics(&metrics, 5_000)
        .build()
        .unwrap();
    let stats = m.run_to_completion(300_000_000).unwrap();
    assert_eq!(
        fingerprint(&stats),
        GOLDEN_BASE,
        "trace cap changed the timing\nfull stats: {stats:?}"
    );
    let tsum = mi6_obs::check_trace_file(&trace).expect("capped trace validates");
    assert!(
        tsum.ops <= 2_000,
        "cap of 2000 ops exceeded: {} ops",
        tsum.ops
    );
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&metrics).ok();
}
