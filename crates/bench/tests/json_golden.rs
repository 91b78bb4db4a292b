//! Golden bytes of every flat JSON line the harness writes: one line per
//! format, built from fixed inputs, must equal its line in
//! `fixtures/json_golden.jsonl`.
//!
//! Shard journals, the `--json` stream and the observability artifacts
//! are on-disk contracts: merged figure tables must be byte-identical to
//! unsharded ones, and old journals must stay readable. A change to any
//! of these bytes is a format change and must be made on purpose.

use mi6_bench::scenario::ScenarioPoint;
use mi6_bench::{GridPoint, HarnessOpts, PartialPoint, PointResult, RunRecord};
use mi6_core::CpiStack;
use mi6_obs::MetricsSink;
use mi6_soc::Variant;
use mi6_workloads::Workload;
use std::path::PathBuf;

/// The lines in fixture order: a grid point without and with a metrics
/// artifact, a partial point, a scenario point, and a metrics row with
/// and without `core`.
fn lines() -> Vec<String> {
    // Slots 10, 20, …, 160 sum to 1360 = 680 cycles × width 2.
    let slots: [u64; 16] = std::array::from_fn(|i| (i as u64 + 1) * 10);
    let stack = CpiStack::from_raw(680, slots, [1, 2, 3, 4, 5]);
    let point = GridPoint {
        variant: Variant::Fpma,
        workload: Workload::Gcc,
        opts: HarnessOpts {
            kinsts: 2000,
            timer: 250_000,
            seed: 0xDEAD_BEEF_1234_5678,
        },
    };
    let result = |metrics: Option<&str>| PointResult {
        point,
        record: RunRecord {
            name: "gcc",
            cycles: 1_234_567,
            instructions: 1_000_000,
            branch_mpki: 13.537,
            llc_mpki: 2.0,
            flush_stall_cycles: 42,
            traps: 7,
            cpi: stack.clone(),
            commit_width: 2,
            cycles_ticked: 1_200_000,
            cycles_skipped: 34_567,
        },
        wall_ms: 321,
        worker: 1,
        warm: "forkbase:120000".to_string(),
        metrics: metrics.map(str::to_string),
    };
    let partial = PartialPoint {
        point,
        cycles: 123_456,
        instructions: 7_890,
        wall_ms: 42,
        worker: 3,
        warm: "cold".to_string(),
    };
    let scenario = ScenarioPoint {
        variant: Variant::SecureMi6,
        contended: true,
        victim_cycles: 98_765,
        victim_instructions: 50_000,
        victim_cpi: stack.clone(),
        victim_commit_width: 2,
        cycles_ticked: 90_000,
        cycles_skipped: 8_765,
        metrics_path: Some(PathBuf::from(
            "obs/enclave-attacker-mi6-contended.metrics.jsonl",
        )),
    };
    let mut sink = MetricsSink::new();
    sink.gauge(4_096, Some(1), "mshr_occupancy", 3);
    sink.counter(8_192, None, "skipped_cycles", 2_048);
    let rows = sink.take();
    assert!(rows.ends_with('\n'), "{rows:?}");
    let mut lines = vec![
        result(None).to_json(),
        result(Some(
            "out/metrics/F+P+M+A-gcc-2000-250000-deadbeef12345678.metrics.jsonl",
        ))
        .to_json(),
        partial.to_json(),
        scenario.to_json(),
    ];
    lines.extend(rows.lines().map(str::to_string));
    lines
}

#[test]
fn every_json_line_format_matches_its_golden_bytes() {
    let golden: Vec<&str> = include_str!("fixtures/json_golden.jsonl").lines().collect();
    let lines = lines();
    assert_eq!(lines.len(), golden.len());
    for (i, (got, want)) in lines.iter().zip(&golden).enumerate() {
        assert_eq!(got, want, "line {}", i + 1);
    }
}
