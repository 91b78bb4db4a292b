//! End-to-end sharding determinism (the ISSUE's acceptance criteria):
//!
//! - a full grid run and a 3-shard run of the same grid must merge to
//!   *byte-identical* figure tables;
//! - `merge` must reject a shard set with a missing or duplicated point;
//! - killing a shard mid-run and restarting it must complete from the
//!   journal without recomputing finished points.

use mi6_bench::sharding::{load_shard_dir, merge_shards, open_shard_journal, MergeError, Replay};
use mi6_bench::{
    plan_grid, run_grid_scheduled, GridPlan, GridPoint, GridSchedule, HarnessOpts, PointResult,
};
use mi6_grid::ShardSpec;
use mi6_workloads::Workload;
use std::path::{Path, PathBuf};

fn tiny_opts() -> HarnessOpts {
    HarnessOpts::default().with_kinsts(10).with_timer(0)
}

/// Runs every point to completion on `threads` workers, streaming each
/// result to `on_result` as it finishes.
fn run_grid(
    points: &[GridPoint],
    threads: usize,
    on_result: impl FnMut(&PointResult),
) -> Vec<PointResult> {
    run_grid_scheduled(points, &GridSchedule::new(threads), on_result)
        .results
        .into_iter()
        .map(|r| r.expect("no deadline set"))
        .collect()
}

/// Whether a journal replay holds `p`'s result (a resumed shard skips it).
fn done(replay: &Replay, p: &GridPoint) -> bool {
    replay.results.iter().any(|(k, _)| *k == p.key())
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mi6-shard-e2e-{label}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs one shard to completion, journaling every completed point —
/// exactly what `mi6-experiments --shard i/N --out DIR` does.
fn run_shard(plan: &GridPlan, dir: &Path, spec: ShardSpec) -> usize {
    let (mut journal, replay) = open_shard_journal(dir, spec).unwrap();
    let todo: Vec<_> = plan
        .shard_points(spec)
        .into_iter()
        .filter(|p| !done(&replay, p))
        .collect();
    let ran = todo.len();
    run_grid(&todo, 2, |res| {
        journal.append(&res.to_json()).unwrap();
    });
    ran
}

#[test]
fn three_shards_merge_byte_identical_to_full_grid() {
    let dir = scratch_dir("identical");
    // Figure 6 is the cheapest real grid (11 FLUSH points); two seeds
    // exercise the mean + confidence-interval rendering through the JSON
    // round-trip as well.
    let plan = plan_grid(&[6], tiny_opts(), 2, &Workload::ALL);
    let unsharded = run_grid(&plan.points, 4, |_| {});
    let expected = plan.render(&unsharded);
    assert!(expected.contains("Figure 6"), "{expected}");
    assert!(expected.contains("95% CI"), "{expected}");

    let total = 3u32;
    let mut ran = 0usize;
    for index in 0..total {
        ran += run_shard(&plan, &dir, ShardSpec { index, total });
    }
    assert_eq!(ran, plan.points.len(), "shards must partition the grid");

    let replay = load_shard_dir(&dir).unwrap();
    assert_eq!(replay.files, 3);
    assert_eq!(replay.bad_lines, 0);
    let (merged, cov) = merge_shards(&plan, &replay).unwrap();
    assert!(cov.extra.is_empty());
    assert_eq!(
        plan.render(&merged),
        expected,
        "merged tables must be byte-identical to the unsharded run"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_shard_resumes_from_journal_without_recomputing() {
    let dir = scratch_dir("resume");
    let plan = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
    let spec = ShardSpec::whole(); // one shard owning the whole grid
    let owned = plan.shard_points(spec);
    assert_eq!(owned.len(), plan.points.len());

    // "Kill" the shard after three points: journal only a prefix.
    let cut = 3usize;
    {
        let (mut journal, _) = open_shard_journal(&dir, spec).unwrap();
        run_grid(&owned[..cut], 2, |res| {
            journal.append(&res.to_json()).unwrap();
        });
    }
    // Simulate the torn trailing line of a mid-write kill.
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(spec.file_name()))
            .unwrap();
        write!(f, "{{\"variant\":\"FLUSH\",\"workl").unwrap();
    }

    // Restart: the journal replays the finished prefix, drops the torn
    // tail, and only the remaining points are recomputed.
    let (mut journal, replay) = open_shard_journal(&dir, spec).unwrap();
    assert_eq!(replay.torn_tails.len(), 1);
    assert_eq!(replay.results.len(), cut);
    let todo: Vec<_> = owned
        .iter()
        .filter(|p| !done(&replay, p))
        .copied()
        .collect();
    assert_eq!(todo.len(), owned.len() - cut, "finished points recomputed");
    run_grid(&todo, 2, |res| {
        journal.append(&res.to_json()).unwrap();
    });

    // The completed journal now merges exactly, and matches a fresh
    // unsharded run byte-for-byte.
    let replay = load_shard_dir(&dir).unwrap();
    assert_eq!(replay.bad_lines, 0);
    assert!(replay.torn_tails.is_empty(), "torn tail not truncated");
    let (merged, _) = merge_shards(&plan, &replay).unwrap();
    let unsharded = run_grid(&plan.points, 4, |_| {});
    assert_eq!(plan.render(&merged), plan.render(&unsharded));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn merge_rejects_missing_and_duplicated_journal_points() {
    let dir = scratch_dir("reject");
    let plan = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
    run_shard(&plan, &dir, ShardSpec::whole());
    let journal = dir.join(ShardSpec::whole().file_name());
    let full = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    assert_eq!(lines.len(), plan.points.len());

    let coverage = |err: MergeError| match err {
        MergeError::Coverage(cov) => cov,
        other => panic!("expected a coverage error, got {other:?}"),
    };

    // Missing: drop one line.
    std::fs::write(&journal, lines[1..].join("\n") + "\n").unwrap();
    let err = coverage(merge_shards(&plan, &load_shard_dir(&dir).unwrap()).unwrap_err());
    assert_eq!(err.missing.len(), 1);
    assert!(err.duplicate.is_empty());

    // Duplicated: restore plus repeat a line (as if two hosts ran the
    // same shard into separate files).
    std::fs::write(&journal, &full).unwrap();
    std::fs::write(dir.join("shard-stray.jsonl"), format!("{}\n", lines[4])).unwrap();
    let err = coverage(merge_shards(&plan, &load_shard_dir(&dir).unwrap()).unwrap_err());
    assert_eq!(err.duplicate.len(), 1);
    assert_eq!(err.duplicate[0].1, 2);

    // A non-journal JSONL dropped into the directory (e.g. a --json
    // stream) is not read as a shard: no phantom duplicates.
    std::fs::remove_file(dir.join("shard-stray.jsonl")).unwrap();
    std::fs::write(dir.join("results.jsonl"), &full).unwrap();
    assert!(merge_shards(&plan, &load_shard_dir(&dir).unwrap()).is_ok());
    std::fs::remove_dir_all(&dir).unwrap();
}
