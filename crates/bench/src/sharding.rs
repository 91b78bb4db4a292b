//! Bench-side glue between the figure grids and `mi6-grid`'s sharding.
//!
//! A [`GridPlan`] is the deduplicated point set of a figure/seed request
//! plus the bookkeeping to reassemble per-figure, per-seed result vectors
//! from it. The same plan drives three paths, which is what makes sharded
//! runs trustworthy:
//!
//! - the **unsharded run** executes `plan.points` and renders tables;
//! - a **shard run** executes the subset `ShardSpec::contains` assigns to
//!   it, journaling each completed point as a JSON line;
//! - **merge** re-derives the identical plan from the identical flags,
//!   validates that the journal lines cover `plan.points` exactly once
//!   (missing or duplicated points are hard errors), and renders the
//!   same tables — byte-identical to the unsharded run, because the JSON
//!   round-trips every counter and float exactly.

use crate::figures::figure_points_for;
use crate::runner::{GridPoint, PointResult};
use crate::{mean_results, render_figure, render_seed_ci, HarnessOpts};
use mi6_grid::journal::JournalReplay;
use mi6_grid::{validate_coverage, Coverage, Journal, ShardSpec};
use mi6_workloads::Workload;
use std::collections::BTreeMap;
use std::path::Path;

/// The deduplicated execution plan of a figure/seed request.
#[derive(Debug)]
pub struct GridPlan {
    /// Workload seeds per point (`--seeds`).
    pub seeds: u64,
    /// The unique grid points, in first-use order. A BASE pass shared by
    /// e.g. figures 5 and 7 appears once per seed.
    pub points: Vec<GridPoint>,
    /// Per figure: per seed: indices into `points`, in `figure_points`
    /// order.
    fig_indices: Vec<(u32, Vec<Vec<usize>>)>,
}

/// Builds the plan for a set of figures: every requested figure × seed,
/// deduplicated by point key.
pub fn plan_grid(
    figures: &[u32],
    opts: HarnessOpts,
    seeds: u64,
    workloads: &[Workload],
) -> GridPlan {
    let mut unique: BTreeMap<String, usize> = BTreeMap::new();
    let mut points = Vec::new();
    let mut fig_indices: Vec<(u32, Vec<Vec<usize>>)> = Vec::new();
    for &fig in figures {
        let mut per_seed = Vec::with_capacity(seeds as usize);
        for s in 0..seeds {
            let opts = opts.with_seed(opts.seed_at(s));
            let fig_points = figure_points_for(fig, opts, workloads);
            let mut indices = Vec::with_capacity(fig_points.len());
            for p in &fig_points {
                let idx = *unique.entry(p.key()).or_insert_with(|| {
                    points.push(*p);
                    points.len() - 1
                });
                indices.push(idx);
            }
            per_seed.push(indices);
        }
        fig_indices.push((fig, per_seed));
    }
    GridPlan {
        seeds,
        points,
        fig_indices,
    }
}

impl GridPlan {
    /// Total point executions across figures and seeds (before dedup).
    pub fn gross_points(&self) -> usize {
        self.fig_indices
            .iter()
            .map(|(_, per_seed)| per_seed.iter().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// The subset of `points` a shard owns.
    pub fn shard_points(&self, spec: ShardSpec) -> Vec<GridPoint> {
        self.points
            .iter()
            .filter(|p| spec.contains(&p.key()))
            .copied()
            .collect()
    }

    /// Renders every planned figure from results in `points` order
    /// (single-seed figures directly; multi-seed ones as per-point means
    /// followed by the 95% CI table).
    pub fn render(&self, results: &[PointResult]) -> String {
        assert_eq!(results.len(), self.points.len(), "results/plan mismatch");
        let mut out = String::new();
        for (fig, per_seed_idx) in &self.fig_indices {
            let per_seed: Vec<Vec<PointResult>> = per_seed_idx
                .iter()
                .map(|indices| indices.iter().map(|&i| results[i].clone()).collect())
                .collect();
            if per_seed.len() == 1 || per_seed[0].is_empty() {
                out.push_str(&render_figure(*fig, &per_seed[0]));
            } else {
                out.push_str(&render_figure(*fig, &mean_results(&per_seed)));
                out.push_str(&render_seed_ci(*fig, &per_seed));
            }
        }
        out
    }
}

/// Every line read back from shard journals, classified once for both
/// resume ([`open_shard_journal`]) and merge ([`load_shard_dir`]).
#[derive(Debug, Default)]
pub struct Replay {
    /// Every journaled result, with its key (duplicates kept — coverage
    /// validation counts them).
    pub results: Vec<(String, PointResult)>,
    /// Journal files read.
    pub files: usize,
    /// Where each torn trailing line (a shard killed mid-write) is, as
    /// `FILE:LINE`.
    pub torn_tails: Vec<String>,
    /// `"partial":true` lines (deadline-interrupted points).
    pub partial_lines: usize,
    /// Complete lines that are neither results nor partial lines.
    pub bad_lines: usize,
}

impl Replay {
    /// Classifies one journal's lines into the replay.
    fn add(&mut self, path: &Path, journal: JournalReplay) {
        self.files += 1;
        for line in &journal.lines {
            match PointResult::from_json(line) {
                Ok(res) => self.results.push((res.point.key(), res)),
                Err(_) if crate::is_partial_line(line) => self.partial_lines += 1,
                Err(_) => self.bad_lines += 1,
            }
        }
        if journal.torn_tail {
            let line = journal.lines.len() + 1;
            self.torn_tails.push(format!("{}:{line}", path.display()));
        }
    }

    /// One note per skipped line or kind of line (empty when every line
    /// was a result). Skipped points are recomputed when their shard
    /// resumes.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for at in &self.torn_tails {
            out += &format!("{at}: torn trailing line skipped (killed mid-write)\n");
        }
        if self.bad_lines > 0 {
            out += &format!("{} unparseable journal line(s) skipped\n", self.bad_lines);
        }
        if self.partial_lines > 0 {
            out += &format!("{} partial-progress line(s) skipped\n", self.partial_lines);
        }
        out
    }
}

/// Opens (creating `dir` if needed) the journal for `spec` for appending,
/// truncating a torn tail away, and replays its lines.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory or file cannot be
/// created or read.
pub fn open_shard_journal(dir: &Path, spec: ShardSpec) -> std::io::Result<(Journal, Replay)> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(spec.file_name());
    let (journal, lines) = Journal::open(&path)?;
    let mut replay = Replay::default();
    replay.add(&path, lines);
    Ok((journal, replay))
}

/// Reads every `shard-*.jsonl` journal in `dir`. Only files with the
/// journal name prefix count: a `--json` stream file dropped into the
/// same directory (`--out shards --json shards/results.jsonl`) must not
/// be double-counted as a shard and break the merge with phantom
/// duplicates.
///
/// # Errors
///
/// Returns the underlying I/O error if the directory cannot be listed or
/// a file cannot be read.
pub fn load_shard_dir(dir: &Path) -> std::io::Result<Replay> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "jsonl")
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-"))
        })
        .collect();
    paths.sort();
    let mut replay = Replay::default();
    for path in paths {
        replay.add(&path, Journal::read(&path)?);
    }
    Ok(replay)
}

/// Why a merge refused to combine shard files.
#[derive(Clone, Debug)]
pub enum MergeError {
    /// The shard set does not cover the expected grid exactly once.
    Coverage(Coverage),
    /// The shards mix fork-base warm-ups with other methodologies (the
    /// distinct `warm` tags found). Cold and exact warm-forks are
    /// bit-identical and mix freely; fork-base results measure a
    /// different shared-prefix methodology and must be homogeneous.
    MixedWarm(Vec<String>),
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Coverage(cov) => write!(f, "{cov}"),
            MergeError::MixedWarm(tags) => writeln!(
                f,
                "shards mix fork-base with other warm-up methodologies ({}); \
                 rerun the odd shards with matching --warmup/--fork-base flags",
                tags.join(", ")
            ),
        }
    }
}

/// Merges replayed shard results against a plan: validates coverage
/// (missing or duplicated expected points are hard errors; extra points
/// — e.g. merging one figure out of an `--all` shard directory — are
/// ignored), rejects fork-base/non-fork-base mixes, and returns the
/// results in `plan.points` order, plus the coverage report (whose
/// `extra` list names the ignored points).
///
/// # Errors
///
/// Returns [`MergeError`] on a missing or duplicated point, or on shards
/// whose warm-up methodologies cannot be combined.
pub fn merge_shards(
    plan: &GridPlan,
    replay: &Replay,
) -> Result<(Vec<PointResult>, Coverage), MergeError> {
    let expected: Vec<String> = plan.points.iter().map(|p| p.key()).collect();
    let coverage = validate_coverage(
        expected.iter().map(String::as_str),
        replay.results.iter().map(|(k, _)| k.as_str()),
    )
    .map_err(MergeError::Coverage)?;
    let by_key: BTreeMap<&str, &PointResult> = replay
        .results
        .iter()
        .map(|(k, r)| (k.as_str(), r))
        .collect();
    let results: Vec<PointResult> = expected
        .iter()
        .map(|k| (*by_key.get(k.as_str()).expect("validated above")).clone())
        .collect();
    let warms: std::collections::BTreeSet<&str> = results.iter().map(|r| r.warm.as_str()).collect();
    if warms.len() > 1 && warms.iter().any(|w| w.starts_with("forkbase")) {
        return Err(MergeError::MixedWarm(
            warms.into_iter().map(str::to_string).collect(),
        ));
    }
    Ok((results, coverage))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> HarnessOpts {
        HarnessOpts::default().with_kinsts(10).with_timer(0)
    }

    #[test]
    fn plan_dedupes_shared_base_passes() {
        // Figures 5 and 7 share their BASE and FLUSH passes entirely.
        let plan = plan_grid(&[5, 7], tiny_opts(), 1, &Workload::ALL);
        assert_eq!(plan.points.len(), 22);
        assert_eq!(plan.gross_points(), 44);
        // Distinct seeds do not dedupe.
        let plan = plan_grid(&[5], tiny_opts(), 2, &Workload::ALL);
        assert_eq!(plan.points.len(), 44);
    }

    #[test]
    fn shards_partition_the_plan() {
        let plan = plan_grid(&[13], tiny_opts(), 1, &Workload::ALL);
        let total = 3u32;
        let mut seen = 0usize;
        for index in 0..total {
            seen += plan.shard_points(ShardSpec { index, total }).len();
        }
        assert_eq!(seen, plan.points.len());
    }

    fn fake(p: &GridPoint, warm: &str) -> PointResult {
        PointResult {
            point: *p,
            record: crate::RunRecord {
                name: p.workload.name(),
                cycles: 1,
                instructions: 1,
                branch_mpki: 0.0,
                llc_mpki: 0.0,
                flush_stall_cycles: 0,
                traps: 0,
                cpi: Default::default(),
                commit_width: 2,
                cycles_ticked: 0,
                cycles_skipped: 0,
            },
            wall_ms: 0,
            worker: 0,
            warm: warm.to_string(),
            metrics: None,
        }
    }

    fn replayed(results: Vec<(String, PointResult)>) -> Replay {
        Replay {
            results,
            ..Replay::default()
        }
    }

    fn coverage_err(err: MergeError) -> Coverage {
        match err {
            MergeError::Coverage(cov) => cov,
            other => panic!("expected a coverage error, got {other:?}"),
        }
    }

    #[test]
    fn merge_detects_missing_and_duplicate_points() {
        let plan = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
        let full: Vec<(String, PointResult)> = plan
            .points
            .iter()
            .map(|p| (p.key(), fake(p, "cold")))
            .collect();
        // Exact coverage merges.
        let (merged, cov) = merge_shards(&plan, &replayed(full.clone())).unwrap();
        assert_eq!(merged.len(), plan.points.len());
        assert!(cov.extra.is_empty());
        // A missing point is a hard error.
        let err = coverage_err(merge_shards(&plan, &replayed(full[1..].to_vec())).unwrap_err());
        assert_eq!(err.missing, vec![full[0].0.clone()]);
        // A duplicated point is a hard error.
        let mut dup = full.clone();
        dup.push(full[3].clone());
        let err = coverage_err(merge_shards(&plan, &replayed(dup)).unwrap_err());
        assert_eq!(err.duplicate.len(), 1);
        assert_eq!(err.duplicate[0].0, full[3].0);
    }

    #[test]
    fn merge_rejects_forkbase_mixed_with_other_warm_modes() {
        let plan = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
        let mixed: Vec<(String, PointResult)> = plan
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let warm = if i == 0 { "forkbase:500000" } else { "cold" };
                (p.key(), fake(p, warm))
            })
            .collect();
        let err = merge_shards(&plan, &replayed(mixed)).unwrap_err();
        assert!(
            matches!(&err, MergeError::MixedWarm(tags) if tags.len() == 2),
            "{err:?}"
        );
        // Cold + exact mix freely (both bit-identical to cold runs)...
        let ok: Vec<(String, PointResult)> = plan
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let warm = if i % 2 == 0 { "exact:500000" } else { "cold" };
                (p.key(), fake(p, warm))
            })
            .collect();
        assert!(merge_shards(&plan, &replayed(ok)).is_ok());
        // ... and homogeneous fork-base shards also merge.
        let all_fb: Vec<(String, PointResult)> = plan
            .points
            .iter()
            .map(|p| (p.key(), fake(p, "forkbase:500000")))
            .collect();
        assert!(merge_shards(&plan, &replayed(all_fb)).is_ok());
    }

    #[test]
    fn journal_resume_skips_completed_points() {
        let dir = std::env::temp_dir().join(format!("mi6-shardj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
        let spec = ShardSpec::whole();
        // First open: empty journal; pretend we completed two points.
        {
            let (mut journal, replay) = open_shard_journal(&dir, spec).unwrap();
            assert!(replay.results.is_empty());
            for p in &plan.points[..2] {
                let res = PointResult {
                    point: *p,
                    record: crate::RunRecord {
                        name: p.workload.name(),
                        cycles: 7,
                        instructions: 7,
                        branch_mpki: 0.5,
                        llc_mpki: 0.25,
                        flush_stall_cycles: 0,
                        traps: 0,
                        cpi: Default::default(),
                        commit_width: 2,
                        cycles_ticked: 0,
                        cycles_skipped: 0,
                    },
                    wall_ms: 3,
                    worker: 1,
                    warm: "cold".to_string(),
                    metrics: None,
                };
                journal.append(&res.to_json()).unwrap();
            }
        }
        // Reopen: the two points replay and would be skipped.
        let (_, replay) = open_shard_journal(&dir, spec).unwrap();
        let done: BTreeMap<&str, &PointResult> = replay
            .results
            .iter()
            .map(|(k, r)| (k.as_str(), r))
            .collect();
        assert_eq!(done.len(), 2);
        assert!(replay.torn_tails.is_empty());
        assert!(done.contains_key(plan.points[0].key().as_str()));
        let todo: Vec<&GridPoint> = plan
            .points
            .iter()
            .filter(|p| !done.contains_key(p.key().as_str()))
            .collect();
        assert_eq!(todo.len(), plan.points.len() - 2);
        // The replayed result round-tripped exactly.
        let r = done[plan.points[0].key().as_str()];
        assert_eq!(r.record.cycles, 7);
        assert_eq!(r.record.llc_mpki, 0.25);
        assert_eq!(r.worker, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_counts_each_kind_of_journal_line() {
        let dir = std::env::temp_dir().join(format!("mi6-shard-kinds-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let plan = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
        let partial = crate::PartialPoint {
            point: plan.points[1],
            cycles: 4_096,
            instructions: 1_000,
            wall_ms: 1,
            worker: 0,
            warm: "cold".to_string(),
        };
        let journal = dir.join(ShardSpec::whole().file_name());
        let lines = [
            fake(&plan.points[0], "cold").to_json(),
            partial.to_json(),
            "not a journal line".to_string(),
        ];
        let torn = "{\"variant\":\"FL";
        std::fs::write(&journal, lines.join("\n") + "\n" + torn).unwrap();

        let replay = load_shard_dir(&dir).unwrap();
        assert_eq!(replay.files, 1);
        assert_eq!(replay.results.len(), 1);
        assert_eq!(replay.results[0].0, plan.points[0].key());
        assert_eq!(replay.partial_lines, 1);
        assert_eq!(replay.bad_lines, 1);
        let torn_at = format!("{}:4", journal.display());
        assert_eq!(replay.torn_tails, vec![torn_at.clone()]);
        let report = replay.report();
        assert_eq!(report.lines().count(), 3, "{report}");
        assert!(report.starts_with(&torn_at), "{report}");
        // Merge only reads: the torn fragment stays for the shard's resume.
        assert!(std::fs::read_to_string(&journal).unwrap().ends_with(torn));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn extra_points_do_not_block_a_subset_merge() {
        // Shards produced with --all, merged with just --figure 6.
        let all13 = plan_grid(&[6, 13], tiny_opts(), 1, &Workload::ALL);
        let just6 = plan_grid(&[6], tiny_opts(), 1, &Workload::ALL);
        let replay = replayed(
            all13
                .points
                .iter()
                .map(|p| (p.key(), fake(p, "cold")))
                .collect(),
        );
        let (merged, cov) = merge_shards(&just6, &replay).unwrap();
        assert_eq!(merged.len(), just6.points.len());
        assert_eq!(cov.extra.len(), all13.points.len() - just6.points.len());
    }
}
