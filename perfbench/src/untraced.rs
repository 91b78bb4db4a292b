//! One untraced repetition of a workload, through the same `mi6_bench`
//! entry points `mi6-experiments` calls: `plan_grid`,
//! `run_grid_scheduled` on `GridSchedule::new(1)` with the `warm` and
//! `pool` fields, `GridPlan::render` plus `render_cpi_decomposition`,
//! and `scenario::run_enclave_attacker`.

use crate::checks;
use crate::inputs::{
    scenario_builder, scenario_programs, BenchWorkload, GridSpec, SCENARIO_POINTS,
};
use crate::report::{median, panic_message, peak_rss_mb, Report};
use mi6_bench::scenario::{self, ScenarioPoint};
use mi6_bench::{
    build_restore_target, build_workload_machine, plan_grid, render_cpi_decomposition,
    run_grid_scheduled, GridSchedule, HarnessOpts, PointResult, WarmFork, FIGURES,
};
use mi6_soc::{PoolKey, SnapshotPool, Variant};
use mi6_workloads::Workload;
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups of a millisecond or less are timed this many times per
/// repetition and their median is reported, so they repeat.
const SETUP_REPEATS: usize = 25;

fn seconds_of(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The figures `--all` renders.
pub fn all_figures() -> Vec<u32> {
    FIGURES.collect()
}

/// The fork-base warm-up configuration of a grid, if it has one: pool
/// only, no checkpoint directory.
pub fn warm_fork(spec: GridSpec) -> Option<WarmFork> {
    (spec.warmup > 0).then_some(WarmFork {
        warmup_cycles: spec.warmup,
        dir: None,
        fork_base: true,
    })
}

/// Runs one repetition of `workload` at run options `opts`.
pub fn run(workload: BenchWorkload, opts: HarnessOpts) -> Report {
    match workload.grid() {
        Some(spec) => run_grid(spec, opts),
        None => run_scenario(opts),
    }
}

fn run_grid(spec: GridSpec, opts: HarnessOpts) -> Report {
    let figures = all_figures();
    let plan_once = || plan_grid(&figures, opts, spec.seeds, &Workload::ALL);
    let t0 = Instant::now();
    let plan = plan_once();
    let mut plan_s = vec![t0.elapsed().as_secs_f64()];
    let warm = warm_fork(spec);
    let pool = Arc::new(SnapshotPool::new());
    let mut schedule = GridSchedule::new(1);
    schedule.warm = warm.as_ref();
    schedule.pool = Some(Arc::clone(&pool));
    let n = plan.points.len();
    let grid_start = Instant::now();
    let mut first_start: Option<Instant> = None;
    let mut done_at: Vec<(String, Instant)> = Vec::with_capacity(n);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        run_grid_scheduled(&plan.points, &schedule, |res| {
            // One worker, one machine in flight: the first completion is
            // the first point admitted, and its active time dates its start.
            // Each later point ran from the completion before it to its own.
            let now = Instant::now();
            first_start.get_or_insert(now - Duration::from_millis(res.wall_ms));
            done_at.push((res.point.key(), now));
        })
    }));
    let done = done_at.len();
    let mut report = Report::new(n as u64);
    let results: Vec<PointResult> = match outcome {
        Ok(o) => {
            let finished: Vec<PointResult> = o.results.into_iter().flatten().collect();
            if finished.len() < n {
                report.fail_points(
                    (n - finished.len()) as u64,
                    format!("{} point(s) cancelled", n - finished.len()),
                );
            }
            finished
        }
        Err(panic) => {
            report.fail_points(
                (n - done) as u64,
                format!(
                    "grid panicked after {done} point(s): {}",
                    panic_message(&panic)
                ),
            );
            Vec::new()
        }
    };
    let rendered =
        (results.len() == n).then(|| plan.render(&results) + &render_cpi_decomposition(&results));
    let wall = t0.elapsed().as_secs_f64();
    let maxrss = peak_rss_mb();

    if let Some(first) = first_start.filter(|_| done == n) {
        let mut point_s: HashMap<String, f64> = HashMap::with_capacity(n);
        let mut last = first;
        for (key, at) in done_at {
            point_s.insert(key, at.duration_since(last).as_secs_f64());
            last = at;
        }
        report.point_s = plan.points.iter().map(|p| point_s[&p.key()]).collect();
    }
    for r in &results {
        if let Err(e) = checks::check_point(r) {
            report.fail_points(1, e);
        }
    }
    let Some(rendered) = rendered else {
        return report;
    };
    report.fail_workload(checks::check_figures(&figures, &rendered));
    let paper_err = match checks::paper_mae(opts, spec.seeds, &results) {
        Ok(mae) => mae,
        Err(failures) => {
            report.fail_workload(failures);
            return report;
        }
    };
    report.digest = checks::grid_digest(&results);

    let warm_s = match (&warm, first_start) {
        (Some(_), Some(first)) => first.duration_since(grid_start).as_secs_f64(),
        _ => 0.0,
    };
    // The rest of the set-up is timed after the run, so its allocations
    // stay out of `maxrss_mb`. Every cold point generates its program
    // and builds its machine before it simulates; `run_grid_scheduled`
    // does that inside each point, so the same work is timed on its own.
    plan_s.extend((1..SETUP_REPEATS).map(|_| seconds_of(|| drop(plan_once()))));
    let build_s = if warm.is_none() {
        seconds_of(|| {
            for p in &plan.points {
                drop(build_workload_machine(
                    p.variant, p.workload, &p.opts, None, None,
                ));
            }
        })
    } else {
        0.0
    };
    let setup_s = median(&plan_s) + build_s + warm_s;
    let kinst = simulated_instructions(&results, warm.as_ref(), &pool) as f64 / 1e3;

    report.metrics = vec![
        ("wall_s", wall, "s"),
        ("setup_s", setup_s, "s"),
        ("sim_kips", kinst / wall, "kinst/s"),
        ("maxrss_mb", maxrss, "MiB"),
        ("paper_err_pp", paper_err, "pp"),
    ];
    report
}

/// Instructions the grid committed: every point's core-0 count, where a
/// fork-base point's warm prefix is counted once for the warm-up that
/// simulated it rather than once per variant restored from it. The
/// prefixes are read back from the pool after the timed run.
fn simulated_instructions(
    results: &[PointResult],
    warm: Option<&WarmFork>,
    pool: &SnapshotPool,
) -> u64 {
    let total: u64 = results.iter().map(|r| r.record.instructions).sum();
    let Some(warm) = warm else {
        return total;
    };
    let mut prefixes: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for r in results {
        let tag = warm.warm_tag(&r.point);
        if let Some(entry) = prefixes.get_mut(&tag) {
            entry.1 += 1;
            continue;
        }
        let mut machine = build_restore_target(Variant::Base, &r.point.opts, None, None);
        let key = PoolKey {
            config: machine.structural_fingerprint(),
            tag: tag.clone(),
        };
        let blob = pool.get(&key).expect("every warm state is pooled");
        machine
            .restore_forked(&blob)
            .expect("a pooled warm state restores");
        prefixes.insert(tag, (machine.stats().core[0].committed_instructions, 1));
    }
    let repeated: u64 = prefixes
        .values()
        .map(|(inst, uses)| inst * (uses - 1))
        .sum();
    total - repeated
}

fn run_scenario(opts: HarnessOpts) -> Report {
    let t0 = Instant::now();
    let outcome = catch_unwind(|| scenario::run_enclave_attacker(&opts, 1, None));
    let points: Vec<ScenarioPoint> = match &outcome {
        Ok(points) => {
            scenario::render_enclave_attacker(points);
            drop(scenario::render_enclave_cpi(points));
            points.clone()
        }
        Err(_) => Vec::new(),
    };
    let wall = t0.elapsed().as_secs_f64();
    let maxrss = peak_rss_mb();

    let mut report = Report::new(SCENARIO_POINTS.len() as u64);
    if let Err(panic) = outcome {
        report.fail_points(
            report.attempted,
            format!("scenario panicked: {}", panic_message(&panic)),
        );
        return report;
    }
    for p in &points {
        if let Err(e) = checks::check_scenario_point(p) {
            report.fail_points(1, e);
        }
    }
    let mi6 = match checks::check_isolation(&points) {
        Ok(mi6) => mi6,
        Err(e) => {
            report.fail_workload(vec![e]);
            return report;
        }
    };
    report.digest = checks::scenario_digest(&points);
    // Each scenario point generates its two programs and builds its
    // two-core machine before it simulates. `run_enclave_attacker`
    // exposes no boundary there, so that set-up is timed on its own,
    // after the run so its allocations stay out of `maxrss_mb`.
    let setup: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            seconds_of(|| {
                for (variant, contended) in SCENARIO_POINTS {
                    let programs = scenario_programs(contended, &opts);
                    drop(scenario_builder(variant, &opts, programs).build());
                }
            })
        })
        .collect();
    let kinst = points.iter().map(|p| p.victim_instructions).sum::<u64>() as f64 / 1e3;
    report.metrics = vec![
        ("wall_s", wall, "s"),
        ("setup_s", median(&setup), "s"),
        ("sim_kips", kinst / wall, "kinst/s"),
        ("maxrss_mb", maxrss, "MiB"),
        // The paper's claim is strong timing isolation: no slowdown.
        ("paper_err_pp", mi6.abs(), "pp"),
    ];
    report
}
