//! The traced replay: the same points as an untraced repetition, driven
//! through the layers' public calls with one span per call.
//!
//! - Grids run on `mi6_grid::MachineDriver` through a benchmark-owned
//!   [`SliceTask`], with the fork-base warm-up, `Machine::snapshot`, the
//!   `SnapshotPool` and `Machine::restore_forked` called directly.
//! - The scenario builds each point's two-core machine with `SimBuilder`
//!   and steps it with `Machine::step_slice`.
//!
//! The replay applies the untraced run's checks and computes the same
//! digest, which must match.

use crate::checks;
use crate::inputs::{
    params, scenario_builder, scenario_cap, scenario_programs, BenchWorkload, GridSpec,
    QUIESCE_CAP, QUIESCE_WINDOW, SCENARIO_POINTS,
};
use crate::report::{median, panic_message, tail_percentile, Metric, Report};
use crate::trace::{SpanId, Tracer};
use crate::untraced::{all_figures, warm_fork};
use mi6_bench::scenario::{self, ScenarioPoint};
use mi6_bench::{
    plan_grid, render_cpi_decomposition, GridPoint, HarnessOpts, PointResult, RunRecord, WarmFork,
    SLICE_CYCLES,
};
use mi6_grid::{MachineDriver, SliceTask, Step, WorkerCtx};
use mi6_soc::{Machine, MachineStats, PoolKey, SimBuilder, SliceOutcome, SnapshotPool, Variant};
use mi6_workloads::Workload;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Event counts gathered at the layer boundaries.
#[derive(Debug, Default)]
pub struct Counts {
    /// Programs generated (`Workload::build`).
    pub programs: u64,
    /// Machines built (`SimBuilder::build`).
    pub machines: u64,
    /// `step_slice` calls.
    pub slices: u64,
    /// Slices that returned `Blocked`.
    pub blocked: u64,
    /// Cycles the measured points ticked.
    pub ticked: u64,
    /// Cycles the measured points fast-forwarded.
    pub skipped: u64,
    /// Cycles run by fork-base warm-ups (`run_cycles`).
    pub warm_cycles: u64,
    /// Cycles spent reaching quiescence after warm-ups.
    pub quiesce_cycles: u64,
    /// Snapshot bytes encoded.
    pub encode_bytes: u64,
    /// Restores performed.
    pub restores: u64,
    /// Snapshot bytes restored.
    pub restore_bytes: u64,
    /// Measured-run deltas of the simulated statistics, all cores.
    pub committed: u64,
    /// See [`Counts::committed`].
    pub squashed: u64,
    /// L1D accesses (hits, misses and merges).
    pub l1d_accesses: u64,
    /// L1D accesses rejected for structural reasons and retried.
    pub l1d_retries: u64,
    /// LLC hits plus misses.
    pub llc_accesses: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// DRAM reads.
    pub dram_reads: u64,
    /// Cycles requests waited at the LLC arbiter.
    pub arb_wait_cycles: u64,
    /// Host time of each finished point (ms), in completion order.
    pub point_ms: Vec<f64>,
}

impl Counts {
    /// Adds one measured run: its machine-loop cycles and the statistics
    /// accumulated since `base` (the state after build or restore).
    fn add_run(&mut self, machine: &Machine, start: u64, base: &MachineStats, end: &MachineStats) {
        self.ticked += machine.ticks();
        self.skipped += (machine.now() - start).saturating_sub(machine.ticks());
        for (b, e) in base.core.iter().zip(&end.core) {
            self.committed += e.committed_instructions - b.committed_instructions;
            self.squashed += e.squashed_instructions - b.squashed_instructions;
        }
        for (b, e) in base.l1d.iter().zip(&end.l1d) {
            self.l1d_accesses += (e.hits + e.misses + e.merged) - (b.hits + b.misses + b.merged);
            self.l1d_retries += e.blocked - b.blocked;
        }
        self.llc_accesses += (end.llc.hits + end.llc.misses) - (base.llc.hits + base.llc.misses);
        self.llc_misses += end.llc.misses - base.llc.misses;
        self.dram_reads += end.dram.0 - base.dram.0;
        self.arb_wait_cycles += end.llc.arb_wait_cycles - base.llc.arb_wait_cycles;
    }
}

/// A finished replay.
pub struct Replay {
    /// Checks and digest, in the untraced repetition's terms.
    pub report: Report,
    /// The recorded spans.
    pub tracer: Tracer,
    /// The root span (the replay's whole wall).
    pub root: SpanId,
    /// Boundary event counts.
    pub counts: Counts,
    /// Pool size and hits at the end of the replay.
    pub pool: (u64, u64),
}

/// Replays one repetition of `workload` at `opts` with tracing on.
pub fn run(workload: BenchWorkload, opts: HarnessOpts) -> Replay {
    let tracer = Tracer::new();
    let counts = Mutex::new(Counts::default());
    let pool = SnapshotPool::new();
    let root = tracer.begin("run", None, None);
    let report = match workload.grid() {
        Some(spec) => replay_grid(spec, opts, &tracer, root, &counts, &pool),
        None => replay_scenario(opts, &tracer, root, &counts),
    };
    Replay {
        report,
        tracer,
        root,
        counts: counts.into_inner().expect("counts poisoned"),
        pool: (pool.bytes() as u64, pool.stats().0),
    }
}

/// Shared state of the grid replay's tasks.
struct GridCtx<'a> {
    tracer: &'a Tracer,
    counts: &'a Mutex<Counts>,
    pool: &'a SnapshotPool,
    warm: Option<&'a WarmFork>,
    warm_label: &'a str,
    driver: SpanId,
    cancel: &'a Arc<AtomicBool>,
}

fn replay_grid(
    spec: GridSpec,
    opts: HarnessOpts,
    tracer: &Tracer,
    root: SpanId,
    counts: &Mutex<Counts>,
    pool: &SnapshotPool,
) -> Report {
    let figures = all_figures();
    let plan = tracer.scope("bench.plan", Some(root), None, || {
        plan_grid(&figures, opts, spec.seeds, &Workload::ALL)
    });
    let n = plan.points.len();
    let mut report = Report::new(n as u64);
    let warm = warm_fork(spec);
    if let Some(w) = &warm {
        if let Err(e) = warm_phase(&plan.points, w, tracer, root, counts, pool) {
            tracer.end(root);
            report.fail_points(n as u64, e);
            return report;
        }
    }
    let warm_label = match &warm {
        Some(w) => format!("forkbase:{}", w.warmup_cycles),
        None => "cold".to_string(),
    };
    let cancel = Arc::new(AtomicBool::new(false));
    let mut driver = MachineDriver::new(1);
    driver.cancel = Some(Arc::clone(&cancel));
    let driver_span = tracer.begin("grid.driver", Some(root), None);
    let ctx = GridCtx {
        tracer,
        counts,
        pool,
        warm: warm.as_ref(),
        warm_label: &warm_label,
        driver: driver_span,
        cancel: &cancel,
    };
    let outcome = driver.run(
        n,
        |i| PointReplay {
            ctx: &ctx,
            index: i,
            point: plan.points[i],
            machine: None,
            boost: 0,
            active: Duration::ZERO,
        },
        |_, _| {},
    );
    tracer.end(driver_span);
    let mut results = Vec::with_capacity(n);
    for (i, r) in outcome.results.into_iter().enumerate() {
        match r {
            Some(Ok(res)) => results.push(res),
            Some(Err(e)) => report.fail_points(1, format!("{}: {e}", plan.points[i].key())),
            None => report.fail_points(1, format!("{}: cancelled", plan.points[i].key())),
        }
    }
    let rendered = (results.len() == n).then(|| {
        tracer.scope("bench.render", Some(root), None, || {
            plan.render(&results) + &render_cpi_decomposition(&results)
        })
    });
    tracer.end(root);

    for r in &results {
        if let Err(e) = checks::check_point(r) {
            report.fail_points(1, e);
        }
    }
    if let Some(rendered) = rendered {
        report.fail_workload(checks::check_figures(&figures, &rendered));
        if let Err(failures) = checks::paper_mae(opts, spec.seeds, &results) {
            report.fail_workload(failures);
        }
        report.digest = checks::grid_digest(&results);
    }
    report
}

/// The fork-base warm phase, one warm-up per warm state: generate and
/// load the workload on BASE, run the warm-up, reach memory quiescence,
/// encode the snapshot and pool it.
fn warm_phase(
    points: &[GridPoint],
    warm: &WarmFork,
    tracer: &Tracer,
    root: SpanId,
    counts: &Mutex<Counts>,
    pool: &SnapshotPool,
) -> Result<(), String> {
    let mut states: BTreeMap<String, (usize, GridPoint)> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        states.entry(warm.warm_tag(p)).or_insert((i, *p));
    }
    for (tag, (i, p)) in states {
        let at = Some(i);
        let program = tracer.scope("workloads.gen", Some(root), at, || {
            p.workload.build(&params(&p.opts))
        });
        let mut machine = tracer
            .scope("soc.build", Some(root), at, || {
                SimBuilder::new(Variant::Base)
                    .timer_interval(p.opts.timer)
                    .workload(0, program)
                    .build()
            })
            .map_err(|e| format!("loading {}: {e}", p.workload))?;
        let t0 = machine.now();
        tracer.scope("soc.warm", Some(root), at, || {
            machine.run_cycles(warm.warmup_cycles)
        });
        let t1 = machine.now();
        if machine.all_halted() {
            return Err(format!(
                "warm-up of {} cycles outlasts {} ({tag})",
                warm.warmup_cycles, p.workload
            ));
        }
        let quiesced = tracer.scope("soc.quiesce", Some(root), at, || {
            machine
                .run_until_mem_quiescent(QUIESCE_WINDOW)
                .or_else(|_| machine.drain_to_quiescence(QUIESCE_CAP))
        });
        quiesced.map_err(|e| format!("draining {} warm-up: {e}", p.workload))?;
        if machine.all_halted() {
            return Err(format!("no work left after the warm-up of {}", p.workload));
        }
        let bytes = tracer.scope("snapshot.encode", Some(root), at, || machine.snapshot());
        {
            let mut c = counts.lock().expect("counts poisoned");
            c.programs += 1;
            c.machines += 1;
            c.warm_cycles += t1 - t0;
            c.quiesce_cycles += machine.now() - t1;
            c.encode_bytes += bytes.len() as u64;
        }
        tracer.scope("pool.insert", Some(root), at, || {
            let key = PoolKey {
                config: machine.structural_fingerprint(),
                tag,
            };
            drop(pool.insert(key, bytes));
        });
    }
    Ok(())
}

/// One grid point driven in slices, mirroring `mi6_bench`'s own point
/// task: built lazily on its first slice, armed once, then advanced by
/// `step_slice` with the parked-jump budget boost.
struct PointReplay<'a> {
    ctx: &'a GridCtx<'a>,
    index: usize,
    point: GridPoint,
    /// The machine, the cycle measurement starts at, and the statistics
    /// at that cycle.
    machine: Option<(Machine, u64, MachineStats)>,
    boost: u64,
    active: Duration,
}

impl PointReplay<'_> {
    fn build(&self, task: SpanId) -> Result<(Machine, u64, MachineStats), String> {
        let ctx = self.ctx;
        let (p, at) = (&self.point, Some(self.index));
        let builder = match ctx.warm {
            None => {
                let program = ctx.tracer.scope("workloads.gen", Some(task), at, || {
                    p.workload.build(&params(&p.opts))
                });
                ctx.counts.lock().expect("counts poisoned").programs += 1;
                SimBuilder::new(p.variant).workload(0, program)
            }
            Some(_) => SimBuilder::new(p.variant),
        };
        let mut machine = ctx
            .tracer
            .scope("soc.build", Some(task), at, || {
                builder
                    .timer_interval(p.opts.timer)
                    .cancel_flag(Arc::clone(ctx.cancel))
                    .build()
            })
            .map_err(|e| format!("building: {e}"))?;
        ctx.counts.lock().expect("counts poisoned").machines += 1;
        if let Some(warm) = ctx.warm {
            let key = PoolKey {
                config: machine.structural_fingerprint(),
                tag: warm.warm_tag(p),
            };
            let blob = ctx
                .tracer
                .scope("pool.get", Some(task), at, || ctx.pool.get(&key))
                .ok_or("warm state missing from the pool")?;
            ctx.tracer
                .scope("snapshot.restore", Some(task), at, || {
                    machine.restore_forked(&blob)
                })
                .map_err(|e| format!("restoring warm state: {e}"))?;
            let mut c = ctx.counts.lock().expect("counts poisoned");
            c.restores += 1;
            c.restore_bytes += blob.len() as u64;
        }
        let start = machine.now();
        let base = machine.stats();
        machine.begin_run(p.opts.cycle_cap());
        Ok((machine, start, base))
    }

    fn slice(&mut self, task: SpanId, worker: usize) -> Step<Result<PointResult, String>> {
        if self.machine.is_none() {
            match self.build(task) {
                Ok(built) => self.machine = Some(built),
                Err(e) => return Step::Done(Err(e)),
            }
        }
        let ctx = self.ctx;
        let (machine, start, base) = self.machine.as_mut().expect("just built");
        let budget = SLICE_CYCLES.max(self.boost);
        self.boost = 0;
        let outcome = ctx
            .tracer
            .scope("soc.step", Some(task), Some(self.index), || {
                machine.step_slice(budget)
            });
        let mut c = ctx.counts.lock().expect("counts poisoned");
        c.slices += 1;
        match outcome {
            SliceOutcome::Completed(stats) => {
                c.add_run(machine, *start, base, &stats);
                let record = RunRecord {
                    name: self.point.workload.name(),
                    cycles: stats.cycles,
                    instructions: stats.core[0].committed_instructions,
                    branch_mpki: stats.branch_mpki(),
                    llc_mpki: stats.llc_mpki(),
                    flush_stall_cycles: stats.core[0].flush_stall_cycles,
                    traps: stats.core[0].traps,
                    cpi: machine.core(0).cpi.clone(),
                    commit_width: machine.core(0).config().commit_width as u64,
                    cycles_ticked: machine.ticks(),
                    cycles_skipped: (machine.now() - *start).saturating_sub(machine.ticks()),
                };
                Step::Done(Ok(PointResult {
                    point: self.point,
                    record,
                    wall_ms: self.active.as_millis() as u64,
                    worker,
                    warm: ctx.warm_label.to_string(),
                    metrics: None,
                }))
            }
            SliceOutcome::BudgetExhausted { .. } => Step::Yield,
            SliceOutcome::Blocked { until_cycle } => {
                c.blocked += 1;
                self.boost = until_cycle.saturating_sub(machine.now());
                Step::Blocked { wake: until_cycle }
            }
            SliceOutcome::Cancelled { at_cycle } => {
                Step::Done(Err(format!("cancelled at cycle {at_cycle}")))
            }
            SliceOutcome::TimedOut { at_cycle } => {
                Step::Done(Err(format!("timed out at cycle {at_cycle}")))
            }
        }
    }
}

impl SliceTask for PointReplay<'_> {
    type Done = Result<PointResult, String>;

    fn step(&mut self, ctx: &WorkerCtx) -> Step<Self::Done> {
        let tracer = self.ctx.tracer;
        let task = tracer.begin("bench.task", Some(self.ctx.driver), Some(self.index));
        let outcome = catch_unwind(AssertUnwindSafe(|| self.slice(task, ctx.worker)));
        tracer.end(task);
        self.active += Duration::from_secs_f64(tracer.seconds(task));
        let step = outcome.unwrap_or_else(|panic| Step::Done(Err(panic_message(&panic))));
        if matches!(step, Step::Done(_)) {
            let ms = self.active.as_secs_f64() * 1e3;
            self.ctx
                .counts
                .lock()
                .expect("counts poisoned")
                .point_ms
                .push(ms);
        }
        step
    }
}

fn replay_scenario(
    opts: HarnessOpts,
    tracer: &Tracer,
    root: SpanId,
    counts: &Mutex<Counts>,
) -> Report {
    let mut report = Report::new(SCENARIO_POINTS.len() as u64);
    let mut points: Vec<ScenarioPoint> = Vec::new();
    for (i, (variant, contended)) in SCENARIO_POINTS.into_iter().enumerate() {
        let task = tracer.begin("bench.task", Some(root), Some(i));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            scenario_point(variant, contended, &opts, tracer, task, i, counts)
        }));
        tracer.end(task);
        counts
            .lock()
            .expect("counts poisoned")
            .point_ms
            .push(tracer.seconds(task) * 1e3);
        match outcome {
            Ok(Ok(p)) => points.push(p),
            Ok(Err(e)) => report.fail_points(1, e),
            Err(panic) => report.fail_points(1, panic_message(&panic)),
        }
    }
    if points.len() == SCENARIO_POINTS.len() {
        tracer.scope("bench.render", Some(root), None, || {
            scenario::render_enclave_attacker(&points);
            drop(scenario::render_enclave_cpi(&points));
        });
    }
    tracer.end(root);
    for p in &points {
        if let Err(e) = checks::check_scenario_point(p) {
            report.fail_points(1, e);
        }
    }
    if let Err(e) = checks::check_isolation(&points) {
        report.fail_workload(vec![e]);
    }
    report.digest = checks::scenario_digest(&points);
    report
}

fn scenario_point(
    variant: Variant,
    contended: bool,
    opts: &HarnessOpts,
    tracer: &Tracer,
    task: SpanId,
    i: usize,
    counts: &Mutex<Counts>,
) -> Result<ScenarioPoint, String> {
    let at = Some(i);
    let programs = tracer.scope("workloads.gen", Some(task), at, || {
        scenario_programs(contended, opts)
    });
    let mut machine = tracer
        .scope("soc.build", Some(task), at, || {
            scenario_builder(variant, opts, programs).build()
        })
        .map_err(|e| format!("building {variant} scenario: {e}"))?;
    let base = machine.stats();
    machine.begin_run(scenario_cap(opts));
    let mut slices = 0;
    let stats = loop {
        slices += 1;
        let outcome = tracer.scope("soc.step", Some(task), at, || machine.step_slice(u64::MAX));
        match outcome {
            SliceOutcome::Completed(stats) => break stats,
            SliceOutcome::BudgetExhausted { .. } | SliceOutcome::Blocked { .. } => {}
            SliceOutcome::TimedOut { at_cycle } | SliceOutcome::Cancelled { at_cycle } => {
                return Err(format!("{variant} scenario stopped at cycle {at_cycle}"));
            }
        }
    };
    let mut c = counts.lock().expect("counts poisoned");
    c.programs += 2;
    c.machines += 1;
    c.slices += slices;
    c.add_run(&machine, 0, &base, &stats);
    Ok(ScenarioPoint {
        variant,
        contended,
        victim_cycles: stats.core[0].cycles,
        victim_instructions: stats.core[0].committed_instructions,
        victim_cpi: machine.core(0).cpi.clone(),
        victim_commit_width: machine.core(0).config().commit_width as u64,
        cycles_ticked: machine.ticks(),
        cycles_skipped: machine.now().saturating_sub(machine.ticks()),
        metrics_path: None,
    })
}

/// The per-layer metrics of a replay. The tracing overhead needs an
/// untraced repetition's wall, so the harness adds it.
pub fn layer_metrics(replay: &Replay) -> Vec<Metric> {
    let spans = replay.tracer.spans();
    let layers = crate::trace::layer_self_times(&spans);
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| layers.get(n))
            .map(|(ns, _)| *ns as f64 / 1e9)
            .sum()
    };
    let wall = replay.tracer.seconds(replay.root);
    let covered: f64 = layers
        .iter()
        .filter(|(name, _)| crate::trace::is_program_layer(name))
        .map(|(_, (ns, _))| *ns as f64 / 1e9)
        .sum();
    let c = &replay.counts;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let step_s = self_s(&["soc.step"]);
    let restore_s = self_s(&["snapshot.restore"]);
    // Too few points for any percentile to leave ten beyond it (the
    // scenario's four): the slowest point stands in.
    let tail = tail_percentile(&c.point_ms, 10)
        .unwrap_or_else(|| c.point_ms.iter().copied().fold(0.0, f64::max));
    const MIB: f64 = 1024.0 * 1024.0;
    vec![
        ("workloads.gen_ms", self_s(&["workloads.gen"]) * 1e3, "ms"),
        ("workloads.programs", c.programs as f64, "count"),
        ("soc.build_ms", self_s(&["soc.build"]) * 1e3, "ms"),
        ("soc.machines", c.machines as f64, "count"),
        ("soc.step_s", step_s, "s"),
        (
            "soc.ns_per_tick",
            ratio(step_s * 1e9, c.ticked as f64),
            "ns",
        ),
        ("soc.ticked_cycles", c.ticked as f64, "count"),
        ("soc.skipped_cycles", c.skipped as f64, "count"),
        (
            "soc.skip_ratio",
            ratio(c.skipped as f64, (c.ticked + c.skipped) as f64),
            "ratio",
        ),
        ("soc.slices", c.slices as f64, "count"),
        ("soc.blocked", c.blocked as f64, "count"),
        ("soc.warm_s", self_s(&["soc.warm", "soc.quiesce"]), "s"),
        ("soc.warm_cycles", c.warm_cycles as f64, "count"),
        ("soc.quiesce_cycles", c.quiesce_cycles as f64, "count"),
        (
            "snapshot.encode_ms",
            self_s(&["snapshot.encode"]) * 1e3,
            "ms",
        ),
        ("snapshot.encode_mb", c.encode_bytes as f64 / MIB, "MiB"),
        ("snapshot.restore_ms", restore_s * 1e3, "ms"),
        ("snapshot.restores", c.restores as f64, "count"),
        (
            "snapshot.restore_mbps",
            ratio(c.restore_bytes as f64 / MIB, restore_s),
            "MiB/s",
        ),
        ("pool.bytes_mb", replay.pool.0 as f64 / MIB, "MiB"),
        ("pool.hits", replay.pool.1 as f64, "count"),
        ("grid.driver_ms", self_s(&["grid.driver"]) * 1e3, "ms"),
        ("bench.plan_ms", self_s(&["bench.plan"]) * 1e3, "ms"),
        ("bench.render_ms", self_s(&["bench.render"]) * 1e3, "ms"),
        ("bench.task_ms", self_s(&["bench.task"]) * 1e3, "ms"),
        ("core.committed", c.committed as f64, "count"),
        ("core.squashed", c.squashed as f64, "count"),
        (
            "core.useful_ratio",
            ratio(c.committed as f64, (c.committed + c.squashed) as f64),
            "ratio",
        ),
        ("mem.l1d_accesses", c.l1d_accesses as f64, "count"),
        ("mem.l1d_retries", c.l1d_retries as f64, "count"),
        ("mem.llc_accesses", c.llc_accesses as f64, "count"),
        (
            "mem.llc_miss_ratio",
            ratio(c.llc_misses as f64, c.llc_accesses as f64),
            "ratio",
        ),
        ("mem.dram_reads", c.dram_reads as f64, "count"),
        ("mem.arb_wait_cycles", c.arb_wait_cycles as f64, "count"),
        ("point_ms.p50", median(&c.point_ms), "ms"),
        ("point_ms.tail", tail, "ms"),
        ("trace.wall_s", wall, "s"),
        ("trace.coverage", ratio(covered, wall), "ratio"),
    ]
}
