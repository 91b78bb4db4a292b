//! The parallel experiment runner.
//!
//! A figure is a grid of (variant, workload, opts) points.
//! [`run_grid_scheduled`] runs them on the `mi6-grid` machine driver, the
//! harness's one executor: each worker takes the next point, builds or
//! restores its machine and runs it to completion. The machine polls the
//! driver's cancel flag every 4,096 simulated cycles, so a deadline lands
//! mid-point, and driver output is byte-identical to a serial run.
//!
//! An optional warm-fork phase runs first, on the same driver: one task
//! per missing warm state, published into the [`SnapshotPool`] and
//! written through to the checkpoint directory when one is set. A
//! warm-up that cannot produce a state (it outlasts the workload, say)
//! is reported in [`GridOutcome::warm_error`] and no point runs. A
//! deadline stops new work in either phase (interrupted machines record
//! [`PartialPoint`] progress and the shard journal resumes the rest
//! later), and every result names the worker that finished it.

use crate::{build_restore_target, build_workload_machine, HarnessOpts, MetricsSpec, RunRecord};
use mi6_core::{CpiCategory, CpiStack};
use mi6_grid::{MachineDriver, SliceTask, Step, WorkerCtx};
use mi6_obs::json::{parse_object, JsonWriter};
use mi6_soc::{Machine, PoolKey, RunError, SnapshotPool, Variant};
use mi6_workloads::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One point of the variant×workload grid.
#[derive(Clone, Copy, Debug)]
pub struct GridPoint {
    /// Processor variant to simulate.
    pub variant: Variant,
    /// Workload to run on core 0.
    pub workload: Workload,
    /// Run options (instruction volume, timer).
    pub opts: HarnessOpts,
}

impl GridPoint {
    /// The point's canonical key: `variant/workload/kinsts/timer/seed-hex`.
    ///
    /// The key is the identity a point has *everywhere* — it dedupes
    /// shared passes across figures, assigns the point to a shard
    /// (`mi6_grid::shard_of`), identifies it in the shard journal, and
    /// is what `merge` validates coverage over. Its format is an on-disk
    /// contract; never change it without a migration story.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}/{:x}",
            self.variant.name(),
            self.workload.name(),
            self.opts.kinsts,
            self.opts.timer,
            self.opts.seed
        )
    }
}

/// A completed grid point.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// The point that produced this result.
    pub point: GridPoint,
    /// The run's counters.
    pub record: RunRecord,
    /// Host wall-clock time the point took (machine build, restore and
    /// run), in milliseconds.
    pub wall_ms: u64,
    /// The worker that ran the point (0 when not run by a worker, e.g. a
    /// seed-aggregated mean or a merge-reconstructed result predating
    /// workers).
    pub worker: usize,
    /// Warm-up provenance: `"cold"`, `"exact:<cycles>"`, or
    /// `"forkbase:<cycles>"`. Cold and exact runs are bit-identical and
    /// mix freely; fork-base results measure a different (shared-prefix)
    /// methodology, so `merge` hard-errors when shards mix fork-base
    /// with anything else.
    pub warm: String,
    /// Path of the per-point metrics JSONL artifact, when the run was
    /// sampled (`--metrics-every`); `None` for unobserved runs. The
    /// journal field is append-only: readers tolerate its absence.
    pub metrics: Option<String>,
}

impl PointResult {
    /// One JSON object describing this point.
    ///
    /// New fields go at the end (the journal shape is append-only): the
    /// stall, cycle-accounting and CPI-stack tail, then the optional
    /// metrics-artifact path, all absent from old journals and defaulted
    /// by `from_json`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.str("variant", self.point.variant.name())
            .str("workload", self.record.name)
            .u64("kinsts", self.point.opts.kinsts)
            .u64("timer", self.point.opts.timer)
            .u64("seed", self.point.opts.seed)
            .u64("cycles", self.record.cycles)
            .u64("instructions", self.record.instructions)
            .f64("branch_mpki", self.record.branch_mpki)
            .f64("llc_mpki", self.record.llc_mpki)
            .u64("flush_stall_cycles", self.record.flush_stall_cycles)
            .u64("traps", self.record.traps)
            .u64("wall_ms", self.wall_ms)
            .u64("worker", self.worker as u64)
            .str("warm", &self.warm);
        write_cpi_tail(
            &mut w,
            &self.record.cpi,
            self.record.commit_width,
            self.record.cycles_ticked,
            self.record.cycles_skipped,
        );
        if let Some(path) = &self.metrics {
            w.str("metrics", path);
        }
        w.finish()
    }

    /// Parses one [`PointResult::to_json`] line back (the merge path).
    ///
    /// # Errors
    ///
    /// Returns a description of the first defect: malformed JSON (e.g. a
    /// journal line torn by a mid-write kill), a missing field, an
    /// unknown variant/workload name, or a [`PartialPoint`] progress line
    /// (flagged `"partial":true`), which is *not* a completed result and
    /// must be recomputed, never merged.
    pub fn from_json(line: &str) -> Result<PointResult, String> {
        let obj = parse_object(line)?;
        if obj.contains_key("partial") {
            return Err("partial-progress line (interrupted point; recompute it)".to_string());
        }
        let str_field = |name: &str| -> Result<&str, String> {
            obj.get(name)
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("missing string field `{name}`"))
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            obj.get(name)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("missing integer field `{name}`"))
        };
        let f64_field = |name: &str| -> Result<f64, String> {
            obj.get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("missing number field `{name}`"))
        };
        let variant_name = str_field("variant")?;
        let variant = Variant::from_name(variant_name)
            .ok_or_else(|| format!("unknown variant `{variant_name}`"))?;
        let workload_name = str_field("workload")?;
        let workload = Workload::from_name(workload_name)
            .ok_or_else(|| format!("unknown workload `{workload_name}`"))?;
        let point = GridPoint {
            variant,
            workload,
            opts: HarnessOpts {
                kinsts: u64_field("kinsts")?,
                timer: u64_field("timer")?,
                seed: u64_field("seed")?,
            },
        };
        // Post-observability journal fields: absent from old journals,
        // so they default instead of erroring (append-only tolerance).
        let opt_u64 = |name: &str| -> u64 { obj.get(name).and_then(|v| v.as_u64()).unwrap_or(0) };
        Ok(PointResult {
            point,
            record: RunRecord {
                name: workload.name(),
                cycles: u64_field("cycles")?,
                instructions: u64_field("instructions")?,
                branch_mpki: f64_field("branch_mpki")?,
                llc_mpki: f64_field("llc_mpki")?,
                flush_stall_cycles: u64_field("flush_stall_cycles")?,
                traps: u64_field("traps")?,
                cpi: CpiStack::from_raw(
                    opt_u64("cpi_cycles"),
                    CpiCategory::ALL.map(|cat| opt_u64(cat.metric_name())),
                    [
                        opt_u64("stall_rob_full"),
                        opt_u64("stall_iq_full"),
                        opt_u64("stall_lq_full"),
                        opt_u64("stall_sq_full"),
                        opt_u64("stall_sb_full"),
                    ],
                ),
                // 0 = "stack absent" (pre-CPI-stack journal); renderers
                // key stack columns off `cpi.cycles > 0`.
                commit_width: opt_u64("cpi_commit_width"),
                cycles_ticked: opt_u64("cycles_ticked"),
                cycles_skipped: opt_u64("cycles_skipped"),
            },
            wall_ms: u64_field("wall_ms")?,
            worker: u64_field("worker")? as usize,
            warm: str_field("warm")?.to_string(),
            metrics: obj
                .get("metrics")
                .and_then(|v| v.as_str())
                .map(str::to_string),
        })
    }
}

/// Whether a journal line is a [`PartialPoint`] progress record
/// (`"partial":true`) rather than a completed result. Journal readers
/// count these separately from torn/garbage lines: partials are expected
/// after a deadline and simply mean the point must be recomputed.
pub fn is_partial_line(line: &str) -> bool {
    parse_object(line).is_ok_and(|obj| obj.contains_key("partial"))
}

/// Writes the tail that grid-point, scenario and `mi6-bench` lines share:
/// the structural-pressure counters under their historical `stall_*`
/// names, the ticked-vs-skipped cycle accounting, and the CPI stack (its
/// own cycle counter, the commit width, one key per
/// [`mi6_obs::CPI_KEYS`] entry), which `mi6-obs-check stacks` validates.
pub fn write_cpi_tail(
    w: &mut JsonWriter,
    cpi: &CpiStack,
    commit_width: u64,
    cycles_ticked: u64,
    cycles_skipped: u64,
) {
    w.u64("stall_rob_full", cpi.rename_rob_full)
        .u64("stall_iq_full", cpi.rename_iq_full)
        .u64("stall_lq_full", cpi.rename_lq_full)
        .u64("stall_sq_full", cpi.rename_sq_full)
        .u64("stall_sb_full", cpi.commit_sb_full)
        .u64("cycles_ticked", cycles_ticked)
        .u64("cycles_skipped", cycles_skipped)
        .u64("cpi_cycles", cpi.cycles)
        .u64("cpi_commit_width", commit_width);
    for cat in CpiCategory::ALL {
        w.u64(cat.metric_name(), cpi.get(cat));
    }
}

/// Partial progress of a point interrupted by a deadline or cancel.
///
/// Journaled with a `"partial":true` marker so campaign tooling can see
/// how far an interrupted shard got; [`PointResult::from_json`] rejects
/// these lines, so a resumed shard recomputes the point and merge
/// coverage never counts it.
#[derive(Clone, Debug)]
pub struct PartialPoint {
    /// The interrupted point.
    pub point: GridPoint,
    /// Simulated cycle the run was interrupted at.
    pub cycles: u64,
    /// Instructions committed so far (core 0).
    pub instructions: u64,
    /// Host milliseconds spent before the interruption.
    pub wall_ms: u64,
    /// The worker running the point.
    pub worker: usize,
    /// Warm-up provenance tag of the interrupted run.
    pub warm: String,
}

impl PartialPoint {
    /// One JSON progress line, shaped like a [`PointResult`] prefix plus
    /// the terminal `"partial":true` marker.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.str("variant", self.point.variant.name())
            .str("workload", self.point.workload.name())
            .u64("kinsts", self.point.opts.kinsts)
            .u64("timer", self.point.opts.timer)
            .u64("seed", self.point.opts.seed)
            .u64("cycles", self.cycles)
            .u64("instructions", self.instructions)
            .u64("wall_ms", self.wall_ms)
            .u64("worker", self.worker as u64)
            .str("warm", &self.warm)
            .bool("partial", true);
        w.finish()
    }
}

/// Default worker count: one per available hardware thread.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Warm-fork configuration: simulate each point's warm-up prefix once,
/// snapshot it, and start every grid run from the warmed state. Warm
/// states live in the in-memory [`SnapshotPool`], which serves restores
/// without file I/O; `dir` adds a write-through tier on disk that makes
/// them durable across invocations and shard hosts.
///
/// Two modes:
///
/// - **exact** (`fork_base == false`): one snapshot per (variant,
///   workload, seed), restored strictly. Results are bit-identical to
///   non-forked runs; the checkpoint directory acts as a cross-invocation
///   cache (re-running a figure, sharing BASE passes between figures,
///   resuming after preemption, and *sharing warm-ups between shard
///   hosts* all skip the warm-up simulation).
/// - **fork-base** (`fork_base == true`): one snapshot per (workload,
///   seed), warmed on BASE and run to a memory-quiescent point, then
///   *forked into every variant* — the reference-warming methodology:
///   each variant's measurement shares the identical warmed prefix, and
///   the grid simulates each warm-up exactly once.
#[derive(Clone, Debug)]
pub struct WarmFork {
    /// Cycles of warm-up to simulate before the snapshot.
    pub warmup_cycles: u64,
    /// On-disk snapshot cache; `None` runs pool-only (warm states live
    /// and die with the grid's pool).
    pub dir: Option<PathBuf>,
    /// Warm on BASE once per workload and fork across variants.
    pub fork_base: bool,
}

/// Extra cycles allowed for the quiescence search after a fork-base
/// warm-up (quiescent windows occur within a handful of misses' worth of
/// cycles; this cap only guards against pathological configurations).
const QUIESCE_CAP: u64 = 5_000_000;

impl WarmFork {
    /// The variant a point's warm-up is simulated on.
    fn warm_variant(&self, point: &GridPoint) -> Variant {
        if self.fork_base {
            Variant::Base
        } else {
            point.variant
        }
    }

    /// The identity of a point's warm state (shared across variants in
    /// fork-base mode): the snapshot file name, so the in-memory pool
    /// and the on-disk cache name states identically.
    pub fn warm_tag(&self, point: &GridPoint) -> String {
        let variant = if self.fork_base {
            "forkbase".to_string()
        } else {
            point
                .variant
                .name()
                .chars()
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase()
        };
        format!(
            "warm-{variant}-{}-k{}-t{}-s{:x}-c{}.mi6snap",
            point.workload.name(),
            point.opts.kinsts,
            point.opts.timer,
            point.opts.seed,
            self.warmup_cycles
        )
    }

    /// The snapshot file backing a point, when a checkpoint directory is
    /// configured (`None` in pool-only mode).
    pub fn snapshot_path(&self, point: &GridPoint) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(self.warm_tag(point)))
    }

    /// The pool key a point's warm state is filed under: the fingerprint
    /// of the machine it restores into (strict for exact restores,
    /// structural for cross-variant forks — computable on a freshly
    /// built machine, before any restore) plus the warm tag.
    fn pool_key(&self, point: &GridPoint, machine: &Machine) -> PoolKey {
        PoolKey {
            config: if self.fork_base {
                machine.structural_fingerprint()
            } else {
                machine.strict_fingerprint()
            },
            tag: self.warm_tag(point),
        }
    }

    /// Simulates one warm-up and publishes its snapshot to the pool and,
    /// if a directory is configured, to disk (written atomically, so a
    /// preempted run never leaves a torn file behind).
    ///
    /// # Errors
    ///
    /// A warm-up that leaves no state to measure: it outlasts the
    /// workload, its fork-base drain fails, or no work is left once the
    /// memory system is quiet. The message names the workload and
    /// `--warmup`.
    fn create_snapshot(&self, point: &GridPoint, pool: &SnapshotPool) -> Result<(), String> {
        let variant = self.warm_variant(point);
        let mut machine = build_workload_machine(variant, point.workload, &point.opts, None, None);
        machine.run_cycles(self.warmup_cycles);
        if machine.all_halted() {
            return Err(format!(
                "--warmup {} exceeds the total runtime of {} at {}k instructions; lower it",
                self.warmup_cycles, point.workload, point.opts.kinsts
            ));
        }
        if self.fork_base {
            // Opportunistic first: many workloads hit a natural quiescent
            // window (no timing perturbation at all); streaming workloads
            // never do and need the fetch-stall drain.
            if machine.run_until_mem_quiescent(20_000).is_err() {
                machine.drain_to_quiescence(QUIESCE_CAP).map_err(|e| {
                    format!(
                        "--warmup {}: draining the warm-up of {} failed: {e}",
                        self.warmup_cycles, point.workload
                    )
                })?;
            }
            if machine.all_halted() {
                return Err(format!(
                    "--warmup {} left no work after the warm-up of {}; lower it",
                    self.warmup_cycles, point.workload
                ));
            }
        }
        let bytes = machine.snapshot();
        if let Some(path) = self.snapshot_path(point) {
            // Unique per process: the checkpoint dir is a shared cache,
            // and two racing invocations writing the same temp name could
            // publish a torn file through the other's rename.
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            std::fs::write(&tmp, &bytes)
                .and_then(|()| std::fs::rename(&tmp, &path))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        }
        pool.insert(self.pool_key(point, &machine), bytes);
        Ok(())
    }
}

/// Per-grid metrics sampling: every point's run gets its own JSONL
/// artifact in `dir`, named after the point's canonical key, and the
/// artifact path is attributed in the point's journal line.
#[derive(Clone, Debug)]
pub struct GridMetrics {
    /// Sampling interval in cycles.
    pub every: u64,
    /// Directory the per-point `<key>.metrics.jsonl` files land in.
    pub dir: PathBuf,
}

impl GridMetrics {
    /// The metrics artifact backing one point (`/` in the key becomes
    /// `-` so the whole key stays one path component).
    pub fn artifact_path(&self, point: &GridPoint) -> PathBuf {
        self.dir
            .join(format!("{}.metrics.jsonl", point.key().replace('/', "-")))
    }
}

/// Slice length, in simulated cycles, for callers that step a machine
/// through `Machine::step_slice` in bounded slices (the benchmark's
/// traced replay does): long enough that the per-slice overhead vanishes.
pub const SLICE_CYCLES: u64 = 4_000_000;

/// How [`run_grid_scheduled`] runs a point set.
#[derive(Clone, Debug)]
pub struct GridSchedule<'w> {
    /// Worker thread count.
    pub threads: usize,
    /// Optional warm-fork phase.
    pub warm: Option<&'w WarmFork>,
    /// Stop starting new points and cancel in-flight machines once this
    /// instant passes; unfinished points stay un-journaled (their
    /// progress is reported as [`PartialPoint`]s) so a resumed shard
    /// recomputes exactly them.
    pub deadline: Option<Instant>,
    /// Optional per-point metrics sampling (`--metrics-every`).
    pub metrics: Option<GridMetrics>,
    /// In-memory warm-snapshot pool: warm states are published here by
    /// the warm phase and restores are served from it without file I/O.
    /// Share one across calls to reuse warm states; `None` gives the
    /// call a private pool.
    pub pool: Option<Arc<SnapshotPool>>,
}

impl<'w> GridSchedule<'w> {
    /// A schedule with `threads` workers and nothing else.
    pub fn new(threads: usize) -> GridSchedule<'w> {
        GridSchedule {
            threads,
            warm: None,
            deadline: None,
            metrics: None,
            pool: None,
        }
    }
}

/// What a scheduled grid run produced.
#[derive(Debug, Default)]
pub struct GridOutcome {
    /// Per-point results in `points` order; `None` = cancelled/unstarted.
    pub results: Vec<Option<PointResult>>,
    /// Points that finished.
    pub completed: usize,
    /// Points that did not (deadline, or a failed warm phase).
    pub cancelled: usize,
    /// Whether the deadline fired.
    pub deadline_hit: bool,
    /// Partial progress of interrupted points (machines that had started
    /// when the deadline/cancel landed), for journaling and reporting.
    pub partials: Vec<PartialPoint>,
    /// Why the warm phase produced no usable state, when it failed (see
    /// `WarmFork`); no point ran.
    pub warm_error: Option<String>,
}

/// One grid point as a driver task: its one step builds the machine
/// (cold, or restored from its warm state) and runs it to completion.
struct PointTask<'a> {
    point: GridPoint,
    warm: Option<&'a WarmFork>,
    /// Where warm states are served from.
    pool: &'a SnapshotPool,
    warm_tag: &'a str,
    /// Interrupted-progress sink shared with the grid run.
    partials: &'a Mutex<Vec<PartialPoint>>,
    /// Metrics attachment (resolved per point; the path is attributed in
    /// the result).
    metrics: Option<MetricsSpec>,
}

impl PointTask<'_> {
    /// Builds the point's machine, cold or restored from its warm state,
    /// and returns it with the cycle its measurement starts at.
    fn build(&self, cancel: &Arc<AtomicBool>) -> (Machine, u64) {
        let p = &self.point;
        let cancel = Some(Arc::clone(cancel));
        let Some(warm) = self.warm else {
            let machine = build_workload_machine(
                p.variant,
                p.workload,
                &p.opts,
                cancel,
                self.metrics.as_ref(),
            );
            return (machine, 0);
        };
        let mut machine = build_restore_target(p.variant, &p.opts, cancel, self.metrics.as_ref());
        let blob = self.warm_blob(warm, &machine);
        let restored = if warm.fork_base {
            machine.restore_forked(&blob)
        } else {
            machine.restore(&blob)
        };
        restored.unwrap_or_else(|e| {
            panic!("restoring {} warm state on {}: {e}", p.workload, p.variant)
        });
        let start = machine.now();
        (machine, start)
    }

    /// Fetches the point's warm snapshot: from the pool, else from the
    /// checkpoint dir (publishing the bytes into the pool so sibling
    /// points skip the read).
    fn warm_blob(&self, warm: &WarmFork, machine: &Machine) -> Arc<Vec<u8>> {
        let key = warm.pool_key(&self.point, machine);
        if let Some(blob) = self.pool.get(&key) {
            return blob;
        }
        let path = warm.snapshot_path(&self.point).unwrap_or_else(|| {
            panic!(
                "warm snapshot for {} is in neither the pool nor a checkpoint dir",
                self.point.key()
            )
        });
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        self.pool.insert(key, bytes)
    }
}

impl SliceTask for PointTask<'_> {
    type Done = PointResult;

    fn step(&mut self, ctx: &WorkerCtx) -> Step<PointResult> {
        let t0 = Instant::now();
        let (mut machine, start_cycle) = self.build(&ctx.cancel);
        let outcome = machine.run_to_completion(self.point.opts.cycle_cap());
        let wall_ms = t0.elapsed().as_millis() as u64;
        match outcome {
            Ok(stats) => Step::Done(PointResult {
                point: self.point,
                record: RunRecord::from_run(
                    self.point.workload.name(),
                    &machine,
                    &stats,
                    start_cycle,
                ),
                wall_ms,
                worker: ctx.worker,
                warm: self.warm_tag.to_string(),
                metrics: self.metrics.as_ref().map(|m| m.path.display().to_string()),
            }),
            Err(RunError::Cancelled { at_cycle }) => {
                self.partials.lock().unwrap().push(PartialPoint {
                    point: self.point,
                    cycles: at_cycle,
                    instructions: machine.core(0).stats.committed_instructions,
                    wall_ms,
                    worker: ctx.worker,
                    warm: self.warm_tag.to_string(),
                });
                Step::Abort
            }
            Err(RunError::Timeout { .. }) => panic!(
                "{} on {} still running after {} cycles",
                self.point.workload,
                self.point.variant,
                machine.now()
            ),
        }
    }
}

/// The grid run: the warm-fork phase (if configured), then the
/// measurement phase, both on the machine driver, with per-point
/// cancellation against the deadline.
///
/// `on_result` is invoked on the caller's thread as each point finishes
/// (in completion order — use it for streaming output, not rendering).
/// [`GridOutcome::results`] is in `points` order.
pub fn run_grid_scheduled(
    points: &[GridPoint],
    schedule: &GridSchedule<'_>,
    mut on_result: impl FnMut(&PointResult),
) -> GridOutcome {
    if points.is_empty() {
        return GridOutcome::default();
    }
    let warm_tag = match schedule.warm {
        None => "cold".to_string(),
        Some(w) if w.fork_base => format!("forkbase:{}", w.warmup_cycles),
        Some(w) => format!("exact:{}", w.warmup_cycles),
    };
    let private_pool;
    let pool = match &schedule.pool {
        Some(pool) => pool.as_ref(),
        None => {
            private_pool = SnapshotPool::new();
            &private_pool
        }
    };
    if let Some(warm) = schedule.warm {
        if let Err(e) = run_warm_phase(points, schedule, warm, pool) {
            return GridOutcome {
                results: vec![None; points.len()],
                cancelled: points.len(),
                warm_error: Some(e),
                ..GridOutcome::default()
            };
        }
    }
    if let Some(metrics) = &schedule.metrics {
        std::fs::create_dir_all(&metrics.dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", metrics.dir.display()));
    }
    let partials = Mutex::new(Vec::new());
    let outcome = MachineDriver::new(schedule.threads)
        .with_deadline(schedule.deadline)
        .run(
            points.len(),
            |i| PointTask {
                point: points[i],
                warm: schedule.warm,
                pool,
                warm_tag: &warm_tag,
                partials: &partials,
                metrics: schedule.metrics.as_ref().map(|g| MetricsSpec {
                    path: g.artifact_path(&points[i]),
                    every: g.every,
                }),
            },
            |_, res| on_result(res),
        );
    GridOutcome {
        results: outcome.results,
        completed: outcome.completed,
        cancelled: outcome.cancelled,
        deadline_hit: outcome.deadline_hit,
        partials: partials.into_inner().unwrap(),
        warm_error: None,
    }
}

/// One warm-up as a driver task: its single step simulates the prefix
/// and publishes the snapshot.
struct WarmTask<'a> {
    warm: &'a WarmFork,
    point: GridPoint,
    pool: &'a SnapshotPool,
}

impl SliceTask for WarmTask<'_> {
    type Done = Result<(), String>;

    fn step(&mut self, _ctx: &WorkerCtx) -> Step<Self::Done> {
        Step::Done(self.warm.create_snapshot(&self.point, self.pool))
    }
}

/// The warm-fork phase: one warm-up per unique warm tag that neither
/// the pool nor the checkpoint dir already holds. The first failed
/// warm-up stops the phase from starting more, and the failure of the
/// lowest-numbered one is returned.
fn run_warm_phase(
    points: &[GridPoint],
    schedule: &GridSchedule<'_>,
    warm: &WarmFork,
    pool: &SnapshotPool,
) -> Result<(), String> {
    if let Some(dir) = &warm.dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    }
    // A snapshot file from an earlier invocation or another shard host
    // counts as held: the measurement phase reads it into the pool.
    let mut pending: BTreeMap<String, GridPoint> = BTreeMap::new();
    for p in points {
        let tag = warm.warm_tag(p);
        let on_disk = warm.snapshot_path(p).is_some_and(|path| path.exists());
        if !on_disk && !pool.contains_tag(&tag) {
            pending.entry(tag).or_insert(*p);
        }
    }
    let todo: Vec<GridPoint> = pending.into_values().collect();
    if todo.is_empty() {
        return Ok(());
    }
    eprintln!(
        "  warm-fork: simulating {} warm-up prefix(es) of {} cycles",
        todo.len(),
        warm.warmup_cycles
    );
    // Deadline granularity here is one warm-up: a warm-up that has
    // started always completes and publishes its snapshot (later
    // invocations reuse it), but none starts past the deadline.
    let stop = Arc::new(AtomicBool::new(false));
    let mut driver = MachineDriver::new(schedule.threads).with_deadline(schedule.deadline);
    driver.cancel = Some(Arc::clone(&stop));
    let out = driver.run(
        todo.len(),
        |i| WarmTask {
            warm,
            point: todo[i],
            pool,
        },
        |_, res| {
            if res.is_err() {
                stop.store(true, Ordering::SeqCst);
            }
        },
    );
    out.results
        .into_iter()
        .flatten()
        .find_map(Result::err)
        .map_or(Ok(()), Err)
}

/// One variant's grid over an explicit workload set (how `--workload`
/// restricts a figure, and how the adversarial `enclave-ws` runs in a
/// plain grid).
pub fn variant_points_for(
    variant: Variant,
    opts: HarnessOpts,
    workloads: &[Workload],
) -> Vec<GridPoint> {
    workloads
        .iter()
        .map(|&workload| GridPoint {
            variant,
            workload,
            opts,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn tiny_opts() -> HarnessOpts {
        HarnessOpts::default().with_kinsts(10).with_timer(0)
    }

    /// One point at [`tiny_opts`].
    fn tiny(variant: Variant, workload: Workload) -> GridPoint {
        GridPoint {
            variant,
            workload,
            opts: tiny_opts(),
        }
    }

    /// One variant over all eleven paper workloads.
    fn variant_points(variant: Variant) -> Vec<GridPoint> {
        variant_points_for(variant, tiny_opts(), &Workload::ALL)
    }

    /// Runs every point to completion on `threads` workers, optionally
    /// warm-started (on a private pool).
    fn run(points: &[GridPoint], threads: usize, warm: Option<&WarmFork>) -> Vec<PointResult> {
        let mut schedule = GridSchedule::new(threads);
        schedule.warm = warm;
        run_grid_scheduled(points, &schedule, |_| {})
            .results
            .into_iter()
            .map(|r| r.expect("every grid point completed (no deadline set)"))
            .collect()
    }

    #[test]
    fn grid_results_arrive_in_point_order() {
        let points = [
            tiny(Variant::Base, Workload::Hmmer),
            tiny(Variant::Base, Workload::Sjeng),
            tiny(Variant::Arb, Workload::Hmmer),
        ];
        let mut streamed = 0usize;
        let out = run_grid_scheduled(&points, &GridSchedule::new(3), |_| streamed += 1);
        assert_eq!(streamed, 3);
        let results: Vec<_> = out.results.into_iter().flatten().collect();
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].record.name, "hmmer");
        assert_eq!(results[1].record.name, "sjeng");
        assert_eq!(results[2].point.variant, Variant::Arb);
        for r in &results {
            assert!(r.record.cycles > 0);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let points = variant_points(Variant::Base)[..3].to_vec();
        let serial = run(&points, 1, None);
        let parallel = run(&points, 3, None);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.record.cycles, b.record.cycles, "{}", a.record.name);
            assert_eq!(a.record.instructions, b.record.instructions);
        }
    }

    fn scratch_dir(label: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mi6-warm-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn exact_warm_fork_matches_cold_runs_bit_for_bit() {
        let dir = scratch_dir("exact");
        let points = [
            tiny(Variant::Base, Workload::Hmmer),
            tiny(Variant::Fpma, Workload::Hmmer),
        ];
        let cold = run(&points, 2, None);
        let warm = WarmFork {
            warmup_cycles: 4_000,
            dir: Some(dir.clone()),
            fork_base: false,
        };
        // First pass simulates the warm-ups; the second reuses the cache.
        for pass in 0..2 {
            let warmed = run(&points, 2, Some(&warm));
            for (c, f) in cold.iter().zip(&warmed) {
                assert_eq!(c.record.cycles, f.record.cycles, "pass {pass}");
                assert_eq!(c.record.instructions, f.record.instructions);
                assert_eq!(c.record.traps, f.record.traps);
            }
        }
        // One snapshot per (variant, workload).
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pool_only_warm_matches_cold_runs_bit_for_bit() {
        // No checkpoint dir at all: warm states live only in the
        // in-memory pool, and restores are served from it.
        let points = [
            tiny(Variant::Base, Workload::Hmmer),
            tiny(Variant::Fpma, Workload::Hmmer),
        ];
        let cold = run(&points, 2, None);
        let warm = WarmFork {
            warmup_cycles: 4_000,
            dir: None,
            fork_base: false,
        };
        let pool = Arc::new(SnapshotPool::new());
        let mut schedule = GridSchedule::new(2);
        schedule.warm = Some(&warm);
        schedule.pool = Some(Arc::clone(&pool));
        let out = run_grid_scheduled(&points, &schedule, |_| {});
        assert_eq!(out.completed, 2);
        // One pooled warm state per (variant, workload), each served at
        // least one restore.
        assert_eq!(pool.len(), 2);
        let (hits, _) = pool.stats();
        assert!(hits >= 2, "restores were not served from the pool");
        for (c, w) in cold.iter().zip(&out.results) {
            let w = w.as_ref().expect("completed");
            assert_eq!(c.record.cycles, w.record.cycles);
            assert_eq!(c.record.instructions, w.record.instructions);
            assert_eq!(c.record.traps, w.record.traps);
            assert_eq!(w.warm, "exact:4000");
        }
        // A second grid over the same schedule re-serves from the pool
        // without re-simulating any warm-up.
        let before = pool.len();
        let again = run_grid_scheduled(&points, &schedule, |_| {});
        assert_eq!(again.completed, 2);
        assert_eq!(pool.len(), before);
    }

    #[test]
    fn fork_base_shares_one_warmup_across_variants() {
        let dir = scratch_dir("forkbase");
        let points = [
            tiny(Variant::Base, Workload::Sjeng),
            tiny(Variant::Fpma, Workload::Sjeng),
        ];
        let warm = WarmFork {
            warmup_cycles: 4_000,
            dir: Some(dir.clone()),
            fork_base: true,
        };
        let a = run(&points, 2, Some(&warm));
        // Both variants forked from one shared BASE-warmed snapshot.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        // The BASE point is an exact continuation: identical to a cold run.
        let cold = run(&points[..1], 1, None);
        assert_eq!(a[0].record.cycles, cold[0].record.cycles);
        assert_eq!(a[0].record.instructions, cold[0].record.instructions);
        // Forked runs are deterministic and complete.
        let b = run(&points, 2, Some(&warm));
        assert_eq!(a[1].record.cycles, b[1].record.cycles);
        assert!(a[1].record.instructions > 5_000);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn private_pool_warm_grid_matches_cold_runs() {
        // Neither a shared pool nor a checkpoint dir: the grid keeps its
        // warm states in a pool of its own for the call.
        let points = [
            tiny(Variant::Base, Workload::Hmmer),
            tiny(Variant::Fpma, Workload::Hmmer),
        ];
        let warm = WarmFork {
            warmup_cycles: 4_000,
            dir: None,
            fork_base: false,
        };
        let cold = run(&points, 2, None);
        let warmed = run(&points, 2, Some(&warm));
        for (c, w) in cold.iter().zip(&warmed) {
            assert_eq!(c.record.cycles, w.record.cycles);
            assert_eq!(c.record.instructions, w.record.instructions);
            assert_eq!(c.record.traps, w.record.traps);
            assert_eq!(w.warm, "exact:4000");
        }
    }

    #[test]
    fn expired_deadline_on_a_warm_grid_simulates_nothing() {
        let dir = scratch_dir("expired");
        let points = variant_points(Variant::Base);
        let warm = WarmFork {
            warmup_cycles: 4_000,
            dir: Some(dir.clone()),
            fork_base: false,
        };
        let pool = Arc::new(SnapshotPool::new());
        let mut schedule = GridSchedule::new(2);
        schedule.warm = Some(&warm);
        schedule.pool = Some(Arc::clone(&pool));
        schedule.deadline = Some(Instant::now());
        let out = run_grid_scheduled(&points, &schedule, |_| {});
        assert!(out.deadline_hit);
        assert_eq!(out.completed, 0);
        assert_eq!(out.cancelled, points.len());
        assert!(out.partials.is_empty());
        assert!(pool.is_empty(), "a warm-up ran past the deadline");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "a snapshot file was written past the deadline"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_shape() {
        let points = [tiny(Variant::Base, Workload::Hmmer)];
        let results = run(&points, 1, None);
        let json = results[0].to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"variant\":\"BASE\""));
        assert!(json.contains("\"workload\":\"hmmer\""));
        assert!(json.contains("\"cycles\":"));
        assert!(json.contains("\"wall_ms\":"));
        assert!(json.contains("\"worker\":"));
        assert!(json.contains("\"warm\":\"cold\""));
        // Seed sweeps are distinguishable in the JSONL stream.
        assert!(json.contains(&format!("\"seed\":{}", crate::DEFAULT_SEED)));
        // The CPI stack rides along: its own cycle counter, the width it
        // was accounted against, and one key per category.
        assert!(json.contains("\"cpi_cycles\":"));
        assert!(json.contains("\"cpi_commit_width\":2"));
        for cat in CpiCategory::ALL {
            assert!(
                json.contains(&format!("\"{}\":", cat.metric_name())),
                "missing {}",
                cat.metric_name()
            );
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let points = [GridPoint {
            variant: Variant::Fpma,
            workload: Workload::Sjeng,
            opts: tiny_opts().with_seed(0xDEAD_BEEF_1234_5678),
        }];
        let results = run(&points, 1, None);
        let parsed = PointResult::from_json(&results[0].to_json()).unwrap();
        assert_eq!(parsed.point.key(), results[0].point.key());
        assert_eq!(parsed.record.cycles, results[0].record.cycles);
        assert_eq!(parsed.record.instructions, results[0].record.instructions);
        // Floats round-trip bit-for-bit: merged figure tables must be
        // byte-identical to unsharded ones.
        assert_eq!(parsed.record.branch_mpki, results[0].record.branch_mpki);
        assert_eq!(parsed.record.llc_mpki, results[0].record.llc_mpki);
        assert_eq!(parsed.wall_ms, results[0].wall_ms);
        assert_eq!(parsed.worker, results[0].worker);
        assert_eq!(parsed.warm, "cold");
        // The journaled CPI-stack state (slots, pressure counters, its
        // own cycle counter) survives the round trip, invariant intact.
        // (In-flight attribution bookkeeping is deliberately not
        // journaled, so compare the journaled fields, not the struct.)
        assert_eq!(parsed.record.cpi.slots, results[0].record.cpi.slots);
        assert_eq!(parsed.record.cpi.cycles, results[0].record.cpi.cycles);
        assert_eq!(
            parsed.record.cpi.pressure(),
            results[0].record.cpi.pressure()
        );
        assert_eq!(parsed.record.commit_width, results[0].record.commit_width);
        assert_eq!(
            parsed.record.cpi.total_slots(),
            parsed.record.cpi.cycles * parsed.record.commit_width
        );
        // And a torn line is rejected, not misparsed.
        let json = results[0].to_json();
        assert!(PointResult::from_json(&json[..json.len() - 8]).is_err());
    }

    #[test]
    fn partial_lines_are_flagged_and_rejected() {
        let partial = PartialPoint {
            point: tiny(Variant::Base, Workload::Mcf),
            cycles: 123_456,
            instructions: 7_890,
            wall_ms: 42,
            worker: 1,
            warm: "cold".to_string(),
        };
        let line = partial.to_json();
        assert!(line.ends_with("\"partial\":true}"), "{line}");
        assert!(is_partial_line(&line));
        // A partial is never a mergeable result.
        let err = PointResult::from_json(&line).unwrap_err();
        assert!(err.contains("partial"), "{err}");
        // Completed lines and garbage are not misclassified.
        let points = [tiny(Variant::Base, Workload::Hmmer)];
        let full = run(&points, 1, None).remove(0).to_json();
        assert!(!is_partial_line(&full));
        assert!(!is_partial_line("not json at all"));
    }

    #[test]
    fn point_key_is_the_documented_contract() {
        let p = GridPoint {
            variant: Variant::Fpma,
            workload: Workload::Gcc,
            opts: HarnessOpts {
                kinsts: 2000,
                timer: 0,
                seed: 0xC0FFEE,
            },
        };
        assert_eq!(p.key(), "F+P+M+A/gcc/2000/0/c0ffee");
    }

    #[test]
    fn expired_deadline_cancels_everything_cleanly() {
        let points = variant_points(Variant::Base);
        let mut schedule = GridSchedule::new(2);
        schedule.deadline = Some(Instant::now());
        let mut streamed = 0usize;
        let out = run_grid_scheduled(&points, &schedule, |_| streamed += 1);
        assert!(out.deadline_hit);
        assert_eq!(out.completed, 0);
        assert_eq!(out.cancelled, points.len());
        assert_eq!(streamed, 0);
        assert!(out.results.iter().all(Option::is_none));
        // Nothing was admitted, so there is no partial progress to report.
        assert!(out.partials.is_empty());
    }

    #[test]
    fn deadline_mid_grid_records_partial_progress() {
        // One long point, interrupted mid-run: far too much work to
        // finish inside the deadline, so the cancel lands while the
        // machine is live and its progress must surface as a partial.
        let points = [GridPoint {
            variant: Variant::Base,
            workload: Workload::Mcf,
            opts: HarnessOpts::default().with_kinsts(20_000).with_timer(0),
        }];
        // The point generates its program and builds its machine inside
        // the run, before it simulates, and a deadline passing during
        // that set-up cancels the machine at cycle 0. So the deadline is
        // armed 50 ms past ten times the same set-up, timed here under
        // whatever load the host carries.
        let t0 = Instant::now();
        drop(build_workload_machine(
            Variant::Base,
            Workload::Mcf,
            &points[0].opts,
            None,
            None,
        ));
        let setup = t0.elapsed();
        let mut schedule = GridSchedule::new(1);
        schedule.deadline = Some(Instant::now() + 10 * setup + Duration::from_millis(50));
        let out = run_grid_scheduled(&points, &schedule, |_| {});
        assert!(out.deadline_hit);
        assert_eq!(out.completed, 0);
        assert_eq!(out.cancelled, 1);
        assert_eq!(out.partials.len(), 1);
        let p = &out.partials[0];
        assert_eq!(p.point.key(), points[0].key());
        assert!(p.cycles > 0, "the machine had started");
        assert_eq!(p.warm, "cold");
        assert!(is_partial_line(&p.to_json()));
    }

    #[test]
    fn worker_ids_are_recorded() {
        let points = variant_points(Variant::Base);
        let results = run(&points, 3, None);
        assert!(results.iter().all(|r| r.worker < 3));
    }
}
