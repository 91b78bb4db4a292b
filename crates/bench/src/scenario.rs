//! Multi-core evaluation scenarios.
//!
//! The paper's enclave threat model colocates a victim enclave with an
//! attacker-controlled OS core that thrashes the shared LLC and DRAM
//! queues (Sections 4 and 5). `enclave-attacker` reproduces that shape on
//! a two-core machine through `SimBuilder` workload placement: the victim
//! (a pointer chase over an arena that *fits* the shared LLC, so its
//! runtime is exactly what LLC eviction destroys) runs on core 0 while
//! core 1 either exits immediately (the solo baseline) or streams
//! libquantum-like traffic through the shared LLC for the victim's whole
//! run.
//!
//! The reproduction target is the *contrast*: on BASE the attacker's
//! stream evicts the victim's LLC-resident working set and inflates its
//! runtime, while the full MI6 machine (set partitioning by DRAM region,
//! per-core MSHRs, round-robin pipeline arbitration) keeps the attacker
//! out of the victim's sets and bounds the interference.

use crate::figures::write_cpi_rows;
use crate::runner::write_cpi_tail;
use crate::{mean, HarnessOpts};
use mi6_core::CpiStack;
use mi6_grid::{MachineDriver, SliceTask, Step, WorkerCtx};
use mi6_isa::{Assembler, Inst, Reg};
use mi6_obs::json::{parse_object, JsonValue, JsonWriter};
use mi6_soc::{kernel, loader, Program, SimBuilder, Variant};
use mi6_workloads::{Workload, WorkloadParams};
use std::path::PathBuf;

/// The enclave victim workload (promoted to `mi6-workloads` so plain
/// figure grids and shards can run it like any other workload; see
/// [`Workload::EnclaveWs`] for why the 256 KiB chase arena is the
/// maximally eviction-sensitive shape).
pub const VICTIM: Workload = Workload::EnclaveWs;
/// Display name of the enclave victim.
pub const VICTIM_NAME: &str = "enclave-ws";
/// The attacker workload (streaming LLC thrasher).
pub const ATTACKER: Workload = Workload::Libquantum;

/// The enclave victim's program ([`Workload::EnclaveWs`] at this scale).
pub fn victim_program(params: &WorkloadParams) -> Program {
    VICTIM.build(params)
}

/// One (variant, colocation) measurement of the victim core.
#[derive(Clone, Debug)]
pub struct ScenarioPoint {
    /// Machine variant.
    pub variant: Variant,
    /// Whether the attacker core was streaming.
    pub contended: bool,
    /// Cycles until the *victim* core halted (its core-local counter).
    pub victim_cycles: u64,
    /// Victim instructions committed.
    pub victim_instructions: u64,
    /// The victim core's CPI stack (slot attribution plus the
    /// structural-pressure event counters).
    pub victim_cpi: CpiStack,
    /// Commit width the victim's stack was accounted against.
    pub victim_commit_width: u64,
    /// Machine cycles actually ticked vs fast-forwarded through inert
    /// spans (whole-machine accounting, both cores).
    pub cycles_ticked: u64,
    /// See [`ScenarioPoint::cycles_ticked`].
    pub cycles_skipped: u64,
    /// Per-point metrics JSONL artifact, when sampling was on.
    pub metrics_path: Option<PathBuf>,
}

impl ScenarioPoint {
    /// One JSON object for the `--json` stream (append-only shape, like
    /// the grid journal's, and the same stall/cycle/CPI-stack tail).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.str("scenario", "enclave-attacker")
            .str("variant", self.variant.name())
            .bool("contended", self.contended)
            .u64("victim_cycles", self.victim_cycles)
            .u64("victim_instructions", self.victim_instructions);
        write_cpi_tail(
            &mut w,
            &self.victim_cpi,
            self.victim_commit_width,
            self.cycles_ticked,
            self.cycles_skipped,
        );
        if let Some(path) = &self.metrics_path {
            w.str("metrics", &path.display().to_string());
        }
        w.finish()
    }
}

/// Metrics sampling for a scenario run: every point writes its own
/// `enclave-attacker-<variant>-<solo|contended>.metrics.jsonl` in `dir`.
#[derive(Clone, Debug)]
pub struct ScenarioObs {
    /// Directory the per-point artifacts land in.
    pub dir: PathBuf,
    /// Sampling interval in cycles.
    pub every: u64,
}

impl ScenarioObs {
    fn artifact_path(&self, variant: Variant, contended: bool) -> PathBuf {
        let v: String = variant
            .name()
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_lowercase();
        let mode = if contended { "contended" } else { "solo" };
        self.dir
            .join(format!("enclave-attacker-{v}-{mode}.metrics.jsonl"))
    }
}

/// A program that exits immediately — parks the second core so a solo run
/// uses the identical two-core machine as the contended one.
fn park_program() -> Program {
    let mut asm = Assembler::new(loader::CODE_VA);
    asm.li(Reg::A0, 0);
    asm.li(Reg::A7, kernel::sys::EXIT);
    asm.push(Inst::Ecall);
    Program {
        name: "park".into(),
        code: asm.assemble().expect("park program assembles"),
        data_size: 4096,
        data_init: vec![],
        stack_size: 4096,
    }
}

fn run_point(
    variant: Variant,
    contended: bool,
    opts: &HarnessOpts,
    obs: Option<&ScenarioObs>,
) -> ScenarioPoint {
    let victim_params = WorkloadParams::evaluation()
        .with_target_kinsts(opts.kinsts)
        .with_seed(opts.seed);
    // The attacker outlives the victim so interference covers the whole
    // measured run.
    let attacker_params = WorkloadParams::evaluation()
        .with_target_kinsts(opts.kinsts.saturating_mul(3))
        .with_seed(opts.seed);
    let attacker = if contended {
        ATTACKER.build(&attacker_params)
    } else {
        park_program()
    };
    let metrics_path = obs.map(|o| o.artifact_path(variant, contended));
    let mut builder = SimBuilder::new(variant)
        .cores(2)
        .timer_interval(opts.timer)
        .workload(0, victim_program(&victim_params))
        .workload(1, attacker);
    if let Some(path) = &metrics_path {
        builder = builder.metrics(path.clone(), obs.expect("path implies obs").every);
    }
    let mut machine = builder
        .build()
        .unwrap_or_else(|e| panic!("building {variant} scenario: {e}"));
    let cap = opts.kinsts.saturating_mul(6_000_000).max(400_000_000);
    let stats = machine
        .run_to_completion(cap)
        .unwrap_or_else(|e| panic!("running {variant} scenario: {e}"));
    ScenarioPoint {
        variant,
        contended,
        // The per-core cycle counter stops when the core halts, so this is
        // the victim's own completion time even though the attacker keeps
        // running afterwards.
        victim_cycles: stats.core[0].cycles,
        victim_instructions: stats.core[0].committed_instructions,
        victim_cpi: machine.core(0).cpi.clone(),
        victim_commit_width: machine.core(0).config().commit_width as u64,
        cycles_ticked: machine.ticks(),
        cycles_skipped: machine.now().saturating_sub(machine.ticks()),
        metrics_path,
    }
}

/// One scenario point as a machine-driver task, done in one step.
struct ScenarioTask<'a> {
    variant: Variant,
    contended: bool,
    opts: &'a HarnessOpts,
    obs: Option<&'a ScenarioObs>,
}

impl SliceTask for ScenarioTask<'_> {
    type Done = ScenarioPoint;

    fn step(&mut self, _ctx: &WorkerCtx) -> Step<ScenarioPoint> {
        Step::Done(run_point(self.variant, self.contended, self.opts, self.obs))
    }
}

/// Runs the enclave-plus-attacker grid — (BASE, MI6) × (solo, contended)
/// — on the machine driver with up to four workers and returns the
/// points in a fixed order: for each variant, solo then contended. With
/// `obs`, every point also writes a time-series metrics artifact (see
/// [`ScenarioObs`]).
pub fn run_enclave_attacker(
    opts: &HarnessOpts,
    threads: usize,
    obs: Option<&ScenarioObs>,
) -> Vec<ScenarioPoint> {
    if let Some(o) = obs {
        std::fs::create_dir_all(&o.dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", o.dir.display()));
    }
    let spawn = |i: usize| ScenarioTask {
        variant: [Variant::Base, Variant::SecureMi6][i / 2],
        contended: i % 2 == 1,
        opts,
        obs,
    };
    let report = |_, p: &ScenarioPoint| {
        let mode = if p.contended { "contended" } else { "solo" };
        eprintln!("  {} {mode}: victim {} cycles", p.variant, p.victim_cycles);
    };
    MachineDriver::new(threads)
        .run(4, spawn, report)
        .results
        .into_iter()
        .map(|r| r.expect("every scenario point completed"))
        .collect()
}

/// Renders the scenario table: per variant, the victim's solo and
/// contended runtimes and the attacker-induced slowdown.
pub fn render_enclave_attacker(points: &[ScenarioPoint]) {
    println!(
        "\n=== enclave + attacker (2 cores): victim {} vs streaming {} ===",
        VICTIM_NAME,
        ATTACKER.name()
    );
    println!(
        "{:<10} {:>16} {:>18} {:>10}",
        "variant", "solo cycles", "contended cycles", "slowdown"
    );
    let mut slowdowns = Vec::new();
    for pair in points.chunks(2) {
        let [solo, contended] = pair else {
            continue;
        };
        assert_eq!(solo.variant, contended.variant);
        assert!(!solo.contended && contended.contended);
        let slowdown = (contended.victim_cycles as f64 / solo.victim_cycles as f64 - 1.0) * 100.0;
        slowdowns.push(slowdown);
        println!(
            "{:<10} {:>16} {:>18} {:>9.1}%",
            solo.variant.name(),
            solo.victim_cycles,
            contended.victim_cycles,
            slowdown
        );
    }
    if slowdowns.len() == 2 {
        println!(
            "attacker-induced victim slowdown: BASE {:+.1}% vs MI6 {:+.1}% \
             (mean {:+.1}%; the paper's isolation claim is MI6 << BASE)",
            slowdowns[0],
            slowdowns[1],
            mean(slowdowns.iter().copied())
        );
    }
}

/// Renders the victim's CPI-stack decomposition across the four scenario
/// points: per category, the victim's CPI contribution
/// (`slots / (commit_width × instructions)`), so the columns of one point
/// sum to its CPI. This answers *where* the attacker-induced cycles go on
/// BASE (DRAM-served loads after LLC eviction, shared-MSHR pressure) and
/// which MI6 mechanism absorbs them (partitioned sets keep loads
/// LLC/L1-served; per-core quotas and round-robin arbitration show up as
/// the explicit `mshr_quota_deny` / `arb_deny` categories instead of
/// unbounded memory time).
pub fn render_enclave_cpi(points: &[ScenarioPoint]) -> String {
    let mut out =
        "\n--- victim CPI stack (cycles per instruction, by blocking reason) ---\n".to_string();
    let cols: Vec<_> = points
        .iter()
        .map(|p| {
            let mode = if p.contended { "cont" } else { "solo" };
            (
                format!("{} {}", p.variant.name(), mode),
                &p.victim_cpi,
                p.victim_commit_width * p.victim_instructions,
            )
        })
        .collect();
    write_cpi_rows(&mut out, 15, &cols);
    out
}

/// One parsed metrics row: `(cycle, core, metric, value)`; `core` is
/// `None` for machine-level rows.
fn parse_metrics_row(line: &str) -> Option<(u64, Option<u64>, String, u64)> {
    let row = parse_object(line).ok()?;
    let int = |key: &str| row.get(key).and_then(JsonValue::as_u64);
    let metric = row.get("metric")?.as_str()?.to_string();
    Some((int("cycle")?, int("core"), metric, int("value")?))
}

/// Renders the attacker-vs-victim occupancy timeline of each *contended*
/// point from its metrics artifact: per time window, the mean MSHR
/// occupancy and summed arbiter grants of the victim (core 0) and the
/// attacker (core 1). This is the per-mechanism contention picture the
/// scalar slowdown table averages away: on BASE the attacker holds the
/// shared MSHRs and wins most grants; under MI6's per-core quotas and
/// round-robin arbitration the two cores' curves stay bounded.
pub fn render_occupancy_timeline(points: &[ScenarioPoint]) -> String {
    use std::fmt::Write;
    const BUCKETS: usize = 8;
    let mut out = String::new();
    for p in points.iter().filter(|p| p.contended) {
        let Some(path) = &p.metrics_path else {
            continue;
        };
        let Ok(doc) = std::fs::read_to_string(path) else {
            writeln!(out, "(cannot read {})", path.display()).unwrap();
            continue;
        };
        let rows: Vec<_> = doc.lines().filter_map(parse_metrics_row).collect();
        let Some(last) = rows.iter().map(|r| r.0).max().filter(|&l| l > 0) else {
            continue;
        };
        let width = last.div_ceil(BUCKETS as u64).max(1);
        // Per window and core: (occupancy sum, sample count) and grants.
        let mut mshr = [[(0u64, 0u64); 2]; BUCKETS];
        let mut grants = [[0u64; 2]; BUCKETS];
        for (cycle, core, metric, value) in &rows {
            let Some(c) = core.map(|c| c as usize).filter(|&c| c < 2) else {
                continue;
            };
            let b = (((cycle - 1) / width) as usize).min(BUCKETS - 1);
            match metric.as_str() {
                "mshr_occupancy" => {
                    mshr[b][c].0 += value;
                    mshr[b][c].1 += 1;
                }
                "arb_grants" => grants[b][c] += value,
                _ => {}
            }
        }
        writeln!(
            out,
            "\n--- {} contended: MSHR occupancy and LLC arbiter grants over time ---",
            p.variant.name()
        )
        .unwrap();
        writeln!(
            out,
            "{:<19} {:>12} {:>14} {:>14} {:>16}",
            "cycles", "victim MSHRs", "attacker MSHRs", "victim grants", "attacker grants"
        )
        .unwrap();
        for b in 0..BUCKETS {
            let occ = |c: usize| {
                let (sum, n) = mshr[b][c];
                if n == 0 {
                    0.0
                } else {
                    sum as f64 / n as f64
                }
            };
            writeln!(
                out,
                "{:<19} {:>12.2} {:>14.2} {:>14} {:>16}",
                format!(
                    "{}-{}",
                    b as u64 * width,
                    ((b as u64 + 1) * width).min(last)
                ),
                occ(0),
                occ(1),
                grants[b][0],
                grants[b][1]
            )
            .unwrap();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mi6_core::CpiCategory;

    #[test]
    fn scenario_runs_and_isolates() {
        // 50k instructions gives the chase several laps over its arena,
        // so LLC reuse (and its destruction by the attacker) is visible.
        let opts = HarnessOpts::default().with_kinsts(50).with_timer(0);
        let points = run_enclave_attacker(&opts, 4, None);
        assert_eq!(points.len(), 4);
        // Fixed order: (BASE solo, BASE contended, MI6 solo, MI6 contended).
        assert!(!points[0].contended && points[1].contended);
        assert_eq!(points[2].variant, Variant::SecureMi6);
        for p in &points {
            assert!(p.victim_instructions > 10_000, "{p:?}");
            // Every commit slot of every accounted cycle is attributed.
            assert_eq!(
                p.victim_cpi.total_slots(),
                p.victim_cpi.cycles * p.victim_commit_width,
                "{p:?}"
            );
        }
        // The `--json` lines' stacks pass the schema checker, and the
        // decomposition table shows the MI6 stall mechanisms explicitly.
        let doc: String = points.iter().map(|p| p.to_json() + "\n").collect();
        let sum = mi6_obs::check_stacks_str(&doc).unwrap();
        assert_eq!(sum.rows, 4);
        let table = render_enclave_cpi(&points);
        assert!(table.contains("total CPI"), "{table}");
        // Contention on BASE must surface as memory-side categories.
        assert!(
            points[1].victim_cpi.get(CpiCategory::MemDram)
                + points[1].victim_cpi.get(CpiCategory::MemPending)
                > points[0].victim_cpi.get(CpiCategory::MemDram)
                    + points[0].victim_cpi.get(CpiCategory::MemPending),
            "{table}"
        );
        let slowdown = |solo: &ScenarioPoint, cont: &ScenarioPoint| {
            cont.victim_cycles as f64 / solo.victim_cycles as f64
        };
        let base = slowdown(&points[0], &points[1]);
        let mi6 = slowdown(&points[2], &points[3]);
        // The paper's isolation claim: the attacker hurts BASE badly and
        // MI6 barely (Section 5.2's partitioned LLC).
        assert!(base > 1.3, "attacker barely affects BASE: {base:.3}");
        assert!(mi6 < 1.1, "MI6 fails to isolate the enclave: {mi6:.3}");
    }

    #[test]
    fn scenario_metrics_artifacts_are_schema_valid() {
        let dir = std::env::temp_dir().join(format!("mi6-scn-obs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = HarnessOpts::default().with_kinsts(10).with_timer(0);
        let obs = ScenarioObs {
            dir: dir.clone(),
            every: 2_000,
        };
        let points = run_enclave_attacker(&opts, 4, Some(&obs));
        assert_eq!(points.len(), 4);
        for p in &points {
            let path = p.metrics_path.as_ref().expect("sampled run has artifact");
            let summary = mi6_obs::check_metrics_file(path)
                .unwrap_or_else(|e| panic!("invalid metrics artifact: {e}"));
            assert!(summary.rows > 0);
            assert!(
                summary.metrics.iter().any(|m| m == "mshr_occupancy"),
                "{:?}",
                summary.metrics
            );
            assert!(summary.metrics.iter().any(|m| m == "arb_grants"));
            // Whole-machine cycle accounting is exhaustive: every cycle
            // was either ticked or skipped.
            assert!(p.cycles_ticked > 0);
        }
        // The timeline renders one table per contended point.
        let timeline = render_occupancy_timeline(&points);
        assert_eq!(timeline.matches("contended:").count(), 2, "{timeline}");
        assert!(timeline.contains("attacker MSHRs"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
