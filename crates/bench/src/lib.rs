//! # mi6-bench
//!
//! The experiment harness behind the `mi6-experiments` CLI: a shared
//! [`runner`] that fans the variant×workload grid out across OS threads,
//! and the [`figures`] definitions reproducing every evaluation figure of
//! the paper (Section 7).
//!
//! Every figure runs the eleven SPEC-shaped workloads on the BASE
//! processor and on the figure's variant, then prints the per-benchmark
//! overhead next to the paper's reported number. Absolute cycle counts
//! are not expected to match the FPGA prototype; the *shape* — which
//! benchmarks hurt, roughly how much, and the average — is the
//! reproduction target (see `DESIGN.md` and `EXPERIMENTS.md`).
//!
//! Run e.g. `cargo run --release -p mi6-bench --bin mi6-experiments -- \
//! --figure 13`. The CLI accepts `--kinsts N` (thousands of instructions
//! per run; default 2000), `--timer N` (scheduler tick in cycles; default
//! 250000), `--threads N` (worker threads; default: all cores), and
//! `--json PATH` (stream one JSON object per grid point). The grid also
//! shards across processes and hosts with no coordination: `--shard i/N
//! --out DIR` journals one shard resumably, and the `merge` subcommand
//! validates coverage and renders figures byte-identical to an unsharded
//! run (see [`sharding`] and `mi6-grid`).

pub mod figures;
pub mod runner;
pub mod scenario;
pub mod sharding;

pub use figures::{
    figure_points, mean_results, render_cpi_decomposition, render_figure, render_seed_ci, FIGURES,
};
pub use runner::{
    is_partial_line, run_grid_scheduled, GridMetrics, GridOutcome, GridPoint, GridSchedule,
    PartialPoint, PointResult, WarmFork, SLICE_CYCLES,
};
pub use sharding::{plan_grid, GridPlan};

use mi6_core::CpiStack;
use mi6_soc::{Machine, MachineStats, SimBuilder, Variant};
use mi6_workloads::{Workload, WorkloadParams};
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// One workload run's summary.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Benchmark name.
    pub name: &'static str,
    /// Cycles to completion.
    pub cycles: u64,
    /// Committed instructions (core 0).
    pub instructions: u64,
    /// Branch mispredictions per kilo-instruction.
    pub branch_mpki: f64,
    /// LLC misses per kilo-instruction.
    pub llc_mpki: f64,
    /// Cycles stalled waiting for microarchitectural flushes.
    pub flush_stall_cycles: u64,
    /// Traps taken.
    pub traps: u64,
    /// Core 0's CPI stack: every commit slot of every accounted cycle
    /// attributed to retired work or its oldest blocking reason, plus the
    /// structural-pressure event counters. Runtime-only on the machine
    /// side, so a restored run reports only its own post-restore stack
    /// (the stack's own `cycles` counter keeps the sum invariant exact
    /// relative to the restore point).
    pub cpi: CpiStack,
    /// The commit width the stack was accounted against (slots per cycle).
    pub commit_width: u64,
    /// Cycles the machine actually ticked structure-by-structure.
    pub cycles_ticked: u64,
    /// Cycles the machine fast-forwarded through provably inert spans
    /// (`cycles_ticked + cycles_skipped` covers this run's own cycles,
    /// excluding any restored warm prefix).
    pub cycles_skipped: u64,
}

impl RunRecord {
    fn from_run(
        name: &'static str,
        machine: &Machine,
        stats: &MachineStats,
        start_cycle: u64,
    ) -> RunRecord {
        RunRecord {
            name,
            cycles: stats.cycles,
            instructions: stats.core[0].committed_instructions,
            branch_mpki: stats.branch_mpki(),
            llc_mpki: stats.llc_mpki(),
            flush_stall_cycles: stats.core[0].flush_stall_cycles,
            traps: stats.core[0].traps,
            cpi: machine.core(0).cpi.clone(),
            commit_width: machine.core(0).config().commit_width as u64,
            cycles_ticked: machine.ticks(),
            cycles_skipped: (machine.now() - start_cycle).saturating_sub(machine.ticks()),
        }
    }

    /// Flush stall time as a percentage of total cycles (Figure 6).
    pub fn flush_stall_pct(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.flush_stall_cycles as f64 * 100.0 / self.cycles as f64
    }
}

/// Per-run options (instruction volume, scheduler tick, workload seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HarnessOpts {
    /// Thousands of instructions per run.
    pub kinsts: u64,
    /// Scheduler timer interval in cycles (0 = off).
    pub timer: u64,
    /// Workload data-layout seed (the `--seeds` sweep varies this).
    pub seed: u64,
}

/// The default workload seed (the historical fixed seed every figure has
/// been measured with; `--seeds N` keeps it as seed index 0).
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

impl Default for HarnessOpts {
    fn default() -> HarnessOpts {
        HarnessOpts {
            kinsts: 2_000,
            timer: 250_000,
            seed: DEFAULT_SEED,
        }
    }
}

impl HarnessOpts {
    /// Replaces the timer interval.
    pub fn with_timer(mut self, timer: u64) -> HarnessOpts {
        self.timer = timer;
        self
    }

    /// Replaces the instruction target.
    pub fn with_kinsts(mut self, kinsts: u64) -> HarnessOpts {
        self.kinsts = kinsts;
        self
    }

    /// Replaces the workload seed.
    pub fn with_seed(mut self, seed: u64) -> HarnessOpts {
        self.seed = seed;
        self
    }

    /// The seed for seed index `i` of a `--seeds N` sweep: index 0 is the
    /// historical default (so `--seeds 1` reproduces every existing
    /// number); later indices are splitmix64-derived.
    pub fn seed_at(&self, i: u64) -> u64 {
        if i == 0 {
            self.seed
        } else {
            splitmix64(self.seed.wrapping_add(i))
        }
    }

    /// The run-length cap handed to `run_to_completion` (or armed via
    /// `Machine::begin_run` before `step_slice` stepping): the shared
    /// [`mi6_workloads::budget`] scaling.
    pub fn cycle_cap(&self) -> u64 {
        mi6_workloads::budget::cycle_cap(self.kinsts)
    }
}

/// One step of the splitmix64 generator (seed derivation for `--seeds`).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A per-run metrics attachment (the observability tentpole's grid
/// wiring): sample the time-series metrics registry every `every` cycles
/// into `path`. Sampling is runtime-only and never perturbs simulated
/// timing, so observed and unobserved runs report identical counters.
#[derive(Clone, Debug)]
pub struct MetricsSpec {
    /// JSONL output file (one `(cycle, core, metric)` row per sample).
    pub path: PathBuf,
    /// Sampling interval in cycles.
    pub every: u64,
}

/// Builds the machine for one cold run — workload loaded, cancel flag and
/// metrics attached — without running it.
pub fn build_workload_machine(
    variant: Variant,
    workload: Workload,
    opts: &HarnessOpts,
    cancel: Option<Arc<AtomicBool>>,
    metrics: Option<&MetricsSpec>,
) -> Machine {
    let params = WorkloadParams::evaluation()
        .with_target_kinsts(opts.kinsts)
        .with_seed(opts.seed);
    let mut builder = SimBuilder::new(variant)
        .timer_interval(opts.timer)
        .workload(0, workload.build(&params));
    if let Some(flag) = cancel {
        builder = builder.cancel_flag(flag);
    }
    if let Some(m) = metrics {
        builder = builder.metrics(m.path.clone(), m.every);
    }
    builder
        .build()
        .unwrap_or_else(|e| panic!("loading {workload}: {e}"))
}

/// Builds the bare machine a warm snapshot restores into — no workload
/// (the snapshot supplies memory and images), cancel flag and metrics
/// attached. Callers restore via [`Machine::restore`] (same-variant,
/// bit-identical to an uninterrupted run) or [`Machine::restore_forked`]
/// (a cross-variant warm state, e.g. a BASE-warmed prefix measured under
/// every variant); metrics then cover only the measured continuation.
pub fn build_restore_target(
    variant: Variant,
    opts: &HarnessOpts,
    cancel: Option<Arc<AtomicBool>>,
    metrics: Option<&MetricsSpec>,
) -> Machine {
    let mut builder = SimBuilder::new(variant).timer_interval(opts.timer);
    if let Some(flag) = cancel {
        builder = builder.cancel_flag(flag);
    }
    if let Some(m) = metrics {
        builder = builder.metrics(m.path.clone(), m.every);
    }
    builder
        .build()
        .unwrap_or_else(|e| panic!("building {variant}: {e}"))
}

/// Arithmetic mean.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Renders an overhead figure: per-benchmark runtime increase of
/// `variant` over `base`, next to the paper's reported percentages.
///
/// All figure tables render to `String` (and are printed by the CLI) so
/// the sharded path has something exact to reproduce: a merge of shard
/// journals must produce *byte-identical* tables to the unsharded run.
pub fn render_overhead_figure(
    title: &str,
    paper: &[(&str, f64)],
    base: &[RunRecord],
    variant: &[RunRecord],
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "\n=== {title} ===").unwrap();
    writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>10} {:>10}",
        "benchmark", "BASE cycles", "variant cycles", "measured", "paper"
    )
    .unwrap();
    let mut overheads = Vec::new();
    for (b, v) in base.iter().zip(variant) {
        assert_eq!(b.name, v.name);
        let overhead = (v.cycles as f64 / b.cycles as f64 - 1.0) * 100.0;
        overheads.push(overhead);
        let paper_pct = paper
            .iter()
            .find(|(n, _)| *n == b.name)
            .map(|(_, p)| format!("{p:.1}%"))
            .unwrap_or_else(|| "-".into());
        writeln!(
            out,
            "{:<12} {:>14} {:>14} {:>9.1}% {:>10}",
            b.name, b.cycles, v.cycles, overhead, paper_pct
        )
        .unwrap();
    }
    let paper_avg = paper.iter().find(|(n, _)| *n == "average").map(|(_, p)| *p);
    writeln!(
        out,
        "{:<12} {:>14} {:>14} {:>9.1}% {:>10}",
        "average",
        "",
        "",
        mean(overheads),
        paper_avg
            .map(|p| format!("{p:.1}%"))
            .unwrap_or_else(|| "-".into())
    )
    .unwrap();
    out
}

/// Renders a metric figure (e.g. MPKI) for two variants side by side with
/// the paper's average values.
pub fn render_metric_figure(
    title: &str,
    metric_name: &str,
    paper_avgs: (f64, f64),
    labels: (&str, &str),
    base: &[RunRecord],
    variant: &[RunRecord],
    metric: impl Fn(&RunRecord) -> f64,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    writeln!(out, "\n=== {title} ===").unwrap();
    writeln!(out, "{:<12} {:>12} {:>12}", "benchmark", labels.0, labels.1).unwrap();
    for (b, v) in base.iter().zip(variant) {
        writeln!(
            out,
            "{:<12} {:>12.1} {:>12.1}",
            b.name,
            metric(b),
            metric(v)
        )
        .unwrap();
    }
    writeln!(
        out,
        "{:<12} {:>12.1} {:>12.1}   (paper: {:.1} -> {:.1} {metric_name})",
        "average",
        mean(base.iter().map(&metric)),
        mean(variant.iter().map(&metric)),
        paper_avgs.0,
        paper_avgs.1,
    )
    .unwrap();
    out
}

/// The paper's Figure 5 numbers (FLUSH overhead %, approximate bar
/// readings; stated values: average 5.4, max astar 10.9).
pub const PAPER_FIG5: &[(&str, f64)] = &[
    ("bzip2", 4.0),
    ("gcc", 5.0),
    ("mcf", 3.0),
    ("gobmk", 7.0),
    ("hmmer", 2.0),
    ("sjeng", 7.0),
    ("libquantum", 1.0),
    ("h264ref", 4.0),
    ("omnetpp", 6.0),
    ("astar", 10.9),
    ("xalancbmk", 8.0),
    ("average", 5.4),
];

/// Figure 8 (PART overhead %; average 7.4, max gcc 21.6).
pub const PAPER_FIG8: &[(&str, f64)] = &[
    ("bzip2", 6.0),
    ("gcc", 21.6),
    ("mcf", 7.0),
    ("gobmk", 2.0),
    ("hmmer", 2.0),
    ("sjeng", 4.0),
    ("libquantum", 10.0),
    ("h264ref", 3.0),
    ("omnetpp", 12.0),
    ("astar", 8.0),
    ("xalancbmk", 6.0),
    ("average", 7.4),
];

/// Figure 10 (MISS overhead %; average 3.2, max astar 8.3).
pub const PAPER_FIG10: &[(&str, f64)] = &[
    ("bzip2", 3.0),
    ("gcc", 4.0),
    ("mcf", 5.0),
    ("gobmk", 1.0),
    ("hmmer", 1.0),
    ("sjeng", 2.0),
    ("libquantum", 6.0),
    ("h264ref", 1.0),
    ("omnetpp", 4.0),
    ("astar", 8.3),
    ("xalancbmk", 3.0),
    ("average", 3.2),
];

/// Figure 11 (ARB overhead %; average 8.5, max libquantum 14).
pub const PAPER_FIG11: &[(&str, f64)] = &[
    ("bzip2", 8.0),
    ("gcc", 9.0),
    ("mcf", 12.0),
    ("gobmk", 5.0),
    ("hmmer", 5.0),
    ("sjeng", 7.0),
    ("libquantum", 14.0),
    ("h264ref", 6.0),
    ("omnetpp", 11.0),
    ("astar", 10.0),
    ("xalancbmk", 8.0),
    ("average", 8.5),
];

/// Figure 12 (NONSPEC overhead %; average 205, max h264ref 427).
pub const PAPER_FIG12: &[(&str, f64)] = &[
    ("bzip2", 180.0),
    ("gcc", 160.0),
    ("mcf", 120.0),
    ("gobmk", 200.0),
    ("hmmer", 260.0),
    ("sjeng", 190.0),
    ("libquantum", 150.0),
    ("h264ref", 427.0),
    ("omnetpp", 140.0),
    ("astar", 160.0),
    ("xalancbmk", 270.0),
    ("average", 205.0),
];

/// Figure 13 (F+P+M+A overhead %; average 16.4, max gcc 34.8).
pub const PAPER_FIG13: &[(&str, f64)] = &[
    ("bzip2", 14.0),
    ("gcc", 34.8),
    ("mcf", 18.0),
    ("gobmk", 12.0),
    ("hmmer", 8.0),
    ("sjeng", 14.0),
    ("libquantum", 22.0),
    ("h264ref", 10.0),
    ("omnetpp", 25.0),
    ("astar", 24.0),
    ("xalancbmk", 16.0),
    ("average", 16.4),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basics() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean([]), 0.0);
    }

    #[test]
    fn paper_tables_have_all_benchmarks_plus_average() {
        for table in [
            PAPER_FIG5,
            PAPER_FIG8,
            PAPER_FIG10,
            PAPER_FIG11,
            PAPER_FIG12,
            PAPER_FIG13,
        ] {
            assert_eq!(table.len(), 12);
            assert!(table.iter().any(|(n, _)| *n == "average"));
            for w in Workload::ALL {
                assert!(table.iter().any(|(n, _)| *n == w.name()), "missing {w}");
            }
        }
    }
}
