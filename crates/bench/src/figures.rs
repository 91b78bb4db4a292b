//! The ten evaluation figures (paper Section 7) as declarative grids.
//!
//! Each figure declares which grid points it needs via [`figure_points`];
//! the CLI runs them (in parallel, through
//! [`crate::run_grid_scheduled`]) and hands the results back to
//! [`render_figure`], which reproduces the old per-figure binary output.
//! Figure 4 is the configuration table and needs no simulation.
//!
//! Everything renders to `String`: the CLI prints the tables, and the
//! shard `merge` path re-renders them from journaled JSON — the two must
//! be byte-identical, which a printing API can't assert.

use crate::runner::{variant_points_for, GridPoint, PointResult};
use crate::{
    mean, render_metric_figure, render_overhead_figure, HarnessOpts, RunRecord, PAPER_FIG10,
    PAPER_FIG11, PAPER_FIG12, PAPER_FIG13, PAPER_FIG5, PAPER_FIG8,
};
use mi6_core::{CoreConfig, CpiCategory, CpiStack};
use mi6_mem::MemConfig;
use mi6_soc::Variant;
use mi6_workloads::Workload;
use std::fmt::Write;

/// Figure ids the CLI accepts.
pub const FIGURES: std::ops::RangeInclusive<u32> = 4..=13;

/// Adjusts base options the way the old `fig*` binaries did: figures that
/// measure steady-state LLC effects disable the scheduler tick, and the
/// NONSPEC figure truncates its runs (as in the paper — NONSPEC is slow).
fn figure_opts(figure: u32, opts: HarnessOpts) -> HarnessOpts {
    match figure {
        8..=11 => opts.with_timer(0),
        12 => opts.with_timer(0).with_kinsts(opts.kinsts.min(500)),
        _ => opts,
    }
}

/// The non-BASE variant a figure evaluates (None for figure 4 and the
/// FLUSH-only figure 6, which has no BASE pass).
fn figure_variant(figure: u32) -> Option<Variant> {
    match figure {
        5..=7 => Some(Variant::Flush),
        8 | 9 => Some(Variant::Part),
        10 => Some(Variant::Miss),
        11 => Some(Variant::Arb),
        12 => Some(Variant::NonSpec),
        13 => Some(Variant::Fpma),
        _ => None,
    }
}

/// The grid points figure `figure` needs, in rendering order (the BASE
/// pass, where present, precedes the variant pass).
///
/// # Panics
///
/// Panics if `figure` is outside [`FIGURES`].
pub fn figure_points(figure: u32, opts: HarnessOpts) -> Vec<GridPoint> {
    figure_points_for(figure, opts, &Workload::ALL)
}

/// [`figure_points`] over an explicit workload set (the CLI's
/// `--workload` restriction; this is also how the adversarial
/// `enclave-ws` runs in a plain figure grid or shard).
///
/// # Panics
///
/// Panics if `figure` is outside [`FIGURES`].
pub fn figure_points_for(figure: u32, opts: HarnessOpts, workloads: &[Workload]) -> Vec<GridPoint> {
    assert!(FIGURES.contains(&figure), "unknown figure {figure}");
    let opts = figure_opts(figure, opts);
    match figure {
        4 => Vec::new(),
        6 => variant_points_for(Variant::Flush, opts, workloads),
        f => {
            let variant = figure_variant(f).expect("simulating figure");
            let mut points = variant_points_for(Variant::Base, opts, workloads);
            points.extend(variant_points_for(variant, opts, workloads));
            points
        }
    }
}

fn records(results: &[PointResult], variant: Variant) -> Vec<RunRecord> {
    results
        .iter()
        .filter(|r| r.point.variant == variant)
        .map(|r| r.record.clone())
        .collect()
}

/// Renders figure `figure` from the results of its [`figure_points`] grid.
pub fn render_figure(figure: u32, results: &[PointResult]) -> String {
    let base = records(results, Variant::Base);
    match figure {
        4 => config_table(),
        5 => render_overhead_figure(
            "Figure 5: FLUSH runtime overhead vs BASE",
            PAPER_FIG5,
            &base,
            &records(results, Variant::Flush),
        ),
        6 => {
            let flush = records(results, Variant::Flush);
            let mut out = String::new();
            writeln!(out, "\n=== Figure 6: flush stall time (% of execution) ===").unwrap();
            writeln!(
                out,
                "{:<12} {:>12} {:>10}",
                "benchmark", "stall cycles", "stall %"
            )
            .unwrap();
            for r in &flush {
                writeln!(
                    out,
                    "{:<12} {:>12} {:>9.2}%",
                    r.name,
                    r.flush_stall_cycles,
                    r.flush_stall_pct()
                )
                .unwrap();
            }
            writeln!(
                out,
                "{:<12} {:>12} {:>9.2}%   (paper avg 0.4%, max xalancbmk 3.2%)",
                "average",
                "",
                mean(flush.iter().map(|r| r.flush_stall_pct()))
            )
            .unwrap();
            out
        }
        7 => render_metric_figure(
            "Figure 7: branch MPKI, BASE vs FLUSH",
            "MPKI",
            (18.3, 24.3),
            ("BASE", "FLUSH"),
            &base,
            &records(results, Variant::Flush),
            |r| r.branch_mpki,
        ),
        8 => render_overhead_figure(
            "Figure 8: PART runtime overhead vs BASE",
            PAPER_FIG8,
            &base,
            &records(results, Variant::Part),
        ),
        9 => render_metric_figure(
            "Figure 9: LLC MPKI, BASE vs PART",
            "LLC MPKI",
            (17.4, 19.6),
            ("BASE", "PART"),
            &base,
            &records(results, Variant::Part),
            |r| r.llc_mpki,
        ),
        10 => render_overhead_figure(
            "Figure 10: MISS runtime overhead vs BASE",
            PAPER_FIG10,
            &base,
            &records(results, Variant::Miss),
        ),
        11 => render_overhead_figure(
            "Figure 11: ARB runtime overhead vs BASE",
            PAPER_FIG11,
            &base,
            &records(results, Variant::Arb),
        ),
        12 => render_overhead_figure(
            "Figure 12: NONSPEC runtime overhead vs BASE (truncated runs)",
            PAPER_FIG12,
            &base,
            &records(results, Variant::NonSpec),
        ),
        13 => render_overhead_figure(
            "Figure 13: F+P+M+A (enclave) runtime overhead vs BASE",
            PAPER_FIG13,
            &base,
            &records(results, Variant::Fpma),
        ),
        other => panic!("unknown figure {other}"),
    }
}

/// Renders the per-mechanism CPI-stack decomposition across every
/// (variant, workload) pair in `results`: for each workload, one table
/// whose columns are the variants measured and whose rows are the
/// CPI-stack categories (per-category CPI contribution =
/// `slots / (commit_width × instructions)`, so a column sums to that
/// run's CPI). This is the *where did the overhead go* companion to the
/// overhead figures: FLUSH's cost lands in `squash_*`/`flush`/`frontend`,
/// PART's in `mem_llc`/`mem_dram` (smaller effective LLC), MISS's in
/// `mshr_quota_deny`, and ARB's extra pipeline latency in `mem_llc` —
/// `arb_deny` itself only attributes on the full MI6 machine, whose
/// round-robin arbiter actually parks requests (the ARB variant models
/// the arbiter's latency, not its scheduling).
///
/// Rows all-zero across every variant are dropped; records without a
/// stack (pre-CPI-stack journals) are skipped.
pub fn render_cpi_decomposition(results: &[PointResult]) -> String {
    // (variant, workload-name) → record, first occurrence wins (the same
    // unique point can back several figures).
    let mut by_workload: Vec<(&str, Vec<(Variant, &RunRecord)>)> = Vec::new();
    let mut variants: Vec<Variant> = Vec::new();
    for r in results {
        if r.record.cpi.cycles == 0 || r.record.instructions == 0 {
            continue;
        }
        if !variants.contains(&r.point.variant) {
            variants.push(r.point.variant);
        }
        let per = match by_workload.iter_mut().find(|(n, _)| *n == r.record.name) {
            Some((_, per)) => per,
            None => {
                by_workload.push((r.record.name, Vec::new()));
                &mut by_workload.last_mut().expect("just pushed").1
            }
        };
        if !per.iter().any(|(v, _)| *v == r.point.variant) {
            per.push((r.point.variant, &r.record));
        }
    }
    if variants.len() < 2 {
        return String::new();
    }
    // Paper order, restricted to what was measured.
    variants.sort_by_key(|v| Variant::ALL.iter().position(|a| a == v));
    let mut out = String::new();
    writeln!(
        out,
        "\n=== CPI stacks: per-mechanism cycle attribution (CPI per category) ==="
    )
    .unwrap();
    for (name, per) in &by_workload {
        writeln!(out, "\n--- {name} ---").unwrap();
        let cols: Vec<(Variant, &RunRecord)> = variants
            .iter()
            .filter_map(|v| per.iter().find(|(pv, _)| pv == v).copied())
            .collect();
        let table: Vec<_> = cols
            .iter()
            .map(|(v, r)| {
                (
                    v.name().to_string(),
                    &r.cpi,
                    r.commit_width * r.instructions,
                )
            })
            .collect();
        write_cpi_rows(&mut out, 12, &table);
        // The overhead line ties the stack back to the runtime figures.
        if let Some((_, base)) = cols.iter().find(|(v, _)| *v == Variant::Base) {
            write!(out, "{:<18}", "overhead vs BASE").unwrap();
            for (_, r) in &cols {
                let pct = (r.cycles as f64 / base.cycles as f64 - 1.0) * 100.0;
                write!(out, " {:>11.1}%", pct).unwrap();
            }
            writeln!(out).unwrap();
        }
    }
    out
}

/// Writes the rows of a CPI table: a header naming each column, one row
/// per category that some column charged, and the total. A column is its
/// header, its stack and the stack's slots per instruction
/// (`commit_width × instructions`), right-aligned in `width` characters.
pub(crate) fn write_cpi_rows(out: &mut String, width: usize, cols: &[(String, &CpiStack, u64)]) {
    let cpi_of = |cpi: &CpiStack, per: u64, cat: CpiCategory| cpi.get(cat) as f64 / per as f64;
    write!(out, "{:<18}", "category").unwrap();
    for (header, _, _) in cols {
        write!(out, " {header:>width$}").unwrap();
    }
    writeln!(out).unwrap();
    for cat in CpiCategory::ALL {
        if cols.iter().all(|(_, cpi, _)| cpi.get(cat) == 0) {
            continue;
        }
        write!(out, "{:<18}", cat.name()).unwrap();
        for &(_, cpi, per) in cols {
            write!(out, " {:>width$.4}", cpi_of(cpi, per, cat)).unwrap();
        }
        writeln!(out).unwrap();
    }
    write!(out, "{:<18}", "total CPI").unwrap();
    for &(_, cpi, per) in cols {
        let total: f64 = CpiCategory::ALL.iter().map(|&c| cpi_of(cpi, per, c)).sum();
        write!(out, " {total:>width$.4}").unwrap();
    }
    writeln!(out).unwrap();
}

/// Element-wise mean of one grid point's records across seeds (used to
/// render a figure from a `--seeds N` sweep; derived rates are averaged
/// directly, counters arithmetically).
fn mean_record(records: &[&RunRecord]) -> RunRecord {
    let n = records.len() as f64;
    let avg = |f: &dyn Fn(&RunRecord) -> f64| records.iter().map(|r| f(r)).sum::<f64>() / n;
    let avg_u64 = |f: &dyn Fn(&RunRecord) -> u64| avg(&|r| f(r) as f64).round() as u64;
    RunRecord {
        name: records[0].name,
        cycles: avg_u64(&|r| r.cycles),
        instructions: avg_u64(&|r| r.instructions),
        branch_mpki: avg(&|r| r.branch_mpki),
        llc_mpki: avg(&|r| r.llc_mpki),
        flush_stall_cycles: avg_u64(&|r| r.flush_stall_cycles),
        traps: avg_u64(&|r| r.traps),
        // Slot-wise mean keeps the categories comparable across seeds;
        // the sum invariant only holds exactly when the rounding happens
        // to cancel, so downstream checks apply to raw per-run stacks,
        // never to seed means.
        cpi: CpiStack::from_raw(
            avg_u64(&|r| r.cpi.cycles),
            std::array::from_fn(|i| avg_u64(&|r| r.cpi.slots[i])),
            std::array::from_fn(|i| avg_u64(&|r| r.cpi.pressure()[i])),
        ),
        commit_width: records[0].commit_width,
        cycles_ticked: avg_u64(&|r| r.cycles_ticked),
        cycles_skipped: avg_u64(&|r| r.cycles_skipped),
    }
}

/// Collapses per-seed result vectors (all in the same `figure_points`
/// order) into one mean result per point, for figure rendering.
///
/// # Panics
///
/// Panics if the per-seed vectors have different shapes.
pub fn mean_results(per_seed: &[Vec<PointResult>]) -> Vec<PointResult> {
    assert!(!per_seed.is_empty());
    let n = per_seed[0].len();
    assert!(per_seed.iter().all(|s| s.len() == n), "ragged seed results");
    (0..n)
        .map(|i| {
            let records: Vec<&RunRecord> = per_seed.iter().map(|s| &s[i].record).collect();
            let wall_sum: u64 = per_seed.iter().map(|s| s[i].wall_ms).sum();
            PointResult {
                point: per_seed[0][i].point,
                record: mean_record(&records),
                // Round, don't truncate: systematic truncation biases a
                // sum of these low.
                wall_ms: (wall_sum as f64 / per_seed.len() as f64).round() as u64,
                // Several workers ran the seeds, so no one worker ran
                // the mean.
                worker: 0,
                warm: per_seed[0][i].warm.clone(),
                // Per-seed metrics artifacts don't aggregate; the mean
                // carries none.
                metrics: None,
            }
        })
        .collect()
}

/// Two-sided 95% Student-t critical value for `df` degrees of freedom
/// (small-N table baked in; converges to the normal 1.960 beyond 30 —
/// seed sweeps are small-N by construction).
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[df - 1],
        _ => 1.960,
    }
}

/// Renders the per-point cycle-count confidence intervals of a
/// `--seeds N` sweep for one figure: mean ± the 95% Student-t interval
/// (df = N−1), with N printed alongside so a reader can judge the
/// interval's weight, plus the observed min/max.
pub fn render_seed_ci(figure: u32, per_seed: &[Vec<PointResult>]) -> String {
    let seeds = per_seed.len();
    let mut out = String::new();
    if seeds < 2 || per_seed[0].is_empty() {
        return out;
    }
    writeln!(
        out,
        "\n--- figure {figure}: cycles, mean ± 95% CI (Student t, N={seeds} seeds) ---"
    )
    .unwrap();
    writeln!(
        out,
        "{:<10} {:<12} {:>3} {:>14} {:>12} {:>14} {:>14}",
        "variant", "benchmark", "N", "mean", "±95% CI", "min", "max"
    )
    .unwrap();
    for i in 0..per_seed[0].len() {
        let cycles: Vec<f64> = per_seed.iter().map(|s| s[i].record.cycles as f64).collect();
        let n = cycles.len() as f64;
        let mean = cycles.iter().sum::<f64>() / n;
        let var = cycles.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / (n - 1.0);
        let half = t95(cycles.len() - 1) * (var / n).sqrt();
        let (min, max) = cycles
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &c| {
                (lo.min(c), hi.max(c))
            });
        let point = per_seed[0][i].point;
        writeln!(
            out,
            "{:<10} {:<12} {:>3} {:>14.0} {:>12.0} {:>14.0} {:>14.0}",
            point.variant.name(),
            point.workload.name(),
            seeds,
            mean,
            half,
            min,
            max
        )
        .unwrap();
    }
    out
}

/// Figure 4: the insecure baseline (BASE) configuration table.
fn config_table() -> String {
    let core = CoreConfig::paper();
    let mem = MemConfig::paper_base();
    let mut out = String::new();
    writeln!(
        out,
        "=== Figure 4: insecure baseline (BASE) configuration ==="
    )
    .unwrap();
    writeln!(
        out,
        "Front-end    {}-wide fetch/decode/rename",
        core.fetch_width
    )
    .unwrap();
    writeln!(
        out,
        "             {}-entry direct-mapped BTB",
        core.btb_entries
    )
    .unwrap();
    writeln!(out, "             tournament predictor (Alpha 21264 style)").unwrap();
    writeln!(
        out,
        "             {}-entry return address stack",
        core.ras_entries
    )
    .unwrap();
    writeln!(
        out,
        "Exec engine  {}-entry ROB, {}-way insert/commit",
        core.rob_entries, core.commit_width
    )
    .unwrap();
    writeln!(
        out,
        "             4 pipelines: 2 ALU, 1 MEM, 1 FP/MUL/DIV; {}-entry IQ each",
        core.iq_entries
    )
    .unwrap();
    writeln!(
        out,
        "Ld-St unit   {}-entry LQ, {}-entry SQ, {}-entry SB (64B wide)",
        core.lq_entries, core.sq_entries, core.sb_entries
    )
    .unwrap();
    writeln!(
        out,
        "L1 TLBs      {}-entry fully associative (I and D); D-TLB max {} requests",
        core.l1_tlb_entries, core.dtlb_max_misses
    )
    .unwrap();
    writeln!(
        out,
        "L2 TLB       {}-entry, {}-way; translation cache {} entries/step",
        core.l2_tlb_entries, core.l2_tlb_ways, core.tcache_entries
    )
    .unwrap();
    writeln!(
        out,
        "L1 caches    {} KiB, {}-way, max {} requests (I and D)",
        mem.l1d.size_bytes >> 10,
        mem.l1d.ways,
        mem.l1d.mshrs
    )
    .unwrap();
    writeln!(
        out,
        "L2 (LLC)     {} MiB, {}-way, {:?} MSHRs, coherent+inclusive",
        mem.llc.size_bytes >> 20,
        mem.llc.ways,
        mem.llc.mshrs
    )
    .unwrap();
    writeln!(
        out,
        "Memory       {} GiB, {}-cycle latency, max {} requests",
        mem.dram.size_bytes >> 30,
        mem.dram.latency,
        mem.dram.max_inflight
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mi6_workloads::Workload;

    #[test]
    fn every_figure_declares_a_consistent_grid() {
        let opts = HarnessOpts::default();
        for fig in FIGURES {
            let points = figure_points(fig, opts);
            match fig {
                4 => assert!(points.is_empty()),
                6 => {
                    assert_eq!(points.len(), Workload::ALL.len());
                    assert!(points.iter().all(|p| p.variant == Variant::Flush));
                }
                _ => {
                    assert_eq!(points.len(), 2 * Workload::ALL.len());
                    assert!(points[..11].iter().all(|p| p.variant == Variant::Base));
                    assert!(points[11..].iter().all(|p| p.variant != Variant::Base));
                }
            }
        }
    }

    #[test]
    fn figure_grids_can_run_the_adversarial_workload() {
        let opts = HarnessOpts::default();
        let sel = [Workload::EnclaveWs, Workload::Mcf];
        let points = figure_points_for(13, opts, &sel);
        assert_eq!(points.len(), 4);
        assert!(points
            .iter()
            .any(|p| p.workload == Workload::EnclaveWs && p.variant == Variant::Fpma));
    }

    #[test]
    fn steady_state_figures_disable_the_timer() {
        let opts = HarnessOpts::default();
        for fig in [8u32, 9, 10, 11, 12] {
            for p in figure_points(fig, opts) {
                assert_eq!(p.opts.timer, 0, "figure {fig}");
            }
        }
        // FLUSH figures keep the scheduler tick (trap-driven effects).
        for p in figure_points(5, opts) {
            assert_eq!(p.opts.timer, opts.timer);
        }
    }

    #[test]
    fn nonspec_truncates_runs() {
        let opts = HarnessOpts::default().with_kinsts(2000);
        for p in figure_points(12, opts) {
            assert_eq!(p.opts.kinsts, 500);
        }
    }

    #[test]
    fn t_table_is_sane() {
        assert!(t95(1) > 12.0);
        assert!(t95(4) > t95(9));
        assert!((t95(100) - 1.960).abs() < 1e-9);
        // df = N-1 for N=2 seeds is the first row.
        assert_eq!(t95(1), 12.706);
    }

    #[test]
    fn mean_results_rounds_wall_ms_and_marks_aggregates() {
        let p = GridPoint {
            variant: Variant::Base,
            workload: Workload::Hmmer,
            opts: HarnessOpts::default(),
        };
        let mk = |wall_ms: u64| {
            vec![PointResult {
                point: p,
                record: RunRecord {
                    name: "hmmer",
                    cycles: 1000,
                    instructions: 1000,
                    branch_mpki: 0.0,
                    llc_mpki: 0.0,
                    flush_stall_cycles: 0,
                    traps: 0,
                    cpi: Default::default(),
                    commit_width: 2,
                    cycles_ticked: 0,
                    cycles_skipped: 0,
                },
                wall_ms,
                worker: 3,
                warm: "cold".to_string(),
                metrics: None,
            }]
        };
        let mean = mean_results(&[mk(1), mk(2)]);
        // 1.5 rounds to 2 — truncating to 1 would bias a sum low.
        assert_eq!(mean[0].wall_ms, 2);
    }

    #[test]
    fn seed_ci_renders_with_n() {
        let p = GridPoint {
            variant: Variant::Base,
            workload: Workload::Hmmer,
            opts: HarnessOpts::default(),
        };
        let mk = |cycles: u64| {
            vec![PointResult {
                point: p,
                record: RunRecord {
                    name: "hmmer",
                    cycles,
                    instructions: 1000,
                    branch_mpki: 0.0,
                    llc_mpki: 0.0,
                    flush_stall_cycles: 0,
                    traps: 0,
                    cpi: Default::default(),
                    commit_width: 2,
                    cycles_ticked: 0,
                    cycles_skipped: 0,
                },
                wall_ms: 1,
                worker: 0,
                warm: "cold".to_string(),
                metrics: None,
            }]
        };
        let per_seed = vec![mk(1000), mk(1100), mk(900)];
        let out = render_seed_ci(13, &per_seed);
        assert!(out.contains("95% CI"), "{out}");
        assert!(out.contains("N=3"), "{out}");
        // mean 1000, sd 100, t95(2)=4.303 → half = 4.303*100/sqrt(3) ≈ 248.
        assert!(out.contains(" 248"), "{out}");
        // One seed renders nothing (no spread to report).
        assert!(render_seed_ci(13, &per_seed[..1]).is_empty());
    }
}
