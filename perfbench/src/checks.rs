//! Output checks, digests and the paper-error metric.
//!
//! Everything here is a pure function of simulated results, so the
//! untraced run and the traced replay apply the identical checks and
//! must produce identical digests.

use mi6_bench::scenario::ScenarioPoint;
use mi6_bench::{
    figure_points, mean_results, GridPoint, HarnessOpts, PointResult, RunRecord, PAPER_FIG10,
    PAPER_FIG11, PAPER_FIG13, PAPER_FIG5, PAPER_FIG8,
};
use mi6_core::CpiStack;
use mi6_soc::Variant;
use mi6_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write;

/// A paper figure's bars: workload name and overhead in percent.
type PaperBars = &'static [(&'static str, f64)];

/// The overhead figures scored against the paper. Figure 12's roughly
/// 200% NONSPEC bars are left out so they don't swamp the rest.
pub const SCORED_FIGURES: [(u32, Variant, PaperBars); 5] = [
    (5, Variant::Flush, PAPER_FIG5),
    (8, Variant::Part, PAPER_FIG8),
    (10, Variant::Miss, PAPER_FIG10),
    (11, Variant::Arb, PAPER_FIG11),
    (13, Variant::Fpma, PAPER_FIG13),
];

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn push_stack(out: &mut String, cpi: &CpiStack, commit_width: u64) {
    let _ = write!(out, " cpi={}x{}", cpi.cycles, commit_width);
    for s in cpi.slots {
        let _ = write!(out, ",{s}");
    }
}

fn push_record(out: &mut String, r: &RunRecord) {
    let _ = write!(
        out,
        " cycles={} inst={} bmpki={:016x} lmpki={:016x} flush={} traps={} ticked={} skipped={}",
        r.cycles,
        r.instructions,
        r.branch_mpki.to_bits(),
        r.llc_mpki.to_bits(),
        r.flush_stall_cycles,
        r.traps,
        r.cycles_ticked,
        r.cycles_skipped
    );
    push_stack(out, &r.cpi, r.commit_width);
}

/// Digest of every grid point's simulated statistics, in plan order.
/// Host-side fields (wall time, worker) are excluded, so a change that
/// only speeds the simulator up leaves it unchanged.
pub fn grid_digest(results: &[PointResult]) -> u64 {
    let mut text = String::new();
    for r in results {
        text.push_str(&r.point.key());
        push_record(&mut text, &r.record);
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Digest of the scenario points' simulated statistics.
pub fn scenario_digest(points: &[ScenarioPoint]) -> u64 {
    let mut text = String::new();
    for p in points {
        let _ = write!(
            text,
            "{}/{} victim={} inst={} ticked={} skipped={}",
            p.variant.name(),
            p.contended,
            p.victim_cycles,
            p.victim_instructions,
            p.cycles_ticked,
            p.cycles_skipped
        );
        push_stack(&mut text, &p.victim_cpi, p.victim_commit_width);
        text.push('\n');
    }
    fnv1a(text.as_bytes())
}

/// Why a CPI stack is inconsistent, if it is: its slots must sum to
/// `cycles × commit_width`.
fn stack_defect(cpi: &CpiStack, commit_width: u64) -> Option<String> {
    let sum: u64 = cpi.slots.iter().sum();
    let want = cpi.cycles * commit_width;
    (sum != want).then(|| format!("CPI slots sum to {sum}, not {want}"))
}

/// Per-point checks of one grid result: the CPI stack sums to its cycles
/// times the commit width, and the ticked plus skipped cycles equal the
/// cycles the point ran after any restore (the stack's own cycle count).
pub fn check_point(r: &PointResult) -> Result<(), String> {
    let rec = &r.record;
    if let Some(defect) = stack_defect(&rec.cpi, rec.commit_width) {
        return Err(format!("{}: {defect}", r.point.key()));
    }
    let ran = rec.cycles_ticked + rec.cycles_skipped;
    if ran != rec.cpi.cycles {
        return Err(format!(
            "{}: ticked {} + skipped {} != {} cycles run",
            r.point.key(),
            rec.cycles_ticked,
            rec.cycles_skipped,
            rec.cpi.cycles
        ));
    }
    Ok(())
}

/// Per-point checks of one scenario result: the victim's CPI stack sums
/// correctly, and the machine (ticked plus skipped) ran at least as long
/// as the victim core did.
pub fn check_scenario_point(p: &ScenarioPoint) -> Result<(), String> {
    let name = format!(
        "{}/{}",
        p.variant.name(),
        if p.contended { "contended" } else { "solo" }
    );
    if let Some(defect) = stack_defect(&p.victim_cpi, p.victim_commit_width) {
        return Err(format!("{name}: {defect}"));
    }
    if p.cycles_ticked + p.cycles_skipped < p.victim_cycles {
        return Err(format!(
            "{name}: machine ran {} cycles, fewer than the victim's {}",
            p.cycles_ticked + p.cycles_skipped,
            p.victim_cycles
        ));
    }
    Ok(())
}

/// Figure-level checks on the rendered tables: every figure of the grid
/// has its heading, and every simulated figure has a row per workload.
pub fn check_figures(figures: &[u32], rendered: &str) -> Vec<String> {
    let mut failures = Vec::new();
    // Figure 4 opens the output without a leading blank line.
    let text = format!("\n{rendered}");
    let sections: Vec<&str> = text.split("\n=== ").collect();
    for &fig in figures {
        let heading = format!("Figure {fig}:");
        let Some(section) = sections.iter().find(|s| s.starts_with(&heading)) else {
            failures.push(format!("figure {fig}: table missing"));
            continue;
        };
        if fig == 4 {
            continue;
        }
        for w in Workload::ALL {
            let has_row = section
                .lines()
                .any(|l| l.split_whitespace().next() == Some(w.name()));
            if !has_row {
                failures.push(format!("figure {fig}: bar for {} missing", w.name()));
            }
        }
    }
    failures
}

/// Mean absolute error, in percentage points, of the measured overheads
/// of [`SCORED_FIGURES`] against the paper's bars (11 workloads each, the
/// paper's "average" row excluded). Multi-seed grids are scored on the
/// per-point seed means the rendered figures show. Returns the failures
/// instead when any bar is missing or not finite.
pub fn paper_mae(
    opts: HarnessOpts,
    seeds: u64,
    results: &[PointResult],
) -> Result<f64, Vec<String>> {
    let by_key: BTreeMap<String, &PointResult> =
        results.iter().map(|r| (r.point.key(), r)).collect();
    let mut errors = Vec::new();
    let mut failures = Vec::new();
    for (fig, variant, paper) in SCORED_FIGURES {
        let mut per_seed: Vec<Vec<PointResult>> = Vec::new();
        for s in 0..seeds {
            let points: Vec<GridPoint> = figure_points(fig, opts.with_seed(opts.seed_at(s)));
            let found: Option<Vec<PointResult>> = points
                .iter()
                .map(|p| by_key.get(&p.key()).map(|r| (*r).clone()))
                .collect();
            match found {
                Some(v) => per_seed.push(v),
                None => failures.push(format!("figure {fig}: seed {s} has missing points")),
            }
        }
        if per_seed.len() as u64 != seeds {
            continue;
        }
        let merged = if seeds > 1 {
            mean_results(&per_seed)
        } else {
            per_seed.swap_remove(0)
        };
        for w in Workload::ALL {
            let cycles = |v: Variant| {
                merged
                    .iter()
                    .find(|r| r.point.variant == v && r.point.workload == w)
                    .map(|r| r.record.cycles)
            };
            let paper_pct = paper.iter().find(|(n, _)| *n == w.name()).map(|(_, p)| *p);
            match (cycles(Variant::Base), cycles(variant), paper_pct) {
                (Some(b), Some(v), Some(p)) if b > 0 => {
                    let measured = (v as f64 / b as f64 - 1.0) * 100.0;
                    errors.push((measured - p).abs());
                }
                _ => failures.push(format!("figure {fig}: bar for {} missing", w.name())),
            }
        }
    }
    let mae = errors.iter().sum::<f64>() / errors.len().max(1) as f64;
    if failures.is_empty() && mae.is_finite() {
        Ok(mae)
    } else {
        Err(failures)
    }
}

/// The victim's attacker-induced slowdown (contended over solo cycles,
/// minus one, in percent) on each variant of the scenario, in point
/// order (BASE, then MI6).
pub fn interference(points: &[ScenarioPoint]) -> Vec<(Variant, f64)> {
    points
        .chunks(2)
        .filter_map(|pair| match pair {
            [solo, cont] if !solo.contended && cont.contended && solo.variant == cont.variant => {
                Some((
                    solo.variant,
                    (cont.victim_cycles as f64 / solo.victim_cycles as f64 - 1.0) * 100.0,
                ))
            }
            _ => None,
        })
        .collect()
}

/// The scenario's isolation check: both variants measured, and MI6's
/// interference strictly below BASE's. Returns MI6's interference.
pub fn check_isolation(points: &[ScenarioPoint]) -> Result<f64, String> {
    match interference(points).as_slice() {
        [(Variant::Base, base), (Variant::SecureMi6, mi6)] if mi6.is_finite() => {
            if mi6 < base {
                Ok(*mi6)
            } else {
                Err(format!(
                    "MI6 interference {mi6:.2}% is not below BASE's {base:.2}%"
                ))
            }
        }
        other => Err(format!("scenario points malformed: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_check_names_missing_bars() {
        let mut text = String::from("=== Figure 4: config ===\nx\n");
        text.push_str("\n=== Figure 5: FLUSH ===\nbenchmark a b\n");
        for w in Workload::ALL.iter().filter(|w| w.name() != "mcf") {
            text.push_str(&format!("{} 1 2 3\n", w.name()));
        }
        let failures = check_figures(&[4, 5, 6], &text);
        assert_eq!(
            failures,
            vec![
                "figure 5: bar for mcf missing".to_string(),
                "figure 6: table missing".to_string()
            ]
        );
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
