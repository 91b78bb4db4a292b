//! `mi6-bench` — the simulator hot-loop microbenchmark.
//!
//! Runs store- and load-heavy kernels for a fixed instruction budget and
//! reports *simulated cycles per wall-clock second* — the number the LSQ
//! index refactor (and any future hot-loop work) is measured by. The
//! kernels deliberately keep their working sets cache-resident so the
//! simulated core's LQ/SQ stay full of short-latency memory ops: that is
//! the regime where per-op-per-cycle ROB scans dominate the host profile.
//!
//! ```text
//! mi6-bench                      # all kernels, default budget
//! mi6-bench --kinsts 500         # longer runs (kilo-instructions)
//! mi6-bench --kernel store-heavy # one kernel
//! mi6-bench --reps 5             # best-of-5 wall-clock timing
//! mi6-bench --json BENCH_hotloop.json   # also write one JSON line per kernel
//! mi6-bench --compare BENCH_hotloop.json # non-gating warn on regression
//! mi6-bench --kernel mixed --trace pipeview.txt  # Konata/O3PipeView trace
//! mi6-bench --profile            # per-stage lap breakdown (needs the
//!                                # `lap-profile` feature compiled in)
//! ```
//!
//! Each kernel prints one line, e.g.
//! `store-heavy   1234567 cycles  0.41 s  3.0 Mcycles/s  (best of 3)`;
//! the figure to track across commits is the `Mcycles/s` column
//! (EXPERIMENTS.md records the before/after of each optimisation, and CI
//! runs this binary non-gating so the trajectory stays visible).

use mi6_bench::runner::write_cpi_tail;
use mi6_obs::json::{parse_object, JsonValue, JsonWriter};
use mi6_soc::{SimBuilder, Variant};
use mi6_workloads::{generate, BranchStyle, Profile, WorkloadParams};
use std::process::exit;
use std::time::Instant;

/// The measurement kernels. All working sets fit the 1 MiB LLC (and
/// mostly the 32 KiB L1D), so memory ops complete quickly and the
/// load/store queues stay saturated — maximum pressure on the LSQ
/// bookkeeping rather than on the DRAM model.
fn kernels() -> Vec<(&'static str, Profile)> {
    let quiet = Profile {
        stream_bytes: 0,
        stream_lines_per_iter: 0,
        chase_bytes: 0,
        chase_nodes_per_iter: 0,
        ws_bytes: 0,
        ws_accesses_per_iter: 0,
        branch_sites: 2,
        branch_style: BranchStyle::Easy,
        ilp_ops: 2,
        muldiv_ops: 0,
        syscall_every: 0,
    };
    vec![
        // Random loads *and stores* into an L1-resident working set: every
        // odd access site is a store, so the SQ churns and every load's
        // forwarding/blocking checks run against a full store queue.
        (
            "store-heavy",
            Profile {
                ws_bytes: 16 << 10,
                ws_accesses_per_iter: 24,
                ..quiet
            },
        ),
        // Streaming plus an LLC-resident pointer chase: a load-dominated
        // mix that keeps the LQ full (the violation-scan victim).
        (
            "load-heavy",
            Profile {
                stream_bytes: 64 << 10,
                stream_lines_per_iter: 4,
                chase_bytes: 128 << 10,
                chase_nodes_per_iter: 8,
                ..quiet
            },
        ),
        // A gcc-shaped blend (large working set, mixed branches): closer
        // to what the figure grids actually simulate.
        (
            "mixed",
            Profile {
                ws_bytes: 1 << 20,
                ws_accesses_per_iter: 8,
                stream_bytes: 64 << 10,
                stream_lines_per_iter: 2,
                branch_sites: 32,
                branch_style: BranchStyle::Medium,
                ilp_ops: 4,
                ..quiet
            },
        ),
        // A dependent pointer chase through a 4 MiB arena — 4x the LLC,
        // so nearly every node misses to DRAM and the machine is provably
        // inert for most of each miss. This is the regime the event-driven
        // idle-skip targets: simulated cycles/sec here tracks how well the
        // clock fast-forwards, not how fast a busy tick is.
        (
            "miss-heavy",
            Profile {
                chase_bytes: 4 << 20,
                chase_nodes_per_iter: 8,
                ..quiet
            },
        ),
    ]
}

fn usage() -> ! {
    eprintln!(
        "usage: mi6-bench [--kinsts N] [--reps N] [--kernel NAME]... [--json PATH] \
         [--profile] [--compare BASELINE] \
         [--trace PATH [--trace-limit OPS]]"
    );
    exit(2);
}

/// How far, in percent, a kernel's cycles/sec may fall below the
/// `--compare` baseline before a warning.
const COMPARE_THRESHOLD: f64 = 20.0;

/// Each kernel's `cycles_per_sec` in a baseline written by `--json`.
fn baseline_cps(doc: &str) -> Result<Vec<(String, f64)>, String> {
    doc.lines()
        .enumerate()
        .map(|(n, line)| {
            let obj = parse_object(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let name = obj.get("name").and_then(JsonValue::as_str);
            match (name, obj.get("cycles_per_sec").and_then(JsonValue::as_f64)) {
                (Some(name), Some(cps)) => Ok((name.to_string(), cps)),
                _ => Err(format!("line {}: needs `name` and `cycles_per_sec`", n + 1)),
            }
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut kinsts: u64 = 300;
    let mut reps: u32 = 3;
    let mut only: Vec<String> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut compare_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut trace_limit: Option<u64> = None;
    let mut profile = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().unwrap_or_else(|| usage()).clone();
        match arg.as_str() {
            "--kinsts" => kinsts = val().parse().unwrap_or_else(|_| usage()),
            "--reps" => reps = val().parse().unwrap_or_else(|_| usage()),
            "--kernel" => only.push(val()),
            "--json" => json_path = Some(val()),
            "--compare" => compare_path = Some(val()),
            "--trace" => trace_path = Some(val()),
            "--trace-limit" => trace_limit = Some(val().parse().unwrap_or_else(|_| usage())),
            "--profile" => profile = true,
            _ => usage(),
        }
    }
    if reps == 0 {
        usage();
    }
    if trace_limit.is_some() && trace_path.is_none() {
        eprintln!("mi6-bench: --trace-limit needs --trace");
        exit(2);
    }
    if trace_path.is_some() {
        // A trace interleaves every core's lifecycle records into one
        // file, and its I/O sits inside the timed region — so scope a
        // traced run to a single kernel and keep it out of perf gating.
        if only.len() != 1 {
            eprintln!("mi6-bench: --trace wants exactly one --kernel (one trace file per run)");
            exit(2);
        }
        if compare_path.is_some() {
            eprintln!("mi6-bench: --trace wall times include trace I/O; refusing --compare");
            exit(2);
        }
    }
    if profile && !mi6_core::LAP_COMPILED {
        // Zeros masquerading as a breakdown would be worse than an error.
        eprintln!(
            "mi6-bench: --profile needs the lap timers compiled in; rebuild with\n  \
             cargo run --release -p mi6-bench --features lap-profile --bin mi6-bench -- --profile"
        );
        exit(2);
    }
    if profile && compare_path.is_some() {
        eprintln!("mi6-bench: --profile wall times include timer overhead; refusing --compare");
        exit(2);
    }
    let kernels = kernels();
    for k in &only {
        if !kernels.iter().any(|(name, _)| name == k) {
            // A typo'd --kernel must not let a CI perf job "pass" while
            // measuring nothing.
            eprintln!("mi6-bench: unknown kernel `{k}`");
            let names: Vec<&str> = kernels.iter().map(|(n, _)| *n).collect();
            eprintln!("known kernels: {}", names.join(", "));
            exit(2);
        }
    }
    let params = WorkloadParams::evaluation().with_target_kinsts(kinsts);
    println!("mi6-bench: {kinsts}k instructions per kernel, best of {reps} rep(s), variant BASE");
    println!(
        "{:<14} {:>12} {:>12} {:>8} {:>12} {:>10} {:>7} {:>6}  top stack",
        "kernel", "cycles", "insts", "wall s", "Mcycles/s", "Minst/s", "skip %", "CPI"
    );
    struct Row {
        name: &'static str,
        cycles: u64,
        insts: u64,
        secs: f64,
        ticked: u64,
        skipped: u64,
        lap: mi6_core::LapProfile,
        cpi: mi6_core::CpiStack,
        width: u64,
    }
    let mut rows: Vec<Row> = Vec::new();
    for (name, kernel_profile) in kernels {
        if !only.is_empty() && !only.iter().any(|k| k == name) {
            continue;
        }
        let program = generate(name, &kernel_profile, &params);
        let mut best: Option<(f64, u64, u64)> = None; // (secs, cycles, insts)
        let mut best_lap = mi6_core::LapProfile::default();
        let mut best_ticked = 0u64;
        let mut best_cpi = mi6_core::CpiStack::default();
        let mut best_width = 1u64;
        for _ in 0..reps {
            let mut builder = SimBuilder::new(Variant::Base).without_timer();
            if let Some(path) = &trace_path {
                // Every rep simulates the same deterministic run, so each
                // rewrite of the trace file produces identical bytes.
                builder = builder
                    .trace_path(path)
                    .trace_limit(trace_limit.unwrap_or(0));
            }
            let mut machine = builder.build().expect("BASE builds");
            machine
                .load_user_program(0, &program)
                .unwrap_or_else(|e| panic!("loading {name}: {e}"));
            let t0 = Instant::now();
            let stats = machine
                .run_to_completion(mi6_workloads::budget::cycle_cap(kinsts))
                .unwrap_or_else(|e| panic!("running {name}: {e}"));
            let secs = t0.elapsed().as_secs_f64();
            if best.is_none_or(|b| secs < b.0) {
                best = Some((secs, stats.cycles, stats.core[0].committed_instructions));
                best_lap = machine.core(0).lap;
                best_ticked = machine.ticks();
                best_cpi = machine.core(0).cpi.clone();
                best_width = machine.core(0).config().commit_width as u64;
            }
        }
        let (secs, cycles, insts) = best.expect("reps > 0");
        let skipped = cycles.saturating_sub(best_ticked);
        // Where the cycles went: the two biggest non-base CPI-stack
        // categories, as shares of all commit slots.
        let top: Vec<String> = best_cpi
            .top_blockers()
            .into_iter()
            .map(|(cat, slots)| {
                format!(
                    "{} {:.0}%",
                    cat.name(),
                    slots as f64 * 100.0 / best_cpi.total_slots().max(1) as f64
                )
            })
            .collect();
        println!(
            "{:<14} {:>12} {:>12} {:>8.2} {:>12.2} {:>10.2} {:>6.1}% {:>6.2}  {}",
            name,
            cycles,
            insts,
            secs,
            cycles as f64 / secs / 1e6,
            insts as f64 / secs / 1e6,
            skipped as f64 * 100.0 / cycles.max(1) as f64,
            cycles as f64 / insts.max(1) as f64,
            top.join(", "),
        );
        if profile {
            let total = best_lap.total().max(1) as f64;
            for (i, stage) in mi6_core::LAP_STAGES.iter().enumerate() {
                let ns = best_lap.nanos[i];
                println!(
                    "    {:<18} {:>9.1} ms {:>6.1}%",
                    stage,
                    ns as f64 / 1e6,
                    ns as f64 * 100.0 / total
                );
            }
        }
        rows.push(Row {
            name,
            cycles,
            insts,
            secs,
            ticked: best_ticked,
            skipped,
            lap: best_lap,
            cpi: best_cpi,
            width: best_width,
        });
    }
    if let Some(path) = &trace_path {
        // Validate the trace we just wrote before anyone feeds it to
        // Konata: a malformed record should fail here, not in the viewer.
        match mi6_obs::check_trace_file(std::path::Path::new(path)) {
            Ok(sum) => eprintln!(
                "mi6-bench: trace {path}: {} op(s), {} squashed — O3PipeView schema ok",
                sum.ops, sum.squashed
            ),
            Err(e) => {
                eprintln!("mi6-bench: trace {path} failed validation: {e}");
                exit(1);
            }
        }
    }
    if let Some(path) = json_path {
        // Machine-readable companion to the table, one flat line per
        // kernel with the CPI-stack tail of the grid's `--json` lines
        // (the best rep's stack: every rep simulates the identical run).
        // CI uploads it as the perf-trajectory artifact, so keep the shape
        // append-only (the `lap_<stage>` keys only appear under --profile).
        let doc: String = rows
            .iter()
            .map(|r| {
                let mut k = JsonWriter::default();
                k.str("bench", "hotloop")
                    .u64("kinsts", kinsts)
                    .u64("reps", reps.into())
                    .str("variant", "BASE")
                    .str("name", r.name)
                    .u64("cycles", r.cycles)
                    .u64("instructions", r.insts)
                    .f64("wall_s", r.secs)
                    .f64("cycles_per_sec", r.cycles as f64 / r.secs)
                    .f64("ns_per_cycle", r.secs * 1e9 / r.cycles as f64);
                write_cpi_tail(&mut k, &r.cpi, r.width, r.ticked, r.skipped);
                if profile {
                    for (stage, ns) in mi6_core::LAP_STAGES.iter().zip(r.lap.nanos) {
                        k.u64(&format!("lap_{stage}"), ns);
                    }
                }
                k.finish() + "\n"
            })
            .collect();
        if let Err(e) = mi6_obs::check_stacks_str(&doc) {
            eprintln!("mi6-bench: refusing to write invalid --json lines: {e}");
            exit(1);
        }
        std::fs::write(&path, doc).unwrap_or_else(|e| {
            eprintln!("mi6-bench: cannot write {path}: {e}");
            exit(1);
        });
        eprintln!("mi6-bench: wrote {path}");
    }
    if let Some(path) = compare_path {
        // Non-gating regression check against a committed baseline (the
        // repo-root BENCH_hotloop.json): warn when a kernel's cycles/sec
        // falls more than `COMPARE_THRESHOLD` percent below it, but always
        // exit 0 — shared CI runners are far too noisy to gate on, the
        // warning keeps the trajectory visible. The `::warning::` lines
        // surface as GitHub Actions annotations.
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|doc| baseline_cps(&doc))
            .unwrap_or_else(|e| {
                eprintln!("mi6-bench: cannot read baseline {path}: {e}");
                exit(1);
            });
        let floor = 1.0 - COMPARE_THRESHOLD / 100.0;
        for r in &rows {
            let (name, fresh) = (r.name, r.cycles as f64 / r.secs);
            let Some(&(_, base)) = baseline.iter().find(|(k, _)| k == name) else {
                eprintln!("mi6-bench: baseline {path} has no kernel `{name}`; skipping");
                continue;
            };
            if fresh < base * floor {
                println!(
                    "::warning::mi6-bench {name}: {:.2} Mcycles/s is {:.0}% below the \
                     committed baseline ({:.2} Mcycles/s in {path}, threshold {COMPARE_THRESHOLD}%)",
                    fresh / 1e6,
                    (1.0 - fresh / base) * 100.0,
                    base / 1e6,
                );
            } else {
                eprintln!(
                    "mi6-bench: {name} {:.2} Mcycles/s vs baseline {:.2} — ok \
                     (threshold {COMPARE_THRESHOLD}%)",
                    fresh / 1e6,
                    base / 1e6
                );
            }
        }
    }
}
