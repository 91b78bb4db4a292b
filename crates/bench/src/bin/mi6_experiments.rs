//! `mi6-experiments` — the one CLI behind every evaluation figure.
//!
//! Replaces the ten per-figure binaries: each figure is a declarative
//! variant×workload grid (see `mi6_bench::figures`) whose points run on
//! the `mi6-grid` machine driver, stream JSON as they finish, and render
//! the same tables the old binaries printed.
//!
//! ```text
//! mi6-experiments --figure 13              # one figure
//! mi6-experiments --all                    # figures 4..13
//! mi6-experiments --figure 5 --kinsts 500  # shorter runs
//! mi6-experiments --figure 13 --threads 4 --json results.jsonl
//! mi6-experiments --figure 13 --seeds 3    # mean ± 95% CI over 3 seeds
//! mi6-experiments --figure 13 --warmup 500000 --checkpoint-dir ckpts
//! mi6-experiments --scenario enclave-attacker
//!
//! # Sharded: three hosts, no coordination — each runs its own shard ...
//! mi6-experiments --all --shard 0/3 --out shards/     # host A
//! mi6-experiments --all --shard 1/3 --out shards/     # host B
//! mi6-experiments --all --shard 2/3 --out shards/     # host C
//! # ... then anyone with all the shard files renders the figures:
//! mi6-experiments merge --out shards/ --all
//! ```
//!
//! Options: `--figure N` (4..13, repeatable), `--all`, `--kinsts N`
//! (thousands of instructions per run; default 2000), `--timer N`
//! (scheduler tick in cycles; default 250000), `--threads N` (default:
//! all hardware threads), `--workload NAME` (repeatable; restrict or
//! extend the workload set — `enclave-ws` runs the adversarial chase in
//! a plain grid), `--json PATH` (append one JSON object per grid point;
//! `-` makes stdout a pure JSONL stream and suppresses the figure
//! tables), `--seeds N` (run every point with N workload seeds and
//! report means with 95% Student-t confidence intervals), `--warmup N`
//! (simulate each point's first N cycles once, keep the snapshot in an
//! in-memory pool for the invocation, and start grid runs from the
//! warmed state — results are bit-identical to cold runs), plus
//! `--checkpoint-dir D` (also write each warm state through to D, so
//! repeat invocations and other shard hosts skip the warm-up),
//! `--fork-base` (warm once per workload on BASE and fork the quiescent
//! state across every variant; a `--warmup` longer than a workload's run
//! is a usage error, exit 2), `--scenario enclave-attacker`
//! (the fixed two-core enclave-vs-attacker grid; of the run flags it
//! takes only `--kinsts`, `--timer`, `--threads`, `--json` and
//! `--metrics-every` + `--out`), `--metrics-every N` +
//! `--out DIR` (sample the microarchitectural metrics registry every N
//! cycles into one JSONL artifact per grid/scenario point under DIR —
//! journal lines record the artifact path, and the scenario prints a
//! victim-vs-attacker occupancy timeline from them), and the sharding
//! surface:
//!
//! - `--shard i/N --out DIR` — run only the points the deterministic
//!   planner assigns to shard `i` of `N`, journaling each completed
//!   point to `DIR/shard-i-of-N.jsonl`. Restarting the same command
//!   resumes from the journal (finished points are never recomputed).
//! - `--deadline SECS` — stop starting new points and cancel in-flight
//!   simulations once the wall-clock budget expires (exit code 3; the
//!   journal resumes the rest later). Interrupted points journal a
//!   `"partial":true` progress line; merge skips those and reports how
//!   many it saw.
//! - `merge --out DIR` + the same grid flags — validate that the shard
//!   files cover the requested grid exactly (missing or duplicated
//!   points are hard errors) and render the figures, byte-identical to
//!   an unsharded run.

use mi6_bench::runner::default_threads;
use mi6_bench::sharding::{load_shard_dir, merge_shards, open_shard_journal};
use mi6_bench::{plan_grid, scenario, GridMetrics, GridSchedule, HarnessOpts, WarmFork, FIGURES};
use mi6_grid::ShardSpec;
use mi6_workloads::Workload;
use std::collections::BTreeSet;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::exit;
use std::time::{Duration, Instant};

struct Cli {
    figures: Vec<u32>,
    opts: HarnessOpts,
    threads: usize,
    json: Option<String>,
    seeds: u64,
    warmup: u64,
    checkpoint_dir: Option<PathBuf>,
    fork_base: bool,
    scenario: Option<String>,
    workloads: Vec<Workload>,
    shard: Option<ShardSpec>,
    out: Option<PathBuf>,
    deadline_secs: Option<u64>,
    metrics_every: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: mi6-experiments (--figure N)... | --all | --scenario enclave-attacker \
         [--kinsts N] [--timer N] [--threads N] [--seeds N] [--workload NAME]... \
         [--json PATH|-] [--metrics-every CYCLES --out DIR] \
         [--warmup CYCLES [--checkpoint-dir DIR] [--fork-base]] \
         [--shard i/N --out DIR] [--deadline SECS]\n\
         \x20      mi6-experiments merge --out DIR ((--figure N)... | --all) \
         [--kinsts N] [--timer N] [--seeds N] [--workload NAME]..."
    );
    exit(2);
}

/// Rejects a flag that would do nothing: one line on stderr, exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("mi6-experiments: {msg}");
    exit(2);
}

fn parse_args(args: &[String], merge: bool) -> Cli {
    // Merge re-derives the expected grid from flags; anything that only
    // shapes *how* a run executes would be silently meaningless there,
    // so reject it loudly rather than ignore it.
    const RUN_ONLY: [&str; 9] = [
        "--json",
        "--threads",
        "--deadline",
        "--shard",
        "--scenario",
        "--warmup",
        "--checkpoint-dir",
        "--fork-base",
        "--metrics-every",
    ];
    let mut cli = Cli {
        figures: Vec::new(),
        opts: HarnessOpts::default(),
        threads: default_threads(),
        json: None,
        seeds: 1,
        warmup: 0,
        checkpoint_dir: None,
        fork_base: false,
        scenario: None,
        workloads: Vec::new(),
        shard: None,
        out: None,
        deadline_secs: None,
        metrics_every: 0,
    };
    // The scenario is a fixed grid with no warm-up phase: these flags
    // would be accepted and silently do nothing there.
    const GRID_ONLY: [&str; 6] = [
        "--seeds",
        "--workload",
        "--warmup",
        "--checkpoint-dir",
        "--fork-base",
        "--deadline",
    ];
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    let value = |args: &[String], i: usize, flag: &str| -> String {
        args.get(i + 1)
            .unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                usage()
            })
            .clone()
    };
    while i < args.len() {
        if merge && RUN_ONLY.contains(&args[i].as_str()) {
            eprintln!(
                "`{}` applies to runs, not merge (merge takes --out plus the grid-shape \
                 flags: --figure/--all, --kinsts, --timer, --seeds, --workload)",
                args[i]
            );
            usage();
        }
        seen.push(args[i].as_str());
        match args[i].as_str() {
            "--figure" => {
                let v = value(args, i, "--figure");
                let fig: u32 = v.parse().unwrap_or_else(|_| {
                    eprintln!("--figure expects a number, got `{v}`");
                    usage()
                });
                if !FIGURES.contains(&fig) {
                    eprintln!("figure {fig} is not one of {FIGURES:?}");
                    usage();
                }
                cli.figures.push(fig);
                i += 1;
            }
            "--all" => cli.figures.extend(FIGURES),
            "--kinsts" => {
                cli.opts.kinsts = value(args, i, "--kinsts")
                    .parse()
                    .unwrap_or_else(|_| usage());
                i += 1;
            }
            "--timer" => {
                cli.opts.timer = value(args, i, "--timer")
                    .parse()
                    .unwrap_or_else(|_| usage());
                i += 1;
            }
            "--threads" => {
                cli.threads = value(args, i, "--threads")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if cli.threads == 0 {
                    usage_error("--threads must be at least 1");
                }
                i += 1;
            }
            "--seeds" => {
                cli.seeds = value(args, i, "--seeds")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if cli.seeds == 0 {
                    usage_error("--seeds must be at least 1");
                }
                i += 1;
            }
            "--workload" => {
                let v = value(args, i, "--workload");
                let w = Workload::from_name(&v).unwrap_or_else(|| {
                    let names: Vec<&str> = Workload::WITH_ADVERSARIAL
                        .iter()
                        .map(|w| w.name())
                        .collect();
                    eprintln!("unknown workload `{v}` (available: {})", names.join(", "));
                    usage()
                });
                if !cli.workloads.contains(&w) {
                    cli.workloads.push(w);
                }
                i += 1;
            }
            "--warmup" => {
                cli.warmup = value(args, i, "--warmup")
                    .parse()
                    .unwrap_or_else(|_| usage());
                i += 1;
            }
            "--checkpoint-dir" => {
                cli.checkpoint_dir = Some(PathBuf::from(value(args, i, "--checkpoint-dir")));
                i += 1;
            }
            "--fork-base" => cli.fork_base = true,
            "--scenario" => {
                cli.scenario = Some(value(args, i, "--scenario"));
                i += 1;
            }
            "--json" => {
                cli.json = Some(value(args, i, "--json"));
                i += 1;
            }
            "--shard" => {
                let v = value(args, i, "--shard");
                cli.shard = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                }));
                i += 1;
            }
            "--out" => {
                cli.out = Some(PathBuf::from(value(args, i, "--out")));
                i += 1;
            }
            "--deadline" => {
                cli.deadline_secs =
                    Some(value(args, i, "--deadline").parse().unwrap_or_else(|_| {
                        eprintln!("--deadline expects whole seconds");
                        usage()
                    }));
                i += 1;
            }
            "--metrics-every" => {
                cli.metrics_every = value(args, i, "--metrics-every")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if cli.metrics_every == 0 {
                    usage_error("--metrics-every must be at least 1 cycle");
                }
                i += 1;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
        i += 1;
    }
    if let Some(name) = &cli.scenario {
        if name != "enclave-attacker" {
            eprintln!("unknown scenario `{name}` (available: enclave-attacker)");
            usage();
        }
        if !cli.figures.is_empty() || cli.shard.is_some() {
            eprintln!("--scenario excludes --figure and --shard");
            usage();
        }
        if let Some(flag) = GRID_ONLY.iter().find(|f| seen.contains(f)) {
            eprintln!("`{flag}` applies to figure grids, not --scenario");
            usage();
        }
    } else if cli.figures.is_empty() {
        usage();
    }
    if cli.fork_base && cli.warmup == 0 {
        eprintln!("--fork-base needs --warmup (the shared warm-up length)");
        usage();
    }
    if cli.checkpoint_dir.is_some() && cli.warmup == 0 {
        eprintln!("--checkpoint-dir needs --warmup (it holds the warm-up snapshots)");
        usage();
    }
    if cli.shard.is_some() && cli.out.is_none() {
        eprintln!("--shard needs --out (the shard journal directory)");
        usage();
    }
    if cli.metrics_every > 0 && cli.out.is_none() {
        eprintln!("--metrics-every needs --out (where per-point metrics JSONL artifacts land)");
        usage();
    }
    if !merge && cli.out.is_some() && cli.shard.is_none() && cli.metrics_every == 0 {
        usage_error("--out needs --shard or --metrics-every (nothing else writes there)");
    }
    if cli.workloads.is_empty() {
        cli.workloads = Workload::ALL.to_vec();
    }
    cli.figures.sort_unstable();
    cli.figures.dedup();
    cli
}

/// Writes one `--json` line, refusing one whose CPI stack the schema
/// checker would reject (the same check CI runs on the stream).
fn write_json_line(out: &mut dyn Write, line: &str) {
    if let Err(e) = mi6_obs::check_stacks_str(line) {
        eprintln!("refusing to write an invalid --json line: {e}");
        exit(1);
    }
    writeln!(out, "{line}").expect("json write");
}

/// Opens the `--json` sink: stdout for `-`, else the file in append mode.
fn open_json(path: &str) -> Box<dyn Write> {
    if path == "-" {
        return Box::new(std::io::stdout());
    }
    let file = File::options()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| {
            eprintln!("cannot open {path}: {e}");
            exit(1);
        });
    Box::new(BufWriter::new(file))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("merge") {
        merge_main(&args[1..]);
    } else {
        run_main(&args);
    }
}

/// `merge`: validate shard coverage and render figures from journals.
fn merge_main(args: &[String]) {
    let cli = parse_args(args, true);
    let Some(dir) = &cli.out else {
        eprintln!("merge needs --out (the shard journal directory)");
        usage();
    };
    let replay = load_shard_dir(dir).unwrap_or_else(|e| {
        eprintln!("cannot read shard dir {}: {e}", dir.display());
        exit(1);
    });
    if replay.files == 0 {
        eprintln!("no *.jsonl shard files in {}", dir.display());
        exit(1);
    }
    eprint!("{}", replay.report());
    let plan = plan_grid(&cli.figures, cli.opts, cli.seeds, &cli.workloads);
    match merge_shards(&plan, &replay) {
        Err(err) => {
            eprintln!(
                "cannot merge the requested grid:\n{err}\
                 run the missing shard(s) to completion (the journal resumes them), \
                 or delete stray journals, then re-merge"
            );
            exit(1);
        }
        Ok((results, cov)) => {
            eprintln!(
                "merge: {} file(s), {} point(s) covering the grid exactly{}",
                replay.files,
                plan.points.len(),
                if cov.extra.is_empty() {
                    String::new()
                } else {
                    format!(
                        " ({} extra point(s) outside this grid ignored)",
                        cov.extra.len()
                    )
                }
            );
            print!("{}", plan.render(&results));
            print!("{}", mi6_bench::render_cpi_decomposition(&results));
        }
    }
}

/// Plain and sharded grid runs (plus the scenario path).
fn run_main(args: &[String]) {
    let cli = parse_args(args, false);
    if cli.scenario.is_some() {
        eprintln!(
            "mi6-experiments: enclave-attacker scenario ({}k instructions)",
            cli.opts.kinsts
        );
        let obs = (cli.metrics_every > 0).then(|| scenario::ScenarioObs {
            dir: cli.out.clone().expect("validated in parse_args"),
            every: cli.metrics_every,
        });
        let points = scenario::run_enclave_attacker(&cli.opts, cli.threads, obs.as_ref());
        scenario::render_enclave_attacker(&points);
        // Always-on CPI accounting: show where the victim's cycles went
        // per variant and colocation mode.
        print!("{}", scenario::render_enclave_cpi(&points));
        // With metrics on, follow the summary table with the time-series
        // view the artifacts exist for: per-bucket MSHR occupancy and
        // arbiter grants for victim vs attacker.
        if obs.is_some() {
            print!("{}", scenario::render_occupancy_timeline(&points));
        }
        if let Some(mut out) = cli.json.as_deref().map(open_json) {
            for p in &points {
                write_json_line(&mut out, &p.to_json());
            }
            out.flush().expect("json flush");
        }
        return;
    }
    // `--json -` makes stdout a pure JSONL stream: the figure tables are
    // suppressed so the output stays machine-parseable end to end.
    let json_on_stdout = cli.json.as_deref() == Some("-");
    let mut json = cli.json.as_deref().map(open_json);

    let plan = plan_grid(&cli.figures, cli.opts, cli.seeds, &cli.workloads);
    let warm = (cli.warmup > 0).then(|| WarmFork {
        warmup_cycles: cli.warmup,
        dir: cli.checkpoint_dir.clone(),
        fork_base: cli.fork_base,
    });
    let deadline = cli
        .deadline_secs
        .map(|s| Instant::now() + Duration::from_secs(s));

    // A shard run journals completions; a plain run renders tables.
    let (points, mut journal) = match cli.shard {
        None => (plan.points.clone(), None),
        Some(spec) => {
            let dir = cli.out.as_ref().expect("validated in parse_args");
            let (journal, replay) = open_shard_journal(dir, spec).unwrap_or_else(|e| {
                eprintln!("cannot open shard journal in {}: {e}", dir.display());
                exit(1);
            });
            eprint!("{}", replay.report());
            let done: BTreeSet<&str> = replay.results.iter().map(|(k, _)| k.as_str()).collect();
            let owned = plan.shard_points(spec);
            let todo: Vec<_> = owned
                .iter()
                .filter(|p| !done.contains(p.key().as_str()))
                .copied()
                .collect();
            eprintln!(
                "mi6-experiments: shard {spec} owns {} of {} unique points; {} journaled, {} to run",
                owned.len(),
                plan.points.len(),
                owned.len() - todo.len(),
                todo.len(),
            );
            (todo, Some(journal))
        }
    };

    eprintln!(
        "mi6-experiments: {} grid points ({} unique, {} seed(s)) on {} threads{}{}",
        plan.gross_points(),
        plan.points.len(),
        cli.seeds,
        cli.threads,
        match &warm {
            Some(w) if w.fork_base => format!(
                ", forking all variants from {}-cycle BASE warm-ups",
                w.warmup_cycles
            ),
            Some(w) => format!(", warm-starting from {}-cycle checkpoints", w.warmup_cycles),
            None => String::new(),
        },
        match cli.deadline_secs {
            Some(s) => format!(", deadline {s}s"),
            None => String::new(),
        },
    );
    let t0 = Instant::now();
    let mut done = 0usize;
    let total = points.len();
    let schedule = GridSchedule {
        threads: cli.threads,
        warm: warm.as_ref(),
        deadline,
        metrics: (cli.metrics_every > 0).then(|| GridMetrics {
            every: cli.metrics_every,
            dir: cli
                .out
                .clone()
                .expect("validated in parse_args")
                .join("metrics"),
        }),
        pool: None, // a private pool for this invocation
    };
    let outcome = mi6_bench::run_grid_scheduled(&points, &schedule, |res| {
        done += 1;
        eprintln!(
            "  [{done}/{total}] {} on {}: {} cycles ({} ms, worker {})",
            res.record.name, res.point.variant, res.record.cycles, res.wall_ms, res.worker,
        );
        if let Some(j) = journal.as_mut() {
            j.append(&res.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot append to shard journal: {e}");
                exit(1);
            });
        }
        if let Some(out) = json.as_mut() {
            write_json_line(out, &res.to_json());
        }
    });
    if let Some(e) = &outcome.warm_error {
        eprintln!("mi6-experiments: {e}");
        exit(2);
    }
    if let Some(out) = json.as_mut() {
        out.flush().expect("json flush");
    }
    // Deadline-interrupted points leave a `"partial":true` progress line
    // in the shard journal: merge skips them, resume recomputes them,
    // and campaign tooling can see how far each one got.
    if !outcome.partials.is_empty() {
        if let Some(j) = journal.as_mut() {
            for p in &outcome.partials {
                j.append(&p.to_json()).unwrap_or_else(|e| {
                    eprintln!("cannot append to shard journal: {e}");
                    exit(1);
                });
            }
        }
        eprintln!(
            "  {} interrupted point(s) recorded partial progress",
            outcome.partials.len()
        );
    }
    let wall = t0.elapsed();
    // Per-point elapsed times double-count when threads time-slice a
    // core, so this ratio only approximates the parallel speedup on a
    // host with >= `threads` free cores; compare wall clock between
    // `--threads 1` and `--threads N` runs for an honest number.
    let sim_ms: u64 = outcome.results.iter().flatten().map(|r| r.wall_ms).sum();
    if total > 0 {
        eprintln!(
            "grid done in {:.1}s wall ({:.1}s summed over points, ~{:.2}x parallelism)",
            wall.as_secs_f64(),
            sim_ms as f64 / 1e3,
            sim_ms as f64 / 1e3 / wall.as_secs_f64().max(1e-9),
        );
    }

    if let Some(spec) = cli.shard {
        let journal_path = cli
            .out
            .as_ref()
            .expect("validated in parse_args")
            .join(spec.file_name());
        if outcome.cancelled > 0 {
            eprintln!(
                "shard {spec} incomplete: {} point(s) remain (deadline). \
                 Rerun the same command to resume from {}",
                outcome.cancelled,
                journal_path.display()
            );
            exit(3);
        }
        eprintln!(
            "shard {spec} complete: journal {} covers all its points; \
             merge with `mi6-experiments merge --out DIR <same grid flags>`",
            journal_path.display()
        );
        return;
    }
    if outcome.cancelled > 0 {
        eprintln!(
            "grid incomplete: {} point(s) cancelled by the deadline; \
             no tables rendered (use --shard/--out for resumable runs)",
            outcome.cancelled
        );
        exit(3);
    }
    if json_on_stdout {
        eprintln!(
            "figure tables suppressed: stdout is the JSON stream (use --json FILE to get both)"
        );
        return;
    }
    let results: Vec<_> = outcome
        .results
        .into_iter()
        .map(|r| r.expect("no cancellations"))
        .collect();
    print!("{}", plan.render(&results));
    print!("{}", mi6_bench::render_cpi_decomposition(&results));
}
