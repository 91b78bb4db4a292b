//! End-to-end checks of the `mi6-experiments` and `mi6-bench` binaries.
//!
//! Flags either binary would otherwise silently ignore, and a `--warmup`
//! no workload can honour, exit 2 with one message instead of running. A
//! shard journal stays readable whatever bytes its `--out` path holds.
//! Every `--json` line either binary writes carries a CPI stack that
//! `mi6-obs-check stacks` accepts, and `--json -` leaves only those lines
//! on stdout. `mi6-bench --compare` reads its baseline before any run.

use std::ffi::OsStr;
use std::path::Path;
use std::process::{Command, Output};

/// Runs the CLI with `args`.
fn output(args: &[impl AsRef<OsStr>]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mi6-experiments"))
        .args(args)
        .output()
        .expect("mi6-experiments runs")
}

/// Runs `mi6-bench` with `args`.
fn bench(args: &[impl AsRef<OsStr>]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mi6-bench"))
        .args(args)
        .output()
        .expect("mi6-bench runs")
}

/// Runs the CLI with `args` and returns its exit code and stderr.
fn run(args: &[impl AsRef<OsStr>]) -> (Option<i32>, String) {
    let out = output(args);
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn checkpoint_dir_without_warmup_is_a_usage_error() {
    let dir = std::env::temp_dir().join(format!("mi6-cli-ckpt-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    let (code, stderr) = run(&["--figure", "13", "--kinsts", "1", "--checkpoint-dir", dir]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.contains("--checkpoint-dir needs --warmup"),
        "{stderr}"
    );
    assert!(
        !std::path::Path::new(dir).exists(),
        "a rejected run created its checkpoint dir"
    );
}

#[test]
fn flags_that_do_nothing_are_one_line_usage_errors() {
    let dir = std::env::temp_dir().join(format!("mi6-cli-idle-out-{}", std::process::id()));
    let dir = dir.to_str().unwrap();
    let out_error = "--out needs --shard or --metrics-every";
    for (args, expected) in [
        (
            &["--figure", "6", "--kinsts", "5", "--out", dir][..],
            out_error,
        ),
        (&["--scenario", "enclave-attacker", "--out", dir], out_error),
        (
            &["--figure", "6", "--threads", "0"],
            "--threads must be at least 1",
        ),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: {stderr}");
    }
    assert!(!Path::new(dir).exists(), "a rejected run created --out");
    let out = bench(&["--kinsts", "1", "--reps", "1", "--trace-limit", "10"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("--trace-limit needs --trace"), "{stderr}");
}

#[test]
fn scenario_rejects_grid_only_flags() {
    for flags in [
        &["--seeds", "2"][..],
        &["--workload", "mcf"],
        &["--warmup", "1000"],
        &["--checkpoint-dir", "unused-ckpt"],
        &["--fork-base"],
        &["--deadline", "5"],
    ] {
        let mut args = vec!["--scenario", "enclave-attacker", "--kinsts", "1"];
        args.extend_from_slice(flags);
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(2), "{flags:?}: {stderr}");
        let expected = format!("`{}` applies to figure grids, not --scenario", flags[0]);
        assert!(stderr.contains(&expected), "{flags:?}: {stderr}");
    }
}

#[test]
fn warmup_longer_than_a_workload_is_a_usage_error() {
    let args: Vec<&str> = "--figure 13 --kinsts 1 --timer 0 --warmup 10000000"
        .split(' ')
        .collect();
    let (code, stderr) = run(&args);
    assert_eq!(code, Some(2), "{stderr}");
    let error = "--warmup 10000000 exceeds the total runtime of";
    assert_eq!(stderr.matches(error).count(), 1, "{stderr}");
    // Progress lines (`  [1/22] astar on BASE: …`) mean a point ran.
    assert!(
        !stderr.lines().any(|l| l.trim_start().starts_with('[')),
        "a measurement point ran: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn quotes_and_backslashes_in_out_keep_the_journal_readable() {
    // Journal lines embed the metrics artifact path, which lives under
    // `--out`; its `"` and `\` must be escaped, not written raw.
    let root = std::env::temp_dir().join(format!("mi6-cli-quote-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let out = root.join("q\"d\\ir");
    let args = |cmd: &str| -> Vec<String> {
        let grid = "--figure 5 --kinsts 10 --timer 0 --workload hmmer --out";
        let mut args: Vec<String> = format!("{cmd} {grid}")
            .split(' ')
            .map(String::from)
            .collect();
        args.push(out.display().to_string());
        args
    };
    let shard = args("--shard 0/1 --metrics-every 5000");
    for pass in 0..2 {
        let (code, stderr) = run(&shard);
        assert_eq!(code, Some(0), "pass {pass}: {stderr}");
        assert!(!stderr.contains("unparseable"), "pass {pass}: {stderr}");
        assert!(
            pass == 0 || stderr.contains("2 journaled, 0 to run"),
            "{stderr}"
        );
    }
    let merged = output(&args("merge"));
    let tables = String::from_utf8_lossy(&merged.stdout);
    assert_eq!(merged.status.code(), Some(0), "{merged:?}");
    assert!(
        tables.contains("Figure 5") && tables.contains("hmmer"),
        "{tables}"
    );
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn every_json_stream_passes_the_stacks_checker() {
    let dir = std::env::temp_dir().join(format!("mi6-cli-stacks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).display().to_string();
    let (grid, scenario, hotloop) = (path("grid.jsonl"), path("scn.jsonl"), path("hot.jsonl"));
    let run_ok = |out: Output| {
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        stderr
    };
    let tiny = ["--kinsts", "10", "--timer", "0", "--json"];
    run_ok(output(&[&["--figure", "6"][..], &tiny, &[&grid]].concat()));
    run_ok(output(
        &[&["--scenario", "enclave-attacker"][..], &tiny, &[&scenario]].concat(),
    ));
    let kernel = ["--kinsts", "10", "--reps", "1", "--kernel", "mixed"];
    run_ok(bench(&[&kernel[..], &["--json", &hotloop]].concat()));
    for (file, rows) in [(&grid, 11), (&scenario, 4), (&hotloop, 1)] {
        let sum = mi6_obs::check_stacks_file(Path::new(file)).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(sum.rows, rows, "{file}");
    }
    // `--compare` reads the lines back and finds the kernel; the fresh
    // run is either within the threshold or warns on stdout.
    let out = bench(&[&kernel[..], &["--compare", &hotloop]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = run_ok(out);
    assert!(
        stderr.contains("mixed") && stderr.contains("vs baseline")
            || stdout.contains("::warning::mi6-bench mixed"),
        "{stdout}{stderr}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn json_dash_makes_stdout_a_pure_jsonl_stream() {
    let tiny = ["--kinsts", "10", "--timer", "0", "--json", "-"];
    // One line per unique point and nothing else: no figure, scenario or
    // CPI table.
    for (run, lines) in [
        (["--figure", "6"], 11),
        (["--scenario", "enclave-attacker"], 4),
    ] {
        let out = output(&[&run[..], &tiny].concat());
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
        assert_eq!(stdout.lines().count(), lines, "{run:?}: {stdout}");
        for line in stdout.lines() {
            mi6_obs::check_stacks_str(line).unwrap_or_else(|e| panic!("{run:?}: {e}"));
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("tables suppressed"), "{run:?}: {stderr}");
    }
}

#[test]
fn compare_reads_its_baseline_before_json_rewrites_it() {
    let dir = std::env::temp_dir().join(format!("mi6-cli-compare-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.jsonl").display().to_string();
    let kernel = ["--kinsts", "10", "--reps", "1", "--kernel", "mixed"];
    let out = bench(&[&kernel[..], &["--json", &base]].concat());
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Claim a baseline 100 times faster than the run that wrote it.
    let line = std::fs::read_to_string(&base).unwrap();
    let obj = mi6_obs::json::parse_object(line.trim()).unwrap();
    let cps = obj.get("cycles_per_sec").and_then(|v| v.as_f64()).unwrap();
    let written = format!("\"cycles_per_sec\":{cps}");
    assert!(line.contains(&written), "{line}");
    let faster = format!("\"cycles_per_sec\":{}", cps * 100.0);
    std::fs::write(&base, line.replace(&written, &faster)).unwrap();
    // The same path as both: the fresh run must not compare with itself.
    let out = bench(&[&kernel[..], &["--json", &base, "--compare", &base]].concat());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout.contains("::warning::mi6-bench mixed"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_missing_baseline_fails_before_any_run() {
    let missing = std::env::temp_dir().join(format!("mi6-cli-no-baseline-{}", std::process::id()));
    let missing = missing.to_str().unwrap();
    let out = bench(&["--kinsts", "10", "--reps", "1", "--compare", missing]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(stderr.contains("cannot read baseline"), "{stderr}");
}

#[test]
fn retired_flags_are_unknown_arguments() {
    let (code, stderr) = run(&["--figure", "6", "--stacks", "unused.jsonl"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("unknown argument `--stacks`"), "{stderr}");
    for flags in [["--stacks", "unused.jsonl"], ["--compare-threshold", "20"]] {
        let out = bench(&flags);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {out:?}");
    }
}
