//! End-to-end checks of the `mi6-obs-check` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A JSONL file holding one line with a CPI stack, valid or with its sum
/// invariant broken.
fn stacks_file(name: &str, valid: bool) -> PathBuf {
    let mut w = mi6_obs::json::JsonWriter::default();
    w.str("workload", "gcc")
        .u64("cpi_cycles", 100)
        .u64("cpi_commit_width", 2);
    let base = if valid { 200 } else { 199 };
    for (i, key) in mi6_obs::CPI_KEYS.iter().enumerate() {
        w.u64(key, if i == 0 { base } else { 0 });
    }
    let path = std::env::temp_dir().join(format!("mi6-obs-check-{}-{name}", std::process::id()));
    std::fs::write(&path, w.finish() + "\n").unwrap();
    path
}

/// Runs `mi6-obs-check stacks FILES` with stdout on a pipe whose reader
/// is already gone.
fn stacks_into_closed_pipe(files: &[PathBuf]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_mi6-obs-check"))
        .arg("stacks")
        .args(files)
        .stdout(writer)
        .output()
        .unwrap()
}

#[test]
fn a_closed_stdout_ends_the_summaries_but_not_the_checks() {
    let good = [stacks_file("a.jsonl", true), stacks_file("b.jsonl", true)];
    let out = stacks_into_closed_pipe(&good);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let bad = stacks_file("bad.jsonl", false);
    let out = stacks_into_closed_pipe(&[good[0].clone(), bad.clone(), good[1].clone()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("sum invariant violated"), "{stderr}");
    for f in good.iter().chain([&bad]) {
        std::fs::remove_file(f).unwrap();
    }
}
