//! `mi6-experiments` rejects flags it would otherwise silently ignore:
//! each case below exits 2 with a usage message instead of running.

use std::process::Command;

/// Runs the CLI with `args` and returns its exit code and stderr.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mi6-experiments"))
        .args(args)
        .output()
        .expect("mi6-experiments runs");
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
fn scenario_rejects_grid_only_flags() {
    for flags in [
        &["--seeds", "2"][..],
        &["--workload", "mcf"],
        &["--warmup", "1000"],
        &["--checkpoint-dir", "unused-ckpt"],
        &["--fork-base"],
        &["--mux", "2"],
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
