//! Schema checker for observability artifacts — the CI gate that proves
//! an emitted trace really is Konata-loadable O3PipeView, a metrics file
//! really is well-formed JSONL, and every line of a `--json` stream
//! carries a CPI stack whose slots add up.
//!
//! ```text
//! mi6-obs-check trace FILE...
//! mi6-obs-check metrics FILE...
//! mi6-obs-check stacks FILE...
//! ```
//!
//! Checks every file and prints a one-line summary per valid file. Each
//! invalid file gets a `FAIL` line on stderr naming the offending line,
//! and the exit status is 1 if any file failed. A closed stdout (say,
//! `| head -1`) ends the summaries but not the checking; any other
//! stdout error exits 1.

use std::io::{ErrorKind, Write};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!("usage: mi6-obs-check trace|metrics|stacks FILE...");
        ExitCode::from(2)
    };
    let Some((mode, files)) = args.split_first() else {
        return usage();
    };
    if files.is_empty() {
        return usage();
    }
    let mut out = std::io::stdout().lock();
    let (mut printing, mut failed) = (true, false);
    for f in files {
        let path = Path::new(f);
        let outcome = match mode.as_str() {
            "trace" => mi6_obs::check_trace_file(path).map(|s| {
                format!(
                    "{}: OK — {} ops ({} squashed)",
                    path.display(),
                    s.ops,
                    s.squashed
                )
            }),
            "metrics" => mi6_obs::check_metrics_file(path).map(|s| {
                format!(
                    "{}: OK — {} rows, {} metrics, cycles {}..{}",
                    path.display(),
                    s.rows,
                    s.metrics.len(),
                    s.cycle_range.0,
                    s.cycle_range.1
                )
            }),
            "stacks" => mi6_obs::check_stacks_file(path).map(|s| {
                format!(
                    "{}: OK — {} rows, {} slots accounted",
                    path.display(),
                    s.rows,
                    s.total_slots
                )
            }),
            _ => return usage(),
        };
        match outcome {
            Ok(line) if printing => match writeln!(out, "{line}") {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::BrokenPipe => printing = false,
                Err(e) => {
                    eprintln!("mi6-obs-check: writing stdout: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Ok(_) => {}
            Err(e) => {
                eprintln!("FAIL {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
