//! `mi6-perfbench` — one repetition of one benchmark workload.
//!
//! ```text
//! mi6-perfbench --workload paper-cold [--seed N]
//! mi6-perfbench --workload paper-cold [--seed N] --trace-out spans.jsonl
//! ```
//!
//! Without `--trace-out` it runs the workload untraced through the same
//! `mi6_bench` entry points as `mi6-experiments` and prints the
//! end-to-end measurements. With it, it replays the same points through
//! the layers' public calls with one span per call, prints each layer's
//! self time and share, writes the spans once at the end, and prints the
//! per-layer measurements. Either way the last stdout line is one JSON
//! object with the points attempted and failed, the failure reasons, the
//! digest of every point's simulated statistics and the metrics.
//! `perfbench/run.py` repeats these runs and aggregates them.
//!
//! `--seed N` is a seed index: 0 (the default) is
//! `mi6_bench::DEFAULT_SEED`, and `N > 0` the `HarnessOpts::seed_at(N)`
//! seed of a `--seeds` sweep.

mod checks;
mod inputs;
mod replay;
mod report;
mod trace;
mod untraced;

use inputs::BenchWorkload;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: mi6-perfbench --workload paper-cold|paper-forkbase|enclave-attack \
         [--seed N] [--trace-out PATH]"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed_index = 0u64;
    let mut trace_out: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => {
                workload = Some(BenchWorkload::from_name(&value).unwrap_or_else(|| usage()))
            }
            "--seed" => seed_index = value.parse().unwrap_or_else(|_| usage()),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage());
    let opts = workload.opts(seed_index);
    let line = match trace_out {
        None => untraced::run(workload, opts).to_json(workload.name(), opts.seed, false),
        Some(path) => {
            let replay = replay::run(workload, opts);
            print_layers(workload, &replay);
            let spans = replay.tracer.spans();
            if let Err(e) = trace::write_spans(&path, &spans) {
                eprintln!("cannot write {}: {e}", path.display());
                exit(1);
            }
            let metrics = replay::layer_metrics(&replay);
            let mut report = replay.report;
            report.metrics = metrics;
            report.to_json(workload.name(), opts.seed, true)
        }
    };
    println!("{line}");
}

/// Prints each layer's self time and share of the replay's wall, then
/// the top two layers.
fn print_layers(workload: BenchWorkload, replay: &replay::Replay) {
    let layers = trace::layer_self_times(&replay.tracer.spans());
    let wall_ns = replay.tracer.seconds(replay.root) * 1e9;
    let mut rows: Vec<(&str, u64, u64)> = layers
        .iter()
        .map(|(name, (ns, calls))| (*name, *ns, *calls))
        .collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
    println!(
        "\n=== {}: layer self time (traced replay) ===",
        workload.name()
    );
    println!(
        "{:<18} {:>9} {:>12} {:>8}",
        "layer", "calls", "self ms", "share"
    );
    for (name, ns, calls) in &rows {
        println!(
            "{:<18} {:>9} {:>12.3} {:>7.2}%",
            name,
            calls,
            *ns as f64 / 1e6,
            *ns as f64 * 100.0 / wall_ns
        );
    }
    let share = |keep: fn(&str) -> bool| {
        rows.iter()
            .filter(|(name, _, _)| keep(name))
            .map(|(_, ns, _)| *ns as f64)
            .sum::<f64>()
            * 100.0
            / wall_ns
    };
    println!(
        "coverage by program layers: {:.2}% (bench.task {:.2}%)",
        share(trace::is_program_layer),
        share(|name| name == "bench.task")
    );
    let top: Vec<String> = rows
        .iter()
        .filter(|(name, _, _)| trace::is_program_layer(name))
        .take(2)
        .map(|(name, ns, _)| format!("{name} {:.2}%", *ns as f64 * 100.0 / wall_ns))
        .collect();
    println!("top layers: {}", top.join(", "));
}
