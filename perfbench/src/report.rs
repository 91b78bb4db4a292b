//! One repetition's result and its JSON line.

use std::any::Any;
use std::fmt::Write;

/// One measurement: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one repetition of a workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Points attempted.
    pub attempted: u64,
    /// Points that panicked, timed out, were cancelled or failed a check.
    pub failed: u64,
    /// Why, one entry per failure (point- or workload-level).
    pub failures: Vec<String>,
    /// Digest of every point's simulated statistics.
    pub digest: u64,
    /// Host seconds each grid point took, in plan order; empty when the
    /// workload exposes no per-point boundary or did not finish.
    pub point_s: Vec<f64>,
    /// Named measurements with their units; empty when the repetition
    /// could not finish.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// An empty report for `attempted` points.
    pub fn new(attempted: u64) -> Report {
        Report {
            attempted,
            ..Report::default()
        }
    }

    /// Records `count` failed points.
    pub fn fail_points(&mut self, count: u64, why: String) {
        self.failed = (self.failed + count).min(self.attempted);
        self.failures.push(why);
    }

    /// Records workload-level failures (a missing figure bar, a broken
    /// isolation claim): they fail the workload without naming a point.
    pub fn fail_workload(&mut self, failures: Vec<String>) {
        self.failures.extend(failures);
    }

    /// The one JSON line the repetition prints last.
    pub fn to_json(&self, workload: &str, seed: u64, traced: bool) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":\"{seed:x}\",\"traced\":{traced},\
             \"attempted\":{},\"failed\":{},\"digest\":\"{:016x}\",\"failures\":[",
            self.attempted, self.failed, self.digest
        );
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(f));
        }
        out.push_str("],\"point_s\":[");
        for (i, s) in self.point_s.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_string());
        }
        out.push_str("],\"metrics\":{");
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Non-finite values are not JSON; `null` makes the harness
            // reject the repetition instead of misreading it.
            let value = if value.is_finite() {
                value.to_string()
            } else {
                "null".to_string()
            };
            let _ = write!(out, "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The value at the highest whole percentile of a sample that still
/// leaves `beyond` samples above it (nearest rank); `None` when the
/// sample is too small to leave that many.
pub fn tail_percentile(values: &[f64], beyond: usize) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (1..100usize).rev().find_map(|p| {
        let rank = (p * n).div_ceil(100).max(1);
        (n - rank >= beyond).then(|| v[rank - 1])
    })
}

/// The text of a caught panic.
pub fn panic_message(panic: &Box<dyn Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=88).map(f64::from).collect();
        // p88 leaves 10 of 88 above it (rank 78), p89 would leave 9.
        assert_eq!(tail_percentile(&v, 10), Some(78.0));
        assert_eq!(tail_percentile(&v[..4], 10), None);
    }

    #[test]
    fn json_line_escapes_and_nulls() {
        let mut r = Report::new(2);
        r.fail_points(5, "a \"quoted\"\nline".into());
        r.metrics = vec![("x", 1.5, "s"), ("y", f64::NAN, "ms")];
        let line = r.to_json("w", 0xc0ffee, false);
        assert!(line.contains("\"failed\":2"));
        assert!(line.contains("a \\\"quoted\\\"\\u000aline"));
        assert!(line.ends_with(
            "\"metrics\":{\"x\":{\"value\":1.5,\"unit\":\"s\"},\"y\":{\"value\":null,\"unit\":\"ms\"}}}"
        ));
    }
}
