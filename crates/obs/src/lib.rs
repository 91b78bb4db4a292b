//! # mi6-obs — observability for the MI6 simulator
//!
//! Two pillars, both **runtime-only**: nothing in this crate is ever
//! serialized into snapshots, and everything is gated behind an `Option`
//! at the attachment point so the simulation pays nothing when it is off.
//!
//! 1. [`Tracer`] — per-instruction lifecycle tracing in the
//!    Konata-compatible O3PipeView text format (one record per op:
//!    fetch/decode/rename/dispatch/issue/complete/retire cycle stamps,
//!    with the memory-phase sub-timeline folded into the disassembly
//!    field). One tracer per core; the machine drains their line buffers
//!    into a single file.
//! 2. [`MetricsSink`] — an append-only JSONL time series keyed
//!    `(cycle, core, metric)`: occupancy gauges sampled every N cycles
//!    and flow counters emitted as per-window deltas.
//!
//! The schema checkers ([`check_trace_str`], [`check_metrics_str`],
//! [`check_stacks_str`]) are what CI runs over emitted artifacts (via the
//! `mi6-obs-check` binary), and what the timing-neutrality tests use to
//! prove the files are well-formed without pinning their exact contents.
//!
//! [`json`] is the one flat-JSON writer and reader of the workspace:
//! metrics rows here, and the harness's shard journals and `--json`
//! streams, all go through it. [`CPI_KEYS`] names the CPI-stack
//! categories those lines carry.
//!
//! Observability state is deliberately tolerant of snapshot restores: a
//! restored machine has in-flight ops the tracer never saw, so every
//! hook ignores unknown sequence numbers instead of asserting.

pub mod json;

use json::{parse_object, JsonValue, JsonWriter};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Simulated-cycle → O3PipeView-tick scale. gem5 emits picosecond ticks
/// at 500 ps/cycle; Konata infers the cycle time from the GCD of the
/// stamps, so any constant works — we keep gem5's for familiarity.
pub const CYCLE_TICKS: u64 = 500;

// ------------------------------------------------------------------ tracer

/// One in-flight instruction's collected stamps. `u64::MAX` = stage
/// never reached (emitted as tick 0, which Konata renders as "skipped").
#[derive(Debug)]
struct OpRecord {
    pc: u64,
    disasm: String,
    /// Memory-phase sub-timeline (e.g. ` tlb@12 walk@20 mem@31`),
    /// appended to the disassembly field so the O3PipeView line count
    /// per record stays fixed.
    phases: String,
    fetch: u64,
    rename: u64,
    issue: u64,
    complete: u64,
}

/// Per-core instruction lifecycle tracer emitting O3PipeView records.
///
/// Records are keyed by the core's monotonically increasing ROB sequence
/// number: a `VecDeque` plus a base sequence is enough because rename
/// creates records in ascending order, retire pops the front, and squash
/// pops a suffix from the back. Hooks for sequence numbers the tracer
/// has never seen (ops that were in flight across a snapshot restore)
/// are silently ignored.
#[derive(Debug)]
pub struct Tracer {
    /// `uid = seq * uid_stride + uid_offset` keeps O3PipeView ids unique
    /// when several cores share one output file.
    uid_stride: u64,
    uid_offset: u64,
    base_seq: u64,
    live: VecDeque<Option<OpRecord>>,
    buf: String,
    emitted_ops: u64,
    /// Stop emitting (but keep counting) after this many records;
    /// 0 = unlimited. Keeps long bench runs from writing gigabytes.
    cap: u64,
}

impl Tracer {
    /// A tracer for core `core` of `cores`, emitting at most `cap`
    /// records (0 = unlimited).
    pub fn new(core: usize, cores: usize, cap: u64) -> Tracer {
        Tracer {
            uid_stride: cores.max(1) as u64,
            uid_offset: core as u64,
            base_seq: 0,
            live: VecDeque::new(),
            buf: String::new(),
            emitted_ops: 0,
            cap,
        }
    }

    fn slot(&mut self, seq: u64) -> Option<&mut OpRecord> {
        if seq < self.base_seq {
            return None;
        }
        let idx = (seq - self.base_seq) as usize;
        self.live.get_mut(idx)?.as_mut()
    }

    /// Rename hook: a new op entered the ROB. `fetched_at` is the cycle
    /// its fetch group was delivered (carried on the fetch-queue entry).
    pub fn start(&mut self, seq: u64, pc: u64, disasm: String, fetched_at: u64, now: u64) {
        if self.live.is_empty() {
            self.base_seq = seq;
        } else {
            // A squash pops a tail of records but the core's sequence
            // numbering never rolls back, so the next rename arrives with
            // a gap. Pad with placeholders to keep `seq - base_seq` a
            // valid index.
            let expected = self.base_seq + self.live.len() as u64;
            debug_assert!(seq >= expected, "rename went backwards: {seq} < {expected}");
            for _ in expected..seq {
                self.live.push_back(None);
            }
        }
        self.live.push_back(Some(OpRecord {
            pc,
            disasm,
            phases: String::new(),
            fetch: fetched_at,
            rename: now,
            issue: u64::MAX,
            complete: u64::MAX,
        }));
    }

    /// Issue hook: the op left its issue queue for an execution pipe.
    pub fn issue(&mut self, seq: u64, now: u64) {
        if let Some(op) = self.slot(seq) {
            op.issue = now;
        }
    }

    /// Memory-phase hook: annotates the op with `tag@cycle` (translate
    /// done, page walk start, cache access, value return, fault…).
    pub fn mem_phase(&mut self, seq: u64, tag: &str, now: u64) {
        if let Some(op) = self.slot(seq) {
            let _ = write!(op.phases, " {tag}@{now}");
        }
    }

    /// Completion hook: the op's result became visible (writeback, load
    /// value return, store address resolution, or fault marking).
    pub fn complete(&mut self, seq: u64, now: u64) {
        if let Some(op) = self.slot(seq) {
            if op.complete == u64::MAX {
                op.complete = now;
            }
        }
    }

    /// Retire hook: the op committed. Emits its record. Commit is
    /// in-order, so anything older than `seq` still in the deque is a
    /// placeholder for an already-emitted squashed op.
    pub fn retire(&mut self, seq: u64, now: u64) {
        if seq < self.base_seq || seq >= self.base_seq + self.live.len() as u64 {
            return;
        }
        while self.base_seq < seq {
            let stale = self.live.pop_front().expect("range checked");
            debug_assert!(stale.is_none(), "live record skipped by in-order commit");
            self.base_seq += 1;
        }
        if let Some(op) = self.live.pop_front().flatten() {
            self.emit(&op, seq, now);
        }
        self.base_seq = seq + 1;
    }

    /// Squash hook: the op was discarded by a pipeline flush. Emits the
    /// record with retire tick 0 (Konata renders it as flushed). Squash
    /// walks the ROB tail in descending seq order, so anything younger
    /// than `seq` still in the deque is a placeholder from an earlier
    /// squash.
    pub fn squash(&mut self, seq: u64) {
        if seq < self.base_seq {
            return;
        }
        let idx = (seq - self.base_seq) as usize;
        if idx >= self.live.len() {
            return;
        }
        while self.live.len() > idx + 1 {
            let stale = self.live.pop_back().expect("length checked");
            debug_assert!(stale.is_none(), "live record above a squash point");
        }
        if let Some(op) = self.live.pop_back().expect("length checked") {
            self.emit(&op, seq, 0);
        }
    }

    fn emit(&mut self, op: &OpRecord, seq: u64, retire_cycle: u64) {
        if self.cap != 0 && self.emitted_ops >= self.cap {
            self.emitted_ops += 1;
            return;
        }
        self.emitted_ops += 1;
        let t = |c: u64| {
            if c == u64::MAX {
                0
            } else {
                c * CYCLE_TICKS
            }
        };
        let uid = seq * self.uid_stride + self.uid_offset;
        let _ = write!(
            self.buf,
            "O3PipeView:fetch:{}:0x{:016x}:0:{}:{}{}\n\
             O3PipeView:decode:{}\n\
             O3PipeView:rename:{}\n\
             O3PipeView:dispatch:{}\n\
             O3PipeView:issue:{}\n\
             O3PipeView:complete:{}\n\
             O3PipeView:retire:{}:store:0\n",
            t(op.fetch),
            op.pc,
            uid,
            op.disasm,
            op.phases,
            t(op.rename),
            t(op.rename),
            t(op.rename),
            t(op.issue),
            t(op.complete),
            t(retire_cycle),
        );
    }

    /// Buffered output bytes awaiting a drain.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Takes the buffered lines (the machine appends them to the trace
    /// file).
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }

    /// Records emitted so far (including any beyond the cap).
    pub fn emitted(&self) -> u64 {
        self.emitted_ops
    }

    /// Forgets all in-flight records (snapshot restore: the restored ops
    /// were never observed, so their hooks must be ignored, which the
    /// empty state guarantees).
    pub fn reset_in_flight(&mut self) {
        self.live.clear();
        self.base_seq = 0;
    }
}

// ------------------------------------------------------------- metrics sink

/// Append-only JSONL time-series writer. One row per sample:
///
/// ```json
/// {"cycle":12000,"core":1,"metric":"mshr_occ","value":3}
/// {"cycle":12000,"metric":"skipped_cycles","value":4096}
/// ```
///
/// `core` is omitted for machine-wide metrics. [`MetricsSink::gauge`]
/// writes instantaneous values; [`MetricsSink::counter`] takes a
/// monotonically increasing total and writes the delta since the last
/// sample of that `(core, metric)` key, so consumers read flows per
/// window directly.
#[derive(Debug, Default)]
pub struct MetricsSink {
    buf: String,
    prev: BTreeMap<(i64, &'static str), u64>,
}

impl MetricsSink {
    /// An empty sink.
    pub fn new() -> MetricsSink {
        MetricsSink::default()
    }

    fn row(&mut self, cycle: u64, core: Option<usize>, metric: &str, value: u64) {
        let mut row = JsonWriter::default();
        row.u64("cycle", cycle);
        if let Some(c) = core {
            row.u64("core", c as u64);
        }
        row.str("metric", metric).u64("value", value);
        self.buf.push_str(&row.finish());
        self.buf.push('\n');
    }

    /// Samples an instantaneous occupancy/level.
    pub fn gauge(&mut self, cycle: u64, core: Option<usize>, metric: &str, value: u64) {
        self.row(cycle, core, metric, value);
    }

    /// Samples a monotonically increasing counter; emits the delta since
    /// this key's previous sample.
    pub fn counter(&mut self, cycle: u64, core: Option<usize>, metric: &'static str, total: u64) {
        let key = (core.map(|c| c as i64).unwrap_or(-1), metric);
        let prev = self.prev.insert(key, total).unwrap_or(0);
        self.row(cycle, core, metric, total.saturating_sub(prev));
    }

    /// Takes the buffered rows (the machine appends them to the metrics
    /// file).
    pub fn take(&mut self) -> String {
        std::mem::take(&mut self.buf)
    }
}

// ------------------------------------------------------------ trace checker

/// Summary returned by a successful [`check_trace_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Complete O3PipeView records.
    pub ops: u64,
    /// Records with retire tick 0 (squashed).
    pub squashed: u64,
}

fn parse_tick(s: &str, what: &str, line: usize) -> Result<u64, String> {
    s.parse::<u64>()
        .map_err(|_| format!("line {line}: {what} tick `{s}` is not an integer"))
}

/// Validates a Konata/O3PipeView trace: every record is exactly seven
/// lines (fetch/decode/rename/dispatch/issue/complete/retire) with
/// integer ticks, a hex PC, a unique id, a non-empty disassembly, and
/// stamps that are non-decreasing across the stages that were reached
/// (tick 0 = stage skipped).
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_trace_str(s: &str) -> Result<TraceSummary, String> {
    let mut lines = s.lines().enumerate().peekable();
    let mut ops = 0u64;
    let mut squashed = 0u64;
    let mut seen_ids = std::collections::BTreeSet::new();
    while let Some((n, line)) = lines.next() {
        let n1 = n + 1;
        let rest = line
            .strip_prefix("O3PipeView:fetch:")
            .ok_or_else(|| format!("line {n1}: expected O3PipeView:fetch record, got `{line}`"))?;
        // fetch:<tick>:0x<pc>:0:<uid>:<disasm>
        let mut f = rest.splitn(5, ':');
        let fetch = parse_tick(f.next().unwrap_or(""), "fetch", n1)?;
        let pc = f
            .next()
            .ok_or_else(|| format!("line {n1}: missing pc field"))?;
        let pc_hex = pc
            .strip_prefix("0x")
            .ok_or_else(|| format!("line {n1}: pc `{pc}` missing 0x prefix"))?;
        u64::from_str_radix(pc_hex, 16).map_err(|_| format!("line {n1}: pc `{pc}` not hex"))?;
        let upc = f
            .next()
            .ok_or_else(|| format!("line {n1}: missing micro-pc field"))?;
        if upc != "0" {
            return Err(format!("line {n1}: micro-pc `{upc}` should be 0"));
        }
        let uid = parse_tick(f.next().unwrap_or(""), "id", n1)?;
        if !seen_ids.insert(uid) {
            return Err(format!("line {n1}: duplicate op id {uid}"));
        }
        let disasm = f.next().unwrap_or("");
        if disasm.is_empty() {
            return Err(format!("line {n1}: empty disassembly"));
        }
        let mut stage = |name: &'static str| -> Result<u64, String> {
            let (m, l) = lines
                .next()
                .ok_or_else(|| format!("record at line {n1}: truncated before {name}"))?;
            let rest = l
                .strip_prefix("O3PipeView:")
                .ok_or_else(|| format!("line {}: expected O3PipeView:{name}, got `{l}`", m + 1))?;
            let rest = rest
                .strip_prefix(name)
                .and_then(|r| r.strip_prefix(':'))
                .ok_or_else(|| format!("line {}: expected stage {name}, got `{l}`", m + 1))?;
            let tick = rest.split(':').next().unwrap_or("");
            parse_tick(tick, name, m + 1)
        };
        let decode = stage("decode")?;
        let rename = stage("rename")?;
        let dispatch = stage("dispatch")?;
        let issue = stage("issue")?;
        let complete = stage("complete")?;
        let retire = stage("retire")?;
        // Reached stages must be in program order (0 = never reached).
        let mut last = fetch;
        for (name, tick) in [
            ("decode", decode),
            ("rename", rename),
            ("dispatch", dispatch),
            ("issue", issue),
            ("complete", complete),
            ("retire", retire),
        ] {
            if tick != 0 {
                if tick < last {
                    return Err(format!(
                        "record at line {n1}: {name} tick {tick} precedes {last}"
                    ));
                }
                last = tick;
            }
        }
        ops += 1;
        if retire == 0 {
            squashed += 1;
        }
    }
    if ops == 0 {
        return Err("trace contains no records".into());
    }
    Ok(TraceSummary { ops, squashed })
}

/// [`check_trace_str`] over a file.
///
/// # Errors
///
/// Returns the I/O or schema error message.
pub fn check_trace_file(path: &std::path::Path) -> Result<TraceSummary, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    check_trace_str(&s).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------- metrics checker

/// Summary returned by a successful [`check_metrics_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSummary {
    /// Total rows.
    pub rows: u64,
    /// Distinct metric names seen.
    pub metrics: Vec<String>,
    /// First and last cycle stamps.
    pub cycle_range: (u64, u64),
}

/// Validates a metrics JSONL file: every line is exactly
/// `{"cycle":N[,"core":C],"metric":"name","value":V}` with non-negative
/// integer cycle/core/value, non-decreasing cycles, and metric names
/// restricted to `[a-z0-9_]`.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_metrics_str(s: &str) -> Result<MetricsSummary, String> {
    let mut names = std::collections::BTreeSet::new();
    let (mut rows, mut first, mut last_cycle) = (0u64, u64::MAX, 0u64);
    for (n, line) in s.lines().enumerate() {
        let row = Row::parse(n, line, |k| {
            ["cycle", "core", "metric", "value"].contains(&k)
        })?;
        let cycle = row.int("cycle")?;
        row.opt_int("core")?;
        row.int("value")?;
        let metric = row.name("metric")?;
        if !metric
            .bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        {
            return Err(row.err("metric name must match [a-z0-9_]+"));
        }
        if cycle < last_cycle {
            return Err(row.err("cycle stamps must be non-decreasing"));
        }
        first = first.min(cycle);
        last_cycle = cycle;
        names.insert(metric.to_string());
        rows += 1;
    }
    if rows == 0 {
        return Err("metrics file contains no rows".into());
    }
    Ok(MetricsSummary {
        rows,
        metrics: names.into_iter().collect(),
        cycle_range: (first, last_cycle),
    })
}

/// One artifact line read by a schema checker: its fields, with typed
/// accessors whose errors name the line.
struct Row<'a> {
    line: (usize, &'a str),
    fields: BTreeMap<String, JsonValue>,
}

impl<'a> Row<'a> {
    /// Parses line `n` (0-based), rejecting keys `known` refuses.
    fn parse(n: usize, line: &'a str, known: impl Fn(&str) -> bool) -> Result<Row<'a>, String> {
        let err = |what: String| format!("line {}: {what} in `{line}`", n + 1);
        let fields = parse_object(line).map_err(|e| err(format!("not a flat JSON object: {e}")))?;
        match fields.keys().find(|k| !known(k)) {
            Some(k) => Err(err(format!("unknown key `{k}`"))),
            None => Ok(Row {
                line: (n + 1, line),
                fields,
            }),
        }
    }

    fn err(&self, what: &str) -> String {
        format!("line {}: {what} in `{}`", self.line.0, self.line.1)
    }

    fn opt_int(&self, key: &str) -> Result<Option<u64>, String> {
        let v = self.fields.get(key);
        v.map(|v| v.as_u64().ok_or_else(|| self.err(&format!("bad {key}"))))
            .transpose()
    }

    fn int(&self, key: &str) -> Result<u64, String> {
        self.opt_int(key)?
            .ok_or_else(|| self.err(&format!("missing {key}")))
    }

    /// A non-empty string field.
    fn name(&self, key: &str) -> Result<&str, String> {
        match self.fields.get(key).map(JsonValue::as_str) {
            None => Err(self.err(&format!("missing {key}"))),
            Some(Some(s)) if !s.is_empty() => Ok(s),
            Some(_) => Err(self.err(&format!("{key} is not a non-empty string"))),
        }
    }
}

/// [`check_metrics_str`] over a file.
///
/// # Errors
///
/// Returns the I/O or schema error message.
pub fn check_metrics_file(path: &std::path::Path) -> Result<MetricsSummary, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    check_metrics_str(&s).map_err(|e| format!("{}: {e}", path.display()))
}

// ----------------------------------------------------------- stacks checker

/// The JSON keys of the 16 CPI-stack categories, in
/// `mi6_core::CpiCategory` order: the one list of category names. A line
/// that carries a stack (grid journal, `--json`, scenario and `mi6-bench`
/// lines) holds one slot count per key next to `cpi_cycles` and
/// `cpi_commit_width`, and the metrics stream uses the same names for
/// its per-window counters.
pub const CPI_KEYS: [&str; 16] = [
    "cpi_base",
    "cpi_idle",
    "cpi_frontend",
    "cpi_exec",
    "cpi_tlb",
    "cpi_mem_l1",
    "cpi_mem_llc",
    "cpi_mem_dram",
    "cpi_mem_pending",
    "cpi_sb_full",
    "cpi_squash_mispredict",
    "cpi_squash_order",
    "cpi_squash_trap",
    "cpi_flush",
    "cpi_mshr_quota_deny",
    "cpi_arb_deny",
];

/// Summary returned by a successful [`check_stacks_str`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StacksSummary {
    /// Total rows.
    pub rows: u64,
    /// Total commit slots across all rows.
    pub total_slots: u64,
}

/// Validates the CPI stack on every line of a JSONL stream: each line is
/// one flat object with integer `cpi_cycles`, `cpi_commit_width` (>= 1)
/// and one integer slot count per [`CPI_KEYS`] entry, no other `cpi_`
/// key, and the sum invariant `sum(slots) == cpi_cycles *
/// cpi_commit_width`, counts that overflow `u64` refused. The line's
/// other keys are not checked.
///
/// # Errors
///
/// Returns a message naming the first offending line.
pub fn check_stacks_str(s: &str) -> Result<StacksSummary, String> {
    let known = |k: &str| {
        !k.starts_with("cpi_")
            || k == "cpi_cycles"
            || k == "cpi_commit_width"
            || CPI_KEYS.contains(&k)
    };
    let (mut rows, mut total_slots) = (0u64, 0u64);
    for (n, line) in s.lines().enumerate() {
        let row = Row::parse(n, line, known)?;
        let (cycles, width) = (row.int("cpi_cycles")?, row.int("cpi_commit_width")?);
        if width == 0 {
            return Err(row.err("cpi_commit_width must be >= 1"));
        }
        // Checked: a file can hold counts whose wrapped sum would match.
        let overflow = || row.err("slot counts overflow u64");
        let mut sum = 0u64;
        for key in CPI_KEYS {
            sum = sum.checked_add(row.int(key)?).ok_or_else(overflow)?;
        }
        let expected = cycles.checked_mul(width).ok_or_else(overflow)?;
        if sum != expected {
            return Err(row.err(&format!(
                "sum invariant violated: slots sum to {sum}, expected cycles*width = {expected}"
            )));
        }
        total_slots = total_slots.checked_add(sum).ok_or_else(overflow)?;
        rows += 1;
    }
    if rows == 0 {
        return Err("stacks file contains no rows".into());
    }
    Ok(StacksSummary { rows, total_slots })
}

/// [`check_stacks_str`] over a file.
///
/// # Errors
///
/// Returns the I/O or schema error message.
pub fn check_stacks_file(path: &std::path::Path) -> Result<StacksSummary, String> {
    let s = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    check_stacks_str(&s).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracer_emits_valid_o3pipeview() {
        let mut t = Tracer::new(0, 1, 0);
        t.start(0, 0x1000, "addi x5, x0, 1".into(), 10, 12);
        t.issue(0, 14);
        t.complete(0, 15);
        t.start(1, 0x1004, "ld x6, 0(x5)".into(), 10, 12);
        t.issue(1, 15);
        t.mem_phase(1, "tlb", 16);
        t.mem_phase(1, "mem", 18);
        t.complete(1, 22);
        t.retire(0, 16);
        t.retire(1, 23);
        // A squashed op that never issued.
        t.start(2, 0x1008, "beq x6, x0, 8".into(), 13, 14);
        t.squash(2);
        let out = t.take();
        let sum = check_trace_str(&out).unwrap();
        assert_eq!(
            sum,
            TraceSummary {
                ops: 3,
                squashed: 1
            }
        );
        assert!(out.contains("ld x6, 0(x5) tlb@16 mem@18"));
        assert_eq!(t.emitted(), 3);
    }

    #[test]
    fn tracer_ignores_unknown_seqs_and_respects_cap() {
        let mut t = Tracer::new(1, 2, 1);
        // Hooks for ops in flight across a restore are silently dropped.
        t.issue(7, 10);
        t.complete(7, 11);
        t.retire(7, 12);
        t.squash(7);
        assert_eq!(t.emitted(), 0);
        t.start(8, 0x2000, "nop".into(), 1, 2);
        t.start(9, 0x2004, "nop".into(), 1, 2);
        t.retire(8, 5);
        t.retire(9, 6);
        assert_eq!(t.emitted(), 2, "both counted");
        let out = t.take();
        assert_eq!(out.matches("O3PipeView:fetch").count(), 1, "cap = 1");
        // Odd uid: core 1 of 2.
        assert!(out.contains(":0:17:nop"), "uid = seq*2+1: {out}");
    }

    /// A squash drops a tail of seqs but the core keeps numbering from
    /// where it left off; the tracer must stay aligned across the gap
    /// and keep emitting for every later rename, retire, and squash.
    #[test]
    fn tracer_survives_post_squash_seq_gaps() {
        let mut t = Tracer::new(0, 1, 0);
        for seq in 0..4 {
            t.start(seq, 0x1000 + seq * 4, "nop".into(), 1, 2);
        }
        // Mispredict at 1: ops 3 and 2 squash (descending walk).
        t.squash(3);
        t.squash(2);
        // Rename resumes at 4 (seqs 2..3 are never reused)...
        t.start(4, 0x2000, "nop".into(), 5, 6);
        t.retire(0, 7);
        t.retire(1, 8);
        t.retire(4, 9);
        // ... and a later squash after another gap still lands.
        t.start(7, 0x3000, "nop".into(), 10, 11);
        t.squash(7);
        let sum = check_trace_str(&t.take()).unwrap();
        assert_eq!(
            sum,
            TraceSummary {
                ops: 6,
                squashed: 3
            }
        );
        assert_eq!(t.emitted(), 6);
    }

    #[test]
    fn metrics_sink_counter_emits_deltas() {
        let mut m = MetricsSink::new();
        m.gauge(100, Some(0), "rob_occ", 12);
        m.counter(100, Some(0), "arb_grants", 5);
        m.counter(200, Some(0), "arb_grants", 9);
        m.counter(200, None, "skipped_cycles", 64);
        let out = m.take();
        assert!(out.contains("{\"cycle\":100,\"core\":0,\"metric\":\"arb_grants\",\"value\":5}"));
        assert!(out.contains("{\"cycle\":200,\"core\":0,\"metric\":\"arb_grants\",\"value\":4}"));
        assert!(out.contains("{\"cycle\":200,\"metric\":\"skipped_cycles\",\"value\":64}"));
        let sum = check_metrics_str(&out).unwrap();
        assert_eq!(sum.rows, 4);
        assert_eq!(sum.cycle_range, (100, 200));
    }

    #[test]
    fn checkers_reject_malformed_input() {
        assert!(check_trace_str("").is_err());
        assert!(check_trace_str("O3PipeView:fetch:100:0x1000:0:1:nop\n").is_err());
        assert!(check_metrics_str("{\"cycle\":1,\"metric\":\"x\"}\n").is_err());
        assert!(check_metrics_str("{\"cycle\":2,\"metric\":\"a\",\"value\":1}\n{\"cycle\":1,\"metric\":\"a\",\"value\":1}\n").is_err());
        assert!(check_metrics_str("{\"cycle\":1,\"metric\":\"BAD\",\"value\":1}\n").is_err());
        // Out-of-order stamps within one record.
        let bad = "O3PipeView:fetch:500:0x1000:0:1:nop\nO3PipeView:decode:400\n\
                   O3PipeView:rename:500\nO3PipeView:dispatch:500\nO3PipeView:issue:0\n\
                   O3PipeView:complete:0\nO3PipeView:retire:0:store:0\n";
        assert!(check_trace_str(bad).is_err());
    }

    /// A flat line with keys the stacks checker ignores around a CPI
    /// stack whose `cpi_base` slot is `base` and every other slot 0.
    fn stack_line(cycles: u64, width: u64, base: u64) -> String {
        let mut w = JsonWriter::default();
        w.str("workload", "gcc")
            .f64("branch_mpki", 13.5)
            .u64("cpi_cycles", cycles)
            .u64("cpi_commit_width", width);
        for (i, key) in CPI_KEYS.iter().enumerate() {
            w.u64(key, if i == 0 { base } else { 0 });
        }
        w.bool("partial", false);
        w.finish()
    }

    #[test]
    fn stacks_checker_reads_the_tail_of_any_line() {
        let doc = format!("{}\n{}\n", stack_line(100, 2, 200), stack_line(50, 4, 200));
        assert_eq!(
            check_stacks_str(&doc).unwrap(),
            StacksSummary {
                rows: 2,
                total_slots: 400,
            }
        );
    }

    #[test]
    fn stacks_checker_rejects_bad_rows() {
        let good = stack_line(10, 2, 20);
        assert!(check_stacks_str(&good).is_ok());
        let refused = |line: &str, why: &str| {
            let e = check_stacks_str(line).unwrap_err();
            assert!(e.contains(why), "{e}");
        };
        refused("", "no rows");
        refused(
            &good.replace(",\"cpi_arb_deny\":0", ""),
            "missing cpi_arb_deny",
        );
        refused(
            &good.replace("\"partial\"", "\"cpi_mystery\""),
            "unknown key `cpi_mystery`",
        );
        refused(&stack_line(10, 0, 0), "cpi_commit_width must be >= 1");
        refused(&stack_line(10, 2, 19), "sum invariant violated");
        // u64::MAX + 1 would wrap to 0 = 0 cycles × width 1.
        let wraps = stack_line(0, 1, u64::MAX).replace("\"cpi_idle\":0", "\"cpi_idle\":1");
        refused(&wraps, "slot counts overflow u64");
    }
}
