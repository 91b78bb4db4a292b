//! In-tree lap profiler: wall-time attribution per `Core::tick` sub-stage.
//!
//! Compiled in by the non-default `lap-profile` feature. When enabled,
//! [`crate::Core::tick`] reads a monotonic timestamp after every
//! sub-stage and accumulates the deltas into [`crate::Core::lap`], so
//! `mi6-bench --profile` can answer "which pipeline stage is the host
//! hot loop actually spending its time in?" without an external
//! profiler.
//!
//! The timers cost roughly ten `Instant::now()` reads per core-cycle,
//! which inflates wall time substantially — profile numbers are for
//! *relative attribution within one build*, never for cross-commit
//! comparison. Perf A/B runs must use the default feature set (the
//! [`LAP_COMPILED`] constant lets tools refuse `--profile` on a build
//! without the timers instead of silently reporting zeros).
//!
//! The accumulator is runtime-only host state: it is never serialized
//! into snapshots and has no effect on simulated timing.

/// Stage labels, indexed by the [`slot`] constants. `collect` is the
/// tick preamble (timer CSRs + completion collection), `purge` the
/// whole-pipeline purge sequencer; the rest match the sub-tick methods.
pub const LAP_STAGES: [&str; 10] = [
    "collect",
    "purge",
    "commit",
    "writeback",
    "mem_ops",
    "walker",
    "issue",
    "rename",
    "fetch",
    "store_buffer",
];

/// Index of each stage in [`LapProfile::nanos`].
pub mod slot {
    pub const COLLECT: usize = 0;
    pub const PURGE: usize = 1;
    pub const COMMIT: usize = 2;
    pub const WRITEBACK: usize = 3;
    pub const MEM_OPS: usize = 4;
    pub const WALKER: usize = 5;
    pub const ISSUE: usize = 6;
    pub const RENAME: usize = 7;
    pub const FETCH: usize = 8;
    pub const STORE_BUFFER: usize = 9;
}

/// Whether this build carries the lap timers (`--features lap-profile`).
/// Without them every [`LapProfile`] stays zero.
pub const LAP_COMPILED: bool = cfg!(feature = "lap-profile");

/// Accumulated host nanoseconds per pipeline sub-stage of one core.
#[derive(Clone, Copy, Debug, Default)]
pub struct LapProfile {
    /// Nanoseconds per stage, indexed by [`slot`] / labelled by
    /// [`LAP_STAGES`].
    pub nanos: [u64; LAP_STAGES.len()],
}

impl LapProfile {
    /// Total attributed nanoseconds across all stages.
    pub fn total(&self) -> u64 {
        self.nanos.iter().sum()
    }
}
