//! # mi6-grid
//!
//! Sharded, resumable experiment orchestration. The evaluation is a large
//! variant×workload×seed grid; this crate holds everything needed to run
//! that grid across worker threads, OS processes, and hosts with no
//! coordination beyond a shared directory of JSON-lines shard files:
//!
//! - [`plan`] — the deterministic shard planner: every grid point has a
//!   canonical key string, and a stable hash assigns each key to shard
//!   `i` of `N`. Any set of hosts that covers `0/N .. N-1/N` covers the
//!   grid exactly once, with no scheduler process anywhere.
//! - [`driver`] — the one executor: K worker threads, each claiming the
//!   next task and stepping it to its end, with a cooperative cancel flag
//!   and an optional deadline that cancels in-flight work so a shard can
//!   stop cleanly and resume later.
//! - [`journal`] — the resumable shard journal: one JSONL file per shard,
//!   appended line-by-line as points complete; restarting a shard reads
//!   the journal back and skips finished points (a torn trailing line
//!   from a kill is detected and recomputed).
//! - [`merge`] — coverage validation for merging shard files: every
//!   expected point exactly once, with missing and duplicated points as
//!   hard errors.
//!
//! The crate is deliberately generic — it knows nothing about machines,
//! variants, or workloads. `mi6-bench` supplies the point type, the key
//! function, the tasks, and the journal lines (written and read through
//! `mi6_obs::json`).

pub mod driver;
pub mod journal;
pub mod merge;
pub mod plan;

pub use driver::{DriverOutcome, MachineDriver, SliceTask, Step, WorkerCtx};
pub use journal::Journal;
pub use merge::{validate_coverage, Coverage};
pub use plan::{shard_of, ShardSpec};
