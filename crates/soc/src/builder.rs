//! [`SimBuilder`] — the single configuration surface of the simulator.
//!
//! Everything that used to be scattered across `core::config`,
//! `mem::config`, and `soc::variant` is assembled here: a builder owns the
//! [`Variant`] selection, the memory (L1/LLC/DRAM) and security overrides,
//! the supervisor timer interval, and workload placement, and produces a
//! ready-to-run
//! [`Machine`]. Examples, tests, and the experiment harness all construct
//! machines through it; the per-crate config types are implementation
//! details the builder composes.
//!
//! ```
//! use mi6_soc::SimBuilder;
//! use mi6_soc::Variant;
//!
//! let mut machine = SimBuilder::new(Variant::Base)
//!     .cores(2)
//!     .without_timer()
//!     .build()
//!     .unwrap();
//! machine.run_cycles(100);
//! assert_eq!(machine.now(), 100);
//! ```

use crate::loader::{LoadError, Program};
use crate::machine::{Machine, MachineConfig};
use crate::variant::Variant;
use mi6_core::SecurityConfig;
use mi6_mem::MemConfig;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// Error from [`SimBuilder::build`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// A placed workload did not fit its core's physical window.
    Load(LoadError),
    /// An observability output ([`SimBuilder::trace_path`] or
    /// [`SimBuilder::metrics`]) could not be created.
    Io(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Load(e) => write!(f, "loading workload: {e}"),
            BuildError::Io(e) => write!(f, "creating observability output: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<LoadError> for BuildError {
    fn from(e: LoadError) -> BuildError {
        BuildError::Load(e)
    }
}

/// Default cycles between supervisor timer interrupts (calibrated so
/// FLUSH's stall fraction lands near the paper's 0.4 % average, Figure 6).
pub const DEFAULT_TIMER_INTERVAL: u64 = 250_000;

/// Builder for a fully configured, optionally pre-loaded [`Machine`].
///
/// Construction starts from a [`Variant`] (which fixes the paper
/// configuration for core, caches, and security toggles) and layers
/// overrides on top. [`SimBuilder::build`] assembles the machine and loads
/// any placed workloads.
#[derive(Debug)]
pub struct SimBuilder {
    variant: Variant,
    cores: usize,
    timer_interval: u64,
    sec_cfg: Option<SecurityConfig>,
    mem_cfg: Option<MemConfig>,
    programs: Vec<(usize, Program)>,
    cancel: Option<Arc<AtomicBool>>,
    trace_path: Option<PathBuf>,
    trace_limit: u64,
    metrics_path: Option<PathBuf>,
    metrics_every: u64,
}

impl SimBuilder {
    /// Starts a builder for one evaluation variant with a single core and
    /// the default scheduler tick.
    pub fn new(variant: Variant) -> SimBuilder {
        SimBuilder {
            variant,
            cores: 1,
            timer_interval: DEFAULT_TIMER_INTERVAL,
            sec_cfg: None,
            mem_cfg: None,
            programs: Vec::new(),
            cancel: None,
            trace_path: None,
            trace_limit: 0,
            metrics_path: None,
            metrics_every: 0,
        }
    }

    /// Shorthand for `SimBuilder::new(Variant::Base)`.
    pub fn base() -> SimBuilder {
        SimBuilder::new(Variant::Base)
    }

    /// Sets the number of cores (default 1).
    pub fn cores(mut self, n: usize) -> SimBuilder {
        assert!(n >= 1, "a machine needs at least one core");
        self.cores = n;
        self
    }

    /// Sets the supervisor timer interval in cycles (0 disables it).
    pub fn timer_interval(mut self, interval: u64) -> SimBuilder {
        self.timer_interval = interval;
        self
    }

    /// Disables timer interrupts (purely syscall-driven runs).
    pub fn without_timer(self) -> SimBuilder {
        self.timer_interval(0)
    }

    /// Replaces the security toggles (default: the variant's).
    pub fn security_config(mut self, cfg: SecurityConfig) -> SimBuilder {
        self.sec_cfg = Some(cfg);
        self
    }

    /// Tweaks the memory configuration in place, starting from whatever
    /// the variant (or a previous override) established. This is how the
    /// LLC ablation golden test toggles individual Figure-3 mechanisms
    /// that the named variants bundle together.
    pub fn tune_mem(mut self, f: impl FnOnce(&mut MemConfig)) -> SimBuilder {
        let mut cfg = self
            .mem_cfg
            .unwrap_or_else(|| self.variant.mem_config(self.cores));
        f(&mut cfg);
        self.mem_cfg = Some(cfg);
        self
    }

    /// Places a user program on core `core`; it is loaded by
    /// [`SimBuilder::build`].
    pub fn workload(mut self, core: usize, program: Program) -> SimBuilder {
        self.programs.push((core, program));
        self
    }

    /// Installs a cooperative cancellation flag: while the machine runs
    /// (`run_to_completion` or `step_slice`), the flag is polled every few
    /// thousand cycles, and raising it makes the run return
    /// [`crate::RunError::Cancelled`] instead of simulating on. The grid
    /// driver hands every machine the same flag, so a deadline
    /// interrupts in-flight simulations mid-machine, not just between
    /// points.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> SimBuilder {
        self.cancel = Some(flag);
        self
    }

    /// Writes an instruction lifecycle trace (O3PipeView format, loadable
    /// in Konata) to `path` while the machine runs. Per-op per-stage cycle
    /// stamps are buffered in each core and drained to the file in bulk;
    /// tracing is runtime-only and never affects simulated timing or
    /// snapshot bytes.
    pub fn trace_path(mut self, path: impl Into<PathBuf>) -> SimBuilder {
        self.trace_path = Some(path.into());
        self
    }

    /// Caps the number of retired/squashed ops emitted per core to the
    /// trace file (0 = unlimited, the default). Ops past the cap are
    /// still counted but not written, bounding trace size on long runs.
    pub fn trace_limit(mut self, ops: u64) -> SimBuilder {
        self.trace_limit = ops;
        self
    }

    /// Samples microarchitectural occupancy metrics (ROB/IQ/SB, MSHRs,
    /// LLC queues, arbiter grants, DRAM region activity, ...) every
    /// `every` cycles into `path` as JSONL rows keyed
    /// `(cycle, core, metric)`. Sampling is runtime-only: it never
    /// affects simulated timing or snapshot bytes.
    pub fn metrics(mut self, path: impl Into<PathBuf>, every: u64) -> SimBuilder {
        assert!(every > 0, "metrics sampling interval must be positive");
        self.metrics_path = Some(path.into());
        self.metrics_every = every;
        self
    }

    /// Assembles the machine and loads every placed workload. A warm
    /// start restores into the built machine afterwards
    /// ([`Machine::restore`] / [`Machine::restore_forked`]).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Load`] if a placed program exceeds its
    /// core's physical window or page-table space, and
    /// [`BuildError::Io`] when a trace or metrics file cannot be created.
    pub fn build(self) -> Result<Machine, BuildError> {
        let cfg = MachineConfig {
            variant: self.variant,
            cores: self.cores,
            timer_interval: self.timer_interval,
        };
        let mem_cfg = self
            .mem_cfg
            .unwrap_or_else(|| self.variant.mem_config(self.cores));
        let sec_cfg = self
            .sec_cfg
            .unwrap_or_else(|| self.variant.security_config());
        let mut machine = Machine::assemble(cfg, self.variant.core_config(), sec_cfg, mem_cfg);
        for (core, program) in &self.programs {
            machine.load_user_program(*core, program)?;
        }
        machine.set_cancel_flag(self.cancel);
        machine
            .set_observability(
                self.trace_path.as_deref(),
                self.trace_limit,
                self.metrics_path.as_deref(),
                self.metrics_every,
            )
            .map_err(BuildError::Io)?;
        Ok(machine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mi6_mem::{LlcIndexing, MshrOrg};

    #[test]
    fn builder_defaults_match_variant() {
        let m = SimBuilder::new(Variant::Fpma).build().unwrap();
        assert_eq!(m.config().variant, Variant::Fpma);
        assert_eq!(m.config().cores, 1);
        assert_eq!(m.config().timer_interval, DEFAULT_TIMER_INTERVAL);
        assert_eq!(
            m.mem().config().llc.indexing,
            LlcIndexing::Partitioned { region_bits: 2 }
        );
        assert!(m.core(0).security().flush_on_trap);
    }

    #[test]
    fn tune_mem_layers_on_variant_config() {
        let m = SimBuilder::base()
            .tune_mem(|mem| {
                mem.llc.mshrs = MshrOrg::Banked {
                    total: 12,
                    banks: 4,
                }
            })
            .tune_mem(|mem| mem.llc.pipeline_latency += 8)
            .build()
            .unwrap();
        let llc = m.mem().config().llc;
        assert_eq!(
            llc.mshrs,
            MshrOrg::Banked {
                total: 12,
                banks: 4
            }
        );
        assert_eq!(llc.pipeline_latency, 16);
    }

    #[test]
    fn uncreatable_trace_path_is_io_error() {
        let err = SimBuilder::base()
            .trace_path("/nonexistent/mi6.trace")
            .build()
            .unwrap_err();
        assert!(matches!(err, BuildError::Io(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.starts_with("creating observability output: /nonexistent/mi6.trace: "),
            "{msg}"
        );
    }

    #[test]
    fn cancel_flag_interrupts_a_run() {
        use crate::loader;
        use crate::machine::RunError;
        use mi6_isa::{Assembler, Inst, Reg};
        // A long-spinning user program stands in for a grid point.
        let mut asm = Assembler::new(loader::CODE_VA);
        asm.li(Reg::S1, 10_000_000);
        let top = asm.here();
        asm.push(Inst::addi(Reg::S1, Reg::S1, -1));
        asm.bnez(Reg::S1, top);
        asm.li(Reg::A7, crate::kernel::sys::EXIT);
        asm.push(Inst::Ecall);
        let spin = Program {
            name: "spin".into(),
            code: asm.assemble().expect("assembles"),
            data_size: 4096,
            data_init: vec![],
            stack_size: 4096,
        };
        let flag = Arc::new(AtomicBool::new(false));
        let mut m = SimBuilder::base()
            .without_timer()
            .workload(0, spin)
            .cancel_flag(Arc::clone(&flag))
            .build()
            .unwrap();
        // Not raised: runs normally.
        m.run_cycles(10_000);
        assert!(!m.all_halted());
        flag.store(true, std::sync::atomic::Ordering::SeqCst);
        let err = m.run_to_completion(1_000_000_000).unwrap_err();
        assert!(matches!(err, RunError::Cancelled { .. }), "{err}");
        // The machine stopped within one poll window of where it was.
        assert!(m.now() < 10_000 + 5_000, "stopped late: {}", m.now());
    }

    #[test]
    fn multi_core_secure_build() {
        let m = SimBuilder::new(Variant::SecureMi6)
            .cores(2)
            .build()
            .unwrap();
        assert_eq!(m.config().cores, 2);
        assert!(m.core(1).security().region_checks);
    }
}
