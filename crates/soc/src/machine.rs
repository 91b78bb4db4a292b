//! The assembled machine: cores + memory hierarchy + toy OS.
//!
//! [`Machine`] is the top-level simulation object the examples, the
//! experiment harness, and the security tests drive. It instantiates one
//! of the evaluation [`Variant`]s, installs the machine-mode stub and the
//! supervisor kernel, loads user programs behind per-core page tables,
//! and ticks cores and memory in lock step until the programs exit.

use crate::kernel::{self, kdata_base, KERNEL_BASE, M_STUB_BASE};
use crate::loader::{self, FrameAllocator, LoadError, Program, UserImage};
use crate::variant::Variant;
use mi6_core::{Core, CoreStats, CpiCategory, CpiStack};
use mi6_isa::{Exception, Interrupt, PhysAddr, PrivLevel};
use mi6_mem::{L1Stats, LlcStats, MemSystem, Port, RegionBitvec, RegionId};
use std::fmt;

/// Machine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Which evaluation variant to build.
    pub variant: Variant,
    /// Number of cores.
    pub cores: usize,
    /// Cycles between supervisor timer interrupts (0 disables the timer).
    pub timer_interval: u64,
}

/// Error from [`Machine::run_to_completion`].
#[derive(Clone, Debug)]
pub enum RunError {
    /// The cycle cap was reached before all cores halted.
    Timeout {
        /// Cycles executed.
        cycles: u64,
    },
    /// The cancel flag ([`crate::SimBuilder::cancel_flag`]) was raised
    /// mid-run.
    Cancelled {
        /// Machine cycle at which the cancellation was observed.
        at_cycle: u64,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Timeout { cycles } => {
                write!(f, "machine did not halt within {cycles} cycles")
            }
            RunError::Cancelled { at_cycle } => {
                write!(f, "run cancelled at cycle {at_cycle}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Outcome of one [`Machine::step_slice`] call.
///
/// The first three variants are terminal for the run; the last two mean
/// the machine is resumable — call `step_slice` again to continue.
#[derive(Clone, Debug)]
pub enum SliceOutcome {
    /// Every core halted; the run is complete.
    Completed(MachineStats),
    /// The run deadline set by [`Machine::begin_run`] was reached before
    /// all cores halted (the slice-level analogue of
    /// [`RunError::Timeout`]).
    TimedOut {
        /// Machine cycle at which the deadline was observed.
        at_cycle: u64,
    },
    /// The cancel flag was observed raised at a poll boundary.
    Cancelled {
        /// Machine cycle at which the cancellation was observed.
        at_cycle: u64,
    },
    /// The slice's cycle budget ran out while the machine was still busy.
    /// Resume with any budget; work continues at `at_cycle`.
    BudgetExhausted {
        /// Machine cycle the slice stopped at (`now()`).
        at_cycle: u64,
    },
    /// The machine is provably inert until `until_cycle` and the jump
    /// there would overshoot this slice's budget. The clock was *not*
    /// advanced: the caller should park the machine and resume it with a
    /// budget of at least `until_cycle - now()` so the skip happens as
    /// one jump, exactly as an unsliced run would perform it.
    /// `until_cycle == u64::MAX` means inert pending external input.
    Blocked {
        /// First future cycle at which any component could do work
        /// (already capped to the run deadline and any metrics-sampling
        /// boundary).
        until_cycle: u64,
    },
}

/// Aggregated statistics after a run.
#[derive(Clone, Debug, Default)]
pub struct MachineStats {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Cycles this process actually ticked (a runtime counter, not part
    /// of snapshots: a restored machine restarts it at zero). The rest
    /// of `cycles` was fast-forwarded by the idle skip — or, after a
    /// restore, inherited from the snapshot's warm prefix.
    pub cycles_ticked: u64,
    /// Per-core pipeline counters.
    pub core: Vec<CoreStats>,
    /// Per-core CPI stacks (commit-slot attribution plus structural
    /// pressure counters). Runtime-only like `cycles_ticked`: a restored
    /// machine restarts the stack at zero, and each stack's own `cycles`
    /// counter covers exactly the slots it accounted.
    pub cpi: Vec<CpiStack>,
    /// Per-core L1 instruction cache counters.
    pub l1i: Vec<L1Stats>,
    /// Per-core L1 data cache counters.
    pub l1d: Vec<L1Stats>,
    /// Shared LLC counters.
    pub llc: LlcStats,
    /// DRAM (reads, writes, backpressure events).
    pub dram: (u64, u64, u64),
}

impl MachineStats {
    /// LLC misses per thousand committed instructions on core 0
    /// (the Figure 9 metric).
    pub fn llc_mpki(&self) -> f64 {
        let inst = self
            .core
            .first()
            .map(|c| c.committed_instructions)
            .unwrap_or(0);
        if inst == 0 {
            return 0.0;
        }
        self.llc.misses as f64 * 1000.0 / inst as f64
    }

    /// Branch MPKI on core 0 (the Figure 7 metric).
    pub fn branch_mpki(&self) -> f64 {
        self.core
            .first()
            .map(|c| c.mispredicts_per_kinst())
            .unwrap_or(0.0)
    }
}

/// Per-core spacing of the physical windows handed to user programs.
///
/// The stride is 17 DRAM regions (17 × 32 MiB), *not* a power of two:
/// PART's set partitioning keys on the low `region_bits` of the region
/// ID, so a 16-region stride would land every core's window in the same
/// LLC partition and multi-core runs would get no cross-core set
/// isolation at all. A 17-region stride walks core `c` to region `17c`,
/// spreading cores across partitions exactly as the monitor's region
/// allocator would.
const USER_PHYS_BASE: u64 = 0x0100_0000; // 16 MiB
const USER_PHYS_STRIDE: u64 = 17 * 0x0200_0000; // 544 MiB per core
const TABLE_BASE: u64 = 0x0020_0000; // 2 MiB
const TABLE_STRIDE: u64 = 0x0010_0000; // 1 MiB of tables per core

/// The simulated machine.
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    mem: MemSystem,
    now: u64,
    /// Real `tick()` calls executed (runtime-only, never snapshotted):
    /// `now - ticks` is the number of fast-forwarded cycles, which tests
    /// use to prove the idle-skip actually engaged.
    ticks: u64,
    loaded: Vec<Option<UserImage>>,
    /// Cooperative cancellation flag, polled by [`Machine::run_to_completion`]
    /// every [`CANCEL_POLL_MASK`]+1 cycles (builder knob; runtime-only,
    /// never snapshotted).
    cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Observability session (builder knobs; runtime-only, never
    /// snapshotted — enabling it cannot change snapshot bytes).
    obs: Option<Box<ObsState>>,
    /// Absolute cycle the current run times out at, set by
    /// [`Machine::begin_run`] (runtime-only, never snapshotted).
    deadline: u64,
    /// Next cycle the idle-skip inertness probe is allowed to run
    /// (runtime-only). Lives on the machine rather than the run loop so
    /// the tick/skip decision sequence — and therefore `ticks` — is
    /// independent of where slice boundaries fall.
    probe_at: u64,
    /// Current exponential probe backoff (runtime-only; see `probe_at`).
    probe_backoff: u64,
}

/// Trace and metrics outputs attached to a machine. All measurement-only:
/// the per-core [`mi6_obs::Tracer`]s live on the cores and buffer
/// O3PipeView lines which [`Machine::tick`] drains into `trace`; the
/// metrics sampler reads occupancy/flow probes every
/// [`MetricsState::every`] cycles.
#[derive(Debug)]
struct ObsState {
    /// Konata/O3PipeView trace output (tracing enabled iff `Some`).
    trace: Option<std::io::BufWriter<std::fs::File>>,
    /// Metrics sampler (sampling enabled iff `Some`).
    metrics: Option<MetricsState>,
    /// Reusable buffer for per-core MSHR occupancy sampling.
    scratch: Vec<u64>,
}

/// The time-series metrics half of an observability session.
#[derive(Debug)]
struct MetricsState {
    sink: mi6_obs::MetricsSink,
    out: std::io::BufWriter<std::fs::File>,
    /// Sampling period in cycles (always > 0).
    every: u64,
}

/// Tracer line buffers are drained to the file once they exceed this many
/// bytes (and unconditionally by [`Machine::flush_observability`]).
const TRACE_DRAIN_BYTES: usize = 64 * 1024;

/// `run_to_completion` polls the cancel flag whenever
/// `now & CANCEL_POLL_MASK == 0`: every 4096 cycles, frequent enough that
/// a cancelled grid point stops within microseconds of host time, rare
/// enough to stay invisible in the simulation hot loop.
const CANCEL_POLL_MASK: u64 = 0xFFF;

impl Machine {
    /// Assembles a machine from fully resolved component configurations
    /// (the [`crate::SimBuilder`] backend: variant defaults plus any
    /// overrides have already been folded into the explicit configs).
    pub(crate) fn assemble(
        cfg: MachineConfig,
        core_cfg: mi6_core::CoreConfig,
        sec_cfg: mi6_core::SecurityConfig,
        mem_cfg: mi6_mem::MemConfig,
    ) -> Machine {
        assert!(cfg.cores >= 1);
        let mut mem = MemSystem::new(mem_cfg, cfg.cores);
        mem.phys
            .load_words(PhysAddr::new(M_STUB_BASE), &kernel::build_m_stub());
        let interval = if cfg.timer_interval == 0 {
            u64::MAX / 2
        } else {
            cfg.timer_interval
        };
        mem.phys
            .load_words(PhysAddr::new(KERNEL_BASE), &kernel::build_kernel(interval));
        let cores = (0..cfg.cores)
            .map(|i| Core::new(i, core_cfg, sec_cfg))
            .collect();
        Machine {
            cfg,
            cores,
            mem,
            now: 0,
            ticks: 0,
            loaded: vec![None; cfg.cores],
            cancel: None,
            obs: None,
            deadline: u64::MAX,
            probe_at: 0,
            probe_backoff: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Real `tick()` calls executed so far (runtime-only; not restored by
    /// snapshots). `now() - ticks()` cycles were fast-forwarded by the
    /// event-driven idle-skip.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Access to a core (e.g. for CSR inspection in tests).
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable access to a core.
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Access to the memory system.
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable access to the memory system.
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// The physical window `[base, limit)` used for core `i`'s user pages.
    pub fn user_phys_window(core: usize) -> (u64, u64) {
        let base = USER_PHYS_BASE + core as u64 * USER_PHYS_STRIDE;
        (base, base + USER_PHYS_STRIDE - USER_PHYS_BASE)
    }

    /// Loads a user program onto core `i` (the toy OS's `execve`) and
    /// points the core at its entry in user mode.
    ///
    /// # Errors
    ///
    /// Returns [`LoadError`] if the program exceeds the core's physical
    /// window or page-table space.
    pub fn load_user_program(&mut self, i: usize, program: &Program) -> Result<(), LoadError> {
        let (phys_base, phys_limit) = Machine::user_phys_window(i);
        let mut frames = FrameAllocator::new(phys_base, phys_limit - phys_base);
        let image = loader::load_program(
            &mut self.mem.phys,
            program,
            TABLE_BASE + i as u64 * TABLE_STRIDE,
            TABLE_STRIDE,
            &mut frames,
            &kernel::kernel_pages(self.cfg.cores),
        )?;
        let interval = self.cfg.timer_interval;
        let core = &mut self.cores[i];
        core.csrs = mi6_isa::csr::CsrFile::new();
        core.csrs.satp = image.satp;
        core.csrs.stvec = KERNEL_BASE;
        core.csrs.mtvec = M_STUB_BASE;
        core.csrs.sscratch = kdata_base(i);
        // Delegate user-visible traps and the supervisor timer to S-mode.
        core.csrs.medeleg = (1 << Exception::EcallFromUser.code())
            | (1 << Exception::Breakpoint.code())
            | (1 << Exception::InstPageFault.code())
            | (1 << Exception::LoadPageFault.code())
            | (1 << Exception::StorePageFault.code())
            | (1 << Exception::LoadMisaligned.code())
            | (1 << Exception::StoreMisaligned.code())
            | (1 << Exception::InstMisaligned.code());
        core.csrs.mideleg = 1 << Interrupt::SupervisorTimer.code();
        core.csrs.mie = 1 << Interrupt::SupervisorTimer.code();
        core.csrs.stimecmp = if interval == 0 {
            u64::MAX
        } else {
            self.now + interval
        };
        // MI6 hardware state: region bitvector and monitor fetch window.
        Machine::install_security_csrs(core, &self.mem, phys_base, &image);
        core.regs = [0; 32];
        core.regs[mi6_isa::Reg::SP.index() as usize] = image.sp;
        core.halted = false;
        core.reset_to(image.entry, PrivLevel::User);
        self.loaded[i] = Some(image);
        Ok(())
    }

    /// Programs the MI6 security CSRs of one core for a loaded image:
    /// the DRAM-region bitvector covering the kernel (region 0) plus the
    /// image's physical range, and the monitor fetch window. No-ops for
    /// toggles the core's security configuration leaves off. Called at
    /// program load and again after a cross-variant restore (the
    /// snapshot's CSRs reflect the *source* variant's toggles — e.g. a
    /// BASE warm-up leaves `mregions` fully permissive, which would
    /// silently disable a forked MI6 machine's region checks).
    fn install_security_csrs(core: &mut Core, mem: &MemSystem, phys_base: u64, image: &UserImage) {
        if core.security().region_checks {
            let map = mem.region_map();
            let mut bv = RegionBitvec::none();
            // Kernel + tables live below USER_PHYS_BASE: region 0.
            bv.allow(RegionId(0));
            let mut pa = phys_base;
            while pa < image.phys_end.max(phys_base + 1) {
                bv.allow(map.region_of(PhysAddr::new(pa)));
                pa += map.region_bytes();
            }
            bv.allow(map.region_of(PhysAddr::new(image.phys_end.saturating_sub(1))));
            core.csrs.mregions = bv.0;
        }
        if core.security().machine_mode_guard {
            core.csrs.mfetchbase = M_STUB_BASE;
            core.csrs.mfetchbound = KERNEL_BASE; // the stub only
        }
    }

    /// Advances the whole machine one cycle.
    pub fn tick(&mut self) {
        for core in &mut self.cores {
            core.tick(self.now, &mut self.mem);
        }
        self.mem.tick(self.now);
        self.now += 1;
        self.ticks += 1;
        if self.obs.is_some() {
            self.obs_after_tick();
        }
    }

    /// Post-tick observability work: drain tracer buffers that grew past
    /// the drain threshold and take a metrics sample when a sampling
    /// boundary was crossed. Off the hot path — [`Machine::tick`] only
    /// enters when an observability session exists.
    fn obs_after_tick(&mut self) {
        self.drain_traces(false);
        if self
            .metrics_every()
            .is_some_and(|every| self.now.is_multiple_of(every))
        {
            self.sample_metrics();
        }
    }

    /// The metrics sampling period, when sampling is on.
    fn metrics_every(&self) -> Option<u64> {
        Some(self.obs.as_ref()?.metrics.as_ref()?.every)
    }

    /// Appends buffered tracer lines to the trace file. Unless `force`,
    /// only buffers past [`TRACE_DRAIN_BYTES`] are drained, so the
    /// per-cycle cost is a length check per core.
    fn drain_traces(&mut self, force: bool) {
        use std::io::Write;
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        let Some(out) = &mut obs.trace else {
            return;
        };
        for core in &mut self.cores {
            if let Some(t) = core.tracer.as_deref_mut() {
                if t.pending() > 0 && (force || t.pending() >= TRACE_DRAIN_BYTES) {
                    out.write_all(t.take().as_bytes()).expect("trace write");
                }
            }
        }
    }

    /// Takes one metrics sample at the current cycle and appends the rows
    /// to the metrics file.
    fn sample_metrics(&mut self) {
        let Some(mut obs) = self.obs.take() else {
            return;
        };
        if let Some(m) = obs.metrics.as_mut() {
            self.sample_into(m, &mut obs.scratch);
        }
        self.obs = Some(obs);
    }

    /// Writes one sample into the sink: per-core pipeline occupancy and
    /// stall/flow counters, LLC MSHR occupancy vs quota, queue depths,
    /// arbiter grants/denials, DRAM totals and per-region activity, and
    /// the ticked/fast-forwarded cycle split.
    fn sample_into(&self, m: &mut MetricsState, scratch: &mut Vec<u64>) {
        use std::io::Write;
        let cycle = self.now;
        let sink = &mut m.sink;
        for (i, core) in self.cores.iter().enumerate() {
            let (rob, iq, lq, sq, sb) = core.occupancy();
            let c = Some(i);
            sink.gauge(cycle, c, "rob_occupancy", rob as u64);
            sink.gauge(cycle, c, "iq_occupancy", iq as u64);
            sink.gauge(cycle, c, "lq_occupancy", lq as u64);
            sink.gauge(cycle, c, "sq_occupancy", sq as u64);
            sink.gauge(cycle, c, "sb_occupancy", sb as u64);
            sink.counter(cycle, c, "committed", core.stats.committed_instructions);
            sink.counter(cycle, c, "stall_rob_full", core.cpi.rename_rob_full);
            sink.counter(cycle, c, "stall_iq_full", core.cpi.rename_iq_full);
            sink.counter(cycle, c, "stall_lq_full", core.cpi.rename_lq_full);
            sink.counter(cycle, c, "stall_sq_full", core.cpi.rename_sq_full);
            sink.counter(cycle, c, "stall_sb_full", core.cpi.commit_sb_full);
            // CPI-stack slot counters: the sink emits deltas, so each
            // sample window carries its own slot attribution.
            for cat in CpiCategory::ALL {
                sink.counter(cycle, c, cat.metric_name(), core.cpi.get(cat));
            }
        }
        // LLC MSHR occupancy vs the per-core quota.
        self.mem.mshr_occupancy(scratch);
        for (i, &occ) in scratch.iter().enumerate() {
            sink.gauge(cycle, Some(i), "mshr_occupancy", occ);
        }
        sink.gauge(cycle, None, "mshr_quota", self.mem.mshr_quota_per_core());
        // Queue depths: LLC internals plus each core's request link.
        let (pipe, dq, uq) = self.mem.llc_queue_depths();
        sink.gauge(cycle, None, "llc_pipe_depth", pipe as u64);
        sink.gauge(cycle, None, "llc_dq_depth", dq as u64);
        sink.gauge(cycle, None, "llc_uq_depth", uq as u64);
        for i in 0..self.cfg.cores {
            let (up_req, _, _) = self.mem.link_depths(i);
            sink.gauge(cycle, Some(i), "link_up_req_depth", up_req as u64);
        }
        // Arbiter flow and per-region DRAM activity (the region index
        // rides in the `core` field; the metric name disambiguates).
        if let Some(mo) = self.mem.obs() {
            for (i, (&g, &d)) in mo.arb_grants.iter().zip(&mo.arb_denials).enumerate() {
                sink.counter(cycle, Some(i), "arb_grants", g);
                sink.counter(cycle, Some(i), "arb_denials", d);
            }
            for (r, &reads) in mo.dram_region_reads.iter().enumerate() {
                if reads > 0 {
                    sink.counter(cycle, Some(r), "dram_region_reads", reads);
                }
            }
            for (r, &writes) in mo.dram_region_writes.iter().enumerate() {
                if writes > 0 {
                    sink.counter(cycle, Some(r), "dram_region_writes", writes);
                }
            }
        }
        let (reads, writes, _) = self.mem.dram_stats();
        sink.gauge(
            cycle,
            None,
            "dram_inflight",
            self.mem.dram_inflight() as u64,
        );
        sink.counter(cycle, None, "dram_reads", reads);
        sink.counter(cycle, None, "dram_writes", writes);
        // Ticked vs fast-forwarded cycles: idle-skip spans show up as
        // windows where `cycles_skipped` dominates.
        sink.counter(cycle, None, "cycles_ticked", self.ticks);
        sink.counter(cycle, None, "cycles_skipped", self.now - self.ticks);
        let rows = m.sink.take();
        m.out.write_all(rows.as_bytes()).expect("metrics write");
    }

    /// Drains every tracer buffer and pending metrics rows to their files
    /// and flushes both. Called automatically at the end of
    /// [`Machine::run_to_completion`]; callers driving
    /// [`Machine::tick`]/[`Machine::run_cycles`] directly should call it
    /// when done.
    pub fn flush_observability(&mut self) {
        use std::io::Write;
        self.drain_traces(true);
        let Some(obs) = self.obs.as_deref_mut() else {
            return;
        };
        if let Some(out) = &mut obs.trace {
            out.flush().expect("trace flush");
        }
        if let Some(m) = &mut obs.metrics {
            let rows = m.sink.take();
            m.out.write_all(rows.as_bytes()).expect("metrics write");
            m.out.flush().expect("metrics flush");
        }
    }

    /// Runs for `cycles` cycles (or until every core halts).
    pub fn run_cycles(&mut self, cycles: u64) {
        let end = self.now + cycles;
        while self.now < end && !self.all_halted() {
            self.tick();
        }
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.cores.iter().all(|c| c.halted)
    }

    /// Runs until every core halts.
    ///
    /// A thin loop over [`Machine::begin_run`] and
    /// [`Machine::step_slice`] with an unbounded slice budget — the
    /// sliced path *is* the one-shot path.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Timeout`] if the machine has not halted after
    /// `max_cycles`, and [`RunError::Cancelled`] if its cancel flag was
    /// raised first.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> Result<MachineStats, RunError> {
        self.begin_run(max_cycles);
        loop {
            match self.step_slice(u64::MAX) {
                SliceOutcome::Completed(stats) => return Ok(stats),
                SliceOutcome::TimedOut { .. } => {
                    return Err(RunError::Timeout { cycles: max_cycles });
                }
                SliceOutcome::Cancelled { at_cycle } => {
                    return Err(RunError::Cancelled { at_cycle });
                }
                // Unreachable with an unbounded budget (`Blocked` only
                // fires when a skip would overshoot the slice), but
                // harmless: just keep stepping.
                SliceOutcome::BudgetExhausted { .. } | SliceOutcome::Blocked { .. } => {}
            }
        }
    }

    /// Arms a run: the machine will time out `max_cycles` from now, and
    /// the idle-skip probe state is reset exactly as a fresh
    /// `run_to_completion` call would. Call once before a `step_slice`
    /// sequence; `run_to_completion` calls it for you.
    pub fn begin_run(&mut self, max_cycles: u64) {
        self.deadline = self.now.saturating_add(max_cycles);
        self.probe_at = self.now;
        self.probe_backoff = 0;
    }

    /// Advances the machine by at most `budget` cycles of simulated time
    /// and reports why it stopped.
    ///
    /// This is the run loop, made resumable: calling it repeatedly with
    /// any positive budgets performs the *identical* sequence of ticks
    /// and idle-skip jumps as one call with an unbounded budget, so
    /// sliced runs are bit-exact with one-shot runs (same `ticks()`,
    /// same stats, same snapshot bytes). Three things make that hold:
    ///
    /// - the probe/backoff state persists on the machine across slices,
    ///   so slice boundaries cannot reset the probe cadence;
    /// - an idle-skip jump is never split: a skip whose (metrics-capped)
    ///   target overshoots the slice returns [`SliceOutcome::Blocked`]
    ///   *without advancing the clock*, and the resumed slice performs
    ///   the whole jump;
    /// - the cancel poll keys on `now & CANCEL_POLL_MASK`, which is a
    ///   function of simulated time only (re-entering a slice at an
    ///   already-polled cycle re-reads the flag, which has no simulated
    ///   effect).
    ///
    /// Terminal outcomes (`Completed` / `TimedOut` / `Cancelled`) flush
    /// observability sinks; resumable ones do not. Periodic checkpoints
    /// are a caller loop: step slices and call [`Machine::snapshot`] at
    /// the stops — the bytes equal a tick-every-cycle run's at the same
    /// cycle, because [`Core::note_skipped_cycles`] settles the one
    /// per-cycle register (`csrs.cycle`) a real tick would have written.
    pub fn step_slice(&mut self, budget: u64) -> SliceOutcome {
        // Event-driven idle-skip: when every core is provably stalled on
        // known-time events (DRAM returns, link FIFO arrivals, pipeline
        // exits, the timer), jump the clock straight to the next event
        // instead of ticking empty stages.
        //
        // The inertness proof itself walks every core's in-flight state,
        // which is pure overhead while the machine is busy — so failed
        // probes back off exponentially (capped). This only delays when a
        // skip *starts*, never whether one is sound, so it cannot change
        // simulated timing: detection lags an inert window by at most
        // 2x the preceding busy stretch (classic doubling argument),
        // which keeps long DRAM-miss windows almost fully skipped while
        // busy phases pay ~1/64th of the probe cost.
        let slice_end = self.now.saturating_add(budget.max(1));
        while !self.all_halted() {
            if self.now >= self.deadline {
                self.flush_observability();
                return SliceOutcome::TimedOut { at_cycle: self.now };
            }
            if self.now & CANCEL_POLL_MASK == 0 {
                if let Some(cancel) = &self.cancel {
                    if cancel.load(std::sync::atomic::Ordering::Relaxed) {
                        self.flush_observability();
                        return SliceOutcome::Cancelled { at_cycle: self.now };
                    }
                }
            }
            if self.now >= slice_end {
                return SliceOutcome::BudgetExhausted { at_cycle: self.now };
            }
            if self.now >= self.probe_at {
                if let Some(next) = self.next_event_cycle() {
                    let mut target = next.min(self.deadline);
                    if let Some(every) = self.metrics_every() {
                        // Never skip past a sampling boundary, so idle
                        // windows still produce their samples (with
                        // `cycles_skipped` carrying the span).
                        target = target.min((self.now / every + 1) * every);
                    }
                    if target > slice_end || target == u64::MAX {
                        // The jump overshoots this slice (or the machine
                        // is inert forever with no finite deadline).
                        // Don't split it — park and let the resume take
                        // the identical single jump.
                        return SliceOutcome::Blocked {
                            until_cycle: target,
                        };
                    }
                    self.fast_forward(target);
                    if self
                        .metrics_every()
                        .is_some_and(|every| self.now.is_multiple_of(every))
                    {
                        self.sample_metrics();
                    }
                    self.probe_backoff = 0;
                    self.probe_at = self.now;
                    continue;
                }
                self.probe_backoff = (self.probe_backoff * 2).clamp(1, 64);
                self.probe_at = self.now + self.probe_backoff;
            }
            self.tick();
        }
        self.flush_observability();
        SliceOutcome::Completed(self.stats())
    }

    /// The earliest future cycle at which any component could do work, or
    /// `None` when some component might act at `self.now` (tick normally).
    /// `Some(u64::MAX)` means the machine is inert without external input
    /// — the caller clamps to its own horizon and times out there.
    fn next_event_cycle(&self) -> Option<u64> {
        let mut next = u64::MAX;
        for core in &self.cores {
            next = next.min(core.next_event(self.now)?);
        }
        next = next.min(self.mem.next_event(self.now)?);
        debug_assert!(next > self.now, "next event must be in the future");
        Some(next)
    }

    /// Fast-forwards the clock to `target` without ticking: every
    /// component has proven itself inert until then, so the only
    /// per-cycle state to account for is the cores' cycle counters.
    fn fast_forward(&mut self, target: u64) {
        debug_assert!(target > self.now);
        let skipped = target - self.now;
        for core in &mut self.cores {
            core.note_skipped_cycles(skipped, target);
        }
        self.now = target;
    }

    /// Snapshot of all statistics.
    pub fn stats(&self) -> MachineStats {
        MachineStats {
            cycles: self.now,
            cycles_ticked: self.ticks,
            core: self.cores.iter().map(|c| c.stats).collect(),
            cpi: self.cores.iter().map(|c| c.cpi.clone()).collect(),
            l1i: (0..self.cfg.cores)
                .map(|i| self.mem.l1_stats(i, Port::IFetch))
                .collect(),
            l1d: (0..self.cfg.cores)
                .map(|i| self.mem.l1_stats(i, Port::Data))
                .collect(),
            llc: self.mem.llc_stats(),
            dram: self.mem.dram_stats(),
        }
    }

    /// Reads a u64 from a user virtual address of core `i`'s address
    /// space (test aid; software page walk).
    pub fn read_user_u64(&self, i: usize, va: u64) -> Option<u64> {
        let image = self.loaded[i].as_ref()?;
        let aspace = crate::loader::AddressSpace::probe(image.satp);
        let pa = aspace.translate(&self.mem.phys, va)?;
        Some(self.mem.phys.read_u64(PhysAddr::new(pa)))
    }

    /// The exit register (`a0`) of core `i` at halt.
    pub fn exit_value(&self, i: usize) -> u64 {
        // a0 is saved in the kernel save area on the final ecall.
        self.mem
            .phys
            .read_u64(PhysAddr::new(kdata_base(i) + 10 * 8))
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{
    fnv1a64, SnapError, SnapReader, SnapState, SnapWriter, FORMAT_VERSION, MAGIC,
    MIN_FORMAT_VERSION,
};

impl Machine {
    pub(crate) fn set_cancel_flag(
        &mut self,
        flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    ) {
        self.cancel = flag;
    }

    /// Attaches an observability session (builder backend): a per-core
    /// O3PipeView tracer feeding `trace` and/or a metrics sampler writing
    /// JSONL to `metrics` every `metrics_every` cycles. No-op when both
    /// paths are `None`; everything installed here is runtime-only.
    pub(crate) fn set_observability(
        &mut self,
        trace: Option<&std::path::Path>,
        trace_limit: u64,
        metrics: Option<&std::path::Path>,
        metrics_every: u64,
    ) -> Result<(), String> {
        if trace.is_none() && metrics.is_none() {
            return Ok(());
        }
        let open = |p: &std::path::Path| {
            std::fs::File::create(p)
                .map(std::io::BufWriter::new)
                .map_err(|e| format!("{}: {e}", p.display()))
        };
        let trace_out = trace.map(open).transpose()?;
        if trace_out.is_some() {
            let cores = self.cfg.cores;
            for (i, core) in self.cores.iter_mut().enumerate() {
                core.tracer = Some(Box::new(mi6_obs::Tracer::new(i, cores, trace_limit)));
            }
        }
        let metrics_out = metrics.map(open).transpose()?;
        let metrics_state = metrics_out.map(|out| {
            self.mem.enable_obs();
            MetricsState {
                sink: mi6_obs::MetricsSink::new(),
                out,
                every: metrics_every.max(1),
            }
        });
        self.obs = Some(Box::new(ObsState {
            trace: trace_out,
            metrics: metrics_state,
            scratch: Vec::new(),
        }));
        Ok(())
    }

    /// The strict configuration fingerprint: variant, core count, timer,
    /// and every core/security/memory knob. A snapshot restores verbatim
    /// only into a machine with the same strict fingerprint.
    pub fn strict_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        w.u8(self.cfg.variant.index());
        w.u64(self.cfg.cores as u64);
        w.u64(self.cfg.timer_interval);
        self.cores[0].config().save(&mut w);
        self.cores[0].security().save(&mut w);
        self.mem.config().save(&mut w);
        fnv1a64(&w.finish())
    }

    /// The structural fingerprint: everything that determines the *shape*
    /// of the machine's state arrays (core structure, cache geometry,
    /// DRAM, core count, timer) but not the security toggles or LLC
    /// organization. Two variants with equal structural fingerprints can
    /// exchange memory-quiescent snapshots ([`Machine::restore_forked`]).
    pub fn structural_fingerprint(&self) -> u64 {
        let mut w = SnapWriter::new();
        w.u64(self.cfg.cores as u64);
        w.u64(self.cfg.timer_interval);
        self.cores[0].config().save(&mut w);
        let mem = self.mem.config();
        mem.l1i.save(&mut w);
        mem.l1d.save(&mut w);
        w.u64(mem.llc.size_bytes);
        w.u64(mem.llc.ways as u64);
        mem.dram.save(&mut w);
        fnv1a64(&w.finish())
    }

    /// Whether neither the cores nor the hierarchy have memory traffic in
    /// flight. Snapshots taken here can be forked across variants.
    pub fn mem_quiescent(&self) -> bool {
        self.cores.iter().all(Core::mem_quiescent) && self.mem.quiescent()
    }

    /// Ticks until [`Machine::mem_quiescent`] holds (at most `max_cycles`
    /// extra cycles), returning how many cycles were consumed. The
    /// warm-fork runner calls this before snapshotting so the state can be
    /// restored into differently organized LLCs.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::NotQuiescent`] if the machine never settles
    /// within the budget (pathological — quiescent windows occur whenever
    /// the caches absorb the working set for a few dozen cycles).
    pub fn run_until_mem_quiescent(&mut self, max_cycles: u64) -> Result<u64, SnapError> {
        for waited in 0..=max_cycles {
            if self.mem_quiescent() {
                return Ok(waited);
            }
            self.tick();
        }
        Err(SnapError::NotQuiescent {
            what: format!("memory traffic after {max_cycles} extra cycles"),
        })
    }

    /// Reaches memory quiescence by *draining*: every cycle, cores whose
    /// front end is idle are held back from starting new fetches while
    /// in-flight work (fetches, loads, walks, the store buffer, the
    /// hierarchy) completes. Unlike [`Machine::run_until_mem_quiescent`]
    /// this converges even for streaming workloads that always keep a
    /// miss in flight, at the cost of perturbing timing by the drain
    /// stall — acceptable for warm-forking, where every variant continues
    /// from the same drained state.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::NotQuiescent`] if the machine still has
    /// memory traffic after `max_cycles` (pathological).
    pub fn drain_to_quiescence(&mut self, max_cycles: u64) -> Result<u64, SnapError> {
        for waited in 0..=max_cycles {
            if self.mem_quiescent() {
                return Ok(waited);
            }
            for core in &mut self.cores {
                core.drain_stall_fetch(self.now);
            }
            self.tick();
        }
        Err(SnapError::NotQuiescent {
            what: format!("memory traffic after draining for {max_cycles} cycles"),
        })
    }

    /// Serializes the complete machine state: a versioned header with both
    /// configuration fingerprints, then every core, the memory hierarchy,
    /// and the loaded user images. Identical states produce identical
    /// bytes.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.tag(&MAGIC);
        w.u32(FORMAT_VERSION);
        w.u64(self.strict_fingerprint());
        w.u64(self.structural_fingerprint());
        w.u8(self.cfg.variant.index());
        w.u64(self.cfg.cores as u64);
        w.u64(self.now);
        w.bool(self.mem_quiescent());
        for core in &self.cores {
            w.tag(b"CORE");
            core.save_state(&mut w);
        }
        w.tag(b"MEMS");
        self.mem.save_state(&mut w);
        w.tag(b"IMGS");
        self.loaded.save(&mut w);
        w.finish()
    }

    /// Restores a snapshot into this machine. The snapshot must come from
    /// a machine with the same strict configuration fingerprint (same
    /// variant, knobs, and geometry); the restored machine then continues
    /// bit-identically to the one that was snapshotted.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on corrupt input, a format version this build
    /// does not decode, or a configuration mismatch.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.restore_inner(bytes, true)
    }

    /// Restores a snapshot taken on a *different* variant with the same
    /// structural fingerprint (the warm-fork path). Unless the strict
    /// fingerprints happen to match, the snapshot must be
    /// memory-quiescent; the LLC re-homes its lines if the indexing
    /// function changed.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::ConfigMismatch`] when machine shapes differ
    /// and [`SnapError::NotQuiescent`] for a non-quiescent cross-variant
    /// snapshot.
    pub fn restore_forked(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        self.restore_inner(bytes, false)
    }

    fn restore_inner(&mut self, bytes: &[u8], strict: bool) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        if r.bytes(4)? != MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = r.u32()?;
        if !(MIN_FORMAT_VERSION..=FORMAT_VERSION).contains(&version) {
            return Err(SnapError::BadVersion {
                found: version,
                expected: FORMAT_VERSION,
            });
        }
        r.set_version(version);
        let strict_fp = r.u64()?;
        let struct_fp = r.u64()?;
        let variant_idx = r.u8()?;
        let snap_variant = Variant::from_index(variant_idx);
        let cores = r.u64()?;
        let now = r.u64()?;
        let quiescent = r.bool()?;
        let variant_names = || {
            format!(
                "snapshot from {} machine, restoring into {}",
                snap_variant.map(|v| v.name()).unwrap_or("unknown"),
                self.cfg.variant.name()
            )
        };
        let exact = strict_fp == self.strict_fingerprint();
        if strict && !exact {
            return Err(SnapError::ConfigMismatch {
                what: format!(
                    "{} (strict fingerprint {strict_fp:#018x} vs {:#018x}; use \
                     restore_forked to fork a warmed state across variants)",
                    variant_names(),
                    self.strict_fingerprint()
                ),
            });
        }
        if !exact {
            if struct_fp != self.structural_fingerprint() {
                return Err(SnapError::ConfigMismatch {
                    what: format!(
                        "{} (structural fingerprint {struct_fp:#018x} vs {:#018x})",
                        variant_names(),
                        self.structural_fingerprint()
                    ),
                });
            }
            if !quiescent {
                return Err(SnapError::NotQuiescent {
                    what: "memory traffic in the snapshot".into(),
                });
            }
        }
        if cores != self.cfg.cores as u64 {
            return Err(SnapError::ConfigMismatch {
                what: format!("{cores} cores vs {}", self.cfg.cores),
            });
        }
        for core in &mut self.cores {
            r.expect_tag(b"CORE")?;
            core.restore_state(&mut r)?;
        }
        r.expect_tag(b"MEMS")?;
        self.mem.restore_state(&mut r)?;
        r.expect_tag(b"IMGS")?;
        let loaded: Vec<Option<UserImage>> = SnapState::load(&mut r)?;
        if loaded.len() != self.cfg.cores {
            return Err(SnapError::BadValue {
                what: "loaded-image count does not match core count".into(),
            });
        }
        self.loaded = loaded;
        r.expect_end()?;
        self.now = now;
        // A cross-variant fork carries the *source* variant's security
        // CSRs; reprogram them for this machine's toggles (a BASE-warmed
        // `mregions` of all-ones must not neuter a forked MI6 machine).
        if !exact {
            for i in 0..self.cfg.cores {
                if let Some(image) = self.loaded[i] {
                    let (phys_base, _) = Machine::user_phys_window(i);
                    Machine::install_security_csrs(
                        &mut self.cores[i],
                        &self.mem,
                        phys_base,
                        &image,
                    );
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{Program, DATA_VA};
    use mi6_isa::{Assembler, Inst, Reg};

    /// A user program: writes a value to data, "prints", and exits.
    fn hello_program(syscalls: u64) -> Program {
        let mut asm = Assembler::new(loader::CODE_VA);
        asm.li(Reg::S0, DATA_VA);
        asm.li(Reg::A0, 0x1234_5678);
        asm.push(Inst::sd(Reg::A0, Reg::S0, 0));
        asm.li(Reg::S1, syscalls);
        let loop_top = asm.here();
        asm.li(Reg::A7, kernel::sys::PRINT);
        asm.push(Inst::Ecall);
        asm.push(Inst::addi(Reg::S1, Reg::S1, -1));
        asm.bnez(Reg::S1, loop_top);
        asm.li(Reg::A0, 42);
        asm.li(Reg::A7, kernel::sys::EXIT);
        asm.push(Inst::Ecall);
        Program {
            name: "hello".into(),
            code: asm.assemble().expect("assembles"),
            data_size: 4096,
            data_init: vec![],
            stack_size: 8192,
        }
    }

    #[test]
    fn user_program_runs_and_exits() {
        let mut m = crate::SimBuilder::base().without_timer().build().unwrap();
        m.load_user_program(0, &hello_program(3)).unwrap();
        let stats = m.run_to_completion(10_000_000).unwrap();
        assert!(m.all_halted());
        assert_eq!(m.exit_value(0), 42);
        // 3 print syscalls + 1 exit = 4 user traps, plus the S->M escalation.
        assert!(stats.core[0].traps >= 5, "traps {}", stats.core[0].traps);
        assert_eq!(m.read_user_u64(0, DATA_VA), Some(0x1234_5678));
        // Virtual memory was really used: page walks happened.
        assert!(stats.core[0].page_walks > 0);
    }

    #[test]
    fn timer_preempts_user_code() {
        let mut m = crate::SimBuilder::base()
            .timer_interval(5_000)
            .build()
            .unwrap();
        // Program spins for a while before exiting.
        let mut asm = Assembler::new(loader::CODE_VA);
        asm.li(Reg::S1, 60_000);
        let top = asm.here();
        asm.push(Inst::addi(Reg::S1, Reg::S1, -1));
        asm.bnez(Reg::S1, top);
        asm.li(Reg::A7, kernel::sys::EXIT);
        asm.push(Inst::Ecall);
        let program = Program {
            name: "spin".into(),
            code: asm.assemble().expect("assembles"),
            data_size: 4096,
            data_init: vec![],
            stack_size: 4096,
        };
        m.load_user_program(0, &program).unwrap();
        let stats = m.run_to_completion(10_000_000).unwrap();
        // The spin takes > 30k cycles, so several timer ticks landed.
        assert!(
            stats.core[0].traps >= 4,
            "expected timer traps, got {}",
            stats.core[0].traps
        );
        assert!(stats.core[0].trap_returns >= 3);
    }

    #[test]
    fn flush_variant_runs_slower_with_traps() {
        let run = |variant: Variant| -> u64 {
            let mut m = crate::SimBuilder::new(variant)
                .timer_interval(20_000)
                .build()
                .unwrap();
            m.load_user_program(0, &hello_program(10)).unwrap();
            m.run_to_completion(50_000_000).unwrap().cycles
        };
        let base = run(Variant::Base);
        let flush = run(Variant::Flush);
        assert!(flush > base + 10 * 512, "flush {flush} vs base {base}");
    }

    #[test]
    fn two_cores_run_disjoint_programs() {
        let mut m = crate::SimBuilder::base()
            .cores(2)
            .without_timer()
            .build()
            .unwrap();
        m.load_user_program(0, &hello_program(2)).unwrap();
        m.load_user_program(1, &hello_program(2)).unwrap();
        let stats = m.run_to_completion(20_000_000).unwrap();
        assert!(m.all_halted());
        assert!(stats.core[0].committed_instructions > 0);
        assert!(stats.core[1].committed_instructions > 0);
        // Disjoint physical windows.
        let (b0, l0) = Machine::user_phys_window(0);
        let (b1, _) = Machine::user_phys_window(1);
        assert!(l0 <= b1 && b0 < b1);
    }

    #[test]
    fn snapshot_roundtrip_continues_bit_identically() {
        // Run half the program, snapshot, restore into a fresh machine,
        // and check both finish with identical stats.
        let mut a = crate::SimBuilder::base()
            .timer_interval(5_000)
            .build()
            .unwrap();
        a.load_user_program(0, &hello_program(5)).unwrap();
        a.run_cycles(4_000);
        assert!(!a.all_halted(), "snapshot point must be mid-run");
        let snap = a.snapshot();
        let mut b = crate::SimBuilder::base()
            .timer_interval(5_000)
            .build()
            .unwrap();
        b.restore(&snap).unwrap();
        assert_eq!(b.now(), a.now());
        let sa = a.run_to_completion(10_000_000).unwrap();
        let mut sb = b.run_to_completion(10_000_000).unwrap();
        // `cycles_ticked` is a runtime counter that restarts at restore
        // (B never ticked the warm prefix); everything simulated must
        // still match exactly.
        assert_eq!(sa.cycles_ticked, sb.cycles_ticked + 4_000);
        sb.cycles_ticked = sa.cycles_ticked;
        // The CPI stack is runtime-only too: B's stack accounts exactly
        // the post-restore cycles (its own cycle counter exists for this),
        // still slot-exact over that window.
        let width = b.core(0).config().commit_width as u64;
        assert_eq!(sb.cpi[0].cycles + 4_000, sa.cpi[0].cycles);
        for s in [&sa, &sb] {
            assert_eq!(s.cpi[0].total_slots(), s.cpi[0].cycles * width);
        }
        let mut sa = sa;
        sa.cpi.clear();
        sb.cpi.clear();
        assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
        assert_eq!(b.exit_value(0), 42);
        // Identical states must serialize to identical bytes.
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn sliced_snapshots_match_a_tick_every_cycle_twin() {
        // Periodic checkpoints as a caller loop: step in 128-cycle slices
        // with idle-skip on (a `Blocked` stop resumes with its whole
        // jump), snapshot at every stop, and compare against a twin
        // ticked every cycle to the same cycle. A skip landing anywhere
        // must be indistinguishable from having ticked up to it.
        let build = || {
            let mut m = crate::SimBuilder::base().without_timer().build().unwrap();
            m.load_user_program(0, &hello_program(50)).unwrap();
            m
        };
        let (mut a, mut b) = (build(), build());
        a.begin_run(3_072);
        let mut budget = 128;
        let (mut stops, mut blocked) = (0, 0);
        loop {
            match a.step_slice(budget) {
                SliceOutcome::Completed(_) | SliceOutcome::TimedOut { .. } => break,
                SliceOutcome::BudgetExhausted { .. } => budget = 128,
                SliceOutcome::Blocked { until_cycle } => {
                    budget = until_cycle - a.now();
                    blocked += 1;
                }
                SliceOutcome::Cancelled { .. } => unreachable!("no cancel flag"),
            }
            b.run_cycles(a.now() - b.now());
            assert_eq!(a.snapshot(), b.snapshot(), "diverged at cycle {}", a.now());
            stops += 1;
        }
        assert!(stops > 10, "only {stops} stops");
        assert!(blocked > 0, "no skip overshot a slice");
        b.run_cycles(a.now() - b.now());
        assert_eq!(a.snapshot(), b.snapshot(), "final states diverged");
        assert!(
            a.ticks() < a.now(),
            "idle-skip never engaged ({} ticks for {} cycles)",
            a.ticks(),
            a.now()
        );
        assert_eq!(b.ticks(), b.now(), "twin ticked every cycle");
    }

    #[test]
    fn snapshot_refuses_mismatched_machine() {
        let mut a = crate::SimBuilder::base().without_timer().build().unwrap();
        a.load_user_program(0, &hello_program(1)).unwrap();
        a.run_cycles(500);
        let snap = a.snapshot();
        // Different variant: strict restore refuses.
        let mut b = crate::SimBuilder::new(Variant::SecureMi6)
            .without_timer()
            .build()
            .unwrap();
        let err = b.restore(&snap).unwrap_err();
        assert!(
            matches!(err, mi6_snapshot::SnapError::ConfigMismatch { .. }),
            "{err}"
        );
        // Different core count: even a forked restore refuses.
        let mut c = crate::SimBuilder::base()
            .cores(2)
            .without_timer()
            .build()
            .unwrap();
        assert!(c.restore_forked(&snap).is_err());
        // A version outside the readable range: clear error.
        let mut d = crate::SimBuilder::base().without_timer().build().unwrap();
        for version in [MIN_FORMAT_VERSION - 1, FORMAT_VERSION + 1, 0xff] {
            let mut bad = snap.clone();
            bad[4..8].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                d.restore(&bad),
                Err(SnapError::BadVersion {
                    found: version,
                    expected: FORMAT_VERSION
                })
            );
        }
        assert!(matches!(
            d.restore(b"nonsense"),
            Err(mi6_snapshot::SnapError::BadMagic)
        ));
    }

    #[test]
    fn quiescent_snapshot_forks_across_variants() {
        let mut warm = crate::SimBuilder::base().without_timer().build().unwrap();
        warm.load_user_program(0, &hello_program(50)).unwrap();
        warm.run_cycles(2_000);
        warm.run_until_mem_quiescent(100_000).unwrap();
        assert!(warm.mem_quiescent());
        let snap = warm.snapshot();
        // Fork the warmed state into the full-MI6 machine (different LLC
        // organization and security toggles, same geometry).
        let mut fork = crate::SimBuilder::new(Variant::SecureMi6)
            .without_timer()
            .build()
            .unwrap();
        fork.restore_forked(&snap).unwrap();
        assert_eq!(fork.now(), warm.now());
        // The BASE warm-up left `mregions` fully permissive; the forked
        // MI6 machine must get its region protection reprogrammed, not
        // inherit a neutered bitvec.
        let bv = RegionBitvec(fork.core(0).csrs.mregions);
        assert!(bv.allows(RegionId(0)), "kernel region allowed");
        assert!(bv.count() < 64, "region checks restored on fork");
        let stats = fork.run_to_completion(20_000_000).unwrap();
        assert!(fork.all_halted());
        assert_eq!(fork.exit_value(0), 42);
        assert_eq!(stats.core[0].region_faults, 0, "no spurious faults");
        assert!(stats.core[0].committed_instructions > 0);
    }

    #[test]
    fn secure_variant_sets_region_bitvec() {
        let mut m = crate::SimBuilder::new(Variant::SecureMi6)
            .without_timer()
            .build()
            .unwrap();
        m.load_user_program(0, &hello_program(1)).unwrap();
        let bv = RegionBitvec(m.core(0).csrs.mregions);
        assert!(bv.allows(RegionId(0)), "kernel region");
        assert!(bv.count() < 64, "not everything allowed");
        let stats = m.run_to_completion(20_000_000).unwrap();
        assert_eq!(stats.core[0].region_faults, 0, "no spurious faults");
        assert!(m.all_halted());
    }
}
