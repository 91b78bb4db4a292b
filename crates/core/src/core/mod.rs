//! The cycle-level speculative out-of-order core.
//!
//! Models the RiscyOO pipeline of Figure 4: a 2-wide front end with BTB,
//! tournament predictor, and RAS; ROB-based register renaming (the RAT maps
//! architectural registers to in-flight producers); four issue pipelines
//! (2 ALU, 1 MEM, 1 FP/MUL/DIV) with 16-entry issue queues; a 24-entry load
//! queue, 14-entry store queue, and 4-entry store buffer; L1/L2 TLBs with a
//! translation cache and a hardware page-table walker whose accesses go
//! through the data port (and are therefore region-checked, Section 5.3).
//!
//! MI6 behaviours (all toggled by [`SecurityConfig`]):
//! - **purge** (Section 6.1): scrubs BTB, tournament predictor, RAS, both
//!   TLBs, the translation cache, and the L1 caches; the core stalls for
//!   [`CoreConfig::purge_cycles`] while the sweeps run.
//! - **flush-on-trap** (FLUSH variant, Section 7.1): the same scrub on
//!   every trap entry and trap return.
//! - **non-speculative mode** (NONSPEC, Section 7.5): a memory instruction
//!   renames only when the ROB is empty.
//! - **machine-mode speculation guard** (Section 6.2): in machine mode,
//!   fetch is restricted to the monitor's physical window and memory
//!   instructions are serialized as in NONSPEC.
//! - **DRAM-region checks** (Section 5.3): every physical access —
//!   speculative fetch, load, store, or page-walk — outside the `mregions`
//!   bitvector is suppressed, and faults only when it commits.

use crate::branch::{Btb, Prediction, Ras, Tournament};
use crate::config::{CoreConfig, SecurityConfig};
use crate::cpi::{CpiCategory, CpiStack};
use crate::exec;
use crate::stats::CoreStats;
use crate::tlb::{Tlb, TlbEntry, TranslationCache};
use mi6_isa::csr::CsrFile;
use mi6_isa::paging::{leaf_span, AccessKind, LEVELS};
use mi6_isa::trap::{Exception, TrapCause};
use mi6_isa::{Inst, PageTableEntry, PhysAddr, PrivLevel, Reg, VirtAddr, PAGE_SHIFT};
use mi6_mem::{L1Access, MemStallReason, MemSystem, Port, RegionBitvec, ServeLevel};
use std::collections::{HashMap, HashSet, VecDeque};

mod commit;
mod decode_cache;
mod fetch;
mod lsq;
mod lsq_index;
mod rename;
mod rob;
mod snapshot;
mod walker;

use decode_cache::DecodeCache;
use lsq_index::{line_of, LsqIndex};
use rob::Rob;

/// Tag bits distinguishing token owners on the two memory ports.
const TOKEN_TAG_SHIFT: u32 = 62;
const TOKEN_LOAD: u64 = 0 << TOKEN_TAG_SHIFT;
const TOKEN_FETCH: u64 = 1 << TOKEN_TAG_SHIFT;
const TOKEN_PTW: u64 = 2 << TOKEN_TAG_SHIFT;
const TOKEN_SB: u64 = 3 << TOKEN_TAG_SHIFT;
const TOKEN_MASK: u64 = (1 << TOKEN_TAG_SHIFT) - 1;

/// Multiply-shift hasher for memory-access tokens (a tag in the top bits
/// plus a low sequence number). The token maps sit on the per-completion
/// hot path, where SipHash is pure overhead; Fibonacci hashing spreads
/// these keys just as well.
#[derive(Clone, Default)]
struct TokenHasher(u64);

impl std::hash::Hasher for TokenHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("token keys hash via write_u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type TokenMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<TokenHasher>>;
type TokenSet = HashSet<u64, std::hash::BuildHasherDefault<TokenHasher>>;

/// Extra latency charged for an L2 TLB hit after an L1 TLB miss.
const L2_TLB_LATENCY: u64 = 4;
/// Front-end refill delay after a redirect (squash or trap).
const REDIRECT_PENALTY: u64 = 2;

/// A source operand: either already a value, or waiting on a producer.
#[derive(Clone, Copy, Debug)]
enum Src {
    Ready(u64),
    Wait { seq: u64, reg: Reg },
}

/// Which issue pipeline an instruction uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Pipe {
    Alu0,
    Alu1,
    Mem,
    MulDiv,
}

/// A registered wakeup: when the producer completes, resolve source
/// `slot` of consumer `seq` (waiting in `pipe`'s issue queue).
type Waiter = (u64, u8, Pipe);

/// Progress of a memory instruction after it leaves the MEM issue queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MemPhase {
    /// Address generation in flight.
    AddrGen { done_at: u64 },
    /// Attempting translation (TLB lookup) this cycle.
    Translate,
    /// L2 TLB hit: waiting out the extra latency.
    TlbLatency { ready_at: u64 },
    /// Page-table walk outstanding.
    WaitWalk,
    /// Translated; loads try forwarding or issue to L1D, stores are done.
    ReadyToAccess,
    /// L1D request outstanding (loads only).
    WaitMem,
    /// Value arrives at `ready_at` (forwarding or L1 hit).
    WaitValue { ready_at: u64 },
    /// Finished.
    Done,
}

#[derive(Clone, Copy, Debug)]
struct MemState {
    vaddr: u64,
    paddr: Option<u64>,
    bytes: u64,
    is_store: bool,
    store_data: Option<u64>,
    phase: MemPhase,
}

#[derive(Clone, Copy, Debug)]
struct BranchState {
    pred_taken: bool,
    pred_target: u64,
    tournament: Option<Prediction>,
    /// Set when the branch resolves at execute.
    actual_taken: Option<bool>,
    actual_target: u64,
}

/// Where an instruction is in the backend.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stage {
    /// Waiting in an issue queue.
    InIq,
    /// Executing; result valid at `done_at`.
    Exec { done_at: u64 },
    /// A memory instruction past issue (see [`MemPhase`]).
    MemOp,
    /// Executes at commit (system instructions).
    AtCommit,
    /// Finished; eligible for commit.
    Done,
}

#[derive(Clone, Debug)]
struct RobEntry {
    seq: u64,
    pc: u64,
    inst: Inst,
    stage: Stage,
    srcs: [Option<Src>; 2],
    dest: Option<Reg>,
    /// Previous RAT mapping of `dest`, for squash undo.
    prev_map: Option<u64>,
    result: u64,
    branch: Option<BranchState>,
    mem: Option<MemState>,
    exception: Option<(Exception, u64)>,
}

/// A pending or active page-table walk.
#[derive(Clone, Copy, Debug)]
struct WalkReq {
    vpn: u64,
    kind: AccessKind,
    client: WalkClient,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WalkClient {
    Fetch,
    Rob(u64),
}

#[derive(Clone, Debug)]
struct ActiveWalk {
    req: WalkReq,
    level: usize,
    table: u64,
    /// Outstanding L1D token, or a ready time for an L1 hit.
    pending: WalkPending,
    pte_addr: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WalkPending {
    Issue,
    Token(u64),
    ReadyAt(u64),
}

/// Outcome of a completed walk, delivered to the client.
#[derive(Clone, Copy, Debug)]
enum WalkResult {
    Ok,
    Fault(Exception),
}

/// Outcome of a TLB lookup attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TranslateOutcome {
    /// Translation available.
    Hit {
        paddr: u64,
        region_ok: bool,
        /// Extra cycles charged (L2 TLB hit latency).
        extra: u64,
    },
    /// A page-table walk is in flight for this requester.
    Walking,
    /// The walker cannot accept another miss; retry next cycle.
    Busy,
}

/// State of the front end's current fetch.
#[derive(Clone, Debug, PartialEq)]
enum FetchState {
    /// Ready to translate and issue.
    Idle,
    /// ITLB walk outstanding.
    WaitWalk,
    /// L2 TLB latency, then issue the I-cache access.
    TlbDelay {
        ready_at: u64,
        paddr: u64,
        region_ok: bool,
    },
    /// I-cache access outstanding (miss).
    WaitICache { token: u64, paddr: u64 },
    /// I-cache hit: deliver at `ready_at`.
    Deliver { ready_at: u64, paddr: u64 },
    /// A poisoned instruction was delivered; wait for redirect.
    Stalled,
}

#[derive(Clone, Debug)]
struct FetchedInst {
    pc: u64,
    inst: Inst,
    pred: Option<BranchState>,
    poison: Option<(Exception, u64)>,
    /// Cycle the front end delivered this instruction (the tracer's
    /// fetch stamp). Observability-only: never serialized — restored
    /// fetch-queue entries read 0 — and never read by timing logic.
    fetched_at: u64,
}

/// Purge / flush-on-trap sequencing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PurgePhase {
    /// No purge in progress.
    Idle,
    /// Waiting for in-flight memory traffic and the store buffer to drain.
    DrainMem,
    /// Sweeps running; done at the given cycle.
    Flushing { until: u64 },
}

#[derive(Clone, Copy, Debug)]
struct SbEntry {
    line: u64,
    issued: bool,
    token: u64,
    done: bool,
}

/// The out-of-order core.
#[derive(Debug)]
pub struct Core {
    /// Core index (selects the memory-system ports).
    pub id: usize,
    cfg: CoreConfig,
    sec: SecurityConfig,
    /// Committed architectural registers.
    pub regs: [u64; 32],
    /// Committed PC of the next instruction to commit (trap EPC source).
    pub pc: u64,
    /// Current privilege level.
    pub priv_level: PrivLevel,
    /// Control and status registers.
    pub csrs: CsrFile,
    /// True once the core retired an `ebreak` in machine mode — the
    /// simulation halt convention.
    pub halted: bool,

    // Front end.
    btb: Btb,
    tournament: Tournament,
    ras: Ras,
    fetch_pc: u64,
    fetch_state: FetchState,
    fetch_queue: VecDeque<FetchedInst>,
    fetch_stall_until: u64,
    next_fetch_token: u64,
    itlb: Tlb,
    decode_cache: DecodeCache,

    // Backend.
    rob: Rob,
    next_seq: u64,
    rat: [Option<u64>; 32],
    iqs: [Vec<u64>; 4],
    /// Event-driven issue wakeup (derived state, never serialized —
    /// rebuilt on restore). `wake_lists[rob.phys(pidx)]` holds the
    /// consumers registered against that producer; `ready_iq[pipe]` is
    /// the ascending-seq set of IQ entries whose sources are all
    /// resolved. Invariant: an `InIq` entry is in its pipe's ready set
    /// iff `srcs_ready` would return `Some` — `tick_issue` and
    /// `next_event` read the sets instead of polling the queues.
    wake_lists: Box<[Vec<Waiter>]>,
    ready_iq: [Vec<u64>; 4],
    muldiv_busy_until: u64,
    lq_used: usize,
    sq_used: usize,
    sb: Vec<SbEntry>,
    next_sb_token: u64,
    committed_ghist: u16,
    /// Derived per-line store/load index and mem-op worklist (mirrors the
    /// ROB; never serialized — rebuilt on restore).
    lsq: LsqIndex,

    // Data-side translation.
    dtlb: Tlb,
    l2_tlb: Tlb,
    tcache: TranslationCache,
    walker_queue: VecDeque<WalkReq>,
    walker_active: Option<ActiveWalk>,
    walk_results: Vec<(WalkClient, WalkResult)>,
    next_ptw_token: u64,

    // Tokens owned by squashed instructions; completions are dropped.
    zombies: TokenSet,
    // Completions that arrived this cycle, keyed by token.
    data_completions: TokenMap<u64>,
    ifetch_completions: TokenMap<u64>,
    // Serve level of each in-flight load completion, keyed by seq.
    // Runtime-only CPI-stack side data: never serialized, cleared on
    // restore alongside `cpi`.
    data_levels: TokenMap<CpiCategory>,

    purge: PurgePhase,
    /// Pending trap redirect after purge completes (handler pc, priv).
    purge_resume: Option<(u64, PrivLevel)>,

    /// Exported statistics.
    pub stats: CoreStats,

    /// Lap-profiler accumulator (host wall time per sub-tick; only
    /// written under `--features lap-profile`). Runtime-only: never
    /// serialized, no effect on simulated timing.
    pub lap: crate::lap::LapProfile,

    /// Instruction lifecycle tracer, attached by the SoC when tracing is
    /// on (`None` = off; every hook gates on that, so the disabled cost
    /// is one pointer test). Runtime-only: never serialized, no effect
    /// on simulated timing.
    pub tracer: Option<Box<mi6_obs::Tracer>>,
    /// CPI-stack commit-slot attribution plus structural-pressure
    /// counters. Runtime-only: never serialized, reset on restore.
    pub cpi: CpiStack,
}

impl Core {
    /// Creates a core in reset: PC 0, machine mode, empty pipeline.
    pub fn new(id: usize, cfg: CoreConfig, sec: SecurityConfig) -> Core {
        let rob = Rob::new(cfg.rob_entries);
        let wake_lists = vec![Vec::new(); rob.capacity()].into_boxed_slice();
        Core {
            id,
            cfg,
            sec,
            regs: [0; 32],
            pc: 0,
            priv_level: PrivLevel::Machine,
            csrs: CsrFile::new(),
            halted: false,
            btb: Btb::new(cfg.btb_entries),
            tournament: Tournament::new(),
            ras: Ras::new(cfg.ras_entries),
            fetch_pc: 0,
            fetch_state: FetchState::Idle,
            fetch_queue: VecDeque::new(),
            fetch_stall_until: 0,
            next_fetch_token: 0,
            itlb: Tlb::new(cfg.l1_tlb_entries, 1),
            decode_cache: DecodeCache::new(),
            rob,
            next_seq: 0,
            rat: [None; 32],
            iqs: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            wake_lists,
            ready_iq: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            muldiv_busy_until: 0,
            lq_used: 0,
            sq_used: 0,
            sb: Vec::new(),
            next_sb_token: 0,
            committed_ghist: 0,
            lsq: LsqIndex::default(),
            dtlb: Tlb::new(cfg.l1_tlb_entries, 1),
            l2_tlb: Tlb::new(cfg.l2_tlb_entries, cfg.l2_tlb_entries / cfg.l2_tlb_ways),
            tcache: TranslationCache::new(cfg.tcache_entries),
            walker_queue: VecDeque::new(),
            walker_active: None,
            walk_results: Vec::new(),
            next_ptw_token: 0,
            zombies: TokenSet::default(),
            data_completions: TokenMap::default(),
            ifetch_completions: TokenMap::default(),
            data_levels: TokenMap::default(),
            purge: PurgePhase::Idle,
            purge_resume: None,
            stats: CoreStats::default(),
            lap: crate::lap::LapProfile::default(),
            tracer: None,
            cpi: CpiStack::default(),
        }
    }

    /// Resets the program counter and privilege level (boot or test setup).
    pub fn reset_to(&mut self, pc: u64, priv_level: PrivLevel) {
        self.pc = pc;
        self.fetch_pc = pc;
        self.priv_level = priv_level;
        self.fetch_state = FetchState::Idle;
    }

    /// The security configuration in force.
    pub fn security(&self) -> &SecurityConfig {
        &self.sec
    }

    /// The structural configuration in force.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Instantaneous backend occupancies for the metrics sampler:
    /// `(rob, iq_total, lq, sq, sb)`.
    pub fn occupancy(&self) -> (usize, usize, usize, usize, usize) {
        (
            self.rob.len(),
            self.iqs.iter().map(Vec::len).sum(),
            self.lq_used,
            self.sq_used,
            self.sb.len(),
        )
    }

    fn region_bitvec(&self) -> RegionBitvec {
        RegionBitvec(self.csrs.mregions)
    }

    fn region_allowed(&self, mem: &MemSystem, paddr: u64) -> bool {
        // The security monitor (machine mode) has access to all physical
        // addresses (Section 4.1); its isolation comes from the fetch
        // window and the speculation guard, not the region bitvector.
        if !self.sec.region_checks || self.priv_level == PrivLevel::Machine {
            return true;
        }
        let map = mem.region_map();
        if paddr >= mem.phys.size() {
            return false;
        }
        self.region_bitvec()
            .allows(map.region_of(PhysAddr::new(paddr)))
    }

    fn bare_translation(&self) -> bool {
        self.priv_level == PrivLevel::Machine || self.csrs.satp == 0
    }

    fn nonspec_gate(&self) -> bool {
        self.sec.nonspec_all_modes
            || (self.sec.machine_mode_guard && self.priv_level == PrivLevel::Machine)
    }

    // ---------------------------------------------------------------- tick

    /// Begins a purge sequence directly (the security monitor's path:
    /// architecturally this is the monitor executing `purge`, but the
    /// monitor model drives the machine from outside). The core stalls
    /// for the full purge duration and resumes at `resume_pc` in
    /// `resume_priv`.
    pub fn start_purge(&mut self, now: u64, resume_pc: u64, resume_priv: PrivLevel) {
        let from = self.head_seq();
        self.squash_from(now, from, resume_pc);
        self.cpi.note_squash(CpiCategory::Flush, from);
        self.stats.purges += 1;
        self.begin_purge_sequence(now, Some((resume_pc, resume_priv)));
    }

    /// Advances the core one cycle. Call before `mem.tick(now)`.
    pub fn tick(&mut self, now: u64, mem: &mut MemSystem) {
        if self.halted {
            return;
        }
        // Lap profiler: under `--features lap-profile`, `lap!(slot)`
        // charges the host time since the previous mark to `slot`. Marks
        // sit after every sub-stage (gated or not), so a gated-off stage
        // is charged only its emptiness check. Compiles to nothing by
        // default.
        #[cfg(feature = "lap-profile")]
        let mut lap_last = std::time::Instant::now();
        macro_rules! lap {
            ($slot:expr) => {
                #[cfg(feature = "lap-profile")]
                {
                    let t = std::time::Instant::now();
                    self.lap.nanos[$slot] += t.duration_since(lap_last).as_nanos() as u64;
                    // The last mark's write is dead by construction.
                    #[allow(unused_assignments)]
                    {
                        lap_last = t;
                    }
                }
            };
        }
        #[cfg(feature = "lap-profile")]
        use crate::lap::slot;
        self.stats.cycles += 1;
        self.csrs.cycle = now;
        // Timer interrupts (simplified CLINT: compare CSRs against `now`).
        self.csrs
            .set_pending(mi6_isa::Interrupt::MachineTimer, now >= self.csrs.mtimecmp);
        self.csrs.set_pending(
            mi6_isa::Interrupt::SupervisorTimer,
            now >= self.csrs.stimecmp,
        );
        // Collect completions from both ports, dropping zombies.
        for c in mem.take_completions(self.id, Port::Data) {
            if !self.zombies.remove(&c.token) {
                self.data_completions.insert(c.token, c.ready_at);
                // A load completion wakes its parked op: the token embeds
                // the seq, so re-insertion is a key lookup. The WaitMem
                // arm of `advance_mem_ops` consumes the completion later
                // this same tick — exactly when it did before parking.
                if c.token & !TOKEN_MASK == TOKEN_LOAD {
                    self.lsq.memop_insert(c.token & TOKEN_MASK);
                    // Remember where the fill came from so the CPI stack
                    // can split miss cycles by serve level.
                    let cat = match c.level {
                        ServeLevel::L1 => CpiCategory::MemL1,
                        ServeLevel::Llc => CpiCategory::MemLlc,
                        ServeLevel::Dram => CpiCategory::MemDram,
                    };
                    self.data_levels.insert(c.token & TOKEN_MASK, cat);
                }
            }
        }
        for c in mem.take_completions(self.id, Port::IFetch) {
            if !self.zombies.remove(&c.token) {
                self.ifetch_completions.insert(c.token, c.ready_at);
            }
        }
        lap!(slot::COLLECT);
        if self.purge != PurgePhase::Idle {
            // Every commit slot of a purge/flush drain cycle is the
            // flush mechanism's cost.
            self.cpi.cycles += 1;
            self.cpi
                .charge(CpiCategory::Flush, self.cfg.commit_width as u64);
            self.tick_purge(now, mem);
            lap!(slot::PURGE);
            return;
        }
        self.tick_commit(now, mem);
        lap!(slot::COMMIT);
        if self.purge != PurgePhase::Idle || self.halted {
            return;
        }
        // Per-stage dirty gating: each sub-tick below is a no-op when its
        // worklist/queue is empty (no stat counted, no state touched — the
        // same emptiness facts `next_event` relies on), so skip the call
        // entirely. Unlike the whole-machine idle-skip this fires every
        // cycle, trimming the per-cycle cost to the stages that actually
        // hold work. `tick_fetch` is never gated: it owns a multi-state
        // machine (stall counters, redirect timing) with no cheap
        // emptiness test.
        if !self.lsq.execs().is_empty() {
            self.tick_writeback(now);
        }
        lap!(slot::WRITEBACK);
        if !self.lsq.memops().is_empty() {
            self.advance_mem_ops(now, mem);
        }
        lap!(slot::MEM_OPS);
        if self.walker_active.is_some() || !self.walker_queue.is_empty() {
            self.tick_walker(now, mem);
        }
        lap!(slot::WALKER);
        if self.ready_iq.iter().any(|rq| !rq.is_empty()) {
            self.tick_issue(now);
        }
        lap!(slot::ISSUE);
        if !self.fetch_queue.is_empty() {
            self.tick_rename(now);
        }
        lap!(slot::RENAME);
        self.tick_fetch(now, mem);
        lap!(slot::FETCH);
        if !self.sb.is_empty() {
            self.tick_store_buffer(now, mem);
        }
        lap!(slot::STORE_BUFFER);
        #[cfg(debug_assertions)]
        self.debug_check_lsq();
    }

    /// The earliest future cycle at which this core could do any work, or
    /// `None` when it might act at `now` itself (tick normally).
    /// `Some(u64::MAX)` means inert until external input (a memory
    /// completion) arrives — the memory system bounds those separately.
    ///
    /// Used by the event-driven idle-skip in `Machine::run_to_completion`.
    /// The contract mirrors [`Core::tick`] sub-tick by sub-tick: every
    /// state that acts (or counts a stall statistic) on its own clock
    /// returns `None`; every purely time-gated state contributes its wake
    /// cycle; states waiting on the memory hierarchy contribute nothing.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        if self.halted {
            return Some(u64::MAX);
        }
        // Purge sequencing polls the hierarchy and counts
        // `flush_stall_cycles` every cycle: never skip through it.
        if self.purge != PurgePhase::Idle {
            return None;
        }
        // Parked completions are consumed by their waiters (loads, fetch,
        // walker, store buffer) as soon as they look.
        if !self.data_completions.is_empty() || !self.ifetch_completions.is_empty() {
            return None;
        }
        // The walker acts every cycle while a walk is queued or active,
        // and delivered results are consumed the next cycle.
        if self.walker_active.is_some()
            || !self.walker_queue.is_empty()
            || !self.walk_results.is_empty()
        {
            return None;
        }
        // Commit: a pending enabled interrupt traps this cycle; a done
        // head retires (or raises its exception, or is a stalled `wfi`
        // polling for wake-up) this cycle. The stored `mip` is only
        // refreshed inside the tick, so evaluate against the timer pending
        // bits as this cycle's tick would recompute them — otherwise a
        // skip landing exactly on `mtimecmp` would sail past the trap.
        let mut mip = self.csrs.mip;
        for (cmp, irq) in [
            (self.csrs.mtimecmp, mi6_isa::Interrupt::MachineTimer),
            (self.csrs.stimecmp, mi6_isa::Interrupt::SupervisorTimer),
        ] {
            if now >= cmp {
                mip |= 1 << irq.code();
            } else {
                mip &= !(1 << irq.code());
            }
        }
        if self
            .csrs
            .pending_interrupt_with(self.priv_level, mip)
            .is_some()
        {
            return None;
        }
        if !self.rob.is_empty() && self.rob.is_done(0) {
            return None;
        }
        let mut next = u64::MAX;
        // Timer pending bits flip exactly when `now` reaches the compare
        // CSRs (which only move at commit, and commits end a skip). A
        // compare already in the past has already set its bit.
        if self.csrs.mtimecmp > now {
            next = next.min(self.csrs.mtimecmp);
        }
        if self.csrs.stimecmp > now {
            next = next.min(self.csrs.stimecmp);
        }
        // Writeback: only exec-worklist entries can complete.
        for &seq in self.lsq.execs() {
            let idx = self.rob_index(seq).expect("exec worklist entry in ROB");
            let Stage::Exec { done_at } = self.rob.stage(idx) else {
                return None;
            };
            if done_at <= now {
                return None;
            }
            next = next.min(done_at);
        }
        // Memory ops: each phase either acts on its own clock (`None`),
        // waits out a known latency (candidate), or waits on the memory
        // hierarchy (no constraint from this core).
        for &seq in self.lsq.memops() {
            let idx = self.rob_index(seq).expect("mem-op worklist entry in ROB");
            match self.rob.mem(idx).expect("mem state").phase {
                MemPhase::AddrGen { done_at } => {
                    if done_at <= now {
                        return None;
                    }
                    next = next.min(done_at);
                }
                MemPhase::TlbLatency { ready_at } | MemPhase::WaitValue { ready_at } => {
                    if ready_at <= now {
                        return None;
                    }
                    next = next.min(ready_at);
                }
                // Translate retries the TLB, ReadyToAccess retries
                // forwarding / the L1 port, WaitWalk polls the walker (its
                // live states already returned `None` above), and Done
                // should never be on the worklist — all conservatively
                // "might act now".
                MemPhase::Translate
                | MemPhase::ReadyToAccess
                | MemPhase::WaitWalk
                | MemPhase::Done => return None,
                MemPhase::WaitMem => {}
            }
        }
        // Issue: an entry with ready sources issues this cycle — except on
        // a busy (unpipelined) mul/div unit, where the issue happens when
        // the unit frees. The ready sets hold exactly the IQ entries whose
        // sources are resolved, so this is a per-pipe emptiness test, not
        // an IQ scan.
        for pipe in [Pipe::Alu0, Pipe::Alu1, Pipe::MulDiv, Pipe::Mem] {
            if self.ready_iq[pipe as usize].is_empty() {
                continue;
            }
            if pipe == Pipe::MulDiv && now < self.muldiv_busy_until {
                next = next.min(self.muldiv_busy_until);
            } else {
                return None;
            }
        }
        // Rename: replicate `tick_rename`'s first-iteration gates on the
        // fetch-queue head. A head that would rename acts now; a NONSPEC
        // serialize stall counts a statistic per cycle, so it must tick
        // for real; every other blocked shape is passive until a commit,
        // issue, or fetch event (all accounted above/below).
        if self.rob.len() < self.cfg.rob_entries {
            if let Some(front) = self.fetch_queue.front() {
                let inst = front.inst;
                let poisoned = front.poison.is_some();
                let serialize =
                    !poisoned && (inst.is_system() || (self.nonspec_gate() && inst.is_mem()));
                if serialize && !self.rob.is_empty() {
                    if self.nonspec_gate() && inst.is_mem() {
                        return None;
                    }
                } else {
                    let pipe = if poisoned {
                        None
                    } else {
                        match inst {
                            _ if inst.is_mem() => Some(Pipe::Mem),
                            _ if inst.is_muldiv_fp() => Some(Pipe::MulDiv),
                            Inst::Jal { .. } => None,
                            _ if inst.is_system() => None,
                            _ if self.iqs[0].len() <= self.iqs[1].len() => Some(Pipe::Alu0),
                            _ => Some(Pipe::Alu1),
                        }
                    };
                    let iq_full =
                        pipe.is_some_and(|p| self.iqs[p as usize].len() >= self.cfg.iq_entries);
                    let lq_full = inst.is_load() && self.lq_used >= self.cfg.lq_entries;
                    let sq_full = inst.is_store() && self.sq_used >= self.cfg.sq_entries;
                    if !iq_full && !lq_full && !sq_full {
                        return None;
                    }
                }
            }
        }
        // Fetch: time-gated states contribute their wake cycle; Idle acts
        // now (translation attempt); Stalled waits for a squash and
        // WaitICache/WaitWalk wait on completions/the walker (both `None`
        // above when live).
        if self.fetch_stall_until > now {
            next = next.min(self.fetch_stall_until);
        } else if self.fetch_queue.len() + self.cfg.fetch_width <= self.cfg.fetch_queue {
            match &self.fetch_state {
                FetchState::Idle => return None,
                FetchState::TlbDelay { ready_at, .. } | FetchState::Deliver { ready_at, .. } => {
                    if *ready_at <= now {
                        return None;
                    }
                    next = next.min(*ready_at);
                }
                FetchState::Stalled | FetchState::WaitWalk | FetchState::WaitICache { .. } => {}
            }
        }
        // Store buffer: the head unissued entry retries the L1D port every
        // cycle; issued entries wait on completions (bounded above).
        if self.sb.iter().any(|s| !s.issued) {
            return None;
        }
        Some(next)
    }

    /// Accounts `skipped` cycles of event-driven fast-forward that lands
    /// at cycle `target`. The only per-cycle state a provably inert,
    /// non-halted core mutates is its cycle counters: `stats.cycles`
    /// accumulates, and `csrs.cycle` is settled to `target - 1` — exactly
    /// the value a core that ticked through every cycle would hold after
    /// its tick at `target - 1`. Execution never observes the difference
    /// (`csrs.cycle` is rewritten from `now` at the top of every real
    /// tick, before any instruction runs), but checkpoints written at the
    /// landing cycle must be byte-identical to a tick-every-cycle twin's.
    pub fn note_skipped_cycles(&mut self, skipped: u64, target: u64) {
        if !self.halted {
            self.stats.cycles += skipped;
            self.csrs.cycle = target - 1;
            // Fast-forwarded cycles are explicit idle slots in the CPI
            // stack, keeping the sum invariant exact under idle-skip.
            self.cpi.cycles += skipped;
            self.cpi
                .charge(CpiCategory::Idle, skipped * self.cfg.commit_width as u64);
        }
    }
}
