//! The shared last-level cache (LLC).
//!
//! This module implements both LLC microarchitectures from the paper:
//!
//! - **Figure 2 (RiscyOO baseline)**: a shared MSHR pool, a single
//!   upgrade-response queue (UQ), a single Downgrade-L1 logic scanning all
//!   MSHRs, a DQ whose dequeue blocks one extra cycle when an entry sends
//!   both a writeback and a read, and a two-level entry mux with fixed
//!   priority — every one of which Section 5.4.2 identifies as a minor
//!   timing leak.
//! - **Figure 3 (MI6)**: per-core MSHR partitions, per-core merge followed
//!   by a strict round-robin arbiter at the cache-access-pipeline entry,
//!   per-core split UQs, duplicated Downgrade-L1 logic per partition, and
//!   the DQ retry-bit scheme making every dequeue take exactly one cycle.
//!
//! Which behaviour is active is selected field-by-field in [`LlcConfig`],
//! so the evaluation variants (PART / MISS / ARB) and ablations can toggle
//! each mechanism independently.
//!
//! ### Structure
//!
//! Every incoming message — an L1 upgrade request, an L1 downgrade
//! response, or a DRAM response — passes through the cache-access pipeline
//! (latency [`LlcConfig::pipeline_latency`], one entry per cycle, never
//! backpressured) and is handled at the Process stage. Upgrade requests
//! reserve an MSHR *before* entering the pipeline; DRAM responses are
//! buffered in their MSHR, so neither ever backpressures the pipeline
//! (paper Section 5.4.1).

use crate::config::{
    DowngradeOrg, DqOrg, LlcArbitration, LlcConfig, LlcIndexing, MshrOrg, UqOrg, LINE_SHIFT,
};
use crate::dram::{Dram, DramReq};
use crate::link::DelayFifo;
use crate::msi::{ChildId, DowngradeResp, MsiState, ParentMsg, UpgradeReq};
use crate::obs::MemObs;
use crate::region::RegionMap;
use mi6_isa::PhysAddr;
use std::collections::VecDeque;

mod arbiter;
mod mshr;
mod pipeline;
mod queues;
mod snapshot;
#[cfg(test)]
mod tests;

/// A message admitted into the cache-access pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PipeMsg {
    /// Initial processing of an upgrade request (MSHR index).
    Req(u32),
    /// An MSHR re-entering: a buffered DRAM fill, or a retry-bit re-entry.
    Reentry(u32),
    /// An L1 downgrade response (ack or voluntary eviction).
    DownResp(DowngradeResp),
}

/// MSHR life-cycle states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum MshrState {
    /// Waiting for a pipeline entry slot.
    WaitPipe,
    /// Travelling through the cache-access pipeline.
    InPipe,
    /// Blocked on another MSHR (same line or no free way); index recorded.
    Blocked(u32),
    /// Waiting for child downgrade responses.
    WaitDowngrade,
    /// Queued in DQ (DRAM request pending).
    InDq,
    /// DRAM read outstanding.
    WaitDram,
    /// DRAM data buffered in the entry; waiting to re-enter the pipeline.
    FillReady,
    /// Response queued in UQ.
    InUq,
}

/// What the MSHR is trying to do once pending downgrades complete.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum AfterDowngrade {
    /// Grant the request on the already-present line.
    Grant,
    /// Proceed with the replacement of the victim way.
    Replace,
}

#[derive(Clone, Debug)]
struct MshrEntry {
    child: ChildId,
    line: PhysAddr,
    want: MsiState,
    state: MshrState,
    set: usize,
    way: usize,
    /// Replacement writeback still owed to DRAM.
    needs_wb: bool,
    victim_line: PhysAddr,
    /// The line whose downgrade we are waiting on (request line for a
    /// grant, victim line for a replacement).
    wait_line: PhysAddr,
    /// Children we still expect a downgrade response from (bitmap).
    pending_downgrades: u32,
    /// Downgrade requests not yet sent (child, line, to).
    to_downgrade: Vec<(ChildId, PhysAddr, MsiState)>,
    after: AfterDowngrade,
    /// MI6 retry bit (Section 5.4.3): the entry re-enters the pipeline
    /// after sending only the writeback.
    retry: bool,
    /// Whether the request was filled from DRAM. Observability-only
    /// (CPI-stack serve levels): carried to the child in the upgrade
    /// response, never read by timing logic, not serialized.
    from_dram: bool,
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LlcLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Children holding the line (bitmap by `ChildId::index`).
    sharers: u32,
    /// Exactly one sharer holds M.
    child_m: bool,
    /// Way reserved by an in-flight MSHR.
    locked_by: Option<u32>,
}

/// Counters exported by the LLC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcStats {
    /// Upgrade requests that hit.
    pub hits: u64,
    /// Upgrade requests that missed (DRAM read issued).
    pub misses: u64,
    /// LLC line evictions (replacements).
    pub evictions: u64,
    /// Writebacks sent to DRAM.
    pub writebacks: u64,
    /// Downgrade requests sent to children.
    pub downgrades_sent: u64,
    /// Cycles an admissible message waited because the round-robin slot
    /// belonged to another core.
    pub arb_wait_cycles: u64,
    /// Messages blocked at Process on a same-line or same-set conflict.
    pub conflicts: u64,
    /// Retry-bit re-entries (MI6 DQ scheme).
    pub dq_retries: u64,
    /// Extra DQ port cycles consumed by two-cycle dequeues (baseline).
    pub dq_double_cycles: u64,
}

/// Per-core link endpoints as seen by the LLC.
///
/// Each core has one link with three FIFOs (paper Figure 1): upgrade
/// requests up, downgrade responses up, and parent messages down. The down
/// FIFO carries the destination child so the core side can route to L1I or
/// L1D.
#[derive(Debug)]
pub struct CoreLink {
    /// L1 → LLC upgrade requests.
    pub up_req: DelayFifo<UpgradeReq>,
    /// L1 → LLC downgrade responses / eviction notifications.
    pub up_resp: DelayFifo<DowngradeResp>,
    /// LLC → L1 upgrade responses and downgrade requests.
    pub down: DelayFifo<(ChildId, ParentMsg)>,
}

impl CoreLink {
    /// Creates a link with the given FIFO capacity and hop latency.
    pub fn new(capacity: usize, latency: u32) -> CoreLink {
        CoreLink {
            up_req: DelayFifo::new(capacity, latency),
            up_resp: DelayFifo::new(capacity, latency),
            down: DelayFifo::new(capacity, latency),
        }
    }
}

/// The last-level cache with its MSHRs, pipeline, queues, and directory.
#[derive(Debug)]
pub struct Llc {
    cfg: LlcConfig,
    cores: usize,
    region_map: RegionMap,
    sets: Vec<Vec<LlcLine>>,
    mshrs: Vec<Option<MshrEntry>>,
    /// (exit cycle, message); one admission per cycle keeps this ordered.
    pipe: VecDeque<(u64, PipeMsg)>,
    /// Upgrade-response queues: one (shared) or one per core.
    uqs: Vec<VecDeque<u32>>,
    dq: VecDeque<u32>,
    /// Baseline two-cycle dequeue: DQ port busy until this cycle.
    dq_port_busy_until: u64,
    /// Rotating scan start for the single Downgrade-L1 logic.
    downgrade_scan: usize,
    set_bits: u32,
    /// Live entries in `mshrs` (derived; lets the per-cycle tick skip the
    /// MSHR scans entirely while the LLC is idle — recomputed on restore,
    /// never serialized).
    live_mshrs: usize,
    /// MSHRs in `WaitPipe` (derived, like `live_mshrs`): gates the
    /// arbiter's request scans.
    wait_pipe: usize,
    /// MSHRs in `FillReady` (derived): gates the arbiter's fill scans.
    fill_ready: usize,
    /// MSHRs in `WaitDowngrade` with unsent downgrade requests (derived):
    /// gates `send_downgrades` entirely.
    downgrades_pending: usize,
    /// Total entries across all UQs (derived): gates `dequeue_uq`.
    uq_total: usize,
    /// Reusable per-cycle port-usage buffer (host-side scratch only).
    port_scratch: Vec<bool>,
    /// Observability counters, attached only while metrics sampling is on
    /// (runtime-only: never serialized, reset on restore).
    pub obs: Option<Box<MemObs>>,
    /// Exported statistics.
    pub stats: LlcStats,
}

impl Llc {
    /// Creates an empty LLC for `cores` cores.
    pub fn new(cfg: LlcConfig, cores: usize, region_map: RegionMap) -> Llc {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two());
        let n_mshrs = cfg.mshrs.total(cores);
        let n_uqs = match cfg.uq {
            UqOrg::Shared => 1,
            UqOrg::PerCore => cores,
        };
        Llc {
            cfg,
            cores,
            region_map,
            sets: vec![vec![LlcLine::default(); cfg.ways]; sets],
            mshrs: vec![None; n_mshrs],
            pipe: VecDeque::new(),
            uqs: vec![VecDeque::new(); n_uqs],
            dq: VecDeque::new(),
            dq_port_busy_until: 0,
            downgrade_scan: 0,
            set_bits: sets.trailing_zeros(),
            live_mshrs: 0,
            wait_pipe: 0,
            fill_ready: 0,
            downgrades_pending: 0,
            uq_total: 0,
            port_scratch: Vec::new(),
            obs: None,
            stats: LlcStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &LlcConfig {
        &self.cfg
    }

    /// Computes the set index for a line address under the configured
    /// indexing function (paper Section 7.2: BASE uses `A[set_bits-1:0]`
    /// of the line index; PART replaces the top `region_bits` with the low
    /// bits of the DRAM-region ID).
    pub fn set_index(&self, line: PhysAddr) -> usize {
        let line_index = line.raw() >> LINE_SHIFT;
        match self.cfg.indexing {
            LlcIndexing::Base => (line_index & ((1 << self.set_bits) - 1)) as usize,
            LlcIndexing::Partitioned { region_bits } => {
                let low_bits = self.set_bits - region_bits;
                let region = self.region_map.region_of(line).0 as u64;
                let low = line_index & ((1 << low_bits) - 1);
                (((region & ((1 << region_bits) - 1)) << low_bits) | low) as usize
            }
        }
    }

    fn tag_of(&self, line: PhysAddr) -> u64 {
        line.raw() >> LINE_SHIFT
    }

    /// One LLC cycle. `links` is indexed by core. DRAM responses are
    /// collected, the Process stage runs, queues drain, new requests are
    /// accepted, and the entry arbiter admits at most one message.
    pub fn tick(&mut self, now: u64, links: &mut [CoreLink], dram: &mut Dram) {
        debug_assert_eq!(links.len(), self.cores);
        #[cfg(debug_assertions)]
        if now.is_multiple_of(1024) {
            self.debug_check_derived();
        }
        // DRAM responses: buffered into their MSHR, never backpressured.
        for resp in dram.tick(now) {
            let entry = self.mshrs[resp.tag as usize]
                .as_mut()
                .expect("DRAM response for a freed MSHR");
            debug_assert_eq!(entry.state, MshrState::WaitDram);
            debug_assert_eq!(entry.line, resp.line);
            entry.state = MshrState::FillReady;
            entry.from_dram = true;
            self.fill_ready += 1;
        }
        self.process_exit(now);
        // Each sub-tick below is gated by its dirty counter (inside the
        // respective method), so an idle or lightly loaded LLC touches
        // only the structures with pending work.
        if self.uq_total > 0 || self.downgrades_pending > 0 {
            // Reuse the port-usage buffer across cycles (no per-cycle
            // alloc).
            let mut port_used = std::mem::take(&mut self.port_scratch);
            port_used.clear();
            port_used.resize(self.cores, false);
            self.dequeue_uq(now, links, &mut port_used);
            self.send_downgrades(now, links, &mut port_used);
            self.port_scratch = port_used;
        }
        self.dequeue_dq(now, dram);
        self.accept_requests(now, links);
        self.arbitrate_entry(now, links);
    }

    /// The earliest future cycle at which [`Llc::tick`] could do any work,
    /// or `None` when it might act at `now` itself. `Some(u64::MAX)` means
    /// fully quiescent pending external input. Used by the event-driven
    /// idle-skip; new link traffic and DRAM completions are accounted
    /// separately by [`crate::MemSystem::next_event`].
    pub(crate) fn next_event(&self, now: u64) -> Option<u64> {
        // Any of these states drives per-cycle work (arbitration scans,
        // queue draining, downgrade sends — including the exact
        // `arb_wait_cycles` accounting): never skip through them.
        if self.wait_pipe > 0
            || self.fill_ready > 0
            || self.uq_total > 0
            || self.downgrades_pending > 0
        {
            return None;
        }
        let mut next = u64::MAX;
        // The pipeline exit processes its head when the head's exit cycle
        // arrives. (Blocked / downgrade-waiting / DRAM-waiting MSHRs are
        // passive: their wake-ups come from the pipeline, the links, or
        // DRAM, each bounded elsewhere.)
        if let Some(&(ready, _)) = self.pipe.front() {
            if ready <= now {
                return None;
            }
            next = next.min(ready);
        }
        // A non-empty DQ issues to DRAM as soon as its port frees up.
        if !self.dq.is_empty() {
            if self.dq_port_busy_until <= now {
                return None;
            }
            next = next.min(self.dq_port_busy_until);
        }
        Some(next)
    }

    /// Recomputes every derived counter from the authoritative structures
    /// — the single definition of what each counter means. Called after
    /// restore (the counters are never serialized) and by the periodic
    /// debug cross-check.
    pub(super) fn recompute_derived(&mut self) {
        self.live_mshrs = self.mshrs.iter().filter(|m| m.is_some()).count();
        self.wait_pipe = self
            .mshrs
            .iter()
            .flatten()
            .filter(|m| m.state == MshrState::WaitPipe)
            .count();
        self.fill_ready = self
            .mshrs
            .iter()
            .flatten()
            .filter(|m| m.state == MshrState::FillReady)
            .count();
        self.downgrades_pending = self
            .mshrs
            .iter()
            .flatten()
            .filter(|m| m.state == MshrState::WaitDowngrade && !m.to_downgrade.is_empty())
            .count();
        self.uq_total = self.uqs.iter().map(VecDeque::len).sum();
    }

    /// Panics unless the incrementally maintained counters match a
    /// from-scratch recount (debug builds, every 1024 cycles — the same
    /// cadence as the core's LSQ-index cross-check).
    #[cfg(debug_assertions)]
    fn debug_check_derived(&self) {
        let counted = (
            self.mshrs.iter().filter(|m| m.is_some()).count(),
            self.mshrs
                .iter()
                .flatten()
                .filter(|m| m.state == MshrState::WaitPipe)
                .count(),
            self.mshrs
                .iter()
                .flatten()
                .filter(|m| m.state == MshrState::FillReady)
                .count(),
            self.mshrs
                .iter()
                .flatten()
                .filter(|m| m.state == MshrState::WaitDowngrade && !m.to_downgrade.is_empty())
                .count(),
            self.uqs.iter().map(VecDeque::len).sum::<usize>(),
        );
        let live = (
            self.live_mshrs,
            self.wait_pipe,
            self.fill_ready,
            self.downgrades_pending,
            self.uq_total,
        );
        assert_eq!(
            live, counted,
            "LLC derived counters diverged (live vs recount: \
             live_mshrs, wait_pipe, fill_ready, downgrades_pending, uq_total)"
        );
    }

    /// Applies an L1 purge-flush invalidation directly to the directory.
    ///
    /// During a purge the core is stalled and, under MI6's invariants, no
    /// other traffic from that core is in flight, so the notification is
    /// applied out of band rather than through the cache-access pipeline;
    /// the paper's 512-cycle flush figure (Section 7.1) counts the L1
    /// sweep, with the LLC absorbing one eviction per cycle in parallel.
    pub fn flush_notify(&mut self, child: ChildId, line: PhysAddr, dirty: bool) {
        let set = self.set_index(line);
        let tag = self.tag_of(line);
        if let Some(way) = self.sets[set].iter().position(|l| l.valid && l.tag == tag) {
            let entry = &mut self.sets[set][way];
            entry.sharers &= !(1u32 << child.index());
            if entry.sharers == 0 {
                entry.child_m = false;
            }
            if dirty {
                entry.dirty = true;
            }
        }
    }

    /// Per-core count of live MSHR entries, written into `out`
    /// (observability probe; `out` is resized to the core count).
    pub fn mshr_occupancy(&self, out: &mut Vec<u64>) {
        out.clear();
        out.resize(self.cores, 0);
        for m in self.mshrs.iter().flatten() {
            out[m.child.core()] += 1;
        }
    }

    /// The MSHR quota visible to one core: its partition size under
    /// per-core MSHRs, otherwise the whole (shared or banked) pool.
    pub fn mshr_quota_per_core(&self) -> u64 {
        match self.cfg.mshrs {
            MshrOrg::PerCore { per_core } => per_core as u64,
            MshrOrg::Shared { total } | MshrOrg::Banked { total, .. } => total as u64,
        }
    }

    /// Depths of the internal queues as (cache-access pipeline, DQ,
    /// total UQ entries).
    pub fn queue_depths(&self) -> (usize, usize, usize) {
        (self.pipe.len(), self.dq.len(), self.uq_total)
    }

    /// Whether the LLC has no in-flight work (test aid).
    pub fn quiescent(&self) -> bool {
        self.mshrs.iter().all(Option::is_none)
            && self.pipe.is_empty()
            && self.dq.is_empty()
            && self.uqs.iter().all(VecDeque::is_empty)
    }

    /// Directory probe for tests: the set of children holding a line.
    pub fn probe_sharers(&self, line: PhysAddr) -> u32 {
        let set = self.set_index(line);
        let tag = self.tag_of(line);
        self.sets[set]
            .iter()
            .find(|l| l.valid && l.tag == tag)
            .map(|l| l.sharers)
            .unwrap_or(0)
    }

    /// Whether a line is resident in the LLC (test aid).
    pub fn contains(&self, line: PhysAddr) -> bool {
        let set = self.set_index(line);
        let tag = self.tag_of(line);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }
}
