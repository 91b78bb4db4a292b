//! The assembled memory system: per-core L1I/L1D, links, LLC, and DRAM.
//!
//! [`MemSystem`] is what a core (or the SoC) talks to. Each core has two
//! ports — instruction fetch and data — multiplexed onto the core's single
//! coherence link to the LLC (paper Figure 1). One call to
//! [`MemSystem::tick`] advances the whole hierarchy by one cycle in a fixed
//! deterministic order.

use crate::config::{MemConfig, LINE_SHIFT, LINK_CAPACITY, LINK_LATENCY};
use crate::dram::Dram;
use crate::l1::{L1Access, L1Cache, L1Completion, ReqToken};
use crate::llc::{CoreLink, Llc};
use crate::msi::{ChildId, MsiState};
use crate::phys::PhysMem;
use crate::region::RegionMap;
use mi6_isa::PhysAddr;

/// Which per-core port a request uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Port {
    /// Instruction fetch (L1I).
    IFetch,
    /// Loads, stores, and page-table walks (L1D).
    Data,
}

/// Why a core's memory traffic is blocked *inside* the shared hierarchy,
/// as opposed to plain miss latency. These are the two MI6 mechanisms
/// that add queuing delay (Sections 5.4.3): the per-core MSHR quota /
/// bank partition, and the round-robin LLC entry arbiter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemStallReason {
    /// The core's head upgrade request cannot allocate an MSHR in its
    /// quota/bank.
    MshrQuotaDeny,
    /// The core has an admissible LLC message but the round-robin slot
    /// belongs to another core.
    ArbDeny,
}

/// The memory hierarchy below the cores.
#[derive(Debug)]
pub struct MemSystem {
    cfg: MemConfig,
    /// Architectural DRAM contents (functional side).
    pub phys: PhysMem,
    l1is: Vec<L1Cache>,
    l1ds: Vec<L1Cache>,
    links: Vec<CoreLink>,
    llc: Llc,
    dram: Dram,
    region_map: RegionMap,
    completions: Vec<[Vec<L1Completion>; 2]>,
}

impl MemSystem {
    /// Builds the hierarchy for `cores` cores.
    pub fn new(cfg: MemConfig, cores: usize) -> MemSystem {
        let region_map = RegionMap::new(&cfg.dram);
        MemSystem {
            cfg,
            phys: PhysMem::new(cfg.dram.size_bytes),
            l1is: (0..cores)
                .map(|c| L1Cache::new(cfg.l1i, ChildId::l1i(c)))
                .collect(),
            l1ds: (0..cores)
                .map(|c| L1Cache::new(cfg.l1d, ChildId::l1d(c)))
                .collect(),
            links: (0..cores)
                .map(|_| CoreLink::new(LINK_CAPACITY, LINK_LATENCY))
                .collect(),
            llc: Llc::new(cfg.llc, cores, region_map),
            dram: Dram::new(&cfg.dram),
            region_map,
            completions: (0..cores).map(|_| [Vec::new(), Vec::new()]).collect(),
        }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.l1is.len()
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// The DRAM-region map (shared by cores for access checks).
    pub fn region_map(&self) -> RegionMap {
        self.region_map
    }

    /// Read-only CPI-stack probe: why `core`'s memory traffic is stalled
    /// by an MI6 isolation mechanism this cycle, if it is. Quota denial
    /// dominates (the request cannot even enter the LLC); arbiter denial
    /// covers admissible work waiting out another core's round-robin
    /// slot. `None` means any wait is plain miss latency.
    pub fn mem_stall_reason(&self, now: u64, core: usize) -> Option<MemStallReason> {
        let link = &self.links[core];
        if self.llc.quota_denied(now, core, link) {
            return Some(MemStallReason::MshrQuotaDeny);
        }
        if self.llc.arb_denied(now, core, link) {
            return Some(MemStallReason::ArbDeny);
        }
        None
    }

    /// Issues a timing access for the line containing `addr`.
    ///
    /// `store` requests M (write permission); otherwise S. On
    /// [`L1Access::Miss`] the completion is delivered later via
    /// [`MemSystem::take_completions`] with the same `token`.
    pub fn access(
        &mut self,
        now: u64,
        core: usize,
        port: Port,
        token: ReqToken,
        addr: PhysAddr,
        store: bool,
    ) -> L1Access {
        let line = addr.line_base();
        let want = if store { MsiState::M } else { MsiState::S };
        // Split borrows: link and L1 are separate fields.
        let link = &mut self.links[core];
        let l1 = match port {
            Port::IFetch => &mut self.l1is[core],
            Port::Data => &mut self.l1ds[core],
        };
        l1.access(now, token, line, want, &mut link.up_req, &mut link.up_resp)
    }

    /// Drains completed misses for one core port.
    pub fn take_completions(&mut self, core: usize, port: Port) -> Vec<L1Completion> {
        let idx = match port {
            Port::IFetch => 0,
            Port::Data => 1,
        };
        std::mem::take(&mut self.completions[core][idx])
    }

    /// Starts the purge flush sweep of both L1s of a core. The caller must
    /// have drained in-flight misses first (the purge sequence flushes the
    /// core pipeline before scrubbing).
    pub fn start_flush(&mut self, core: usize) {
        self.l1is[core].start_flush();
        self.l1ds[core].start_flush();
    }

    /// Whether a flush sweep is still running on a core.
    pub fn flush_active(&self, core: usize) -> bool {
        self.l1is[core].flush_active() || self.l1ds[core].flush_active()
    }

    /// Whether a core has in-flight misses on either port.
    pub fn core_quiescent(&self, core: usize) -> bool {
        !self.l1is[core].has_inflight() && !self.l1ds[core].has_inflight()
    }

    /// Advances the hierarchy one cycle.
    pub fn tick(&mut self, now: u64) {
        let cores = self.cores();
        for core in 0..cores {
            // Deliver at most one parent message per link per cycle (the
            // per-core down-port).
            if let Some((child, msg)) = self.links[core].down.pop(now) {
                let link = &mut self.links[core];
                let l1 = if child.is_data() {
                    &mut self.l1ds[core]
                } else {
                    &mut self.l1is[core]
                };
                l1.handle_parent(now, msg, &mut link.up_resp);
            }
            // L1 maintenance: retry blocked downgrade responses; advance
            // flush sweeps (one line per cycle per cache, notifications
            // applied out of band — see `Llc::flush_notify`).
            for is_data in [false, true] {
                let link = &mut self.links[core];
                let l1 = if is_data {
                    &mut self.l1ds[core]
                } else {
                    &mut self.l1is[core]
                };
                l1.tick(now, &mut link.up_resp);
                if l1.flush_active() {
                    let child = l1.child();
                    if let Some((line, dirty)) = l1.flush_step() {
                        self.llc.flush_notify(child, line, dirty);
                    }
                }
            }
        }
        self.llc.tick(now, &mut self.links, &mut self.dram);
        // Collect L1 completions into the per-port queues.
        for core in 0..cores {
            let done = self.l1is[core].take_completions();
            self.completions[core][0].extend(done);
            let done = self.l1ds[core].take_completions();
            self.completions[core][1].extend(done);
        }
    }

    /// The earliest future cycle at which [`MemSystem::tick`] could do any
    /// work, or `None` when the hierarchy might act at `now` itself (tick
    /// normally). `Some(u64::MAX)` means fully quiescent pending new core
    /// requests. Used by the event-driven idle-skip in
    /// `Machine::run_to_completion`.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        // Undelivered completions are picked up by the cores each cycle.
        if self
            .completions
            .iter()
            .any(|ports| !ports[0].is_empty() || !ports[1].is_empty())
        {
            return None;
        }
        let mut next = u64::MAX;
        for link in &self.links {
            if merge_front(&mut next, now, link.down.next_ready())
                || merge_front(&mut next, now, link.up_req.next_ready())
                || merge_front(&mut next, now, link.up_resp.next_ready())
            {
                return None;
            }
        }
        for l1 in self.l1is.iter().chain(&self.l1ds) {
            if !l1.is_inert() {
                return None;
            }
        }
        next = next.min(self.llc.next_event(now)?);
        if merge_front(&mut next, now, self.dram.next_ready()) {
            return None;
        }
        Some(next)
    }

    /// L1 statistics for a core port.
    pub fn l1_stats(&self, core: usize, port: Port) -> crate::l1::L1Stats {
        match port {
            Port::IFetch => self.l1is[core].stats,
            Port::Data => self.l1ds[core].stats,
        }
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> crate::llc::LlcStats {
        self.llc.stats
    }

    /// DRAM read/write/backpressure counters as (reads, writes, stalls).
    pub fn dram_stats(&self) -> (u64, u64, u64) {
        (
            self.dram.reads,
            self.dram.writes,
            self.dram.backpressure_events,
        )
    }

    /// Attaches observability counters to the LLC (idempotent). Only the
    /// metrics-sampling path calls this; when no counters are attached
    /// the arbiter and DRAM paths pay a single `Option` check.
    pub fn enable_obs(&mut self) {
        if self.llc.obs.is_none() {
            self.llc.obs = Some(Box::new(crate::obs::MemObs::new(
                self.cores(),
                self.cfg.dram.regions,
            )));
        }
    }

    /// The observability counters, when attached.
    pub fn obs(&self) -> Option<&crate::obs::MemObs> {
        self.llc.obs.as_deref()
    }

    /// Per-core live-MSHR occupancy, written into `out` (observability
    /// probe).
    pub fn mshr_occupancy(&self, out: &mut Vec<u64>) {
        self.llc.mshr_occupancy(out);
    }

    /// The MSHR quota visible to one core under the active organization.
    pub fn mshr_quota_per_core(&self) -> u64 {
        self.llc.mshr_quota_per_core()
    }

    /// LLC internal queue depths as (cache-access pipeline, DQ, total
    /// UQ entries).
    pub fn llc_queue_depths(&self) -> (usize, usize, usize) {
        self.llc.queue_depths()
    }

    /// Link FIFO depths for one core as (up-req, up-resp, down).
    pub fn link_depths(&self, core: usize) -> (usize, usize, usize) {
        let l = &self.links[core];
        (l.up_req.len(), l.up_resp.len(), l.down.len())
    }

    /// Outstanding DRAM requests.
    pub fn dram_inflight(&self) -> usize {
        self.dram.inflight()
    }

    /// The line base address for a byte address.
    pub fn line_of(addr: PhysAddr) -> PhysAddr {
        PhysAddr::new(addr.raw() >> LINE_SHIFT << LINE_SHIFT)
    }
}

/// Folds one FIFO-front ready time into a running next-event minimum.
/// Returns `true` when the front is already due — the consumer acts this
/// cycle, so the caller must report `None` (no skip).
fn merge_front(next: &mut u64, now: u64, front: Option<u64>) -> bool {
    match front {
        Some(t) if t <= now => true,
        Some(t) => {
            *next = (*next).min(t);
            false
        }
        None => false,
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

impl MemSystem {
    /// Whether the whole hierarchy is idle: no L1 misses in flight, no LLC
    /// MSHR/pipeline/queue entries, no DRAM requests, empty links, and no
    /// undelivered completions. A snapshot taken here can be forked across
    /// LLC organizations.
    pub fn quiescent(&self) -> bool {
        (0..self.cores()).all(|c| self.core_quiescent(c))
            && self.llc.quiescent()
            && self.dram.inflight() == 0
            && self.links.iter().all(CoreLink::is_empty)
            && self
                .completions
                .iter()
                .all(|ports| ports.iter().all(Vec::is_empty))
    }

    /// Serializes the hierarchy's mutable state: physical memory, both L1s
    /// per core, the links, the LLC, DRAM, and undelivered completions.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.cores());
        self.phys.save(w);
        for l1 in self.l1is.iter().chain(&self.l1ds) {
            l1.save_state(w);
        }
        self.links.save(w);
        self.llc.save_state(w);
        self.dram.save(w);
        for ports in &self.completions {
            ports[0].save(w);
            ports[1].save(w);
        }
    }

    /// Restores state saved by [`MemSystem::save_state`] into this
    /// hierarchy. On a cross-configuration fork the LLC re-homes its
    /// lines; any dropped lines are invalidated in the L1s here so the
    /// hierarchy stays inclusive.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::ConfigMismatch`] on geometry mismatches and
    /// [`SnapError::NotQuiescent`] when a cross-configuration snapshot
    /// still has in-flight traffic.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let cores = r.usize()?;
        if cores != self.cores() {
            return Err(SnapError::ConfigMismatch {
                what: format!("{cores} cores vs {}", self.cores()),
            });
        }
        let phys = PhysMem::load(r)?;
        if phys.size() != self.phys.size() {
            return Err(SnapError::ConfigMismatch {
                what: format!(
                    "physical memory {} bytes vs {}",
                    phys.size(),
                    self.phys.size()
                ),
            });
        }
        self.phys = phys;
        for i in 0..cores {
            self.l1is[i].restore_state(r)?;
        }
        for i in 0..cores {
            self.l1ds[i].restore_state(r)?;
        }
        let links: Vec<CoreLink> = SnapState::load(r)?;
        if links.len() != cores {
            return Err(SnapError::BadValue {
                what: "link count does not match core count".into(),
            });
        }
        self.links = links;
        let dropped = self.llc.restore_state(r)?;
        let dram = Dram::load(r)?;
        self.dram = dram;
        for i in 0..cores {
            self.completions[i][0] = SnapState::load(r)?;
            self.completions[i][1] = SnapState::load(r)?;
        }
        // Inclusivity after a re-home: lines the LLC could not keep must
        // leave the L1s too (silently — the directory entry is gone).
        for line in dropped {
            for i in 0..cores {
                self.l1is[i].drop_line(line);
                self.l1ds[i].drop_line(line);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn system(cores: usize) -> MemSystem {
        MemSystem::new(MemConfig::paper_base(), cores)
    }

    /// Issues an access and runs until it completes; returns total cycles.
    fn complete(
        sys: &mut MemSystem,
        now: &mut u64,
        core: usize,
        port: Port,
        addr: u64,
        store: bool,
    ) -> u64 {
        let start = *now;
        let token = 42;
        loop {
            match sys.access(*now, core, port, token, PhysAddr::new(addr), store) {
                L1Access::Hit { ready_at } => {
                    while *now < ready_at {
                        sys.tick(*now);
                        *now += 1;
                    }
                    return *now - start;
                }
                L1Access::Miss => break,
                L1Access::Blocked => {
                    sys.tick(*now);
                    *now += 1;
                }
            }
        }
        loop {
            sys.tick(*now);
            *now += 1;
            let done = sys.take_completions(core, port);
            if done.iter().any(|c| c.token == token) {
                return *now - start;
            }
            assert!(*now - start < 100_000, "access never completed");
        }
    }

    #[test]
    fn cold_miss_then_warm_hit() {
        let mut sys = system(1);
        let mut now = 0;
        let t_cold = complete(&mut sys, &mut now, 0, Port::Data, 0x1_0000, false);
        let t_warm = complete(&mut sys, &mut now, 0, Port::Data, 0x1_0000, false);
        assert!(
            t_cold > 120,
            "cold miss must include DRAM latency, got {t_cold}"
        );
        assert_eq!(t_warm, l1_paper_hit_latency() as u64);
        assert_eq!(sys.l1_stats(0, Port::Data).misses, 1);
        assert_eq!(sys.l1_stats(0, Port::Data).hits, 1);
    }

    fn l1_paper_hit_latency() -> u32 {
        crate::config::L1Config::paper().hit_latency
    }

    #[test]
    fn llc_hit_much_faster_than_dram() {
        let mut sys = system(1);
        let mut now = 0;
        // Warm the LLC via the data port...
        let t_cold = complete(&mut sys, &mut now, 0, Port::Data, 0x2_0000, false);
        // ...then fetch the same line through the I-port: L1I misses but
        // the LLC hits.
        let t_llc = complete(&mut sys, &mut now, 0, Port::IFetch, 0x2_0000, false);
        assert!(t_llc < t_cold / 2, "LLC hit {t_llc} vs cold {t_cold}");
        assert!(t_llc > l1_paper_hit_latency() as u64);
    }

    #[test]
    fn store_then_load_same_line() {
        let mut sys = system(1);
        let mut now = 0;
        complete(&mut sys, &mut now, 0, Port::Data, 0x3_0000, true);
        let t = complete(&mut sys, &mut now, 0, Port::Data, 0x3_0000, false);
        assert_eq!(t, l1_paper_hit_latency() as u64);
    }

    #[test]
    fn flush_then_refetch_misses() {
        let mut sys = system(1);
        let mut now = 0;
        complete(&mut sys, &mut now, 0, Port::Data, 0x4_0000, false);
        sys.start_flush(0);
        while sys.flush_active(0) {
            sys.tick(now);
            now += 1;
        }
        let stats_before = sys.l1_stats(0, Port::Data);
        let t = complete(&mut sys, &mut now, 0, Port::Data, 0x4_0000, false);
        let stats_after = sys.l1_stats(0, Port::Data);
        assert_eq!(stats_after.misses, stats_before.misses + 1);
        // But the line is still in the LLC (L2 keeps de-scheduled domains'
        // lines — Section 6.1), so no DRAM access.
        assert!(t < 60, "refetch after flush should hit LLC, took {t}");
    }

    #[test]
    fn flush_takes_512_cycles() {
        let mut sys = system(1);
        let mut now = 0;
        complete(&mut sys, &mut now, 0, Port::Data, 0x5_0000, false);
        sys.start_flush(0);
        let start = now;
        while sys.flush_active(0) {
            sys.tick(now);
            now += 1;
        }
        assert_eq!(now - start, 512, "paper Section 7.1: 512-cycle flush");
    }

    #[test]
    fn two_cores_independent_lines() {
        let mut sys = system(2);
        let mut now = 0;
        complete(&mut sys, &mut now, 0, Port::Data, 0x10_0000, true);
        complete(&mut sys, &mut now, 1, Port::Data, 0x20_0000, true);
        assert_eq!(sys.l1_stats(0, Port::Data).misses, 1);
        assert_eq!(sys.l1_stats(1, Port::Data).misses, 1);
    }

    #[test]
    fn cross_core_coherence_transfers_ownership() {
        let mut sys = system(2);
        let mut now = 0;
        complete(&mut sys, &mut now, 0, Port::Data, 0x30_0000, true);
        // Core 1 writes the same line: core 0 must be invalidated.
        complete(&mut sys, &mut now, 1, Port::Data, 0x30_0000, true);
        assert!(sys.l1_stats(0, Port::Data).downgrades >= 1);
    }

    #[test]
    fn functional_memory_is_separate() {
        let mut sys = system(1);
        sys.phys.write_u64(PhysAddr::new(0x100), 7);
        assert_eq!(sys.phys.read_u64(PhysAddr::new(0x100)), 7);
        // no timing traffic was generated
        assert_eq!(sys.l1_stats(0, Port::Data).misses, 0);
    }
}
