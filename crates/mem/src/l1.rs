//! L1 cache model (instruction or data).
//!
//! Figure 4: 32 KiB, 8-way, 64 B lines, up to 8 outstanding requests
//! (MSHRs), pseudo-random replacement (an LFSR — no replacement state to
//! scrub on purge, as the paper notes in Section 6.1).
//!
//! The L1 is a coherent child of the LLC. Misses allocate an MSHR and send
//! an upgrade request up the core's link; evictions — *including clean
//! ones* — notify the LLC (paper Section 7.1: "the coherence protocol used
//! in RiscyOO requires L1 to notify L2 even for the invalidation of a clean
//! line"), which is why a purge flush can only retire one line per cycle.
//!
//! Purge support: [`L1Cache::start_flush`] begins a line-per-cycle
//! invalidation sweep driven by [`L1Cache::tick`]; the core stalls until
//! [`L1Cache::flush_active`] clears (Section 7.1 charges 512 cycles for the
//! 512 lines, overlapped with the TLB and predictor scrubs).

use crate::config::{L1Config, LINE_SHIFT};
use crate::link::DelayFifo;
use crate::msi::{ChildId, DowngradeResp, MsiState, ParentMsg, UpgradeReq};
use mi6_isa::PhysAddr;

/// A token identifying an in-flight core request; returned on completion.
pub type ReqToken = u64;

/// Outcome of a core access to the L1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum L1Access {
    /// Hit: data available at the given cycle.
    Hit {
        /// Cycle at which the value is usable.
        ready_at: u64,
    },
    /// Miss: an MSHR tracks the request; completion arrives later with the
    /// request's token.
    Miss,
    /// The cache cannot accept the request this cycle (MSHRs full, flush
    /// in progress, or link backpressure). Retry next cycle.
    Blocked,
}

/// Where a miss was ultimately served from. Observability-only (the
/// CPI stack splits miss cycles by level): never read by timing logic
/// and never serialized — a completion restored from a snapshot
/// defaults to `Llc` (it provably went past the L1; the DRAM bit is
/// not worth a format bump).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ServeLevel {
    /// L1 hit or store-buffer forward (cores record these themselves).
    L1,
    /// LLC hit.
    #[default]
    Llc,
    /// DRAM fill.
    Dram,
}

/// A completed miss, reported by [`L1Cache::take_completions`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Completion {
    /// The token supplied at access time.
    pub token: ReqToken,
    /// Cycle at which the value is usable.
    pub ready_at: u64,
    /// Where the fill came from (observability-only).
    pub level: ServeLevel,
}

#[derive(Clone, Copy, Debug, Default)]
struct LineEntry {
    tag: u64,
    state: MsiState,
    dirty: bool,
    /// Reserved for a pending fill; not a replacement candidate.
    locked: bool,
}

#[derive(Clone, Debug)]
struct Mshr {
    line: PhysAddr,
    want: MsiState,
    set: usize,
    way: usize,
    any_store: bool,
    waiters: Vec<ReqToken>,
}

/// Counters exported by each L1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct L1Stats {
    /// Core accesses that hit.
    pub hits: u64,
    /// Core accesses that allocated an MSHR.
    pub misses: u64,
    /// Accesses merged into an existing MSHR.
    pub merged: u64,
    /// Accesses rejected (retried) for structural reasons.
    pub blocked: u64,
    /// Lines written back on eviction or downgrade.
    pub writebacks: u64,
    /// Downgrade requests served.
    pub downgrades: u64,
    /// Lines invalidated by flushes.
    pub flushed_lines: u64,
}

/// One L1 cache (instruction or data), a coherent child of the LLC.
#[derive(Clone, Debug)]
pub struct L1Cache {
    cfg: L1Config,
    child: ChildId,
    sets: Vec<Vec<LineEntry>>,
    mshrs: Vec<Option<Mshr>>,
    lfsr: u32,
    set_mask: u64,
    /// Flush sweep position: `Some(next line index)` while flushing.
    flush_pos: Option<usize>,
    /// Downgrade responses that could not be sent due to link backpressure
    /// (line, new state, dirty).
    pending_downgrades: Vec<(PhysAddr, MsiState, bool)>,
    completions: Vec<L1Completion>,
    /// Exported statistics.
    pub stats: L1Stats,
}

impl L1Cache {
    /// Creates an empty cache.
    pub fn new(cfg: L1Config, child: ChildId) -> L1Cache {
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        L1Cache {
            cfg,
            child,
            sets: vec![vec![LineEntry::default(); cfg.ways]; sets],
            mshrs: vec![None; cfg.mshrs],
            lfsr: 0xace1,
            set_mask: sets as u64 - 1,
            flush_pos: None,
            pending_downgrades: Vec::new(),
            completions: Vec::new(),
            stats: L1Stats::default(),
        }
    }

    /// This cache's coherence child ID.
    pub fn child(&self) -> ChildId {
        self.child
    }

    /// The configured hit latency.
    pub fn hit_latency(&self) -> u32 {
        self.cfg.hit_latency
    }

    fn set_of(&self, line: PhysAddr) -> usize {
        ((line.raw() >> LINE_SHIFT) & self.set_mask) as usize
    }

    fn tag_of(&self, line: PhysAddr) -> u64 {
        line.raw() >> (LINE_SHIFT + self.set_mask.count_ones())
    }

    fn find(&self, line: PhysAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let tag = self.tag_of(line);
        self.sets[set]
            .iter()
            .position(|e| e.state != MsiState::I && e.tag == tag)
            .map(|way| (set, way))
    }

    fn next_random(&mut self) -> u32 {
        // 16-bit Fibonacci LFSR (taps 16,14,13,11).
        let bit = (self.lfsr ^ (self.lfsr >> 2) ^ (self.lfsr >> 3) ^ (self.lfsr >> 5)) & 1;
        self.lfsr = (self.lfsr >> 1) | (bit << 15);
        self.lfsr
    }

    fn mshr_for(&self, line: PhysAddr) -> Option<usize> {
        self.mshrs
            .iter()
            .position(|m| m.as_ref().is_some_and(|m| m.line == line))
    }

    /// Whether any miss is outstanding.
    pub fn has_inflight(&self) -> bool {
        self.mshrs.iter().any(Option::is_some)
    }

    /// Whether a flush sweep is in progress.
    pub fn flush_active(&self) -> bool {
        self.flush_pos.is_some()
    }

    /// Whether this cache does nothing on its own clock: no backpressured
    /// downgrade responses to retry, no flush sweep, and no completions
    /// awaiting collection. Outstanding MSHRs are passive (they wake on
    /// parent messages, which the event-driven idle-skip bounds via the
    /// link FIFOs).
    pub fn is_inert(&self) -> bool {
        self.pending_downgrades.is_empty()
            && self.flush_pos.is_none()
            && self.completions.is_empty()
    }

    /// Begins a full invalidation sweep (the purge path). The core must
    /// have drained in-flight misses first.
    ///
    /// # Panics
    ///
    /// Panics if misses are outstanding — the purge sequence always drains
    /// the pipeline (and thus the MSHRs) before flushing.
    pub fn start_flush(&mut self) {
        assert!(
            !self.has_inflight(),
            "flush started with outstanding misses"
        );
        self.flush_pos = Some(0);
    }

    /// Core access for one line. `want` is [`MsiState::S`] for loads and
    /// fetches, [`MsiState::M`] for stores.
    pub fn access(
        &mut self,
        now: u64,
        token: ReqToken,
        line: PhysAddr,
        want: MsiState,
        up_req: &mut DelayFifo<UpgradeReq>,
        up_resp: &mut DelayFifo<DowngradeResp>,
    ) -> L1Access {
        debug_assert_eq!(
            line.raw() & ((1 << LINE_SHIFT) - 1),
            0,
            "not a line address"
        );
        if self.flush_active() {
            self.stats.blocked += 1;
            return L1Access::Blocked;
        }
        if let Some((set, way)) = self.find(line) {
            let entry = &mut self.sets[set][way];
            if entry.state.covers(want) && !entry.locked {
                if want == MsiState::M {
                    entry.dirty = true;
                }
                self.stats.hits += 1;
                return L1Access::Hit {
                    ready_at: now + self.cfg.hit_latency as u64,
                };
            }
        }
        // Miss or S→M upgrade. Merge into an existing MSHR when possible.
        if let Some(idx) = self.mshr_for(line) {
            let m = self.mshrs[idx]
                .as_mut()
                .expect("mshr_for returned live index");
            if m.want.covers(want) {
                m.waiters.push(token);
                m.any_store |= want == MsiState::M;
                self.stats.merged += 1;
                return L1Access::Miss;
            }
            // A store hitting a pending S-fill would need a second upgrade;
            // structural stall (rare).
            self.stats.blocked += 1;
            return L1Access::Blocked;
        }
        let Some(free) = self.mshrs.iter().position(Option::is_none) else {
            self.stats.blocked += 1;
            return L1Access::Blocked;
        };
        if !up_req.can_push() {
            self.stats.blocked += 1;
            return L1Access::Blocked;
        }
        let set = self.set_of(line);
        // Pick a way: an S→M upgrade reuses the line's own way; otherwise
        // an invalid way, else pseudo-random eviction.
        let tag = self.tag_of(line);
        let existing = self.sets[set]
            .iter()
            .position(|e| e.state != MsiState::I && e.tag == tag);
        let way = if let Some(w) = existing {
            w
        } else if let Some(w) = self.sets[set]
            .iter()
            .position(|e| e.state == MsiState::I && !e.locked)
        {
            w
        } else {
            // Random among unlocked valid ways; if everything is locked the
            // access must stall.
            let candidates: Vec<usize> = self.sets[set]
                .iter()
                .enumerate()
                .filter(|(_, e)| !e.locked)
                .map(|(w, _)| w)
                .collect();
            if candidates.is_empty() {
                self.stats.blocked += 1;
                return L1Access::Blocked;
            }
            let pick = self.next_random() as usize % candidates.len();
            let way = candidates[pick];
            // Evicting a valid line requires notifying the LLC.
            if !up_resp.can_push() {
                self.stats.blocked += 1;
                return L1Access::Blocked;
            }
            let victim = self.sets[set][way];
            let victim_line = self.line_addr(set, victim.tag);
            let pushed = up_resp.push(
                now,
                DowngradeResp {
                    child: self.child,
                    line: victim_line,
                    now: MsiState::I,
                    dirty: victim.dirty,
                },
            );
            debug_assert!(pushed);
            if victim.dirty {
                self.stats.writebacks += 1;
            }
            way
        };
        {
            let entry = &mut self.sets[set][way];
            if existing.is_none() {
                // Fresh allocation: the slot is empty (or just evicted).
                entry.tag = tag;
                entry.state = MsiState::I;
                entry.dirty = false;
            }
            // S survives in place during an S→M upgrade.
            entry.locked = true;
        }
        let pushed = up_req.push(
            now,
            UpgradeReq {
                child: self.child,
                line,
                want,
            },
        );
        debug_assert!(pushed);
        self.mshrs[free] = Some(Mshr {
            line,
            want,
            set,
            way,
            any_store: want == MsiState::M,
            waiters: vec![token],
        });
        self.stats.misses += 1;
        L1Access::Miss
    }

    fn line_addr(&self, set: usize, tag: u64) -> PhysAddr {
        PhysAddr::new(
            (tag << (LINE_SHIFT + self.set_mask.count_ones())) | ((set as u64) << LINE_SHIFT),
        )
    }

    /// Handles one parent message (upgrade response or downgrade request).
    pub fn handle_parent(
        &mut self,
        now: u64,
        msg: ParentMsg,
        up_resp: &mut DelayFifo<DowngradeResp>,
    ) {
        match msg {
            ParentMsg::UpgradeResp {
                line,
                granted,
                from_dram,
            } => {
                let idx = self
                    .mshr_for(line)
                    .expect("upgrade response without a matching MSHR");
                let m = self.mshrs[idx]
                    .take()
                    .expect("mshr_for returned live index");
                debug_assert!(granted.covers(m.want));
                let tag = self.tag_of(line);
                let entry = &mut self.sets[m.set][m.way];
                entry.tag = tag;
                entry.state = granted;
                entry.locked = false;
                entry.dirty = m.any_store;
                let ready_at = now + 1;
                let level = if from_dram {
                    ServeLevel::Dram
                } else {
                    ServeLevel::Llc
                };
                self.completions
                    .extend(m.waiters.iter().map(|&token| L1Completion {
                        token,
                        ready_at,
                        level,
                    }));
            }
            ParentMsg::DowngradeReq { line, to } => {
                // Ignore if we no longer hold the line above `to` — a
                // voluntary eviction notification is already in flight and
                // serves as the acknowledgement.
                if let Some((set, way)) = self.find(line) {
                    let entry = &mut self.sets[set][way];
                    if entry.state > to && !entry.locked {
                        let dirty = entry.dirty && entry.state == MsiState::M;
                        entry.state = to;
                        if dirty {
                            entry.dirty = false;
                            self.stats.writebacks += 1;
                        }
                        self.stats.downgrades += 1;
                        let resp = DowngradeResp {
                            child: self.child,
                            line,
                            now: to,
                            dirty,
                        };
                        if !up_resp.push(now, resp) {
                            // State already downgraded; queue the response
                            // locally until the link frees up.
                            self.pending_downgrades.push((line, to, dirty));
                        }
                    }
                }
            }
        }
    }

    /// Per-cycle maintenance: retries backpressured downgrade responses.
    pub fn tick(&mut self, now: u64, up_resp: &mut DelayFifo<DowngradeResp>) {
        while let Some(&(line, to, dirty)) = self.pending_downgrades.first() {
            let resp = DowngradeResp {
                child: self.child,
                line,
                now: to,
                dirty,
            };
            if up_resp.push(now, resp) {
                self.pending_downgrades.remove(0);
            } else {
                break;
            }
        }
    }

    /// Advances the flush sweep by one line slot (one cycle of purge).
    ///
    /// Returns `Some((line, dirty))` when a valid line was invalidated this
    /// cycle; the caller forwards the notification to the LLC directory
    /// (every invalidation — clean or dirty — must notify, Section 7.1).
    /// Returns `None` for empty slots and after the sweep completes
    /// ([`L1Cache::flush_active`] turns false).
    pub fn flush_step(&mut self) -> Option<(PhysAddr, bool)> {
        let pos = self.flush_pos?;
        let total = self.cfg.lines();
        let set = pos / self.cfg.ways;
        let way = pos % self.cfg.ways;
        let entry = self.sets[set][way];
        self.flush_pos = if pos + 1 >= total {
            None
        } else {
            Some(pos + 1)
        };
        if entry.state != MsiState::I {
            let line = self.line_addr(set, entry.tag);
            if entry.dirty {
                self.stats.writebacks += 1;
            }
            self.sets[set][way] = LineEntry::default();
            self.stats.flushed_lines += 1;
            Some((line, entry.dirty))
        } else {
            None
        }
    }

    /// Drains completed misses.
    pub fn take_completions(&mut self) -> Vec<L1Completion> {
        std::mem::take(&mut self.completions)
    }

    /// The MSI state currently held for a line (I if absent). Test aid.
    pub fn probe(&self, line: PhysAddr) -> MsiState {
        self.find(line)
            .map(|(s, w)| self.sets[s][w].state)
            .unwrap_or(MsiState::I)
    }

    /// Number of valid lines (test aid).
    pub fn valid_lines(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|e| e.state != MsiState::I)
            .count()
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

mi6_snapshot::snap_struct! { LineEntry { tag, state, dirty, locked } }

mi6_snapshot::snap_struct! { Mshr { line, want, set, way, any_store, waiters } }

// `level` is observability-only and never serialized: a restored
// completion reads as the default serve level.
mi6_snapshot::snap_struct! {
    L1Completion { token, ready_at } runtime { level: ServeLevel::default() }
}

mi6_snapshot::snap_struct! {
    L1Stats { hits, misses, merged, blocked, writebacks, downgrades, flushed_lines }
}

impl L1Cache {
    /// Serializes the cache's mutable state (tags, MSHRs, LFSR, flush
    /// sweep, pending traffic, counters). The geometry comes from the
    /// configuration and is written only for validation.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.sets.len());
        w.usize(self.cfg.ways);
        w.usize(self.mshrs.len());
        for set in &self.sets {
            for entry in set {
                entry.save(w);
            }
        }
        self.mshrs.save(w);
        w.u32(self.lfsr);
        self.flush_pos.save(w);
        self.pending_downgrades.save(w);
        self.completions.save(w);
        self.stats.save(w);
    }

    /// Restores state saved by [`L1Cache::save_state`] into this cache.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError::ConfigMismatch`] when the snapshot's geometry
    /// differs from this cache's configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let (sets, ways, mshrs) = (r.usize()?, r.usize()?, r.usize()?);
        if sets != self.sets.len() || ways != self.cfg.ways || mshrs != self.mshrs.len() {
            return Err(SnapError::ConfigMismatch {
                what: format!(
                    "L1 geometry {sets}x{ways} ways / {mshrs} MSHRs vs {}x{} / {}",
                    self.sets.len(),
                    self.cfg.ways,
                    self.mshrs.len()
                ),
            });
        }
        for set in &mut self.sets {
            for entry in set.iter_mut() {
                *entry = LineEntry::load(r)?;
            }
        }
        self.mshrs = SnapState::load(r)?;
        if self.mshrs.len() != mshrs {
            return Err(SnapError::BadValue {
                what: "L1 MSHR count changed mid-snapshot".into(),
            });
        }
        self.lfsr = r.u32()?;
        self.flush_pos = SnapState::load(r)?;
        self.pending_downgrades = SnapState::load(r)?;
        self.completions = SnapState::load(r)?;
        self.stats = L1Stats::load(r)?;
        Ok(())
    }

    /// Silently invalidates a line (no LLC notification) — used when a
    /// forked restore re-homes the LLC and must keep inclusivity.
    pub(crate) fn drop_line(&mut self, line: PhysAddr) {
        if let Some((set, way)) = self.find(line) {
            self.sets[set][way] = LineEntry::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LINK_CAPACITY;

    fn fixture() -> (L1Cache, DelayFifo<UpgradeReq>, DelayFifo<DowngradeResp>) {
        (
            L1Cache::new(L1Config::paper(), ChildId::l1d(0)),
            DelayFifo::new(LINK_CAPACITY, 0),
            DelayFifo::new(LINK_CAPACITY, 0),
        )
    }

    fn fill(
        l1: &mut L1Cache,
        now: u64,
        line: u64,
        want: MsiState,
        up_req: &mut DelayFifo<UpgradeReq>,
        up_resp: &mut DelayFifo<DowngradeResp>,
    ) {
        let r = l1.access(now, 0, PhysAddr::new(line), want, up_req, up_resp);
        assert_eq!(r, L1Access::Miss);
        let req = up_req.pop(now).expect("request sent");
        assert_eq!(req.line, PhysAddr::new(line));
        l1.handle_parent(
            now,
            ParentMsg::UpgradeResp {
                line: PhysAddr::new(line),
                granted: want,
                from_dram: false,
            },
            up_resp,
        );
        l1.take_completions();
    }

    #[test]
    fn miss_then_hit() {
        let (mut l1, mut req, mut resp) = fixture();
        fill(&mut l1, 0, 0x1000, MsiState::S, &mut req, &mut resp);
        let r = l1.access(
            1,
            1,
            PhysAddr::new(0x1000),
            MsiState::S,
            &mut req,
            &mut resp,
        );
        assert_eq!(r, L1Access::Hit { ready_at: 3 });
        assert_eq!(l1.stats.hits, 1);
        assert_eq!(l1.stats.misses, 1);
    }

    #[test]
    fn store_to_shared_line_upgrades() {
        let (mut l1, mut req, mut resp) = fixture();
        fill(&mut l1, 0, 0x1000, MsiState::S, &mut req, &mut resp);
        let r = l1.access(
            1,
            2,
            PhysAddr::new(0x1000),
            MsiState::M,
            &mut req,
            &mut resp,
        );
        assert_eq!(r, L1Access::Miss);
        let sent = req.pop(1).unwrap();
        assert_eq!(sent.want, MsiState::M);
        l1.handle_parent(
            1,
            ParentMsg::UpgradeResp {
                line: PhysAddr::new(0x1000),
                granted: MsiState::M,
                from_dram: false,
            },
            &mut resp,
        );
        assert_eq!(l1.probe(PhysAddr::new(0x1000)), MsiState::M);
        let done = l1.take_completions();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, 2);
    }

    #[test]
    fn same_line_misses_merge() {
        let (mut l1, mut req, mut resp) = fixture();
        let a = PhysAddr::new(0x2000);
        assert_eq!(
            l1.access(0, 1, a, MsiState::S, &mut req, &mut resp),
            L1Access::Miss
        );
        assert_eq!(
            l1.access(0, 2, a, MsiState::S, &mut req, &mut resp),
            L1Access::Miss
        );
        assert_eq!(l1.stats.merged, 1);
        assert_eq!(req.len(), 1); // only one upgrade request sent
        l1.handle_parent(
            5,
            ParentMsg::UpgradeResp {
                line: a,
                granted: MsiState::S,
                from_dram: false,
            },
            &mut resp,
        );
        let done = l1.take_completions();
        assert_eq!(done.len(), 2);
    }

    #[test]
    fn mshrs_exhaust_blocks() {
        let (mut l1, _req, mut resp) = fixture();
        // Paper: max 8 requests. Use request FIFO with enough room.
        let mut big_req = DelayFifo::new(16, 0);
        for i in 0..8u64 {
            let line = PhysAddr::new(0x10000 + i * 64);
            assert_eq!(
                l1.access(0, i, line, MsiState::S, &mut big_req, &mut resp),
                L1Access::Miss
            );
        }
        let r = l1.access(
            0,
            99,
            PhysAddr::new(0x90000),
            MsiState::S,
            &mut big_req,
            &mut resp,
        );
        assert_eq!(r, L1Access::Blocked);
    }

    #[test]
    fn eviction_notifies_llc_even_when_clean() {
        let (mut l1, mut req, mut resp) = fixture();
        // Fill all 8 ways of set 0 (64 sets; stride = 64 sets * 64 B).
        let stride = 64 * 64u64;
        for w in 0..8u64 {
            fill(
                &mut l1,
                w,
                0x4000 + w * stride,
                MsiState::S,
                &mut req,
                &mut resp,
            );
        }
        // Ninth distinct line in the same set forces a clean eviction.
        let r = l1.access(
            100,
            9,
            PhysAddr::new(0x4000 + 8 * stride),
            MsiState::S,
            &mut req,
            &mut resp,
        );
        assert_eq!(r, L1Access::Miss);
        let evict = resp.pop(100).expect("clean eviction must notify LLC");
        assert_eq!(evict.now, MsiState::I);
        assert!(!evict.dirty);
    }

    #[test]
    fn downgrade_request_writes_back_dirty() {
        let (mut l1, mut req, mut resp) = fixture();
        fill(&mut l1, 0, 0x3000, MsiState::M, &mut req, &mut resp);
        // Store marks it dirty.
        let r = l1.access(
            1,
            5,
            PhysAddr::new(0x3000),
            MsiState::M,
            &mut req,
            &mut resp,
        );
        assert!(matches!(r, L1Access::Hit { .. }));
        l1.handle_parent(
            2,
            ParentMsg::DowngradeReq {
                line: PhysAddr::new(0x3000),
                to: MsiState::I,
            },
            &mut resp,
        );
        let ack = resp.pop(2).unwrap();
        assert!(ack.dirty);
        assert_eq!(ack.now, MsiState::I);
        assert_eq!(l1.probe(PhysAddr::new(0x3000)), MsiState::I);
    }

    #[test]
    fn downgrade_for_absent_line_ignored() {
        let (mut l1, _req, mut resp) = fixture();
        l1.handle_parent(
            0,
            ParentMsg::DowngradeReq {
                line: PhysAddr::new(0x7000),
                to: MsiState::I,
            },
            &mut resp,
        );
        assert!(resp.is_empty());
    }

    #[test]
    fn flush_invalidates_everything_one_line_per_cycle() {
        let (mut l1, mut req, mut resp) = fixture();
        for i in 0..20u64 {
            fill(
                &mut l1,
                i,
                0x8000 + i * 64,
                MsiState::S,
                &mut req,
                &mut resp,
            );
        }
        assert_eq!(l1.valid_lines(), 20);
        l1.start_flush();
        let mut cycles = 0u64;
        let mut notifications = 0;
        while l1.flush_active() {
            if l1.flush_step().is_some() {
                notifications += 1;
            }
            cycles += 1;
        }
        assert_eq!(l1.valid_lines(), 0);
        assert_eq!(l1.stats.flushed_lines, 20);
        // The sweep visits every line slot: exactly 512 cycles (Sec 7.1).
        assert_eq!(cycles, L1Config::paper().lines() as u64);
        // Every valid line's invalidation notified the LLC.
        assert_eq!(notifications, 20);
    }

    #[test]
    #[should_panic(expected = "outstanding misses")]
    fn flush_with_inflight_panics() {
        let (mut l1, mut req, mut resp) = fixture();
        let _ = l1.access(0, 0, PhysAddr::new(0x100), MsiState::S, &mut req, &mut resp);
        l1.start_flush();
    }

    #[test]
    fn blocked_during_flush() {
        let (mut l1, mut req, mut resp) = fixture();
        l1.start_flush();
        let r = l1.access(0, 0, PhysAddr::new(0x100), MsiState::S, &mut req, &mut resp);
        assert_eq!(r, L1Access::Blocked);
    }
}
