//! Checkpoint serialization of the LLC and the core links.
//!
//! Two restore paths exist:
//!
//! - **verbatim** — the snapshot's [`LlcConfig`] equals the target's:
//!   every array, queue, and in-flight MSHR is restored exactly (the
//!   round-trip path used by resume and same-variant forks).
//! - **re-homing** — the configs differ (a warm state forked across
//!   variants, e.g. BASE → PART): the snapshot must be memory-quiescent
//!   (no in-flight MSHRs, pipeline, or queue entries), and resident lines
//!   are re-inserted under the *target's* set-index function. Lines that
//!   overflow a set's ways are dropped and returned so the caller can
//!   invalidate any L1 copies and keep the hierarchy inclusive.

use super::{Llc, LlcLine, MshrEntry, MshrState, PipeMsg};
use crate::config::{LlcConfig, LINE_SHIFT};
use crate::llc::CoreLink;
use crate::msi::ChildId;
use mi6_isa::PhysAddr;
use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};
use std::collections::VecDeque;

use super::AfterDowngrade;
use super::LlcStats;

mi6_snapshot::snap_struct! { LlcLine { tag, valid, dirty, sharers, child_m, locked_by } }

mi6_snapshot::snap_enum! {
    MshrState {
        0 => WaitPipe,
        1 => InPipe,
        2 => Blocked(on),
        3 => WaitDowngrade,
        4 => InDq,
        5 => WaitDram,
        6 => FillReady,
        7 => InUq,
    }
}

mi6_snapshot::snap_enum! { AfterDowngrade { 0 => Grant, 1 => Replace } }

// Observability-only serve-level bit: not serialized (a restored fill
// reads as an LLC serve; not worth a format bump).
mi6_snapshot::snap_struct! {
    MshrEntry {
        child, line, want, state, set, way, needs_wb, victim_line, wait_line, pending_downgrades,
        to_downgrade, after, retry,
    } runtime { from_dram: false }
}

mi6_snapshot::snap_enum! { PipeMsg { 0 => Req(i), 1 => Reentry(i), 2 => DownResp(resp) } }

mi6_snapshot::snap_struct! {
    LlcStats {
        hits, misses, evictions, writebacks, downgrades_sent, arb_wait_cycles, conflicts,
        dq_retries, dq_double_cycles,
    }
}

mi6_snapshot::snap_struct! { CoreLink { up_req, up_resp, down } }

impl CoreLink {
    /// Whether all three FIFOs are empty.
    pub fn is_empty(&self) -> bool {
        self.up_req.is_empty() && self.up_resp.is_empty() && self.down.is_empty()
    }
}

impl Llc {
    /// Serializes the LLC: its configuration (for restore-time matching),
    /// the directory arrays (a never-filled line as a single zero byte),
    /// MSHRs, the cache-access pipeline, and every queue and counter.
    pub fn save_state(&self, w: &mut SnapWriter) {
        self.cfg.save(w);
        w.usize(self.sets.len());
        w.usize(self.cfg.ways);
        // Most of a warmed directory was never filled: such a line is one
        // presence byte. Any other line, even an invalidated one that
        // still carries its tag, is written in full.
        for line in self.sets.iter().flatten() {
            if *line == LlcLine::default() {
                w.u8(0);
            } else {
                w.u8(1);
                line.save(w);
            }
        }
        self.mshrs.save(w);
        self.pipe.save(w);
        self.uqs.save(w);
        self.dq.save(w);
        w.u64(self.dq_port_busy_until);
        w.usize(self.downgrade_scan);
        self.stats.save(w);
    }

    /// Restores state saved by [`Llc::save_state`].
    ///
    /// Returns the lines that had to be *dropped* during a cross-config
    /// re-home (empty on the verbatim path); the caller must invalidate
    /// those lines in the L1s to preserve inclusivity.
    ///
    /// # Errors
    ///
    /// [`SnapError::ConfigMismatch`] when geometry (sets × ways) differs;
    /// [`SnapError::NotQuiescent`] when configs differ and the snapshot
    /// still has in-flight LLC state.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<Vec<PhysAddr>, SnapError> {
        let snap_cfg = LlcConfig::load(r)?;
        let (sets, ways) = (r.usize()?, r.usize()?);
        if sets != self.sets.len() || ways != self.cfg.ways {
            return Err(SnapError::ConfigMismatch {
                what: format!(
                    "LLC geometry {sets} sets x {ways} ways vs {} x {}",
                    self.sets.len(),
                    self.cfg.ways
                ),
            });
        }
        // Version 1 wrote every line in full, with no presence byte.
        let elided = r.version() >= 2;
        let mut lines = vec![vec![LlcLine::default(); ways]; sets];
        for line in lines.iter_mut().flatten() {
            if !elided || r.bool()? {
                *line = LlcLine::load(r)?;
            }
        }
        let mshrs: Vec<Option<MshrEntry>> = SnapState::load(r)?;
        let pipe: VecDeque<(u64, PipeMsg)> = SnapState::load(r)?;
        let uqs: Vec<VecDeque<u32>> = SnapState::load(r)?;
        let dq: VecDeque<u32> = SnapState::load(r)?;
        let dq_port_busy_until = r.u64()?;
        let downgrade_scan = r.usize()?;
        let stats = LlcStats::load(r)?;
        // The links and the arbiter index cores by the L1s named here.
        let l1s = 2 * self.cores;
        let foreign = |mask: u32| mask.checked_shr(l1s as u32).unwrap_or(0) != 0;
        let unknown = |child: ChildId| child.index() >= l1s;
        let bad_mshr = |m: &MshrEntry| {
            unknown(m.child)
                || foreign(m.pending_downgrades)
                || m.to_downgrade.iter().any(|&(child, ..)| unknown(child))
        };
        if lines.iter().flatten().any(|l| foreign(l.sharers))
            || mshrs.iter().flatten().any(bad_mshr)
        {
            return Err(SnapError::BadValue {
                what: format!(
                    "LLC names an L1 that this {}-core machine lacks",
                    self.cores
                ),
            });
        }

        if snap_cfg == self.cfg {
            if mshrs.len() != self.mshrs.len() || uqs.len() != self.uqs.len() {
                return Err(SnapError::BadValue {
                    what: "LLC MSHR/UQ count does not match its own configuration".into(),
                });
            }
            self.sets = lines;
            self.mshrs = mshrs;
            self.pipe = pipe;
            self.uqs = uqs;
            self.dq = dq;
            self.dq_port_busy_until = dq_port_busy_until;
            self.downgrade_scan = downgrade_scan;
            self.stats = stats;
            // The dirty counters (`live_mshrs`, `wait_pipe`, ...) are
            // derived state: recompute them rather than serialize them
            // (the snapshot format is unchanged). Observability counters
            // are runtime-only and do not survive a reload.
            self.recompute_derived();
            if let Some(obs) = &mut self.obs {
                obs.reset();
            }
            return Ok(Vec::new());
        }

        // Cross-config fork: only a quiescent LLC can change organization.
        let inflight = mshrs.iter().any(Option::is_some)
            || !pipe.is_empty()
            || !dq.is_empty()
            || uqs.iter().any(|q| !q.is_empty());
        if inflight {
            return Err(SnapError::NotQuiescent {
                what: "LLC MSHRs/pipeline/queues".into(),
            });
        }
        for m in &mut self.mshrs {
            *m = None;
        }
        self.pipe.clear();
        self.dq.clear();
        for q in &mut self.uqs {
            q.clear();
        }
        // Everything in flight is gone: all derived counters are zero.
        self.recompute_derived();
        if let Some(obs) = &mut self.obs {
            obs.reset();
        }
        self.dq_port_busy_until = dq_port_busy_until;
        self.downgrade_scan = 0;
        self.stats = stats;

        let mut dropped = Vec::new();
        if snap_cfg.indexing == self.cfg.indexing {
            self.sets = lines;
        } else {
            // Re-home every resident line under the target index function.
            for set in &mut self.sets {
                set.fill(LlcLine::default());
            }
            for line in lines.into_iter().flatten() {
                if !line.valid {
                    continue;
                }
                let addr = PhysAddr::new(line.tag << LINE_SHIFT);
                let map = &self.region_map;
                if addr.raw() / map.region_bytes() >= u64::from(map.regions()) {
                    return Err(SnapError::BadValue {
                        what: format!("LLC line {addr} is outside DRAM"),
                    });
                }
                let set = self.set_index(addr);
                match self.sets[set].iter_mut().find(|l| !l.valid) {
                    Some(slot) => {
                        *slot = LlcLine {
                            locked_by: None,
                            ..line
                        }
                    }
                    None => dropped.push(addr),
                }
            }
        }
        Ok(dropped)
    }
}
