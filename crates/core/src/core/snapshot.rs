//! Checkpoint serialization of the whole core pipeline.
//!
//! Everything in [`Core`] that can differ between two machines mid-run is
//! written: the architectural state (registers, PC, privilege, CSRs), the
//! front end (predictors, fetch state machine, fetch queue, decode
//! cache), the backend (ROB, RAT, issue queues, LQ/SQ occupancy, store
//! buffer), the translation machinery (TLBs, translation cache, walker),
//! the token bookkeeping (zombies, pending completions), the purge state
//! machine, and the statistics. The structural configuration (`cfg`,
//! `sec`, `id`) is *not* serialized — state is restored into a core built
//! with a matching (or, for forks, compatible) configuration; the machine
//! header's fingerprint enforces that.
//!
//! Hash-ordered containers (`decode_cache`, `zombies`, the completion
//! maps) are written in sorted key order so identical states always
//! produce identical bytes.

use super::*;
use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

impl SnapState for Src {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Src::Ready(v) => {
                w.u8(0);
                w.u64(v);
            }
            Src::Wait { seq, reg } => {
                w.u8(1);
                w.u64(seq);
                reg.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Src::Ready(r.u64()?),
            1 => Src::Wait {
                seq: r.u64()?,
                reg: Reg::load(r)?,
            },
            other => {
                return Err(SnapError::BadValue {
                    what: format!("Src tag {other}"),
                })
            }
        })
    }
}

impl SnapState for MemPhase {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            MemPhase::AddrGen { done_at } => {
                w.u8(0);
                w.u64(done_at);
            }
            MemPhase::Translate => w.u8(1),
            MemPhase::TlbLatency { ready_at } => {
                w.u8(2);
                w.u64(ready_at);
            }
            MemPhase::WaitWalk => w.u8(3),
            MemPhase::ReadyToAccess => w.u8(4),
            MemPhase::WaitMem => w.u8(5),
            MemPhase::WaitValue { ready_at } => {
                w.u8(6);
                w.u64(ready_at);
            }
            MemPhase::Done => w.u8(7),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => MemPhase::AddrGen { done_at: r.u64()? },
            1 => MemPhase::Translate,
            2 => MemPhase::TlbLatency { ready_at: r.u64()? },
            3 => MemPhase::WaitWalk,
            4 => MemPhase::ReadyToAccess,
            5 => MemPhase::WaitMem,
            6 => MemPhase::WaitValue { ready_at: r.u64()? },
            7 => MemPhase::Done,
            other => {
                return Err(SnapError::BadValue {
                    what: format!("MemPhase tag {other}"),
                })
            }
        })
    }
}

mi6_snapshot::snap_struct! { MemState { vaddr, paddr, bytes, is_store, store_data, phase } }

mi6_snapshot::snap_struct! {
    BranchState { pred_taken, pred_target, tournament, actual_taken, actual_target }
}

impl SnapState for Stage {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            Stage::InIq => w.u8(0),
            Stage::Exec { done_at } => {
                w.u8(1);
                w.u64(done_at);
            }
            Stage::MemOp => w.u8(2),
            Stage::AtCommit => w.u8(3),
            Stage::Done => w.u8(4),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => Stage::InIq,
            1 => Stage::Exec { done_at: r.u64()? },
            2 => Stage::MemOp,
            3 => Stage::AtCommit,
            4 => Stage::Done,
            other => {
                return Err(SnapError::BadValue {
                    what: format!("Stage tag {other}"),
                })
            }
        })
    }
}

mi6_snapshot::snap_struct! {
    RobEntry { seq, pc, inst, stage, srcs, dest, prev_map, result, branch, mem, exception }
}

/// The ROB serializes in its logical entry form — a length then each
/// entry's fields in [`RobEntry::save`] order, exactly the bytes the old
/// `VecDeque<RobEntry>` field produced — so the struct-of-arrays ring
/// layout is invisible on disk (no `FORMAT_VERSION` bump; the arrays are
/// re-split entry by entry on load). The ring has a fixed configured
/// capacity, so loading is in-place rather than via `SnapState::load`.
impl Rob {
    fn save_state(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        for i in 0..self.len() {
            self.entry(i).save(w);
        }
    }

    fn load_into(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.usize()?;
        w_check(n <= self.capacity(), "ROB occupancy")?;
        self.clear();
        for _ in 0..n {
            self.push_back(RobEntry::load(r)?);
        }
        Ok(())
    }
}

impl SnapState for WalkClient {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            WalkClient::Fetch => w.u8(0),
            WalkClient::Rob(seq) => {
                w.u8(1);
                w.u64(seq);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WalkClient::Fetch,
            1 => WalkClient::Rob(r.u64()?),
            other => {
                return Err(SnapError::BadValue {
                    what: format!("WalkClient tag {other}"),
                })
            }
        })
    }
}

mi6_snapshot::snap_struct! { WalkReq { vpn, kind, client } }

impl SnapState for WalkPending {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            WalkPending::Issue => w.u8(0),
            WalkPending::Token(t) => {
                w.u8(1);
                w.u64(t);
            }
            WalkPending::ReadyAt(c) => {
                w.u8(2);
                w.u64(c);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WalkPending::Issue,
            1 => WalkPending::Token(r.u64()?),
            2 => WalkPending::ReadyAt(r.u64()?),
            other => {
                return Err(SnapError::BadValue {
                    what: format!("WalkPending tag {other}"),
                })
            }
        })
    }
}

mi6_snapshot::snap_struct! { ActiveWalk { req, level, table, pending, pte_addr } }

impl SnapState for WalkResult {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            WalkResult::Ok => w.u8(0),
            WalkResult::Fault(e) => {
                w.u8(1);
                e.save(w);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => WalkResult::Ok,
            1 => WalkResult::Fault(Exception::load(r)?),
            other => {
                return Err(SnapError::BadValue {
                    what: format!("WalkResult tag {other}"),
                })
            }
        })
    }
}

impl SnapState for FetchState {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            FetchState::Idle => w.u8(0),
            FetchState::WaitWalk => w.u8(1),
            FetchState::TlbDelay {
                ready_at,
                paddr,
                region_ok,
            } => {
                w.u8(2);
                w.u64(ready_at);
                w.u64(paddr);
                w.bool(region_ok);
            }
            FetchState::WaitICache { token, paddr } => {
                w.u8(3);
                w.u64(token);
                w.u64(paddr);
            }
            FetchState::Deliver { ready_at, paddr } => {
                w.u8(4);
                w.u64(ready_at);
                w.u64(paddr);
            }
            FetchState::Stalled => w.u8(5),
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => FetchState::Idle,
            1 => FetchState::WaitWalk,
            2 => FetchState::TlbDelay {
                ready_at: r.u64()?,
                paddr: r.u64()?,
                region_ok: r.bool()?,
            },
            3 => FetchState::WaitICache {
                token: r.u64()?,
                paddr: r.u64()?,
            },
            4 => FetchState::Deliver {
                ready_at: r.u64()?,
                paddr: r.u64()?,
            },
            5 => FetchState::Stalled,
            other => {
                return Err(SnapError::BadValue {
                    what: format!("FetchState tag {other}"),
                })
            }
        })
    }
}

// `fetched_at` is observability-only, never serialized: restored
// entries trace a fetch stamp of 0 ("unknown"), keeping the snapshot
// format unchanged.
mi6_snapshot::snap_struct! { FetchedInst { pc, inst, pred, poison } runtime { fetched_at: 0 } }

impl SnapState for PurgePhase {
    fn save(&self, w: &mut SnapWriter) {
        match *self {
            PurgePhase::Idle => w.u8(0),
            PurgePhase::DrainMem => w.u8(1),
            PurgePhase::Flushing { until } => {
                w.u8(2);
                w.u64(until);
            }
        }
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(match r.u8()? {
            0 => PurgePhase::Idle,
            1 => PurgePhase::DrainMem,
            2 => PurgePhase::Flushing { until: r.u64()? },
            other => {
                return Err(SnapError::BadValue {
                    what: format!("PurgePhase tag {other}"),
                })
            }
        })
    }
}

mi6_snapshot::snap_struct! { SbEntry { line, issued, token, done } }

/// Serializes a hash map as sorted `(key, value)` pairs.
fn save_sorted_map<V: SnapState + Clone, S: std::hash::BuildHasher>(
    map: &HashMap<u64, V, S>,
    w: &mut SnapWriter,
) {
    let mut entries: Vec<(u64, V)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
    entries.sort_unstable_by_key(|(k, _)| *k);
    entries.save(w);
}

fn load_map<V: SnapState, S: std::hash::BuildHasher + Default>(
    r: &mut SnapReader<'_>,
) -> Result<HashMap<u64, V, S>, SnapError> {
    let entries: Vec<(u64, V)> = SnapState::load(r)?;
    Ok(entries.into_iter().collect())
}

impl Core {
    /// Whether this core has no business in flight with the memory system:
    /// no I-cache or D-cache request outstanding, no walker access on the
    /// data port, no store-buffer entry waiting on the L1, no undelivered
    /// completions, and no purge sweep running. A snapshot taken here (with
    /// the hierarchy also quiescent) can be forked across variants.
    pub fn mem_quiescent(&self) -> bool {
        !matches!(self.fetch_state, FetchState::WaitICache { .. })
            && self
                .rob
                .mems()
                .all(|m| !matches!(m.as_ref().map(|m| m.phase), Some(MemPhase::WaitMem)))
            && !matches!(
                self.walker_active.as_ref().map(|aw| aw.pending),
                Some(WalkPending::Token(_))
            )
            && self.sb.iter().all(|s| !s.issued || s.done)
            && self.data_completions.is_empty()
            && self.ifetch_completions.is_empty()
            && self.purge == PurgePhase::Idle
    }

    /// Holds the front end back from *starting* new fetches (in-flight
    /// ones finish normally) — the machine-level quiescence drain calls
    /// this every cycle so streaming workloads, which otherwise always
    /// have a miss in flight, reach a memory-quiescent snapshot point.
    pub fn drain_stall_fetch(&mut self, now: u64) {
        if self.fetch_state == FetchState::Idle {
            self.fetch_stall_until = self.fetch_stall_until.max(now + 2);
        }
    }

    /// Serializes every mutable field of the core. The structural
    /// configuration is not written — restore targets a core built with a
    /// compatible configuration (enforced by the machine fingerprint).
    pub fn save_state(&self, w: &mut SnapWriter) {
        // Architectural state.
        self.regs.save(w);
        w.u64(self.pc);
        self.priv_level.save(w);
        self.csrs.save(w);
        w.bool(self.halted);
        // Front end.
        self.btb.save(w);
        self.tournament.save(w);
        self.ras.save(w);
        w.u64(self.fetch_pc);
        self.fetch_state.save(w);
        self.fetch_queue.save(w);
        w.u64(self.fetch_stall_until);
        w.u64(self.next_fetch_token);
        self.itlb.save(w);
        // The decode cache serializes as sorted (paddr, Inst) pairs —
        // the same byte sequence `save_sorted_map` produced when it was
        // a HashMap, so the snapshot format is unchanged.
        self.decode_cache.sorted_entries().save(w);
        // Backend.
        self.rob.save_state(w);
        w.u64(self.next_seq);
        self.rat.save(w);
        self.iqs.save(w);
        w.u64(self.muldiv_busy_until);
        w.usize(self.lq_used);
        w.usize(self.sq_used);
        self.sb.save(w);
        w.u64(self.next_sb_token);
        w.u16(self.committed_ghist);
        // Translation.
        self.dtlb.save(w);
        self.l2_tlb.save(w);
        self.tcache.save(w);
        self.walker_queue.save(w);
        self.walker_active.save(w);
        self.walk_results.save(w);
        w.u64(self.next_ptw_token);
        // Token bookkeeping.
        let mut zombies: Vec<u64> = self.zombies.iter().copied().collect();
        zombies.sort_unstable();
        zombies.save(w);
        save_sorted_map(&self.data_completions, w);
        save_sorted_map(&self.ifetch_completions, w);
        // Purge.
        self.purge.save(w);
        self.purge_resume.save(w);
        // Counters.
        self.stats.save(w);
    }

    /// Restores state saved by [`Core::save_state`] into this core.
    ///
    /// # Errors
    ///
    /// Returns [`SnapError`] on corrupt input or when a serialized
    /// structure does not fit this core's configuration.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.regs = SnapState::load(r)?;
        self.pc = r.u64()?;
        self.priv_level = PrivLevel::load(r)?;
        self.csrs = CsrFile::load(r)?;
        self.halted = r.bool()?;
        self.btb = SnapState::load(r)?;
        self.tournament = SnapState::load(r)?;
        self.ras = SnapState::load(r)?;
        w_check(self.btb.occupancy() <= self.cfg.btb_entries, "BTB size")?;
        self.fetch_pc = r.u64()?;
        self.fetch_state = FetchState::load(r)?;
        self.fetch_queue = SnapState::load(r)?;
        self.fetch_stall_until = r.u64()?;
        self.next_fetch_token = r.u64()?;
        self.itlb = SnapState::load(r)?;
        self.decode_cache.fill_from(SnapState::load(r)?);
        self.rob.load_into(r)?;
        w_check(self.rob.len() <= self.cfg.rob_entries, "ROB occupancy")?;
        self.next_seq = r.u64()?;
        self.rat = SnapState::load(r)?;
        self.iqs = SnapState::load(r)?;
        // The wakeup rebuild below looks every IQ entry up in the ROB.
        let orphan = self.iqs.iter().flatten().find(|&&seq| {
            self.rob_index(seq)
                .is_none_or(|idx| self.rob.stage(idx) != Stage::InIq)
        });
        if let Some(seq) = orphan {
            return Err(SnapError::BadValue {
                what: format!("IQ entry {seq} is not waiting in the ROB"),
            });
        }
        self.muldiv_busy_until = r.u64()?;
        self.lq_used = r.usize()?;
        self.sq_used = r.usize()?;
        self.sb = SnapState::load(r)?;
        self.next_sb_token = r.u64()?;
        self.committed_ghist = r.u16()?;
        self.dtlb = SnapState::load(r)?;
        self.l2_tlb = SnapState::load(r)?;
        self.tcache = SnapState::load(r)?;
        self.walker_queue = SnapState::load(r)?;
        self.walker_active = SnapState::load(r)?;
        self.walk_results = SnapState::load(r)?;
        self.next_ptw_token = r.u64()?;
        let zombies: Vec<u64> = SnapState::load(r)?;
        self.zombies = zombies.into_iter().collect();
        self.data_completions = load_map(r)?;
        self.ifetch_completions = load_map(r)?;
        self.purge = PurgePhase::load(r)?;
        self.purge_resume = SnapState::load(r)?;
        self.stats = CoreStats::load(r)?;
        // The LSQ index is derived state: the snapshot format carries no
        // trace of it — rebuild it from the deserialized ROB (with the
        // completion map and walk results deciding which ops are parked).
        self.lsq = LsqIndex::rebuild(&self.rob, &self.data_completions, &self.walk_results);
        // So are the issue wakeup matrix and the per-pipe ready sets.
        self.rebuild_wakeup();
        // Observability state is runtime-only: the restored in-flight ops
        // were never seen by the tracer, so its hooks must ignore them
        // (guaranteed by forgetting all live records), and the CPI stack
        // restarts from zero (its own cycle counter keeps the sum
        // invariant exact relative to the restore point).
        if let Some(t) = &mut self.tracer {
            t.reset_in_flight();
        }
        self.cpi = CpiStack::default();
        self.data_levels = TokenMap::default();
        Ok(())
    }
}

fn w_check(ok: bool, what: &str) -> Result<(), SnapError> {
    if ok {
        Ok(())
    } else {
        Err(SnapError::ConfigMismatch { what: what.into() })
    }
}
