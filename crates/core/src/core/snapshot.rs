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

mi6_snapshot::snap_enum! { Src { 0 => Ready(v), 1 => Wait { seq, reg } } }

mi6_snapshot::snap_enum! {
    MemPhase {
        0 => AddrGen { done_at },
        1 => Translate,
        2 => TlbLatency { ready_at },
        3 => WaitWalk,
        4 => ReadyToAccess,
        5 => WaitMem,
        6 => WaitValue { ready_at },
        7 => Done,
    }
}

mi6_snapshot::snap_struct! { MemState { vaddr, paddr, bytes, is_store, store_data, phase } }

mi6_snapshot::snap_struct! {
    BranchState { pred_taken, pred_target, tournament, actual_taken, actual_target }
}

mi6_snapshot::snap_enum! {
    Stage { 0 => InIq, 1 => Exec { done_at }, 2 => MemOp, 3 => AtCommit, 4 => Done }
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

mi6_snapshot::snap_enum! { WalkClient { 0 => Fetch, 1 => Rob(seq) } }

mi6_snapshot::snap_struct! { WalkReq { vpn, kind, client } }

mi6_snapshot::snap_enum! { WalkPending { 0 => Issue, 1 => Token(t), 2 => ReadyAt(c) } }

mi6_snapshot::snap_struct! { ActiveWalk { req, level, table, pending, pte_addr } }

mi6_snapshot::snap_enum! { WalkResult { 0 => Ok, 1 => Fault(e) } }

mi6_snapshot::snap_enum! {
    FetchState {
        0 => Idle,
        1 => WaitWalk,
        2 => TlbDelay { ready_at, paddr, region_ok },
        3 => WaitICache { token, paddr },
        4 => Deliver { ready_at, paddr },
        5 => Stalled,
    }
}

// `fetched_at` is observability-only, never serialized: restored
// entries trace a fetch stamp of 0 ("unknown"), keeping the snapshot
// format unchanged.
mi6_snapshot::snap_struct! { FetchedInst { pc, inst, pred, poison } runtime { fetched_at: 0 } }

mi6_snapshot::snap_enum! { PurgePhase { 0 => Idle, 1 => DrainMem, 2 => Flushing { until } } }

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
        // ROB lookups binary-search the seqs, and renaming goes on from
        // `next_seq`.
        let (front, wrapped) = self.rob.seq_slices();
        let seqs = front.iter().chain(wrapped).chain([&self.next_seq]);
        if !seqs.is_sorted_by(|a, b| a < b) {
            return Err(SnapError::BadValue {
                what: "ROB seqs are not strictly ascending below the next seq".into(),
            });
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `v`'s bytes, checked to decode to a value that re-encodes to them.
    fn encoding<T: SnapState>(v: T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        let mut again = SnapWriter::new();
        T::load(&mut r).unwrap().save(&mut again);
        r.expect_end().unwrap();
        assert_eq!(again.finish(), bytes);
        bytes
    }

    fn hex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        digits
            .chunks(2)
            .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
            .collect()
    }

    /// Every variant of each tagged enum in the core keeps its pinned
    /// bytes; field values are distinct, so a reordered `snap_enum!` row
    /// shows here although it would still round-trip.
    #[test]
    fn enum_variants_keep_their_bytes() {
        let cases = [
            (encoding(Src::Ready(1)), "00 0100000000000000"),
            (
                encoding(Src::Wait {
                    seq: 2,
                    reg: Reg::A0,
                }),
                "01 0200000000000000 0a",
            ),
            (
                encoding(MemPhase::AddrGen { done_at: 1 }),
                "00 0100000000000000",
            ),
            (encoding(MemPhase::Translate), "01"),
            (
                encoding(MemPhase::TlbLatency { ready_at: 2 }),
                "02 0200000000000000",
            ),
            (encoding(MemPhase::WaitWalk), "03"),
            (encoding(MemPhase::ReadyToAccess), "04"),
            (encoding(MemPhase::WaitMem), "05"),
            (
                encoding(MemPhase::WaitValue { ready_at: 3 }),
                "06 0300000000000000",
            ),
            (encoding(MemPhase::Done), "07"),
            (encoding(Stage::InIq), "00"),
            (encoding(Stage::Exec { done_at: 4 }), "01 0400000000000000"),
            (encoding(Stage::MemOp), "02"),
            (encoding(Stage::AtCommit), "03"),
            (encoding(Stage::Done), "04"),
            (encoding(WalkClient::Fetch), "00"),
            (encoding(WalkClient::Rob(5)), "01 0500000000000000"),
            (encoding(WalkPending::Issue), "00"),
            (encoding(WalkPending::Token(6)), "01 0600000000000000"),
            (encoding(WalkPending::ReadyAt(7)), "02 0700000000000000"),
            (encoding(WalkResult::Ok), "00"),
            (
                encoding(WalkResult::Fault(Exception::LoadPageFault)),
                "01 0d",
            ),
            (encoding(FetchState::Idle), "00"),
            (encoding(FetchState::WaitWalk), "01"),
            (
                encoding(FetchState::TlbDelay {
                    ready_at: 1,
                    paddr: 2,
                    region_ok: true,
                }),
                "02 0100000000000000 0200000000000000 01",
            ),
            (
                encoding(FetchState::WaitICache { token: 3, paddr: 4 }),
                "03 0300000000000000 0400000000000000",
            ),
            (
                encoding(FetchState::Deliver {
                    ready_at: 5,
                    paddr: 6,
                }),
                "04 0500000000000000 0600000000000000",
            ),
            (encoding(FetchState::Stalled), "05"),
            (encoding(PurgePhase::Idle), "00"),
            (encoding(PurgePhase::DrainMem), "01"),
            (
                encoding(PurgePhase::Flushing { until: 8 }),
                "02 0800000000000000",
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, hex(want), "{want}");
        }
    }
}
