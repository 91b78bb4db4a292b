//! Rename, issue, and writeback: ROB insertion with RAT renaming and
//! the serialization gates (system instructions, NONSPEC), oldest-first
//! issue from the four issue queues, and branch resolution.

use super::*;
use mi6_isa::ExecUnit;

impl Core {
    // ------------------------------------------------------------- rename

    pub(super) fn tick_rename(&mut self, now: u64) {
        let mut renamed = 0;
        while renamed < self.cfg.fetch_width {
            if self.rob.len() >= self.cfg.rob_entries {
                // Stall attribution counts whole blocked cycles (first
                // rename slot blocked with work in hand), not lost slots.
                if renamed == 0 && !self.fetch_queue.is_empty() {
                    self.cpi.rename_rob_full += 1;
                }
                break;
            }
            let Some(front) = self.fetch_queue.front() else {
                break;
            };
            let inst = front.inst;
            let poisoned = front.poison.is_some();
            // Serialization: system instructions and (under the
            // non-speculative gate) memory instructions rename only into
            // an empty ROB.
            let serialize =
                !poisoned && (inst.is_system() || (self.nonspec_gate() && inst.is_mem()));
            if serialize && (!self.rob.is_empty() || renamed > 0) {
                if self.nonspec_gate() && inst.is_mem() {
                    self.stats.nonspec_stall_cycles += 1;
                }
                break;
            }
            // Structural slots.
            let pipe = if poisoned {
                None
            } else {
                match inst {
                    _ if inst.is_mem() => Some(Pipe::Mem),
                    _ if inst.is_muldiv_fp() => Some(Pipe::MulDiv),
                    Inst::Jal { .. } => None,
                    _ if inst.is_system() => None,
                    _ => {
                        // Pick the shorter ALU queue.
                        if self.iqs[0].len() <= self.iqs[1].len() {
                            Some(Pipe::Alu0)
                        } else {
                            Some(Pipe::Alu1)
                        }
                    }
                }
            };
            if let Some(p) = pipe {
                let iq = &self.iqs[p as usize];
                if iq.len() >= self.cfg.iq_entries {
                    if renamed == 0 {
                        self.cpi.rename_iq_full += 1;
                    }
                    break;
                }
            }
            if inst.is_load() && self.lq_used >= self.cfg.lq_entries {
                if renamed == 0 {
                    self.cpi.rename_lq_full += 1;
                }
                break;
            }
            if inst.is_store() && self.sq_used >= self.cfg.sq_entries {
                if renamed == 0 {
                    self.cpi.rename_sq_full += 1;
                }
                break;
            }
            let fetched = self.fetch_queue.pop_front().expect("peeked");
            let seq = self.next_seq;
            self.next_seq += 1;
            if let Some(t) = self.tracer.as_deref_mut() {
                t.start(
                    seq,
                    fetched.pc,
                    fetched.inst.to_string(),
                    fetched.fetched_at,
                    now,
                );
            }
            // Sources.
            let (s1, s2) = fetched.inst.sources();
            let mk_src = |r: Option<Reg>, core: &Core| -> Option<Src> {
                let r = r?;
                if r.is_zero() {
                    return Some(Src::Ready(0));
                }
                Some(match core.rat[r.index() as usize] {
                    Some(pseq) => Src::Wait { seq: pseq, reg: r },
                    None => Src::Ready(core.regs[r.index() as usize]),
                })
            };
            let srcs = [mk_src(s1, self), mk_src(s2, self)];
            // Destination renaming.
            let dest = fetched.inst.dest();
            let mut prev_map = None;
            if let Some(d) = dest {
                prev_map = self.rat[d.index() as usize];
                self.rat[d.index() as usize] = Some(seq);
            }
            let stage = if poisoned {
                Stage::Done
            } else if fetched.inst.is_system() {
                Stage::AtCommit
            } else if matches!(fetched.inst, Inst::Jal { .. }) {
                Stage::Done
            } else {
                Stage::InIq
            };
            let mem_state = fetched.inst.is_mem().then(|| {
                let bytes = match fetched.inst {
                    Inst::Load { width, .. } | Inst::Store { width, .. } => width.bytes(),
                    _ => unreachable!(),
                };
                if fetched.inst.is_store() {
                    self.sq_used += 1;
                } else {
                    self.lq_used += 1;
                }
                MemState {
                    vaddr: 0,
                    paddr: None,
                    bytes,
                    is_store: fetched.inst.is_store(),
                    store_data: None,
                    // A poisoned mem op is born Stage::Done and never
                    // does address generation; born MemPhase::Done too,
                    // keeping the Done⇒Done invariant the LSQ index
                    // relies on to never track dead ops.
                    phase: if poisoned {
                        MemPhase::Done
                    } else {
                        MemPhase::AddrGen { done_at: 0 }
                    },
                }
            });
            let result = if matches!(fetched.inst, Inst::Jal { .. }) {
                fetched.pc.wrapping_add(4)
            } else {
                0
            };
            let entry = RobEntry {
                seq,
                pc: fetched.pc,
                inst: fetched.inst,
                stage,
                srcs,
                dest,
                prev_map,
                result,
                branch: fetched.pred,
                mem: mem_state,
                exception: fetched.poison,
            };
            if let Some(p) = pipe {
                self.iqs[p as usize].push(seq);
            }
            self.rob.push_back(entry);
            // Wakeup registration: resolve each source against the ROB
            // once, here, instead of re-polling every cycle. A producer
            // already `Done` is memoized immediately (exactly what
            // `poll_srcs` would do on first poll); an outstanding one gets
            // a consumer record in its wake list. An op with no
            // outstanding producers is born ready.
            if let Some(p) = pipe {
                let cidx = self.rob.len() - 1;
                debug_assert!(self.wake_lists[self.rob.phys(cidx)].is_empty());
                let mut outstanding = 0;
                for slot in 0..2 {
                    let Some(Src::Wait { seq: pseq, reg }) = self.rob.srcs(cidx)[slot] else {
                        continue;
                    };
                    match self.rob_index(pseq) {
                        // A squash can restore a RAT mapping to a producer
                        // that has since retired: its value lives in the
                        // register file (the `producer_value` fallback).
                        None => {
                            let v = self.regs[reg.index() as usize];
                            self.rob.srcs_mut(cidx)[slot] = Some(Src::Ready(v));
                        }
                        Some(pidx) if self.rob.stage(pidx) == Stage::Done => {
                            let v = self.rob.result(pidx);
                            self.rob.srcs_mut(cidx)[slot] = Some(Src::Ready(v));
                        }
                        Some(pidx) => {
                            self.wake_lists[self.rob.phys(pidx)].push((seq, slot as u8, p));
                            outstanding += 1;
                        }
                    }
                }
                if outstanding == 0 {
                    Self::ready_insert(&mut self.ready_iq[p as usize], seq);
                }
            }
            renamed += 1;
        }
    }

    // ----------------------------------------------------------- wakeup

    /// Sorted-insert into a ready set, skipping duplicates (both sources
    /// of one consumer can resolve off the same broadcast).
    pub(super) fn ready_insert(list: &mut Vec<u64>, seq: u64) {
        if let Err(pos) = list.binary_search(&seq) {
            list.insert(pos, seq);
        }
    }

    /// The producer at `idx` just finished (stage `Done`, result final):
    /// resolve every consumer registered against its slot. Consumers
    /// whose last outstanding source this was enter their pipe's ready
    /// set.
    pub(super) fn wake_consumers(&mut self, idx: usize) {
        let ph = self.rob.phys(idx);
        if self.wake_lists[ph].is_empty() {
            return;
        }
        let mut ws = std::mem::take(&mut self.wake_lists[ph]);
        let value = self.rob.result(idx);
        self.drain_waiters(&mut ws, value);
        self.wake_lists[ph] = ws; // keep the allocation for the next tenant
    }

    /// Resolves each registered consumer with the producer's `value`.
    /// Records of squashed consumers are skipped (seqs are never reused,
    /// so a stale record can only miss, never alias a live entry).
    pub(super) fn drain_waiters(&mut self, ws: &mut Vec<Waiter>, value: u64) {
        for &(cseq, slot, pipe) in ws.iter() {
            let Some(cidx) = self.rob_index(cseq) else {
                continue;
            };
            if self.rob.stage(cidx) != Stage::InIq {
                continue;
            }
            self.rob.srcs_mut(cidx)[slot as usize] = Some(Src::Ready(value));
            if self.srcs_ready(cidx).is_some() {
                Self::ready_insert(&mut self.ready_iq[pipe as usize], cseq);
            }
        }
        ws.clear();
    }

    /// Rebuilds the wakeup matrix and ready sets from the (restored) ROB
    /// and issue queues — both are derived state the snapshot never
    /// carries. Sources already resolvable (producer `Done` in the ROB,
    /// or retired with the value in the register file) make the entry
    /// ready; each genuinely outstanding source registers a consumer
    /// record.
    pub(super) fn rebuild_wakeup(&mut self) {
        for l in self.wake_lists.iter_mut() {
            l.clear();
        }
        for rq in &mut self.ready_iq {
            rq.clear();
        }
        for pipe in [Pipe::Alu0, Pipe::Alu1, Pipe::MulDiv, Pipe::Mem] {
            for k in 0..self.iqs[pipe as usize].len() {
                let cseq = self.iqs[pipe as usize][k];
                let cidx = self.rob_index(cseq).expect("IQ entry in ROB");
                if self.srcs_ready(cidx).is_some() {
                    Self::ready_insert(&mut self.ready_iq[pipe as usize], cseq);
                    continue;
                }
                for slot in 0..2 {
                    let Some(Src::Wait { seq: pseq, .. }) = self.rob.srcs(cidx)[slot] else {
                        continue;
                    };
                    if let Some(pidx) = self.rob_index(pseq) {
                        if self.rob.stage(pidx) != Stage::Done {
                            self.wake_lists[self.rob.phys(pidx)].push((cseq, slot as u8, pipe));
                        }
                    }
                }
            }
        }
    }

    /// Validates the ready-set invariant against a fresh poll of every
    /// issue queue (debug builds; mirrors `assert_lsq_matches`).
    #[cfg(any(debug_assertions, test))]
    pub(super) fn assert_wakeup_matches(&self) {
        for pipe in [Pipe::Alu0, Pipe::Alu1, Pipe::MulDiv, Pipe::Mem] {
            for &seq in &self.iqs[pipe as usize] {
                let idx = self.rob_index(seq).expect("IQ entry in ROB");
                let ready = self.srcs_ready(idx).is_some();
                let in_set = self.ready_iq[pipe as usize].binary_search(&seq).is_ok();
                assert_eq!(
                    ready, in_set,
                    "seq {seq} ({pipe:?}): polled readiness {ready} but ready-set membership {in_set}"
                );
            }
            for &seq in &self.ready_iq[pipe as usize] {
                assert!(
                    self.iqs[pipe as usize].binary_search(&seq).is_ok(),
                    "ready set holds seq {seq} not in its {pipe:?} IQ"
                );
            }
        }
    }

    // -------------------------------------------------------------- issue

    pub(super) fn tick_issue(&mut self, now: u64) {
        for pipe in [Pipe::Alu0, Pipe::Alu1, Pipe::MulDiv, Pipe::Mem] {
            if pipe == Pipe::MulDiv && now < self.muldiv_busy_until {
                continue;
            }
            // Oldest-first: the ready set is ascending by seq and holds
            // exactly the queue entries whose sources are resolved, so
            // its head IS the op the old oldest-first readiness scan
            // would pick.
            let Some(&seq) = self.ready_iq[pipe as usize].first() else {
                continue;
            };
            self.ready_iq[pipe as usize].remove(0);
            let q = &mut self.iqs[pipe as usize];
            let k = q.binary_search(&seq).expect("ready op in its IQ");
            q.remove(k);
            let idx = self.rob_index(seq).expect("chosen entry exists");
            if let Some(t) = self.tracer.as_deref_mut() {
                t.issue(seq, now);
            }
            let (a, b) = self.poll_srcs(idx).expect("ready");
            let inst = self.rob.inst(idx);
            let pc = self.rob.pc(idx);
            match pipe {
                Pipe::Alu0 | Pipe::Alu1 => {
                    let done_at = now + 1;
                    match inst {
                        Inst::Branch { cond, .. } => {
                            let taken = cond.eval(a, b);
                            let b_state = self.rob.branch_mut(idx).as_mut().expect("branch state");
                            b_state.actual_taken = Some(taken);
                            b_state.actual_target = if taken {
                                b_state.pred_target
                            } else {
                                pc.wrapping_add(4)
                            };
                            self.rob.set_stage(idx, Stage::Exec { done_at });
                        }
                        Inst::Jalr { off, .. } => {
                            let target = a.wrapping_add(off as i64 as u64) & !1;
                            let b_state = self.rob.branch_mut(idx).as_mut().expect("jalr state");
                            b_state.actual_taken = Some(true);
                            b_state.actual_target = target;
                            self.rob.set_result(idx, pc.wrapping_add(4));
                            self.rob.set_stage(idx, Stage::Exec { done_at });
                        }
                        _ => {
                            self.rob.set_result(idx, exec::eval(&inst, a, b, pc));
                            self.rob.set_stage(idx, Stage::Exec { done_at });
                        }
                    }
                }
                Pipe::MulDiv => {
                    let Inst::Alu { op, .. } = inst else {
                        unreachable!("only register-form ALU ops issue to the FP/MUL/DIV pipe")
                    };
                    let (lat, pipelined) = match op.unit() {
                        ExecUnit::Mul => (self.cfg.mul_latency, true),
                        ExecUnit::Fp => (self.cfg.fp_latency, true),
                        ExecUnit::Div => (self.cfg.div_latency, false),
                        ExecUnit::Fdiv => (self.cfg.fdiv_latency, false),
                        ExecUnit::Alu => unreachable!("ALU-unit ops issue to the ALU pipes"),
                    };
                    self.rob.set_result(idx, exec::eval(&inst, a, b, pc));
                    self.rob.set_stage(
                        idx,
                        Stage::Exec {
                            done_at: now + lat as u64,
                        },
                    );
                    self.muldiv_busy_until = if pipelined { now + 1 } else { now + lat as u64 };
                }
                Pipe::Mem => {
                    let vaddr = exec::effective_address(&inst, a);
                    let m = self.rob.mem_mut(idx).expect("mem state");
                    m.vaddr = vaddr;
                    if m.is_store {
                        m.store_data = Some(b);
                    }
                    m.phase = MemPhase::AddrGen { done_at: now + 1 };
                    self.rob.set_stage(idx, Stage::MemOp);
                    self.lsq.memop_insert(seq);
                }
            }
            if !matches!(pipe, Pipe::Mem) {
                // Every non-mem arm above entered `Stage::Exec`: index the
                // op so `tick_writeback` finds it without a ROB scan.
                self.lsq.exec_insert(seq);
            }
        }
    }

    // ---------------------------------------------------------- writeback

    /// Completes executing instructions and resolves branches.
    ///
    /// Visits only the exec worklist — the ascending-seq index of
    /// `Stage::Exec` entries maintained by `tick_issue` and `squash_from`
    /// — instead of scanning the whole ROB. Ascending seq order preserves
    /// the oldest-mispredict-wins rule of the original scan.
    pub(super) fn tick_writeback(&mut self, now: u64) {
        let mut mispredict: Option<(u64, u64)> = None; // (squash-from, new pc)
        let mut seqs = std::mem::take(&mut self.lsq.exec_scratch);
        seqs.clear();
        seqs.extend_from_slice(self.lsq.execs());
        for &seq in &seqs {
            let idx = self.rob_index(seq).expect("exec worklist entry in ROB");
            let Stage::Exec { done_at } = self.rob.stage(idx) else {
                debug_assert!(false, "exec worklist seq {seq} not in Stage::Exec");
                continue;
            };
            if now < done_at {
                continue;
            }
            self.rob.set_stage(idx, Stage::Done);
            self.wake_consumers(idx);
            if let Some(t) = self.tracer.as_deref_mut() {
                t.complete(seq, now);
            }
            let branch = self.rob.branch(idx);
            let is_cond = self.rob.inst(idx).is_cond_branch();
            self.lsq.exec_remove(seq);
            if let Some(b) = branch {
                let actual_taken = b.actual_taken.expect("resolved at execute");
                let wrong = if is_cond {
                    actual_taken != b.pred_taken
                } else {
                    b.actual_target != b.pred_target
                };
                if wrong && mispredict.is_none() {
                    if is_cond {
                        self.stats.branch_mispredicts += 1;
                    } else {
                        self.stats.jump_mispredicts += 1;
                    }
                    mispredict = Some((seq + 1, b.actual_target));
                }
            }
        }
        self.lsq.exec_scratch = seqs;
        if let Some((from, target)) = mispredict {
            self.squash_from(now, from, target);
            self.cpi.note_squash(CpiCategory::SquashMispredict, from);
        }
    }
}

#[cfg(test)]
mod tests {
    //! Exec-worklist maintenance under squashes: every path that removes a
    //! `Stage::Exec` entry from the ROB must also drop it from the
    //! worklist. `tests/golden_stats.rs` proves timing equivalence on real
    //! programs; these pin the index bookkeeping on fabricated squash
    //! shapes a fingerprint might not happen to exercise.

    use super::*;
    use mi6_isa::BranchCond;

    fn test_core() -> Core {
        Core::new(0, CoreConfig::paper(), SecurityConfig::insecure())
    }

    /// Pushes a fabricated op mid-execute, maintaining the exec worklist
    /// at the same point `tick_issue` does.
    fn push_exec_op(core: &mut Core, seq: u64, done_at: u64, branch: Option<BranchState>) {
        let inst = if branch.is_some() {
            Inst::Branch {
                cond: BranchCond::Eq,
                rs1: Reg::T0,
                rs2: Reg::T1,
                off: 16,
            }
        } else {
            Inst::addi(Reg::T0, Reg::T1, 1)
        };
        core.rob.push_back(RobEntry {
            seq,
            pc: 0x1000 + seq * 4,
            inst,
            stage: Stage::Exec { done_at },
            srcs: [None, None],
            dest: None,
            prev_map: None,
            result: 0,
            branch,
            mem: None,
            exception: None,
        });
        core.next_seq = seq + 1;
        core.lsq.exec_insert(seq);
        core.assert_lsq_matches();
    }

    fn resolved_branch(pred_taken: bool, actual_taken: bool) -> BranchState {
        BranchState {
            pred_taken,
            pred_target: 0x2000,
            tournament: None,
            actual_taken: Some(actual_taken),
            actual_target: 0x2000,
        }
    }

    #[test]
    fn squash_drops_younger_exec_entries_from_worklist() {
        let mut core = test_core();
        for seq in 0..4 {
            push_exec_op(&mut core, seq, 100, None);
        }
        core.squash_from(50, 2, 0x4000);
        assert_eq!(core.lsq.execs(), &[0, 1]);
        core.assert_lsq_matches();
    }

    #[test]
    fn mispredict_at_writeback_scrubs_squashed_exec_entries() {
        let mut core = test_core();
        // A mispredicted branch completing now, with younger ops still
        // mid-execute: the branch leaves the worklist at completion, the
        // younger entries leave it inside `squash_from`.
        push_exec_op(&mut core, 0, 10, Some(resolved_branch(false, true)));
        push_exec_op(&mut core, 1, 30, None);
        push_exec_op(&mut core, 2, 40, None);
        core.tick_writeback(10);
        assert!(core.lsq.execs().is_empty());
        assert_eq!(core.stats.branch_mispredicts, 1);
        assert_eq!(core.stats.squashed_instructions, 2);
        assert_eq!(core.rob.len(), 1);
        assert!(matches!(core.rob.stage(0), Stage::Done));
        core.assert_lsq_matches();
    }

    #[test]
    fn oldest_mispredict_wins_and_worklist_stays_consistent() {
        let mut core = test_core();
        // Two mispredicted branches resolving the same cycle: the older
        // one squashes the younger, which has already completed by then —
        // its worklist removal must not double-fire.
        push_exec_op(&mut core, 0, 10, Some(resolved_branch(false, true)));
        push_exec_op(&mut core, 1, 10, Some(resolved_branch(true, false)));
        core.tick_writeback(10);
        assert!(core.lsq.execs().is_empty());
        assert_eq!(core.stats.branch_mispredicts, 1);
        assert_eq!(core.rob.len(), 1);
        core.assert_lsq_matches();
    }

    #[test]
    fn purge_squash_clears_exec_worklist() {
        let mut core = test_core();
        push_exec_op(&mut core, 0, 100, None);
        push_exec_op(&mut core, 1, 120, None);
        core.start_purge(5, 0x8000, PrivLevel::Supervisor);
        assert!(core.lsq.execs().is_empty());
        assert!(core.rob.is_empty());
        core.assert_lsq_matches();
    }
}
