//! CPI-stack accounting: top-down attribution of every commit slot.
//!
//! Each cycle a core ticks, its `commit_width` commit slots are charged
//! to exactly one category each: `Base` for slots that retired an
//! instruction, and the **oldest blocking reason** for the rest. The
//! oldest-blocking-reason rule is the classic top-down simplification:
//! when fewer than `commit_width` instructions retire, the leftover
//! slots are all charged to whatever is holding up the ROB *head*
//! (the oldest instruction), because nothing younger can retire until
//! it does. Fast-forwarded cycles (the idle-skip optimisation) charge
//! `Idle`, purge/flush drain cycles charge `Flush`, and cycles after a
//! squash while the ROB refills charge the *cause* of the squash via a
//! shadow category.
//!
//! The accounting is always-on and timing-neutral: it only observes
//! decisions the pipeline already made. The invariant
//! `sum(slots) == cycles * commit_width` is enforced by tests on every
//! bench kernel and checked on every `--json` line by `mi6-obs-check
//! stacks`.
//!
//! Like `StallStats` before it (which this module absorbs — the
//! rename/commit pressure counters live here now so there is a single
//! attribution surface), the stack is deliberately **not** part of
//! [`crate::CoreStats`]: that struct's byte layout is pinned by
//! committed snapshot fixtures, while the stack is runtime-only —
//! never serialized, reset to zero on a snapshot restore. `cycles`
//! counts only cycles observed since attach/restore, so the sum
//! invariant holds even for runs resumed from a warm checkpoint.

/// One commit-slot attribution category.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum CpiCategory {
    /// Slot retired an instruction.
    Base,
    /// Cycle was fast-forwarded by the idle-skip optimisation (no
    /// pipeline work anywhere; typically WFI or a drained machine).
    Idle,
    /// ROB empty with no squash in flight: the frontend could not
    /// supply instructions (fetch latency, decode, redirect penalty).
    Frontend,
    /// Head is still executing (issue wait or functional-unit latency),
    /// or is a serializing system op stalled at commit (wfi, csr).
    Exec,
    /// Head memory op is translating: TLB lookup latency or a page walk.
    Tlb,
    /// Head load is in the L1 access path (hit latency, store-buffer
    /// forward, or cache-port retry).
    MemL1,
    /// Head load missed L1 and was served by the LLC.
    MemLlc,
    /// Head load missed L1 and was served by DRAM.
    MemDram,
    /// Head load is waiting on memory and the serve level is not yet
    /// known. Normally transferred to `MemLlc`/`MemDram` when the fill
    /// arrives; a residual stays here only if the run is cut off (or
    /// the load squashed) mid-miss.
    MemPending,
    /// Head store cannot retire: store buffer full.
    SbFull,
    /// Refill shadow of a branch/jump mispredict squash.
    SquashMispredict,
    /// Refill shadow of a memory-order-violation squash.
    SquashOrder,
    /// Refill shadow of a trap entry or trap return redirect.
    SquashTrap,
    /// Microarchitectural purge/flush drain (MI6 `purge`, flush-on-trap),
    /// including the refill shadow after a purge redirect.
    Flush,
    /// Head load is blocked at the LLC because its core's MSHR quota
    /// (or bank partition) has no free entry (MI6 miss-status quota).
    MshrQuotaDeny,
    /// Head load is blocked because the round-robin LLC arbiter is
    /// granting another core's turn (MI6 secure arbiter).
    ArbDeny,
}

/// Number of categories (length of [`CpiStack::slots`]).
pub const CPI_CATEGORIES: usize = mi6_obs::CPI_KEYS.len();

impl CpiCategory {
    /// Every category, in `slots` index order.
    pub const ALL: [CpiCategory; CPI_CATEGORIES] = [
        CpiCategory::Base,
        CpiCategory::Idle,
        CpiCategory::Frontend,
        CpiCategory::Exec,
        CpiCategory::Tlb,
        CpiCategory::MemL1,
        CpiCategory::MemLlc,
        CpiCategory::MemDram,
        CpiCategory::MemPending,
        CpiCategory::SbFull,
        CpiCategory::SquashMispredict,
        CpiCategory::SquashOrder,
        CpiCategory::SquashTrap,
        CpiCategory::Flush,
        CpiCategory::MshrQuotaDeny,
        CpiCategory::ArbDeny,
    ];

    /// Stable snake_case name, for tables (`base`, ...).
    pub fn name(self) -> &'static str {
        &self.metric_name()["cpi_".len()..]
    }

    /// The name prefixed with `cpi_`: the category's JSON key and metrics
    /// counter name ([`mi6_obs::CPI_KEYS`]).
    pub fn metric_name(self) -> &'static str {
        mi6_obs::CPI_KEYS[self as usize]
    }
}

/// How many resolved-load serve levels to remember, as a seq-number
/// window behind the newest recorded load. Covers anything that can
/// still be live in an 80-entry ROB.
const RESOLVED_WINDOW: u64 = 128;

/// Per-core CPI stack plus the structural-pressure event counters that
/// used to live in `StallStats`.
///
/// The pressure counters are *events*, not commit slots: a full
/// ROB/IQ/LQ/SQ implies a non-empty ROB whose head carries the actual
/// (proximate) blocking reason, so charging a slot category for them
/// would double-count. They are kept alongside the stack so the `--json`
/// surface and the stack always come from one place.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CpiStack {
    /// Commit slots per category, indexed by `CpiCategory as usize`.
    pub slots: [u64; CPI_CATEGORIES],
    /// Cycles this stack has accounted (since attach or restore).
    /// Invariant: `slots.sum() == cycles * commit_width`.
    pub cycles: u64,
    /// Cycles rename held a fetched instruction but the ROB was full.
    pub rename_rob_full: u64,
    /// Cycles rename was blocked by a full issue queue.
    pub rename_iq_full: u64,
    /// Cycles rename was blocked by a full load queue.
    pub rename_lq_full: u64,
    /// Cycles rename was blocked by a full store queue.
    pub rename_sq_full: u64,
    /// Cycles commit stalled on a full store buffer.
    pub commit_sb_full: u64,
    /// Slots charged to `MemPending` on behalf of the in-flight head
    /// load `(seq, slots)`, transferred to the real level on resolve.
    pending: Option<(u64, u64)>,
    /// Cause of the most recent squash plus its kill threshold
    /// `(cause, from)` — the `from_seq` passed to `squash_from`, which
    /// killed every `seq >= from`. Empty-ROB and refill cycles are
    /// charged to the cause until post-squash work commits; surviving
    /// older work (`seq < from`) retiring must not end the window.
    shadow: Option<(CpiCategory, u64)>,
    /// Serve levels of recently completed loads `(seq, category)`, so
    /// `WaitValue` head cycles charge the right memory level.
    resolved: Vec<(u64, CpiCategory)>,
}

impl CpiStack {
    /// Rebuilds a stack from its serialized parts (bench JSON round
    /// trips and aggregation; the internal attribution state does not
    /// survive and does not need to).
    pub fn from_raw(cycles: u64, slots: [u64; CPI_CATEGORIES], pressure: [u64; 5]) -> CpiStack {
        CpiStack {
            slots,
            cycles,
            rename_rob_full: pressure[0],
            rename_iq_full: pressure[1],
            rename_lq_full: pressure[2],
            rename_sq_full: pressure[3],
            commit_sb_full: pressure[4],
            ..CpiStack::default()
        }
    }

    /// The five pressure counters in `from_raw` order.
    pub fn pressure(&self) -> [u64; 5] {
        [
            self.rename_rob_full,
            self.rename_iq_full,
            self.rename_lq_full,
            self.rename_sq_full,
            self.commit_sb_full,
        ]
    }

    #[inline]
    pub(crate) fn charge(&mut self, cat: CpiCategory, slots: u64) {
        self.slots[cat as usize] += slots;
    }

    /// Records the cause of a squash. `from` is the same threshold
    /// handed to `squash_from` (everything with `seq >= from` died);
    /// empty-ROB cycles are charged to `cause` until post-squash work
    /// commits.
    #[inline]
    pub(crate) fn note_squash(&mut self, cause: CpiCategory, from: u64) {
        self.shadow = Some((cause, from));
    }

    /// A commit of `seq` ends the squash window only if it is at or
    /// past the kill threshold: killed seqs never retire and survivors
    /// are all older, so any committing `seq >= from` is refilled
    /// post-squash work.
    #[inline]
    pub(crate) fn clear_shadow(&mut self, seq: u64) {
        if matches!(self.shadow, Some((_, from)) if seq >= from) {
            self.shadow = None;
        }
    }

    /// The category for an empty-ROB cycle: the pending squash cause if
    /// one is in flight, otherwise a plain frontend bubble.
    #[inline]
    pub(crate) fn empty_reason(&self) -> CpiCategory {
        self.shadow.map(|(c, _)| c).unwrap_or(CpiCategory::Frontend)
    }

    /// Charges head-load wait slots to `MemPending` and remembers them
    /// against `seq` so they can move to the real serve level later.
    pub(crate) fn charge_wait_mem(&mut self, seq: u64, slots: u64) {
        self.slots[CpiCategory::MemPending as usize] += slots;
        match &mut self.pending {
            Some((s, n)) if *s == seq => *n += slots,
            // A different load's residual stays in MemPending (it was
            // squashed or the head moved on); start tracking the new one.
            _ => self.pending = Some((seq, slots)),
        }
    }

    /// Records where load `seq`'s data actually came from. Any slots
    /// parked in `MemPending` for it are transferred to `cat`.
    pub(crate) fn resolve_serve_level(&mut self, seq: u64, cat: CpiCategory) {
        if let Some((s, n)) = self.pending {
            if s == seq {
                self.slots[CpiCategory::MemPending as usize] -= n;
                self.slots[cat as usize] += n;
                self.pending = None;
            }
        }
        self.resolved.retain(|&(s, _)| s + RESOLVED_WINDOW > seq);
        self.resolved.push((seq, cat));
    }

    /// Serve level of a recently resolved load, for `WaitValue` cycles.
    pub(crate) fn resolved_level(&self, seq: u64) -> Option<CpiCategory> {
        self.resolved
            .iter()
            .rev()
            .find(|&&(s, _)| s == seq)
            .map(|&(_, c)| c)
    }

    /// Total commit slots accounted.
    pub fn total_slots(&self) -> u64 {
        self.slots.iter().sum()
    }

    /// Slots for one category.
    pub fn get(&self, cat: CpiCategory) -> u64 {
        self.slots[cat as usize]
    }

    /// The two largest non-`Base` categories, by slots (ties broken by
    /// taxonomy order). Categories with zero slots are skipped.
    pub fn top_blockers(&self) -> Vec<(CpiCategory, u64)> {
        let mut v: Vec<(CpiCategory, u64)> = CpiCategory::ALL
            .iter()
            .filter(|&&c| c != CpiCategory::Base)
            .map(|&c| (c, self.get(c)))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        v.truncate(2);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in CpiCategory::ALL {
            assert!(seen.insert(c.name()), "duplicate name {}", c.name());
            assert!(c
                .name()
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch == '_' || ch.is_ascii_digit()));
            assert_eq!(c.metric_name(), format!("cpi_{}", c.name()));
        }
    }

    #[test]
    fn all_order_matches_slot_indices() {
        for (i, c) in CpiCategory::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn pending_transfers_to_resolved_level() {
        let mut s = CpiStack::default();
        s.charge_wait_mem(7, 2);
        s.charge_wait_mem(7, 2);
        assert_eq!(s.get(CpiCategory::MemPending), 4);
        s.resolve_serve_level(7, CpiCategory::MemDram);
        assert_eq!(s.get(CpiCategory::MemPending), 0);
        assert_eq!(s.get(CpiCategory::MemDram), 4);
        assert_eq!(s.resolved_level(7), Some(CpiCategory::MemDram));
        assert_eq!(s.total_slots(), 4);
    }

    #[test]
    fn squashed_pending_stays_in_mem_pending() {
        let mut s = CpiStack::default();
        s.charge_wait_mem(3, 2);
        // A different load takes over the head before 3 resolves.
        s.charge_wait_mem(9, 2);
        s.resolve_serve_level(9, CpiCategory::MemLlc);
        assert_eq!(s.get(CpiCategory::MemPending), 2, "load 3's residual");
        assert_eq!(s.get(CpiCategory::MemLlc), 2);
        assert_eq!(s.total_slots(), 4);
    }

    #[test]
    fn shadow_lifecycle() {
        let mut s = CpiStack::default();
        assert_eq!(s.empty_reason(), CpiCategory::Frontend);
        // Squash killed every seq >= 10.
        s.note_squash(CpiCategory::SquashMispredict, 10);
        assert_eq!(s.empty_reason(), CpiCategory::SquashMispredict);
        // Surviving older work retiring must not end the squash window.
        s.clear_shadow(8);
        s.clear_shadow(9);
        assert_eq!(s.empty_reason(), CpiCategory::SquashMispredict);
        // The first post-squash commit (at or past the threshold) does.
        s.clear_shadow(10);
        assert_eq!(s.empty_reason(), CpiCategory::Frontend);
    }

    #[test]
    fn raw_round_trip() {
        let mut s = CpiStack::default();
        s.charge(CpiCategory::Base, 10);
        s.charge(CpiCategory::Exec, 2);
        s.cycles = 6;
        s.rename_rob_full = 5;
        s.commit_sb_full = 1;
        let r = CpiStack::from_raw(s.cycles, s.slots, s.pressure());
        assert_eq!(r, s);
    }
}
