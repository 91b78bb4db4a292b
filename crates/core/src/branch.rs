//! Branch prediction: BTB, Alpha-21264-style tournament predictor, and the
//! return address stack.
//!
//! These are exactly the deeply stateful structures Section 6.1 singles
//! out: they can transmit a previous program's control flow across a
//! context switch, so `purge` resets them to their initial state
//! ([`Btb::reset`], [`Tournament::reset`], [`Ras::reset`]). Figure 7 of the
//! paper measures the resulting cold-start mispredictions.

/// A 256-entry direct-mapped branch target buffer.
///
/// Tags are full PCs, so aliasing produces a miss rather than a wrong
/// entry (conservative and simple).
#[derive(Clone, Debug)]
pub struct Btb {
    entries: Vec<Option<(u64, u64)>>, // (pc, target)
    mask: u64,
}

impl Btb {
    /// Creates an empty BTB with `entries` slots (must be a power of two).
    pub fn new(entries: usize) -> Btb {
        assert!(entries.is_power_of_two());
        Btb {
            entries: vec![None; entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// The predicted target for `pc`, if present.
    pub fn lookup(&self, pc: u64) -> Option<u64> {
        match self.entries[self.index(pc)] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Installs or updates the target for `pc`.
    pub fn update(&mut self, pc: u64, target: u64) {
        let idx = self.index(pc);
        self.entries[idx] = Some((pc, target));
    }

    /// Purge: reset to the initial (empty) state.
    pub fn reset(&mut self) {
        self.entries.fill(None);
    }

    /// Number of valid entries (test aid).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }
}

/// Alpha 21264-style tournament predictor (paper Figure 4).
///
/// - Local: 1024-entry history table (10-bit histories) indexing a
///   1024-entry table of 3-bit counters.
/// - Global: 4096 2-bit counters indexed by the global history ("the
///   largest table has 4096 entries, each of 2 bits" — Section 7.1).
/// - Choice: 4096 2-bit counters selecting local vs global.
#[derive(Clone, Debug)]
pub struct Tournament {
    local_hist: Vec<u16>,
    local_ctr: Vec<u8>,  // 3-bit
    global_ctr: Vec<u8>, // 2-bit
    choice: Vec<u8>,     // 2-bit
    /// Speculative global history (restored on squash).
    pub ghist: u16,
}

/// Size of the local history / counter tables.
const LOCAL_ENTRIES: usize = 1024;
/// Size of the global / choice tables.
const GLOBAL_ENTRIES: usize = 4096;

impl Tournament {
    /// Creates the predictor in its reset state (weakly not-taken).
    pub fn new() -> Tournament {
        Tournament {
            local_hist: vec![0; LOCAL_ENTRIES],
            local_ctr: vec![3; LOCAL_ENTRIES],
            global_ctr: vec![1; GLOBAL_ENTRIES],
            choice: vec![1; GLOBAL_ENTRIES],
            ghist: 0,
        }
    }

    fn local_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (LOCAL_ENTRIES - 1)
    }

    fn global_index(&self) -> usize {
        (self.ghist as usize) & (GLOBAL_ENTRIES - 1)
    }

    /// Predicts the direction of the conditional branch at `pc` and
    /// returns the state needed to update/recover later.
    pub fn predict(&self, pc: u64) -> Prediction {
        let li = self.local_index(pc);
        let lh = (self.local_hist[li] as usize) & (LOCAL_ENTRIES - 1);
        let local_taken = self.local_ctr[lh] >= 4;
        let gi = self.global_index();
        let global_taken = self.global_ctr[gi] >= 2;
        let use_global = self.choice[gi] >= 2;
        Prediction {
            taken: if use_global {
                global_taken
            } else {
                local_taken
            },
            local_taken,
            global_taken,
            ghist_at_predict: self.ghist,
        }
    }

    /// Speculatively shifts the predicted outcome into the global history
    /// (called at fetch). A squash rebuilds the history from the committed
    /// one plus the surviving in-flight branches (`Core::rebuild_ghist`).
    pub fn speculate(&mut self, taken: bool) {
        self.ghist = (self.ghist << 1) | taken as u16;
    }

    /// Commits the actual outcome, training all tables.
    pub fn update(&mut self, pc: u64, pred: Prediction, taken: bool) {
        let li = self.local_index(pc);
        let lh = (self.local_hist[li] as usize) & (LOCAL_ENTRIES - 1);
        // Train choice toward whichever component was right (when they
        // disagree).
        let gi = (pred.ghist_at_predict as usize) & (GLOBAL_ENTRIES - 1);
        if pred.local_taken != pred.global_taken {
            if pred.global_taken == taken {
                self.choice[gi] = (self.choice[gi] + 1).min(3);
            } else {
                self.choice[gi] = self.choice[gi].saturating_sub(1);
            }
        }
        // Train counters.
        if taken {
            self.local_ctr[lh] = (self.local_ctr[lh] + 1).min(7);
            self.global_ctr[gi] = (self.global_ctr[gi] + 1).min(3);
        } else {
            self.local_ctr[lh] = self.local_ctr[lh].saturating_sub(1);
            self.global_ctr[gi] = self.global_ctr[gi].saturating_sub(1);
        }
        // Update local history.
        self.local_hist[li] = ((self.local_hist[li] << 1) | taken as u16) & 0x3ff;
    }

    /// Purge: reset every table to the initial state (Section 6.1 —
    /// "the branch predictor must reach a well-defined public state").
    pub fn reset(&mut self) {
        self.local_hist.fill(0);
        self.local_ctr.fill(3);
        self.global_ctr.fill(1);
        self.choice.fill(1);
        self.ghist = 0;
    }
}

impl Default for Tournament {
    fn default() -> Tournament {
        Tournament::new()
    }
}

/// The outcome of a tournament lookup, carried with the branch through the
/// pipeline for training and squash recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prediction {
    /// Final predicted direction.
    pub taken: bool,
    /// The local component's vote.
    pub local_taken: bool,
    /// The global component's vote.
    pub global_taken: bool,
    /// Global history at prediction time (for recovery and training).
    pub ghist_at_predict: u16,
}

/// An 8-entry return address stack.
///
/// Overflow wraps (oldest entry lost); underflow predicts "no idea" and
/// the return mispredicts — matching simple hardware.
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<u64>,
    capacity: usize,
}

impl Ras {
    /// Creates an empty RAS.
    pub fn new(capacity: usize) -> Ras {
        Ras {
            stack: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Pushes a return address (call).
    pub fn push(&mut self, addr: u64) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(addr);
    }

    /// Pops the predicted return address.
    pub fn pop(&mut self) -> Option<u64> {
        self.stack.pop()
    }

    /// Purge: empty the stack.
    pub fn reset(&mut self) {
        self.stack.clear();
    }

    /// Current depth (test aid).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

impl SnapState for Btb {
    fn save(&self, w: &mut SnapWriter) {
        self.entries.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let entries: Vec<Option<(u64, u64)>> = SnapState::load(r)?;
        if !entries.len().is_power_of_two() {
            return Err(SnapError::BadValue {
                what: format!("BTB size {} is not a power of two", entries.len()),
            });
        }
        let mask = entries.len() as u64 - 1;
        Ok(Btb { entries, mask })
    }
}

impl SnapState for Tournament {
    fn save(&self, w: &mut SnapWriter) {
        self.local_hist.save(w);
        self.local_ctr.save(w);
        self.global_ctr.save(w);
        self.choice.save(w);
        w.u16(self.ghist);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let t = Tournament {
            local_hist: SnapState::load(r)?,
            local_ctr: SnapState::load(r)?,
            global_ctr: SnapState::load(r)?,
            choice: SnapState::load(r)?,
            ghist: r.u16()?,
        };
        if t.local_hist.len() != LOCAL_ENTRIES
            || t.local_ctr.len() != LOCAL_ENTRIES
            || t.global_ctr.len() != GLOBAL_ENTRIES
            || t.choice.len() != GLOBAL_ENTRIES
        {
            return Err(SnapError::BadValue {
                what: "tournament table sizes".into(),
            });
        }
        Ok(t)
    }
}

mi6_snapshot::snap_struct! { Prediction { taken, local_taken, global_taken, ghist_at_predict } }

impl SnapState for Ras {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.capacity);
        self.stack.save(w);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let capacity = r.usize()?;
        let stack: Vec<u64> = SnapState::load(r)?;
        if stack.len() > capacity {
            return Err(SnapError::BadValue {
                what: format!("RAS depth {} over capacity {capacity}", stack.len()),
            });
        }
        Ok(Ras { stack, capacity })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn btb_lookup_and_aliasing() {
        let mut btb = Btb::new(256);
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.lookup(0x1000), Some(0x2000));
        // Same index (0x1000 + 256*4), different tag: miss, then replace.
        let alias = 0x1000 + 256 * 4;
        assert_eq!(btb.lookup(alias), None);
        btb.update(alias, 0x3000);
        assert_eq!(btb.lookup(0x1000), None);
        assert_eq!(btb.lookup(alias), Some(0x3000));
    }

    #[test]
    fn btb_reset() {
        let mut btb = Btb::new(256);
        btb.update(0x1000, 0x2000);
        assert_eq!(btb.occupancy(), 1);
        btb.reset();
        assert_eq!(btb.occupancy(), 0);
        assert_eq!(btb.lookup(0x1000), None);
    }

    #[test]
    fn tournament_learns_always_taken() {
        let mut t = Tournament::new();
        let pc = 0x4000;
        for _ in 0..16 {
            let p = t.predict(pc);
            t.speculate(true);
            t.update(pc, p, true);
        }
        assert!(t.predict(pc).taken);
    }

    #[test]
    fn tournament_learns_alternating_via_local_history() {
        let mut t = Tournament::new();
        let pc = 0x4000;
        let mut correct = 0;
        let mut total = 0;
        let mut taken = false;
        for i in 0..2000 {
            let p = t.predict(pc);
            if i >= 1000 {
                total += 1;
                if p.taken == taken {
                    correct += 1;
                }
            }
            t.speculate(p.taken);
            t.update(pc, p, taken);
            taken = !taken;
        }
        // A tournament predictor captures a period-2 pattern essentially
        // perfectly once warm.
        assert!(correct * 10 >= total * 9, "{correct}/{total}");
    }

    #[test]
    fn tournament_reset_forgets() {
        let mut t = Tournament::new();
        let pc = 0x4000;
        for _ in 0..32 {
            let p = t.predict(pc);
            t.speculate(true);
            t.update(pc, p, true);
        }
        assert!(t.predict(pc).taken);
        t.reset();
        assert!(!t.predict(pc).taken, "reset state is weakly not-taken");
        assert_eq!(t.ghist, 0);
    }

    #[test]
    fn ras_push_pop() {
        let mut ras = Ras::new(8);
        ras.push(0x100);
        ras.push(0x200);
        assert_eq!(ras.pop(), Some(0x200));
        assert_eq!(ras.pop(), Some(0x100));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_overflow_drops_oldest() {
        let mut ras = Ras::new(2);
        ras.push(1);
        ras.push(2);
        ras.push(3);
        assert_eq!(ras.depth(), 2);
        assert_eq!(ras.pop(), Some(3));
        assert_eq!(ras.pop(), Some(2));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn ras_reset() {
        let mut ras = Ras::new(8);
        ras.push(1);
        ras.reset();
        assert_eq!(ras.depth(), 0);
    }
}
