//! Per-core performance counters.
//!
//! These back every figure in the paper's evaluation: committed
//! instructions and cycles (runtime overheads, Figures 5/8/10/11/12/13),
//! branch mispredictions per kilo-instruction (Figure 7), and the flush
//! stall accounting (Figure 6).

/// Counters exported by one core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles this core has ticked.
    pub cycles: u64,
    /// Instructions committed.
    pub committed_instructions: u64,
    /// Conditional branches committed.
    pub committed_branches: u64,
    /// Conditional-branch mispredictions (detected at execute).
    pub branch_mispredicts: u64,
    /// Indirect-jump / return mispredictions.
    pub jump_mispredicts: u64,
    /// Traps taken (exceptions + interrupts).
    pub traps: u64,
    /// Trap returns executed (`sret`/`mret`).
    pub trap_returns: u64,
    /// `purge` instructions executed.
    pub purges: u64,
    /// Cycles stalled waiting for a microarchitectural flush to finish
    /// (the purge/flush stall of Figure 6).
    pub flush_stall_cycles: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
    /// Memory-order violations (store found a younger load already
    /// executed to an overlapping address; pipeline squashed).
    pub mem_order_violations: u64,
    /// Page-table walks completed.
    pub page_walks: u64,
    /// DRAM-region faults raised (non-speculative violations).
    pub region_faults: u64,
    /// Accesses suppressed by the region check while speculative.
    pub region_suppressed: u64,
    /// Cycles in which rename was blocked by the non-speculative gate
    /// (memory instruction waiting for an empty ROB).
    pub nonspec_stall_cycles: u64,
    /// Instructions squashed (mispredicts, violations, traps).
    pub squashed_instructions: u64,
}

impl CoreStats {
    /// Branch mispredictions per thousand committed instructions
    /// (the Figure 7 metric).
    pub fn mispredicts_per_kinst(&self) -> f64 {
        if self.committed_instructions == 0 {
            return 0.0;
        }
        (self.branch_mispredicts + self.jump_mispredicts) as f64 * 1000.0
            / self.committed_instructions as f64
    }

    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.committed_instructions as f64 / self.cycles as f64
    }
}

// ---------------------------------------------------------------- snapshot

mi6_snapshot::snap_struct! {
    CoreStats {
        cycles, committed_instructions, committed_branches, branch_mispredicts, jump_mispredicts,
        traps, trap_returns, purges, flush_stall_cycles, loads, stores, mem_order_violations,
        page_walks, region_faults, region_suppressed, nonspec_stall_cycles, squashed_instructions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = CoreStats {
            cycles: 1000,
            committed_instructions: 500,
            branch_mispredicts: 9,
            jump_mispredicts: 1,
            ..CoreStats::default()
        };
        assert!((s.mispredicts_per_kinst() - 20.0).abs() < 1e-9);
        assert!((s.ipc() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_division_safe() {
        let s = CoreStats::default();
        assert_eq!(s.mispredicts_per_kinst(), 0.0);
        assert_eq!(s.ipc(), 0.0);
    }
}
