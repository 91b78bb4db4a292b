//! Core configuration (Figure 4) and the MI6 security toggles.

/// Structural parameters of the out-of-order core. Defaults reproduce the
/// paper's Figure 4.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreConfig {
    /// Front-end width (fetch/decode/rename per cycle).
    pub fetch_width: usize,
    /// BTB entries (direct mapped).
    pub btb_entries: usize,
    /// Return address stack entries.
    pub ras_entries: usize,
    /// Reorder buffer entries.
    pub rob_entries: usize,
    /// ROB insert/commit width.
    pub commit_width: usize,
    /// Issue-queue entries per pipeline.
    pub iq_entries: usize,
    /// Load queue entries.
    pub lq_entries: usize,
    /// Store queue entries.
    pub sq_entries: usize,
    /// Store buffer entries (64 B wide each).
    pub sb_entries: usize,
    /// Fetch queue entries between fetch and rename.
    pub fetch_queue: usize,
    /// L1 TLB entries (fully associative), both I and D.
    pub l1_tlb_entries: usize,
    /// Maximum in-flight D-TLB misses.
    pub dtlb_max_misses: usize,
    /// L2 TLB entries.
    pub l2_tlb_entries: usize,
    /// L2 TLB associativity.
    pub l2_tlb_ways: usize,
    /// Translation-cache entries per intermediate walk level.
    pub tcache_entries: usize,
    /// Latency of integer multiply.
    pub mul_latency: u32,
    /// Latency of integer divide (unpipelined).
    pub div_latency: u32,
    /// Latency of FP add/mul.
    pub fp_latency: u32,
    /// Latency of FP divide (unpipelined).
    pub fdiv_latency: u32,
    /// Cycles a full purge of per-core state takes (Section 7.1: the L1
    /// sweep dominates at one line per cycle → 512).
    pub purge_cycles: u32,
}

impl CoreConfig {
    /// The Figure 4 configuration.
    pub const fn paper() -> CoreConfig {
        CoreConfig {
            fetch_width: 2,
            btb_entries: 256,
            ras_entries: 8,
            rob_entries: 80,
            commit_width: 2,
            iq_entries: 16,
            lq_entries: 24,
            sq_entries: 14,
            sb_entries: 4,
            fetch_queue: 8,
            l1_tlb_entries: 32,
            dtlb_max_misses: 4,
            l2_tlb_entries: 1024,
            l2_tlb_ways: 4,
            tcache_entries: 24,
            mul_latency: 4,
            div_latency: 16,
            fp_latency: 4,
            fdiv_latency: 16,
            purge_cycles: 512,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::paper()
    }
}

/// MI6 security behaviour toggles; the seven evaluation variants are
/// combinations of these (plus LLC knobs in `mi6-mem`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SecurityConfig {
    /// FLUSH variant (Section 7.1): scrub all per-core microarchitectural
    /// state on *every* trap and trap return, not only on `purge`.
    pub flush_on_trap: bool,
    /// NONSPEC variant (Section 7.5): memory instructions rename only when
    /// the ROB is empty, in every privilege mode.
    pub nonspec_all_modes: bool,
    /// MI6 speculation guard (Section 6.2): in machine mode, restrict
    /// instruction fetch to the `mfetchbase..mfetchbound` window and
    /// serialize memory-instruction rename (no speculation). Always on in
    /// MI6; off in the insecure baseline.
    pub machine_mode_guard: bool,
    /// MI6 DRAM-region access checks (Section 5.3): suppress any physical
    /// access outside the `mregions` bitvector; fault when it becomes
    /// non-speculative. Off in the insecure baseline.
    pub region_checks: bool,
}

impl SecurityConfig {
    /// The insecure baseline: everything off.
    pub const fn insecure() -> SecurityConfig {
        SecurityConfig {
            flush_on_trap: false,
            nonspec_all_modes: false,
            machine_mode_guard: false,
            region_checks: false,
        }
    }

    /// Full MI6: flush on protection-domain transitions, machine-mode
    /// guard, and region checks.
    pub const fn mi6() -> SecurityConfig {
        SecurityConfig {
            flush_on_trap: true,
            nonspec_all_modes: false,
            machine_mode_guard: true,
            region_checks: true,
        }
    }
}

// ---------------------------------------------------------------- snapshot

mi6_snapshot::snap_struct! {
    CoreConfig {
        fetch_width, btb_entries, ras_entries, rob_entries, commit_width, iq_entries, lq_entries,
        sq_entries, sb_entries, fetch_queue, l1_tlb_entries, dtlb_max_misses, l2_tlb_entries,
        l2_tlb_ways, tcache_entries, mul_latency, div_latency, fp_latency, fdiv_latency,
        purge_cycles,
    }
}

mi6_snapshot::snap_struct! {
    SecurityConfig { flush_on_trap, nonspec_all_modes, machine_mode_guard, region_checks }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matches_figure_4() {
        let c = CoreConfig::paper();
        assert_eq!(c.fetch_width, 2);
        assert_eq!(c.btb_entries, 256);
        assert_eq!(c.rob_entries, 80);
        assert_eq!(c.lq_entries, 24);
        assert_eq!(c.sq_entries, 14);
        assert_eq!(c.sb_entries, 4);
        assert_eq!(c.l1_tlb_entries, 32);
        assert_eq!(c.l2_tlb_entries, 1024);
        assert_eq!(c.l2_tlb_ways, 4);
        assert_eq!(c.tcache_entries, 24);
        assert_eq!(c.purge_cycles, 512);
    }

    #[test]
    fn security_presets() {
        assert!(!SecurityConfig::insecure().region_checks);
        let s = SecurityConfig::mi6();
        assert!(s.flush_on_trap && s.machine_mode_guard && s.region_checks);
        assert!(!s.nonspec_all_modes);
    }
}
