//! Memory-hierarchy configuration.
//!
//! The defaults reproduce Figure 4 of the paper (the insecure BASE
//! configuration): 32 KiB 8-way L1s with 8 outstanding requests, a 1 MiB
//! 16-way inclusive LLC with 16 MSHRs, and a 2 GiB constant-latency DRAM
//! accepting 24 in-flight requests at 120 cycles.
//!
//! The seven evaluation variants are expressed as deltas on this
//! configuration; see [`LlcConfig`] and the `mi6-soc` crate's `Variant`.

/// Cache line size in bytes (fixed across the hierarchy).
pub const LINE_BYTES: u64 = 64;
/// log2 of the line size.
pub const LINE_SHIFT: u32 = 6;

/// Geometry and request capacity of one L1 cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct L1Config {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Maximum outstanding misses (MSHRs).
    pub mshrs: usize,
    /// Load-to-use latency of a hit, in cycles.
    pub hit_latency: u32,
}

impl L1Config {
    /// Figure 4: 32 KiB, 8-way, max 8 requests.
    pub const fn paper() -> L1Config {
        L1Config {
            size_bytes: 32 << 10,
            ways: 8,
            mshrs: 8,
            hit_latency: 2,
        }
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        (self.size_bytes / (LINE_BYTES * self.ways as u64)) as usize
    }

    /// Total number of cache lines.
    pub const fn lines(&self) -> usize {
        (self.size_bytes / LINE_BYTES) as usize
    }
}

impl Default for L1Config {
    fn default() -> L1Config {
        L1Config::paper()
    }
}

/// How the LLC set index is computed from a line address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcIndexing {
    /// Insecure baseline: the low `set_bits` of the line address.
    Base,
    /// MI6 set partitioning (paper Section 5.2 / 7.2): the top
    /// `region_bits` of the index are replaced by the low bits of the
    /// DRAM-region ID, so each pair of DRAM regions maps to disjoint sets.
    ///
    /// For the single-core PART evaluation this models the index change
    /// from `A[9:0]` to `{R[1:0], A[7:0]}` with `region_bits = 2`.
    Partitioned {
        /// Number of index bits taken from the DRAM-region ID.
        region_bits: u32,
    },
}

/// How the LLC MSHRs are organized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MshrOrg {
    /// One shared pool (insecure baseline; 16 entries in Figure 4).
    Shared {
        /// Pool size.
        total: usize,
    },
    /// The MISS evaluation model (paper Section 7.3): `total` entries
    /// sliced into `banks` banks by the low bits of the set index. A full
    /// target bank stalls *all* allocation (the paper's stated pessimistic
    /// approximation of per-bank independence).
    Banked {
        /// Total entries across banks.
        total: usize,
        /// Number of banks.
        banks: usize,
    },
    /// True MI6 partitioning (paper Section 5.2): a fixed number of
    /// entries statically owned by each core.
    PerCore {
        /// Entries owned by each core.
        per_core: usize,
    },
}

impl MshrOrg {
    /// Total MSHR entries for `cores` cores.
    pub const fn total(&self, cores: usize) -> usize {
        match *self {
            MshrOrg::Shared { total } | MshrOrg::Banked { total, .. } => total,
            MshrOrg::PerCore { per_core } => per_core * cores,
        }
    }
}

/// How messages are admitted into the LLC cache-access pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LlcArbitration {
    /// Insecure baseline: a two-level mux — merge each message type across
    /// cores, then fixed priority across types. Admits one message per
    /// cycle whenever any is pending.
    Base,
    /// MI6 (paper Section 5.4.3, Figure 3): merge all message kinds
    /// *per core*, then a strict round-robin arbiter across cores — in
    /// cycle `T` only core `T % N` may enter, even if it has nothing to
    /// send.
    RoundRobin,
}

/// How the upgrade-response queue (UQ) is organized.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UqOrg {
    /// Single shared FIFO (baseline, Figure 2) — head-of-line blocking
    /// across cores is possible.
    Shared,
    /// Per-core FIFOs (MI6, Figure 3) — head-of-line blocking stays within
    /// one core's responses. Total capacity unchanged.
    PerCore,
}

/// How the Downgrade-L1 logic scans MSHRs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DowngradeOrg {
    /// Single logic instance scanning all MSHRs, sending one downgrade
    /// request per cycle (baseline, Figure 2).
    Single,
    /// One duplicated logic instance per MSHR partition, each sending one
    /// downgrade request per cycle (MI6's chosen approach, Figure 3).
    PerPartition,
}

/// How DQ (the DRAM-request queue) dequeues entries that finished a cache
/// replacement (writeback followed by read).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DqOrg {
    /// Baseline: such an entry sends *both* the writeback and the read in
    /// one dequeue, blocking the DQ port for one extra cycle.
    TwoCycleDequeue,
    /// MI6 retry-bit scheme (paper Section 5.4.3): the dequeue sends only
    /// the writeback; the entry re-enters the cache-access pipeline and
    /// comes back through DQ as a pure miss. Dequeue always takes one
    /// cycle.
    RetryBit,
}

/// Full LLC configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LlcConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Set indexing function.
    pub indexing: LlcIndexing,
    /// MSHR organization.
    pub mshrs: MshrOrg,
    /// Pipeline entry arbitration.
    pub arbitration: LlcArbitration,
    /// UQ organization.
    pub uq: UqOrg,
    /// Downgrade-L1 logic organization.
    pub downgrade: DowngradeOrg,
    /// DQ dequeue behaviour.
    pub dq: DqOrg,
    /// Latency of the cache-access pipeline (tag+data SRAM), in cycles.
    /// The ARB evaluation variant adds 8 to this (paper Section 7.4).
    pub pipeline_latency: u32,
}

impl LlcConfig {
    /// Figure 4 insecure baseline: 1 MiB, 16-way, 16 shared MSHRs.
    pub const fn paper_base() -> LlcConfig {
        LlcConfig {
            size_bytes: 1 << 20,
            ways: 16,
            indexing: LlcIndexing::Base,
            mshrs: MshrOrg::Shared { total: 16 },
            arbitration: LlcArbitration::Base,
            uq: UqOrg::Shared,
            downgrade: DowngradeOrg::Single,
            dq: DqOrg::TwoCycleDequeue,
            pipeline_latency: 8,
        }
    }

    /// The full MI6 secure LLC (Figure 3) for `cores` cores: per-core MSHR
    /// partitions sized to never backpressure DRAM, split UQs, duplicated
    /// Downgrade-L1, retry-bit DQ, round-robin arbiter, and partitioned
    /// indexing.
    pub const fn paper_secure(cores: usize, dram_max_inflight: usize) -> LlcConfig {
        // Section 5.2: at most dmax/2 MSHRs in total, divided by cores.
        let per_core = dram_max_inflight / 2 / cores;
        LlcConfig {
            size_bytes: 1 << 20,
            ways: 16,
            indexing: LlcIndexing::Partitioned { region_bits: 2 },
            mshrs: MshrOrg::PerCore { per_core },
            arbitration: LlcArbitration::RoundRobin,
            uq: UqOrg::PerCore,
            downgrade: DowngradeOrg::PerPartition,
            dq: DqOrg::RetryBit,
            pipeline_latency: 8,
        }
    }

    /// Number of sets.
    pub const fn sets(&self) -> usize {
        (self.size_bytes / (LINE_BYTES * self.ways as u64)) as usize
    }

    /// log2 of the number of sets.
    pub const fn set_bits(&self) -> u32 {
        self.sets().trailing_zeros()
    }
}

impl Default for LlcConfig {
    fn default() -> LlcConfig {
        LlcConfig::paper_base()
    }
}

/// DRAM controller configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Physical memory size in bytes.
    pub size_bytes: u64,
    /// Constant access latency in cycles (Figure 4: 120).
    pub latency: u32,
    /// Maximum in-flight requests before backpressure (Figure 4: 24).
    pub max_inflight: usize,
    /// Number of equally-sized DRAM regions (paper: 64).
    pub regions: usize,
}

impl DramConfig {
    /// Figure 4: 2 GiB, 120 cycles, 24 in flight, 64 regions.
    pub const fn paper() -> DramConfig {
        DramConfig {
            size_bytes: 2 << 30,
            latency: 120,
            max_inflight: 24,
            regions: 64,
        }
    }

    /// Size of one DRAM region in bytes.
    pub const fn region_bytes(&self) -> u64 {
        self.size_bytes / self.regions as u64
    }
}

impl Default for DramConfig {
    fn default() -> DramConfig {
        DramConfig::paper()
    }
}

/// Latency of one hop on a core↔LLC coherence link, in cycles.
pub const LINK_LATENCY: u32 = 2;
/// Capacity of each link FIFO, in messages.
pub const LINK_CAPACITY: usize = 4;

/// Aggregate configuration of the memory system.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MemConfig {
    /// Per-core L1 instruction cache.
    pub l1i: L1Config,
    /// Per-core L1 data cache.
    pub l1d: L1Config,
    /// Shared last-level cache.
    pub llc: LlcConfig,
    /// DRAM controller.
    pub dram: DramConfig,
}

impl MemConfig {
    /// The paper's BASE configuration (Figure 4).
    pub const fn paper_base() -> MemConfig {
        MemConfig {
            l1i: L1Config::paper(),
            l1d: L1Config::paper(),
            llc: LlcConfig::paper_base(),
            dram: DramConfig::paper(),
        }
    }

    /// The full MI6 secure configuration for `cores` cores.
    pub const fn paper_secure(cores: usize) -> MemConfig {
        let dram = DramConfig::paper();
        MemConfig {
            l1i: L1Config::paper(),
            l1d: L1Config::paper(),
            llc: LlcConfig::paper_secure(cores, dram.max_inflight),
            dram,
        }
    }
}

// ---------------------------------------------------------------- snapshot

mi6_snapshot::snap_struct! { L1Config { size_bytes, ways, mshrs, hit_latency } }

mi6_snapshot::snap_enum! { LlcIndexing { 0 => Base, 1 => Partitioned { region_bits } } }

mi6_snapshot::snap_enum! {
    MshrOrg { 0 => Shared { total }, 1 => Banked { total, banks }, 2 => PerCore { per_core } }
}

mi6_snapshot::snap_enum! { LlcArbitration { 0 => Base, 1 => RoundRobin } }

mi6_snapshot::snap_enum! { UqOrg { 0 => Shared, 1 => PerCore } }

mi6_snapshot::snap_enum! { DowngradeOrg { 0 => Single, 1 => PerPartition } }

mi6_snapshot::snap_enum! { DqOrg { 0 => TwoCycleDequeue, 1 => RetryBit } }

mi6_snapshot::snap_struct! {
    LlcConfig {
        size_bytes, ways, indexing, mshrs, arbitration, uq, downgrade, dq, pipeline_latency,
    }
}

mi6_snapshot::snap_struct! { DramConfig { size_bytes, latency, max_inflight, regions } }

mi6_snapshot::snap_struct! { MemConfig { l1i, l1d, llc, dram } }

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_l1_geometry() {
        let l1 = L1Config::paper();
        assert_eq!(l1.sets(), 64);
        assert_eq!(l1.lines(), 512); // paper Sec 7.1: 512 lines per L1
    }

    #[test]
    fn paper_llc_geometry() {
        let llc = LlcConfig::paper_base();
        assert_eq!(llc.sets(), 1024); // 2^10 sets as in Sec 7.2
        assert_eq!(llc.set_bits(), 10);
    }

    #[test]
    fn paper_dram_regions() {
        let dram = DramConfig::paper();
        assert_eq!(dram.region_bytes(), 32 << 20); // 2 GiB / 64
    }

    #[test]
    fn secure_mshr_sizing_never_exceeds_half_dram() {
        // Section 5.2: #MSHRs <= dmax / 2.
        for cores in [1, 2, 4, 6, 12] {
            let cfg = LlcConfig::paper_secure(cores, 24);
            assert!(cfg.mshrs.total(cores) * 2 <= 24, "cores={cores}");
        }
    }

    #[test]
    fn mshr_totals() {
        assert_eq!(MshrOrg::Shared { total: 16 }.total(4), 16);
        assert_eq!(
            MshrOrg::Banked {
                total: 12,
                banks: 4
            }
            .total(4),
            12
        );
        assert_eq!(MshrOrg::PerCore { per_core: 3 }.total(4), 12);
    }
}
