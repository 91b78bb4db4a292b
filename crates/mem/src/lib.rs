//! # mi6-mem
//!
//! The memory hierarchy of the MI6 reproduction: sparse physical memory,
//! DRAM regions and the per-core access bitvector, per-core L1 caches, MSI
//! directory coherence over per-core links, the RiscyOO last-level cache
//! with its Figure-2 internal microarchitecture, the MI6 Figure-3
//! strong-isolation LLC, and the constant-latency DRAM controller.
//!
//! Every mechanism the paper's Section 5 introduces is a configuration
//! toggle here, so the evaluation variants and the ablation golden test can
//! enable them independently:
//!
//! | paper mechanism | knob |
//! |---|---|
//! | LLC set partitioning (Sec 5.2) | [`LlcIndexing::Partitioned`] |
//! | MSHR partitioning/sizing (Sec 5.2) | [`MshrOrg::PerCore`] / [`MshrOrg::Banked`] |
//! | Round-robin pipeline arbiter (Sec 5.4.3) | [`LlcArbitration::RoundRobin`] |
//! | Split UQs (Sec 5.4.3) | [`UqOrg::PerCore`] |
//! | Duplicated Downgrade-L1 (Sec 5.4.3) | [`DowngradeOrg::PerPartition`] |
//! | DQ retry bit (Sec 5.4.3) | [`DqOrg::RetryBit`] |
//! | Constant-latency DRAM (Sec 5.2) | [`DramConfig`] (always constant) |
//!
//! ## Example
//!
//! ```
//! use mi6_mem::{MemConfig, MemSystem, Port, L1Access};
//! use mi6_isa::PhysAddr;
//!
//! let mut sys = MemSystem::new(MemConfig::paper_base(), 1);
//! let mut now = 0u64;
//! // A cold access misses all the way to DRAM...
//! assert_eq!(
//!     sys.access(now, 0, Port::Data, 1, PhysAddr::new(0x4000), false),
//!     L1Access::Miss
//! );
//! while sys.take_completions(0, Port::Data).is_empty() {
//!     sys.tick(now);
//!     now += 1;
//! }
//! // ...and the refill makes the next access a 2-cycle hit.
//! assert!(matches!(
//!     sys.access(now, 0, Port::Data, 2, PhysAddr::new(0x4000), false),
//!     L1Access::Hit { .. }
//! ));
//! ```

pub mod config;
pub mod dram;
pub mod l1;
pub mod link;
pub mod llc;
pub mod msi;
pub mod obs;
pub mod phys;
pub mod region;
pub mod system;

pub use config::{
    DowngradeOrg, DqOrg, DramConfig, L1Config, LlcArbitration, LlcConfig, LlcIndexing, MemConfig,
    MshrOrg, UqOrg, LINE_BYTES, LINE_SHIFT,
};
pub use dram::{Dram, DramReq, DramResp};
pub use l1::{L1Access, L1Cache, L1Completion, L1Stats, ReqToken, ServeLevel};
pub use link::DelayFifo;
pub use llc::{CoreLink, Llc, LlcStats};
pub use msi::{ChildId, DowngradeResp, MsiState, ParentMsg, UpgradeReq};
pub use obs::MemObs;
pub use phys::PhysMem;
pub use region::{RegionBitvec, RegionId, RegionMap};
pub use system::{MemStallReason, MemSystem, Port};
