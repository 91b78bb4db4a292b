//! MSI directory-coherence message types.
//!
//! The LLC keeps the L1s coherent with an MSI directory protocol (paper
//! Section 5.4.1, citing [Vijayaraghavan et al., CAV'15]). Each L1 is a
//! *child* identified by [`ChildId`] (one instruction and one data cache
//! per core). Three message classes flow on each core's dedicated link:
//!
//! - child → parent **upgrade requests** ([`UpgradeReq`]): the L1 wants a
//!   line in S (load miss) or M (store miss / S→M upgrade).
//! - child → parent **downgrade responses** ([`DowngradeResp`]): the L1
//!   acknowledges a downgrade (with writeback data when it held M dirty),
//!   or voluntarily evicts a line — the protocol requires notification even
//!   for clean evictions (paper Section 7.1).
//! - parent → child **upgrade responses and downgrade requests**
//!   ([`ParentMsg`]).
//!
//! Data payloads are not carried (see [`crate::phys::PhysMem`] for the
//! functional/timing split); a writeback is a `dirty = true` response.

use mi6_isa::PhysAddr;
use std::fmt;

/// MSI stability states tracked by caches and the directory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum MsiState {
    /// Invalid / not present.
    #[default]
    I,
    /// Shared (read-only).
    S,
    /// Modified (exclusive, writable).
    M,
}

impl MsiState {
    /// Whether this state satisfies a request for `want`.
    pub fn covers(self, want: MsiState) -> bool {
        self >= want
    }
}

impl fmt::Display for MsiState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MsiState::I => "I",
            MsiState::S => "S",
            MsiState::M => "M",
        })
    }
}

/// Identifies one child cache of the LLC.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChildId(pub u16);

impl ChildId {
    /// The child for a core's L1 instruction cache.
    pub const fn l1i(core: usize) -> ChildId {
        ChildId((core * 2) as u16)
    }

    /// The child for a core's L1 data cache.
    pub const fn l1d(core: usize) -> ChildId {
        ChildId((core * 2 + 1) as u16)
    }

    /// The core this child belongs to.
    pub const fn core(self) -> usize {
        (self.0 / 2) as usize
    }

    /// Whether this is a data cache.
    pub const fn is_data(self) -> bool {
        self.0 % 2 == 1
    }

    /// Raw index (used for directory bitmaps).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ChildId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ChildId(core {} {})",
            self.core(),
            if self.is_data() { "L1D" } else { "L1I" }
        )
    }
}

/// Child → parent: request to upgrade a line to `want`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpgradeReq {
    /// Requesting child.
    pub child: ChildId,
    /// Line base address.
    pub line: PhysAddr,
    /// Desired state (S for loads/fetches, M for stores).
    pub want: MsiState,
}

/// Child → parent: downgrade acknowledgement or voluntary eviction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DowngradeResp {
    /// Responding child.
    pub child: ChildId,
    /// Line base address.
    pub line: PhysAddr,
    /// State the child now holds the line in (I or S).
    pub now: MsiState,
    /// Whether the child held modified data (a writeback).
    pub dirty: bool,
}

/// Parent → child messages (shared FIFO per link, per Figure 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParentMsg {
    /// The upgrade the child asked for is granted.
    UpgradeResp {
        /// Line base address.
        line: PhysAddr,
        /// Granted state.
        granted: MsiState,
        /// Whether the fill came from DRAM rather than an LLC hit.
        /// Observability-only (CPI-stack serve levels): never read by
        /// timing logic and not serialized (defaults to `false` on
        /// snapshot restore).
        from_dram: bool,
    },
    /// The parent needs the child to downgrade the line to `to`.
    DowngradeReq {
        /// Line base address.
        line: PhysAddr,
        /// Required state (I to invalidate, S to demote from M).
        to: MsiState,
    },
}

impl ParentMsg {
    /// The line this message concerns.
    pub fn line(&self) -> PhysAddr {
        match *self {
            ParentMsg::UpgradeResp { line, .. } | ParentMsg::DowngradeReq { line, .. } => line,
        }
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

mi6_snapshot::snap_enum! { MsiState { 0 => I, 1 => S, 2 => M } }

impl SnapState for ChildId {
    fn save(&self, w: &mut SnapWriter) {
        w.u16(self.0);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(ChildId(r.u16()?))
    }
}

mi6_snapshot::snap_struct! { UpgradeReq { child, line, want } }

mi6_snapshot::snap_struct! { DowngradeResp { child, line, now, dirty } }

// `from_dram` is observability-only: a restored response reads as an
// LLC serve.
mi6_snapshot::snap_enum! {
    ParentMsg {
        0 => UpgradeResp { line, granted } runtime { from_dram: false },
        1 => DowngradeReq { line, to },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_ordering() {
        assert!(MsiState::M.covers(MsiState::S));
        assert!(MsiState::M.covers(MsiState::M));
        assert!(!MsiState::S.covers(MsiState::M));
        assert!(!MsiState::I.covers(MsiState::S));
    }

    #[test]
    fn child_ids() {
        assert_eq!(ChildId::l1i(0).index(), 0);
        assert_eq!(ChildId::l1d(0).index(), 1);
        assert_eq!(ChildId::l1d(3).index(), 7);
        assert_eq!(ChildId::l1d(3).core(), 3);
        assert!(ChildId::l1d(1).is_data());
        assert!(!ChildId::l1i(1).is_data());
    }

    #[test]
    fn parent_msg_line() {
        let a = PhysAddr::new(0x40);
        assert_eq!(
            ParentMsg::UpgradeResp {
                line: a,
                granted: MsiState::S,
                from_dram: false
            }
            .line(),
            a
        );
        assert_eq!(
            ParentMsg::DowngradeReq {
                line: a,
                to: MsiState::I
            }
            .line(),
            a
        );
    }
}
