//! Control and status registers.
//!
//! A RISC-V-flavoured CSR space with machine and supervisor trap handling
//! state, plus the MI6-specific machine-mode CSRs:
//!
//! - [`csr::MREGIONS`]: the per-core DRAM-region access bitvector
//!   (paper Section 5.3) — bit *r* set means the running protection domain
//!   may touch DRAM region *r*, for *any* physical access including
//!   speculative fetches, loads, and page-table walks.
//! - [`csr::MFETCHBASE`] / [`csr::MFETCHBOUND`]: the physical address window
//!   machine-mode instruction fetch is restricted to (the security monitor's
//!   text; paper Section 6.2).
//!
//! [`csr::MREGIONS`]: MREGIONS
//! [`csr::MFETCHBASE`]: MFETCHBASE
//! [`csr::MFETCHBOUND`]: MFETCHBOUND

use crate::privilege::PrivLevel;
#[cfg(any(doc, test))]
use crate::trap::Exception;
use crate::trap::{Interrupt, TrapCause};
use std::fmt;

/// Declares the state-holding CSRs from one table with a row per CSR:
/// its doc, [`CsrFile`] field, address constant, and optionally the bits
/// a write keeps (`mask`, default all) and its reset value (`reset`,
/// default 0). The table generates the address constants, [`CsrFile`],
/// [`CsrFile::new`], the field lookup behind [`CsrFile::read`] and
/// [`CsrFile::write`], and the snapshot codec, so the row order is the
/// snapshot's wire order.
macro_rules! csr_file {
    (@or $default:tt) => { $default };
    (@or $default:tt $value:expr) => { $value };
    ($(
        $(#[$doc:meta])*
        $field:ident: $name:ident = $addr:literal
        $(, mask $mask:expr)? $(, reset $reset:expr)?;
    )+) => {
        $($(#[$doc])* pub const $name: u16 = $addr;)+

        /// The architectural CSR file of one hardware thread.
        ///
        /// Holds trap state for machine and supervisor modes, the MI6 region
        /// bitvector and fetch window, and the cycle/instret counters (which the
        /// simulator updates, not software).
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct CsrFile {
            $($(#[$doc])* pub $field: u64,)+
        }

        impl CsrFile {
            /// A freshly reset CSR file: each CSR holds its row's `reset`
            /// value, or 0. `mregions` resets to all ones, so every region
            /// is accessible until the monitor configures it.
            pub fn new() -> CsrFile {
                CsrFile {
                    $($field: csr_file!(@or 0 $($reset)?),)+
                }
            }

            /// The value of the state-holding CSR at `csr`.
            fn get(&self, csr: u16) -> Option<u64> {
                match csr {
                    $($name => Some(self.$field),)+
                    _ => None,
                }
            }

            /// The field behind the state-holding CSR at `csr`, and the bits
            /// a write keeps.
            fn field_mut(&mut self, csr: u16) -> Option<(&mut u64, u64)> {
                match csr {
                    $($name => Some((&mut self.$field, csr_file!(@or (!0) $($mask)?))),)+
                    _ => None,
                }
            }
        }

        mi6_snapshot::snap_struct! { CsrFile { $($field),+ } }
    };
}

// Addresses are 12 bits; bits 9:8 give the required privilege and bits
// 11:10 == 0b11 mark a read-only CSR.
csr_file! {
    /// Machine status (MPP, SPP, MIE, SIE bits); [`SSTATUS`] is a masked view.
    mstatus: MSTATUS = 0x300;
    /// Machine exception delegation: bit = exception code delegated to S-mode.
    medeleg: MEDELEG = 0x302;
    /// Machine interrupt delegation.
    mideleg: MIDELEG = 0x303;
    /// Machine interrupt enable bits.
    mie: MIE = 0x304;
    /// Machine trap vector base.
    mtvec: MTVEC = 0x305, mask !0b11;
    /// Machine scratch.
    mscratch: MSCRATCH = 0x340;
    /// Machine exception PC.
    mepc: MEPC = 0x341, mask !0b11;
    /// Machine trap cause.
    mcause: MCAUSE = 0x342;
    /// Machine trap value (faulting address / instruction bits).
    mtval: MTVAL = 0x343;
    /// Machine interrupt pending bits.
    mip: MIP = 0x344;
    /// MI6: DRAM-region access bitvector, bit r = region r accessible
    /// (machine-mode writable only).
    mregions: MREGIONS = 0x7c0, reset u64::MAX;
    /// MI6: machine-mode fetch window base (physical byte address).
    mfetchbase: MFETCHBASE = 0x7c1;
    /// MI6: machine-mode fetch window bound (exclusive, physical).
    mfetchbound: MFETCHBOUND = 0x7c2, reset u64::MAX;
    /// Machine timer compare value (simplified: a CSR rather than MMIO).
    mtimecmp: MTIMECMP = 0x7c3, reset u64::MAX;
    /// Supervisor trap vector base.
    stvec: STVEC = 0x105, mask !0b11;
    /// Supervisor scratch.
    sscratch: SSCRATCH = 0x140;
    /// Supervisor exception PC.
    sepc: SEPC = 0x141, mask !0b11;
    /// Supervisor trap cause.
    scause: SCAUSE = 0x142;
    /// Supervisor trap value.
    stval: STVAL = 0x143;
    /// Supervisor address translation and protection (page-table root | mode).
    satp: SATP = 0x180;
    /// Supervisor timer compare (simplified: a CSR rather than SBI/MMIO, so
    /// the toy OS can drive its scheduler without bouncing through the
    /// monitor).
    stimecmp: STIMECMP = 0x150, reset u64::MAX;
    /// Cycle counter (read-only from any privilege; maintained by the
    /// simulator).
    cycle: CYCLE = 0xc00;
    /// Retired-instruction counter (read-only; maintained by the simulator).
    instret: INSTRET = 0xc02;
}

// ---- views: CSRs that hold no state of their own ----

/// Supervisor status: the supervisor bits of [`MSTATUS`].
pub const SSTATUS: u16 = 0x100;
/// Supervisor interrupt enable: the bits of [`MIE`] delegated in [`MIDELEG`].
pub const SIE: u16 = 0x104;
/// Supervisor interrupt pending: the bits of [`MIP`] delegated in [`MIDELEG`].
pub const SIP: u16 = 0x144;

// ---- mstatus bit positions ----

/// `mstatus.SIE`: supervisor interrupt enable.
pub const STATUS_SIE: u64 = 1 << 1;
/// `mstatus.MIE`: machine interrupt enable.
pub const STATUS_MIE: u64 = 1 << 3;
/// `mstatus.SPIE`: previous SIE.
pub const STATUS_SPIE: u64 = 1 << 5;
/// `mstatus.MPIE`: previous MIE.
pub const STATUS_MPIE: u64 = 1 << 7;
/// `mstatus.SPP`: previous privilege (S-trap), 1 bit.
pub const STATUS_SPP: u64 = 1 << 8;
/// `mstatus.MPP`: previous privilege (M-trap), 2 bits at 11..13.
pub const STATUS_MPP_SHIFT: u32 = 11;
/// Mask for the MPP field.
pub const STATUS_MPP_MASK: u64 = 0b11 << STATUS_MPP_SHIFT;

/// Error returned by CSR accesses that must raise an illegal-instruction
/// exception (unknown CSR, insufficient privilege, write to read-only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CsrError {
    /// The CSR address that faulted.
    pub csr: u16,
    /// Why the access was rejected.
    pub kind: CsrErrorKind,
}

/// The reason a CSR access was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CsrErrorKind {
    /// Address does not name an implemented CSR.
    Unknown,
    /// The current privilege level may not access this CSR.
    Privilege,
    /// Write attempted to a read-only CSR.
    ReadOnly,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let why = match self.kind {
            CsrErrorKind::Unknown => "unknown csr",
            CsrErrorKind::Privilege => "insufficient privilege for csr",
            CsrErrorKind::ReadOnly => "write to read-only csr",
        };
        write!(f, "{why} {:#05x}", self.csr)
    }
}

impl std::error::Error for CsrError {}

/// Minimum privilege required to access a CSR address (RISC-V convention:
/// bits 9:8 of the address).
pub const fn required_privilege(csr: u16) -> PrivLevel {
    match (csr >> 8) & 0b11 {
        0 => PrivLevel::User,
        1 => PrivLevel::Supervisor,
        _ => PrivLevel::Machine,
    }
}

/// Whether the CSR address is architecturally read-only (RISC-V convention:
/// bits 11:10 == 0b11).
pub const fn is_read_only(csr: u16) -> bool {
    (csr >> 10) & 0b11 == 0b11
}

/// Bits of `mstatus`/`sstatus` visible and writable from supervisor mode.
const SSTATUS_MASK: u64 = STATUS_SIE | STATUS_SPIE | STATUS_SPP;

impl CsrFile {
    /// Reads a CSR, checking privilege.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError`] when the CSR is unknown or `priv_level` is too
    /// low; the core turns this into an illegal-instruction exception.
    pub fn read(&self, csr: u16, priv_level: PrivLevel) -> Result<u64, CsrError> {
        if !priv_level.can_access(required_privilege(csr)) {
            return Err(CsrError {
                csr,
                kind: CsrErrorKind::Privilege,
            });
        }
        match csr {
            SSTATUS => Ok(self.mstatus & SSTATUS_MASK),
            SIE => Ok(self.mie & self.mideleg),
            SIP => Ok(self.mip & self.mideleg),
            _ => self.get(csr).ok_or(CsrError {
                csr,
                kind: CsrErrorKind::Unknown,
            }),
        }
    }

    /// Writes a CSR, checking privilege and read-only status.
    ///
    /// # Errors
    ///
    /// Returns [`CsrError`] when the CSR is unknown, read-only, or
    /// `priv_level` is too low.
    pub fn write(&mut self, csr: u16, value: u64, priv_level: PrivLevel) -> Result<(), CsrError> {
        if !priv_level.can_access(required_privilege(csr)) {
            return Err(CsrError {
                csr,
                kind: CsrErrorKind::Privilege,
            });
        }
        if is_read_only(csr) {
            return Err(CsrError {
                csr,
                kind: CsrErrorKind::ReadOnly,
            });
        }
        // A view replaces only its visible bits of the underlying CSR.
        let merge = |old: u64, mask: u64| (old & !mask) | (value & mask);
        match csr {
            SSTATUS => self.mstatus = merge(self.mstatus, SSTATUS_MASK),
            SIE => self.mie = merge(self.mie, self.mideleg),
            SIP => self.mip = merge(self.mip, self.mideleg),
            _ => {
                let (field, mask) = self.field_mut(csr).ok_or(CsrError {
                    csr,
                    kind: CsrErrorKind::Unknown,
                })?;
                *field = value & mask;
            }
        }
        Ok(())
    }

    /// The privilege level saved in `mstatus.MPP`.
    pub fn mpp(&self) -> PrivLevel {
        PrivLevel::decode(((self.mstatus & STATUS_MPP_MASK) >> STATUS_MPP_SHIFT) as u8)
            .unwrap_or(PrivLevel::User)
    }

    /// Sets `mstatus.MPP`.
    pub fn set_mpp(&mut self, p: PrivLevel) {
        self.mstatus =
            (self.mstatus & !STATUS_MPP_MASK) | ((p.encode() as u64) << STATUS_MPP_SHIFT);
    }

    /// The privilege level saved in `mstatus.SPP` (user or supervisor).
    pub fn spp(&self) -> PrivLevel {
        if self.mstatus & STATUS_SPP != 0 {
            PrivLevel::Supervisor
        } else {
            PrivLevel::User
        }
    }

    /// Sets `mstatus.SPP`.
    pub fn set_spp(&mut self, p: PrivLevel) {
        if p == PrivLevel::Supervisor {
            self.mstatus |= STATUS_SPP;
        } else {
            self.mstatus &= !STATUS_SPP;
        }
    }

    /// Performs the architectural state update for taking a trap.
    ///
    /// Returns the privilege level the trap is taken in and the handler PC.
    /// Exceptions listed in `medeleg` (and interrupts in `mideleg`) raised
    /// at supervisor level or below are delegated to supervisor mode;
    /// everything else goes to machine mode. MI6 forces monitor calls and
    /// region faults to machine mode regardless of delegation
    /// ([`Exception::always_to_machine`]).
    pub fn take_trap(
        &mut self,
        cause: TrapCause,
        epc: u64,
        tval: u64,
        cur: PrivLevel,
    ) -> (PrivLevel, u64) {
        let delegated = match cause {
            TrapCause::Exception(e) => {
                !e.always_to_machine()
                    && cur <= PrivLevel::Supervisor
                    && (self.medeleg >> e.code()) & 1 != 0
            }
            TrapCause::Interrupt(i) => {
                cur <= PrivLevel::Supervisor && (self.mideleg >> i.code()) & 1 != 0
            }
        };
        if delegated {
            self.scause = cause.to_bits();
            self.sepc = epc;
            self.stval = tval;
            self.set_spp(cur);
            // SPIE <- SIE; SIE <- 0
            let sie = self.mstatus & STATUS_SIE != 0;
            if sie {
                self.mstatus |= STATUS_SPIE;
            } else {
                self.mstatus &= !STATUS_SPIE;
            }
            self.mstatus &= !STATUS_SIE;
            (PrivLevel::Supervisor, self.stvec)
        } else {
            self.mcause = cause.to_bits();
            self.mepc = epc;
            self.mtval = tval;
            self.set_mpp(cur);
            let mie = self.mstatus & STATUS_MIE != 0;
            if mie {
                self.mstatus |= STATUS_MPIE;
            } else {
                self.mstatus &= !STATUS_MPIE;
            }
            self.mstatus &= !STATUS_MIE;
            (PrivLevel::Machine, self.mtvec)
        }
    }

    /// Performs the architectural state update for `mret`. Returns the
    /// privilege level to resume in and the resume PC.
    pub fn mret(&mut self) -> (PrivLevel, u64) {
        let to = self.mpp();
        // MIE <- MPIE; MPIE <- 1; MPP <- U
        if self.mstatus & STATUS_MPIE != 0 {
            self.mstatus |= STATUS_MIE;
        } else {
            self.mstatus &= !STATUS_MIE;
        }
        self.mstatus |= STATUS_MPIE;
        self.set_mpp(PrivLevel::User);
        (to, self.mepc)
    }

    /// Performs the architectural state update for `sret`. Returns the
    /// privilege level to resume in and the resume PC.
    pub fn sret(&mut self) -> (PrivLevel, u64) {
        let to = self.spp();
        if self.mstatus & STATUS_SPIE != 0 {
            self.mstatus |= STATUS_SIE;
        } else {
            self.mstatus &= !STATUS_SIE;
        }
        self.mstatus |= STATUS_SPIE;
        self.set_spp(PrivLevel::User);
        (to, self.sepc)
    }

    /// The highest-priority pending-and-enabled interrupt takeable at the
    /// current privilege level, if any.
    ///
    /// Machine interrupts preempt supervisor interrupts. An interrupt is
    /// takeable when it is pending, enabled in `mie`, and either targets a
    /// strictly higher privilege than `cur` or targets `cur` with the
    /// corresponding global interrupt-enable bit set.
    pub fn pending_interrupt(&self, cur: PrivLevel) -> Option<Interrupt> {
        self.pending_interrupt_with(cur, self.mip)
    }

    /// [`CsrFile::pending_interrupt`] evaluated against an explicit `mip`
    /// value instead of the stored one. The core's next-event probe uses
    /// this to ask "would an interrupt be takeable once the timer pending
    /// bits are recomputed for the current cycle?" without mutating state
    /// (the stored `mip` is only refreshed inside the tick).
    pub fn pending_interrupt_with(&self, cur: PrivLevel, mip: u64) -> Option<Interrupt> {
        let ready = mip & self.mie;
        let takeable = |i: Interrupt| -> bool {
            if ready >> i.code() & 1 == 0 {
                return false;
            }
            let lvl = i.native_level();
            if lvl > cur {
                return true;
            }
            if lvl < cur {
                return false;
            }
            match lvl {
                PrivLevel::Machine => self.mstatus & STATUS_MIE != 0,
                PrivLevel::Supervisor => self.mstatus & STATUS_SIE != 0,
                PrivLevel::User => true,
            }
        };
        // Machine interrupts first.
        [
            Interrupt::MachineSoftware,
            Interrupt::MachineTimer,
            Interrupt::SupervisorSoftware,
            Interrupt::SupervisorTimer,
        ]
        .into_iter()
        .find(|&i| takeable(i))
    }

    /// Sets or clears an interrupt-pending bit.
    pub fn set_pending(&mut self, i: Interrupt, pending: bool) {
        if pending {
            self.mip |= 1 << i.code();
        } else {
            self.mip &= !(1 << i.code());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every state-holding CSR with the bits a write keeps and its reset
    /// value, written out.
    const STATE: [(u16, u64, u64); 23] = [
        (MSTATUS, !0, 0),
        (MEDELEG, !0, 0),
        (MIDELEG, !0, 0),
        (MIE, !0, 0),
        (MTVEC, !0b11, 0),
        (MSCRATCH, !0, 0),
        (MEPC, !0b11, 0),
        (MCAUSE, !0, 0),
        (MTVAL, !0, 0),
        (MIP, !0, 0),
        (MREGIONS, !0, u64::MAX),
        (MFETCHBASE, !0, 0),
        (MFETCHBOUND, !0, u64::MAX),
        (MTIMECMP, !0, u64::MAX),
        (STVEC, !0b11, 0),
        (SSCRATCH, !0, 0),
        (SEPC, !0b11, 0),
        (SCAUSE, !0, 0),
        (STVAL, !0, 0),
        (SATP, !0, 0),
        (STIMECMP, !0, u64::MAX),
        (CYCLE, !0, 0),
        (INSTRET, !0, 0),
    ];

    #[test]
    fn table_csrs_reset_write_and_read_back() {
        let mut csrs = CsrFile::new();
        let value = 0x0123_4567_89ab_cdef;
        for (csr, mask, reset) in STATE {
            assert_eq!(csrs.read(csr, PrivLevel::Machine), Ok(reset), "{csr:#x}");
            match csrs.write(csr, value, PrivLevel::Machine) {
                Ok(()) => assert_eq!(csrs.read(csr, PrivLevel::Machine), Ok(value & mask)),
                Err(e) => assert_eq!((csr >> 10, e.kind), (0b11, CsrErrorKind::ReadOnly)),
            }
        }
        for csr in 0..0x1000 {
            if STATE.iter().any(|&(c, ..)| c == csr) || [SSTATUS, SIE, SIP].contains(&csr) {
                continue;
            }
            let err = csrs.read(csr, PrivLevel::Machine).unwrap_err();
            assert_eq!(err.kind, CsrErrorKind::Unknown, "{csr:#x}");
        }
    }

    #[test]
    fn privilege_gating() {
        let csrs = CsrFile::new();
        assert!(csrs.read(MSTATUS, PrivLevel::User).is_err());
        assert!(csrs.read(MSTATUS, PrivLevel::Machine).is_ok());
        assert!(csrs.read(SEPC, PrivLevel::Supervisor).is_ok());
        assert!(csrs.read(SEPC, PrivLevel::User).is_err());
        assert!(csrs.read(CYCLE, PrivLevel::User).is_ok());
    }

    #[test]
    fn counters_read_only() {
        let mut csrs = CsrFile::new();
        let err = csrs.write(CYCLE, 1, PrivLevel::Machine).unwrap_err();
        assert_eq!(err.kind, CsrErrorKind::ReadOnly);
    }

    #[test]
    fn unknown_csr_rejected() {
        let mut csrs = CsrFile::new();
        assert!(csrs.read(0x123, PrivLevel::Machine).is_err());
        assert!(csrs.write(0x123, 0, PrivLevel::Machine).is_err());
    }

    #[test]
    fn mregions_machine_only() {
        let mut csrs = CsrFile::new();
        assert_eq!(csrs.read(MREGIONS, PrivLevel::Machine).unwrap(), u64::MAX);
        assert!(csrs.write(MREGIONS, 0b1010, PrivLevel::Supervisor).is_err());
        csrs.write(MREGIONS, 0b1010, PrivLevel::Machine).unwrap();
        assert_eq!(csrs.mregions, 0b1010);
    }

    #[test]
    fn sstatus_is_masked_view() {
        let mut csrs = CsrFile::new();
        csrs.write(MSTATUS, u64::MAX, PrivLevel::Machine).unwrap();
        let s = csrs.read(SSTATUS, PrivLevel::Supervisor).unwrap();
        assert_eq!(s, SSTATUS_MASK);
        // supervisor writes cannot touch machine bits
        csrs.write(SSTATUS, 0, PrivLevel::Supervisor).unwrap();
        assert_ne!(csrs.mstatus & STATUS_MIE, 0);
        assert_eq!(csrs.mstatus & STATUS_SIE, 0);
    }

    #[test]
    fn trap_to_machine_saves_state() {
        let mut csrs = CsrFile::new();
        csrs.mtvec = 0x8000_0000;
        csrs.mstatus |= STATUS_MIE;
        let (lvl, pc) = csrs.take_trap(
            Exception::EcallFromSupervisor.into(),
            0x1234,
            0,
            PrivLevel::Supervisor,
        );
        assert_eq!(lvl, PrivLevel::Machine);
        assert_eq!(pc, 0x8000_0000);
        assert_eq!(csrs.mepc, 0x1234);
        assert_eq!(csrs.mpp(), PrivLevel::Supervisor);
        assert_eq!(csrs.mstatus & STATUS_MIE, 0);
        assert_ne!(csrs.mstatus & STATUS_MPIE, 0);
    }

    #[test]
    fn delegated_exception_goes_to_supervisor() {
        let mut csrs = CsrFile::new();
        csrs.stvec = 0x4000;
        csrs.medeleg = 1 << Exception::EcallFromUser.code();
        let (lvl, pc) = csrs.take_trap(Exception::EcallFromUser.into(), 0x100, 0, PrivLevel::User);
        assert_eq!(lvl, PrivLevel::Supervisor);
        assert_eq!(pc, 0x4000);
        assert_eq!(csrs.sepc, 0x100);
        assert_eq!(csrs.spp(), PrivLevel::User);
    }

    #[test]
    fn region_fault_never_delegated() {
        let mut csrs = CsrFile::new();
        csrs.medeleg = u64::MAX;
        let (lvl, _) = csrs.take_trap(
            Exception::DramRegionFault.into(),
            0x100,
            0xdead,
            PrivLevel::User,
        );
        assert_eq!(lvl, PrivLevel::Machine);
        assert_eq!(csrs.mtval, 0xdead);
    }

    #[test]
    fn machine_trap_never_delegated_from_machine() {
        let mut csrs = CsrFile::new();
        csrs.medeleg = u64::MAX;
        let (lvl, _) = csrs.take_trap(Exception::IllegalInst.into(), 0, 0, PrivLevel::Machine);
        assert_eq!(lvl, PrivLevel::Machine);
    }

    #[test]
    fn mret_restores() {
        let mut csrs = CsrFile::new();
        csrs.mepc = 0x900;
        csrs.set_mpp(PrivLevel::User);
        csrs.mstatus |= STATUS_MPIE;
        let (lvl, pc) = csrs.mret();
        assert_eq!(lvl, PrivLevel::User);
        assert_eq!(pc, 0x900);
        assert_ne!(csrs.mstatus & STATUS_MIE, 0);
        assert_eq!(csrs.mpp(), PrivLevel::User);
    }

    #[test]
    fn sret_restores() {
        let mut csrs = CsrFile::new();
        csrs.sepc = 0x700;
        csrs.set_spp(PrivLevel::User);
        csrs.mstatus |= STATUS_SPIE;
        let (lvl, pc) = csrs.sret();
        assert_eq!(lvl, PrivLevel::User);
        assert_eq!(pc, 0x700);
        assert_ne!(csrs.mstatus & STATUS_SIE, 0);
    }

    #[test]
    fn interrupt_priority_and_masking() {
        let mut csrs = CsrFile::new();
        csrs.set_pending(Interrupt::SupervisorTimer, true);
        csrs.mie = u64::MAX;
        // At user level, S-timer targets higher privilege: takeable.
        assert_eq!(
            csrs.pending_interrupt(PrivLevel::User),
            Some(Interrupt::SupervisorTimer)
        );
        // At supervisor level with SIE clear: not takeable.
        assert_eq!(csrs.pending_interrupt(PrivLevel::Supervisor), None);
        csrs.mstatus |= STATUS_SIE;
        assert_eq!(
            csrs.pending_interrupt(PrivLevel::Supervisor),
            Some(Interrupt::SupervisorTimer)
        );
        // Machine timer preempts.
        csrs.set_pending(Interrupt::MachineTimer, true);
        assert_eq!(
            csrs.pending_interrupt(PrivLevel::Supervisor),
            Some(Interrupt::MachineTimer)
        );
        // At machine level with MIE clear, machine interrupts masked.
        assert_eq!(csrs.pending_interrupt(PrivLevel::Machine), None);
    }

    #[test]
    fn mpp_round_trip() {
        let mut csrs = CsrFile::new();
        for p in PrivLevel::ALL {
            csrs.set_mpp(p);
            assert_eq!(csrs.mpp(), p);
        }
    }
}
