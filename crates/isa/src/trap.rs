//! Trap causes: synchronous exceptions and asynchronous interrupts.
//!
//! MI6 adds one cause beyond the RISC-V baseline:
//! [`Exception::DramRegionFault`], raised when a non-speculative access falls
//! outside the DRAM regions allocated to the running protection domain
//! (paper Section 5.3). Speculative violating accesses are *suppressed* and
//! only fault if they become non-speculative.

use crate::privilege::PrivLevel;
use std::fmt;

/// A synchronous exception cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Exception {
    /// Instruction address misaligned (PC not a multiple of 4).
    InstMisaligned,
    /// Instruction fetch faulted (no valid translation / no memory).
    InstAccessFault,
    /// Undecodable or privilege-inadequate instruction.
    IllegalInst,
    /// `ebreak`.
    Breakpoint,
    /// Misaligned data load.
    LoadMisaligned,
    /// Data load faulted.
    LoadAccessFault,
    /// Misaligned data store.
    StoreMisaligned,
    /// Data store faulted.
    StoreAccessFault,
    /// `ecall` from user mode (syscall to the OS).
    EcallFromUser,
    /// `ecall` from supervisor mode (call into the security monitor).
    EcallFromSupervisor,
    /// `ecall` from machine mode (monitor self-call; normally unused).
    EcallFromMachine,
    /// Instruction page fault (page-table walk failed on fetch).
    InstPageFault,
    /// Load page fault.
    LoadPageFault,
    /// Store page fault.
    StorePageFault,
    /// MI6: the access targets a DRAM region not in the core's allowed
    /// region bitvector (paper Section 5.3).
    DramRegionFault,
}

impl Exception {
    /// RISC-V style cause code (DramRegionFault takes a custom code 24).
    pub const fn code(self) -> u64 {
        match self {
            Exception::InstMisaligned => 0,
            Exception::InstAccessFault => 1,
            Exception::IllegalInst => 2,
            Exception::Breakpoint => 3,
            Exception::LoadMisaligned => 4,
            Exception::LoadAccessFault => 5,
            Exception::StoreMisaligned => 6,
            Exception::StoreAccessFault => 7,
            Exception::EcallFromUser => 8,
            Exception::EcallFromSupervisor => 9,
            Exception::EcallFromMachine => 11,
            Exception::InstPageFault => 12,
            Exception::LoadPageFault => 13,
            Exception::StorePageFault => 15,
            Exception::DramRegionFault => 24,
        }
    }

    /// Decodes a cause code.
    pub const fn from_code(code: u64) -> Option<Exception> {
        Some(match code {
            0 => Exception::InstMisaligned,
            1 => Exception::InstAccessFault,
            2 => Exception::IllegalInst,
            3 => Exception::Breakpoint,
            4 => Exception::LoadMisaligned,
            5 => Exception::LoadAccessFault,
            6 => Exception::StoreMisaligned,
            7 => Exception::StoreAccessFault,
            8 => Exception::EcallFromUser,
            9 => Exception::EcallFromSupervisor,
            11 => Exception::EcallFromMachine,
            12 => Exception::InstPageFault,
            13 => Exception::LoadPageFault,
            15 => Exception::StorePageFault,
            24 => Exception::DramRegionFault,
            _ => return None,
        })
    }

    /// The `ecall` exception raised from a given privilege level.
    pub const fn ecall_from(priv_level: PrivLevel) -> Exception {
        match priv_level {
            PrivLevel::User => Exception::EcallFromUser,
            PrivLevel::Supervisor => Exception::EcallFromSupervisor,
            PrivLevel::Machine => Exception::EcallFromMachine,
        }
    }

    /// Exceptions that must always be handled by the security monitor in
    /// machine mode: supervisor ecalls (monitor calls) and MI6 region faults.
    pub const fn always_to_machine(self) -> bool {
        matches!(
            self,
            Exception::EcallFromSupervisor
                | Exception::EcallFromMachine
                | Exception::DramRegionFault
        )
    }

    /// All exception causes.
    pub const ALL: [Exception; 16] = [
        Exception::InstMisaligned,
        Exception::InstAccessFault,
        Exception::IllegalInst,
        Exception::Breakpoint,
        Exception::LoadMisaligned,
        Exception::LoadAccessFault,
        Exception::StoreMisaligned,
        Exception::StoreAccessFault,
        Exception::EcallFromUser,
        Exception::EcallFromSupervisor,
        Exception::EcallFromMachine,
        Exception::InstPageFault,
        Exception::LoadPageFault,
        Exception::StorePageFault,
        Exception::DramRegionFault,
        Exception::Breakpoint,
    ];
}

impl fmt::Display for Exception {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Exception::InstMisaligned => "instruction address misaligned",
            Exception::InstAccessFault => "instruction access fault",
            Exception::IllegalInst => "illegal instruction",
            Exception::Breakpoint => "breakpoint",
            Exception::LoadMisaligned => "load address misaligned",
            Exception::LoadAccessFault => "load access fault",
            Exception::StoreMisaligned => "store address misaligned",
            Exception::StoreAccessFault => "store access fault",
            Exception::EcallFromUser => "ecall from user mode",
            Exception::EcallFromSupervisor => "ecall from supervisor mode",
            Exception::EcallFromMachine => "ecall from machine mode",
            Exception::InstPageFault => "instruction page fault",
            Exception::LoadPageFault => "load page fault",
            Exception::StorePageFault => "store page fault",
            Exception::DramRegionFault => "dram region fault",
        };
        f.write_str(s)
    }
}

/// An asynchronous interrupt cause.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Interrupt {
    /// Supervisor software interrupt (IPI).
    SupervisorSoftware,
    /// Supervisor timer interrupt (drives the OS scheduler).
    SupervisorTimer,
    /// Machine timer interrupt (drives the security monitor's watchdog).
    MachineTimer,
    /// Machine software interrupt (monitor IPI, e.g. TLB shootdown).
    MachineSoftware,
}

impl Interrupt {
    /// RISC-V style interrupt cause code.
    pub const fn code(self) -> u64 {
        match self {
            Interrupt::SupervisorSoftware => 1,
            Interrupt::MachineSoftware => 3,
            Interrupt::SupervisorTimer => 5,
            Interrupt::MachineTimer => 7,
        }
    }

    /// Decodes an interrupt cause code.
    pub const fn from_code(code: u64) -> Option<Interrupt> {
        Some(match code {
            1 => Interrupt::SupervisorSoftware,
            3 => Interrupt::MachineSoftware,
            5 => Interrupt::SupervisorTimer,
            7 => Interrupt::MachineTimer,
            _ => return None,
        })
    }

    /// The privilege level that natively handles this interrupt.
    pub const fn native_level(self) -> PrivLevel {
        match self {
            Interrupt::SupervisorSoftware | Interrupt::SupervisorTimer => PrivLevel::Supervisor,
            Interrupt::MachineSoftware | Interrupt::MachineTimer => PrivLevel::Machine,
        }
    }

    /// All interrupt causes.
    pub const ALL: [Interrupt; 4] = [
        Interrupt::SupervisorSoftware,
        Interrupt::MachineSoftware,
        Interrupt::SupervisorTimer,
        Interrupt::MachineTimer,
    ];
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Interrupt::SupervisorSoftware => "supervisor software interrupt",
            Interrupt::SupervisorTimer => "supervisor timer interrupt",
            Interrupt::MachineSoftware => "machine software interrupt",
            Interrupt::MachineTimer => "machine timer interrupt",
        };
        f.write_str(s)
    }
}

/// A trap cause: either a synchronous exception or an interrupt.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrapCause {
    /// Synchronous exception.
    Exception(Exception),
    /// Asynchronous interrupt.
    Interrupt(Interrupt),
}

impl TrapCause {
    /// Packs the cause into a RISC-V `mcause`-style value: the top bit set
    /// for interrupts, the cause code in the low bits.
    pub const fn to_bits(self) -> u64 {
        match self {
            TrapCause::Exception(e) => e.code(),
            TrapCause::Interrupt(i) => (1 << 63) | i.code(),
        }
    }

    /// Unpacks an `mcause`-style value.
    pub const fn from_bits(bits: u64) -> Option<TrapCause> {
        if bits >> 63 != 0 {
            match Interrupt::from_code(bits & !(1 << 63)) {
                Some(i) => Some(TrapCause::Interrupt(i)),
                None => None,
            }
        } else {
            match Exception::from_code(bits) {
                Some(e) => Some(TrapCause::Exception(e)),
                None => None,
            }
        }
    }
}

impl fmt::Display for TrapCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrapCause::Exception(e) => e.fmt(f),
            TrapCause::Interrupt(i) => i.fmt(f),
        }
    }
}

impl From<Exception> for TrapCause {
    fn from(e: Exception) -> TrapCause {
        TrapCause::Exception(e)
    }
}

impl From<Interrupt> for TrapCause {
    fn from(i: Interrupt) -> TrapCause {
        TrapCause::Interrupt(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exception_codes_round_trip() {
        for e in Exception::ALL {
            assert_eq!(Exception::from_code(e.code()), Some(e));
        }
    }

    #[test]
    fn interrupt_codes_round_trip() {
        for i in Interrupt::ALL {
            assert_eq!(Interrupt::from_code(i.code()), Some(i));
        }
    }

    #[test]
    fn cause_bits_round_trip() {
        for e in Exception::ALL {
            let c = TrapCause::Exception(e);
            assert_eq!(TrapCause::from_bits(c.to_bits()), Some(c));
        }
        for i in Interrupt::ALL {
            let c = TrapCause::Interrupt(i);
            assert_eq!(TrapCause::from_bits(c.to_bits()), Some(c));
        }
    }

    #[test]
    fn ecall_cause_tracks_privilege() {
        assert_eq!(
            Exception::ecall_from(PrivLevel::User),
            Exception::EcallFromUser
        );
        assert_eq!(
            Exception::ecall_from(PrivLevel::Supervisor),
            Exception::EcallFromSupervisor
        );
    }

    #[test]
    fn region_fault_routes_to_machine() {
        assert!(Exception::DramRegionFault.always_to_machine());
        assert!(!Exception::EcallFromUser.always_to_machine());
    }

    #[test]
    fn unknown_codes_rejected() {
        assert_eq!(Exception::from_code(10), None);
        assert_eq!(Interrupt::from_code(2), None);
        assert_eq!(TrapCause::from_bits((1 << 63) | 2), None);
    }
}
