//! Trap causes: synchronous exceptions and asynchronous interrupts.
//!
//! MI6 adds one cause beyond the RISC-V baseline:
//! [`Exception::DramRegionFault`], raised when a non-speculative access falls
//! outside the DRAM regions allocated to the running protection domain
//! (paper Section 5.3). Speculative violating accesses are *suppressed* and
//! only fault if they become non-speculative.

use crate::privilege::PrivLevel;
use std::fmt;

/// Declares a cause enum from one table with a row per cause: its doc,
/// RISC-V style cause code and description. The table generates the
/// enum, `ALL`, `code`, `from_code` and `Display`; a repeated code trips
/// the `unreachable_patterns` lint.
macro_rules! causes {
    (
        $(#[$ty_doc:meta])*
        $ty:ident {
            $($(#[$doc:meta])* $cause:ident = $code:literal, $text:literal;)+
        }
    ) => {
        $(#[$ty_doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        pub enum $ty {
            $($(#[$doc])* $cause,)+
        }

        impl $ty {
            /// All causes, in code order.
            pub const ALL: [$ty; [$($ty::$cause),+].len()] = [$($ty::$cause),+];

            /// The RISC-V style cause code.
            pub const fn code(self) -> u64 {
                match self {
                    $($ty::$cause => $code,)+
                }
            }

            /// Decodes a cause code.
            pub const fn from_code(code: u64) -> Option<$ty> {
                match code {
                    $($code => Some($ty::$cause),)+
                    _ => None,
                }
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(match self {
                    $($ty::$cause => $text,)+
                })
            }
        }
    };
}

causes! {
    /// A synchronous exception cause.
    Exception {
        /// Instruction address misaligned (PC not a multiple of 4).
        InstMisaligned = 0, "instruction address misaligned";
        /// Instruction fetch faulted (no valid translation / no memory).
        InstAccessFault = 1, "instruction access fault";
        /// Undecodable or privilege-inadequate instruction.
        IllegalInst = 2, "illegal instruction";
        /// `ebreak`.
        Breakpoint = 3, "breakpoint";
        /// Misaligned data load.
        LoadMisaligned = 4, "load address misaligned";
        /// Data load faulted.
        LoadAccessFault = 5, "load access fault";
        /// Misaligned data store.
        StoreMisaligned = 6, "store address misaligned";
        /// Data store faulted.
        StoreAccessFault = 7, "store access fault";
        /// `ecall` from user mode (syscall to the OS).
        EcallFromUser = 8, "ecall from user mode";
        /// `ecall` from supervisor mode (call into the security monitor).
        EcallFromSupervisor = 9, "ecall from supervisor mode";
        /// `ecall` from machine mode (monitor self-call; normally unused).
        EcallFromMachine = 11, "ecall from machine mode";
        /// Instruction page fault (page-table walk failed on fetch).
        InstPageFault = 12, "instruction page fault";
        /// Load page fault.
        LoadPageFault = 13, "load page fault";
        /// Store page fault.
        StorePageFault = 15, "store page fault";
        /// MI6: the access targets a DRAM region not in the core's allowed
        /// region bitvector (paper Section 5.3). Its code is in RISC-V's
        /// custom range.
        DramRegionFault = 24, "dram region fault";
    }
}

impl Exception {
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
}

causes! {
    /// An asynchronous interrupt cause.
    Interrupt {
        /// Supervisor software interrupt (IPI).
        SupervisorSoftware = 1, "supervisor software interrupt";
        /// Machine software interrupt (monitor IPI, e.g. TLB shootdown).
        MachineSoftware = 3, "machine software interrupt";
        /// Supervisor timer interrupt (drives the OS scheduler).
        SupervisorTimer = 5, "supervisor timer interrupt";
        /// Machine timer interrupt (drives the security monitor's watchdog).
        MachineTimer = 7, "machine timer interrupt";
    }
}

impl Interrupt {
    /// The privilege level that natively handles this interrupt.
    pub const fn native_level(self) -> PrivLevel {
        match self {
            Interrupt::SupervisorSoftware | Interrupt::SupervisorTimer => PrivLevel::Supervisor,
            Interrupt::MachineSoftware | Interrupt::MachineTimer => PrivLevel::Machine,
        }
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

    /// `ALL` lists each cause once, in code order, and `from_code`
    /// accepts exactly their codes.
    #[test]
    fn cause_tables_list_each_cause_once() {
        let accepted = |decodes: fn(u64) -> bool| (0..64).filter(|&c| decodes(c)).collect();
        let codes: Vec<u64> = accepted(|c| Exception::from_code(c).is_some());
        assert_eq!(Exception::ALL.map(Exception::code).to_vec(), codes);
        let distinct: std::collections::HashSet<_> = Exception::ALL.into_iter().collect();
        assert_eq!((Exception::ALL.len(), distinct.len()), (15, 15));

        let codes: Vec<u64> = accepted(|c| Interrupt::from_code(c).is_some());
        assert_eq!(Interrupt::ALL.map(Interrupt::code).to_vec(), codes);
        let distinct: std::collections::HashSet<_> = Interrupt::ALL.into_iter().collect();
        assert_eq!((Interrupt::ALL.len(), distinct.len()), (4, 4));
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
