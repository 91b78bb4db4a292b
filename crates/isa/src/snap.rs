//! Snapshot codec impls for architectural ISA types.
//!
//! Everything here is plain architectural state: registers, privilege,
//! exception causes, CSRs, paging newtypes, and decoded instructions.
//! Instructions are stored as their 32-bit machine encoding — every
//! instruction that reaches the pipeline came from a fetched word, so
//! `encode` round-trips by construction.

use crate::csr::CsrFile;
use crate::paging::{AccessKind, PageTableEntry, PhysAddr, VirtAddr};
use crate::privilege::PrivLevel;
use crate::trap::Exception;
use crate::{decode, encode, Inst, Reg};
use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

impl SnapState for Reg {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.index());
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let idx = r.u8()?;
        Reg::try_new(idx).ok_or_else(|| SnapError::BadValue {
            what: format!("register index {idx}"),
        })
    }
}

impl SnapState for PrivLevel {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            PrivLevel::User => 0,
            PrivLevel::Supervisor => 1,
            PrivLevel::Machine => 2,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(PrivLevel::User),
            1 => Ok(PrivLevel::Supervisor),
            2 => Ok(PrivLevel::Machine),
            other => Err(SnapError::BadValue {
                what: format!("privilege level {other}"),
            }),
        }
    }
}

impl SnapState for Exception {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(self.code() as u8);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let code = r.u8()?;
        Exception::from_code(code as u64).ok_or_else(|| SnapError::BadValue {
            what: format!("exception code {code}"),
        })
    }
}

impl SnapState for AccessKind {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(match self {
            AccessKind::Fetch => 0,
            AccessKind::Load => 1,
            AccessKind::Store => 2,
        });
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        match r.u8()? {
            0 => Ok(AccessKind::Fetch),
            1 => Ok(AccessKind::Load),
            2 => Ok(AccessKind::Store),
            other => Err(SnapError::BadValue {
                what: format!("access kind {other}"),
            }),
        }
    }
}

impl SnapState for Inst {
    fn save(&self, w: &mut SnapWriter) {
        let word = encode(*self).expect("pipeline instructions have a machine encoding");
        w.u32(word);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let word = r.u32()?;
        decode(word).map_err(|e| SnapError::BadValue {
            what: format!("instruction word {word:#010x}: {e}"),
        })
    }
}

impl SnapState for PhysAddr {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.raw());
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PhysAddr::new(r.u64()?))
    }
}

impl SnapState for VirtAddr {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.raw());
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(VirtAddr::new(r.u64()?))
    }
}

impl SnapState for PageTableEntry {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.0);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(PageTableEntry(r.u64()?))
    }
}

mi6_snapshot::snap_struct! {
    CsrFile {
        mstatus, medeleg, mideleg, mie, mtvec, mscratch, mepc, mcause, mtval, mip, mregions,
        mfetchbase, mfetchbound, mtimecmp, stvec, sscratch, sepc, scause, stval, satp, stimecmp,
        cycle, instret,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mi6_snapshot::{SnapReader, SnapWriter};

    fn round_trip<T: SnapState + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        r.expect_end().unwrap();
    }

    #[test]
    fn isa_values_round_trip() {
        round_trip(Reg::A7);
        round_trip(PrivLevel::Supervisor);
        round_trip(Exception::DramRegionFault);
        round_trip(AccessKind::Store);
        round_trip(Inst::sd(Reg::A0, Reg::SP, -16));
        round_trip(PhysAddr::new(0x8000_1234));
        round_trip(PageTableEntry::leaf(0x42, true, false, false, true));
    }

    #[test]
    fn csr_file_round_trips_nondefault_state() {
        let mut csrs = CsrFile::new();
        csrs.mstatus = 0x1888;
        csrs.satp = (1 << 60) | 0x1234;
        csrs.stimecmp = 99_999;
        csrs.instret = 7;
        round_trip(csrs);
    }

    #[test]
    fn bad_reg_and_exception_rejected() {
        let mut r = SnapReader::new(&[32]);
        assert!(Reg::load(&mut r).is_err());
        let mut r = SnapReader::new(&[200]);
        assert!(Exception::load(&mut r).is_err());
    }
}
