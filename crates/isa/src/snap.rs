//! Snapshot codec impls for architectural ISA types.
//!
//! Everything here is plain architectural state: registers, privilege,
//! exception causes, paging newtypes, and decoded instructions. The CSR
//! file's codec comes from its table in `csr.rs`.
//! Instructions are stored as their 32-bit machine encoding — every
//! instruction that reaches the pipeline came from a fetched word, so
//! `encode` round-trips by construction.

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

mi6_snapshot::snap_enum! { PrivLevel { 0 => User, 1 => Supervisor, 2 => Machine } }

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

mi6_snapshot::snap_enum! { AccessKind { 0 => Fetch, 1 => Load, 2 => Store } }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrFile;
    use mi6_snapshot::{SnapReader, SnapWriter};

    /// `v`'s bytes, checked to decode back to `v`.
    fn round_trip<T: SnapState + PartialEq + std::fmt::Debug>(v: T) -> Vec<u8> {
        let mut w = SnapWriter::new();
        v.save(&mut w);
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), v);
        r.expect_end().unwrap();
        bytes
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

    /// Every variant of each tagged enum keeps its pinned bytes; a
    /// renumbered `snap_enum!` table would still round-trip.
    #[test]
    fn enum_variants_keep_their_bytes() {
        let cases = [
            (round_trip(PrivLevel::User), [0]),
            (round_trip(PrivLevel::Supervisor), [1]),
            (round_trip(PrivLevel::Machine), [2]),
            (round_trip(AccessKind::Fetch), [0]),
            (round_trip(AccessKind::Load), [1]),
            (round_trip(AccessKind::Store), [2]),
        ];
        for (i, (got, want)) in cases.into_iter().enumerate() {
            assert_eq!(got, want, "case {i}");
        }
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
