//! The security monitor (paper Section 6.2).
//!
//! The monitor is the only software that ever runs in machine mode. This
//! crate models its *state machine and invariants* — following the paper,
//! which treats the monitor's implementation as borrowed from Sanctorum
//! and out of scope, while depending on the properties it enforces:
//!
//! - **Non-overlap**: an enclave's DRAM regions never overlap any other
//!   protection domain's regions.
//! - **Scrub before reuse**: memory is zeroed when regions change owner,
//!   and cores are purged when protection domains are (de)scheduled.
//! - **Measurement**: an enclave's initial contents are hashed at
//!   creation for attestation.
//! - **Mediated communication**: mailboxes (64-byte authenticated
//!   messages) and the privileged memcopy between agreed buffer pairs are
//!   the *only* cross-domain channels; no memory is ever shared.
//!
//! On real MI6 hardware these operations execute as monitor code under
//! the machine-mode speculation guard; here the host drives the
//! [`Machine`] directly, charging the microarchitectural costs the paper
//! counts (the purge on every schedule/deschedule via
//! [`Core::start_purge`], and TLB shootdowns via the purge's TLB flush).

use crate::sha256::{sha256, Digest};
use mi6_core::Core;
use mi6_isa::{PhysAddr, PrivLevel};
use mi6_mem::{RegionBitvec, RegionId, RegionMap};
use mi6_soc::loader::{self, FrameAllocator, Program};
use mi6_soc::Machine;
use std::collections::HashMap;
use std::fmt;

/// An enclave handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EnclaveId(pub u32);

impl fmt::Display for EnclaveId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "enclave {}", self.0)
    }
}

/// Who owns a DRAM region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegionOwner {
    /// The security monitor itself (its PAR lives here).
    Monitor,
    /// The untrusted OS and ordinary processes.
    Os,
    /// Unassigned.
    Free,
    /// Owned by an enclave.
    Enclave(EnclaveId),
}

/// Life-cycle state of an enclave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnclaveState {
    /// Created and measured, not scheduled.
    Created,
    /// Running on a core.
    Running {
        /// The core it occupies.
        core: usize,
    },
    /// Descheduled (core purged); can be rescheduled.
    Stopped,
}

/// A 64-byte mailbox message (paper Section 6.2: local attestation /
/// authenticated private messages between domains).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MailboxMsg {
    /// Sending domain (`None` = the untrusted OS).
    pub from: Option<EnclaveId>,
    /// Payload.
    pub data: [u8; 64],
}

/// An attestation report: the enclave measurement bound by the monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attestation {
    /// SHA-256 of the enclave's initial code, entry point, and region
    /// allocation.
    pub measurement: Digest,
    /// Mock signature: hash of the measurement under the monitor's
    /// (fixed, simulated) key.
    pub signature: Digest,
}

/// Errors returned by monitor calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonitorError {
    /// A requested region is not free / not owned by the caller.
    RegionBusy(RegionId),
    /// No regions were supplied.
    NoRegions,
    /// Unknown enclave handle.
    UnknownEnclave(EnclaveId),
    /// Operation requires the enclave to be stopped, but it is running.
    EnclaveRunning(EnclaveId),
    /// Operation requires the enclave to be running, but it is not.
    NotRunning(EnclaveId),
    /// The target core is occupied by another enclave.
    CoreBusy(usize),
    /// The program did not fit into the enclave's regions.
    LoadFailed,
    /// The receiving mailbox is occupied.
    MailboxFull,
    /// The mailbox is empty.
    MailboxEmpty,
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonitorError::RegionBusy(r) => write!(f, "{r} is not available"),
            MonitorError::NoRegions => f.write_str("enclave needs at least one region"),
            MonitorError::UnknownEnclave(e) => write!(f, "unknown {e}"),
            MonitorError::EnclaveRunning(e) => write!(f, "{e} is running"),
            MonitorError::NotRunning(e) => write!(f, "{e} is not running"),
            MonitorError::CoreBusy(c) => write!(f, "core {c} is occupied"),
            MonitorError::LoadFailed => f.write_str("program does not fit enclave regions"),
            MonitorError::MailboxFull => f.write_str("mailbox full"),
            MonitorError::MailboxEmpty => f.write_str("mailbox empty"),
        }
    }
}

impl std::error::Error for MonitorError {}

#[derive(Debug)]
struct Enclave {
    regions: RegionBitvec,
    state: EnclaveState,
    measurement: Digest,
    entry: u64,
    sp: u64,
    satp: u64,
    mailbox: Option<MailboxMsg>,
}

/// The security monitor state machine.
#[derive(Debug)]
pub struct SecurityMonitor {
    region_map: RegionMap,
    owners: Vec<RegionOwner>,
    enclaves: HashMap<EnclaveId, Enclave>,
    os_mailbox: Option<MailboxMsg>,
    next_id: u32,
}

impl SecurityMonitor {
    /// Creates the monitor for a machine. Region 0 (kernel, monitor PAR,
    /// page tables) is assigned to the OS/monitor; everything else starts
    /// free. The monitor's own text (the machine-mode stub) is protected
    /// by the fetch window the SoC configures, playing the role of
    /// Sanctum's PAR.
    pub fn new(machine: &Machine) -> SecurityMonitor {
        let region_map = machine.mem().region_map();
        let mut owners = vec![RegionOwner::Free; region_map.regions() as usize];
        owners[0] = RegionOwner::Monitor;
        // The OS's user-page windows: mark regions the loader hands to
        // ordinary processes as OS-owned as they get used; initially the
        // OS owns region 0's neighbours only when a program loads. Keep
        // it simple: regions below the first enclave grant stay OS/free.
        owners[0] = RegionOwner::Os; // kernel + monitor share region 0 (PAR inside)
        SecurityMonitor {
            region_map,
            owners,
            enclaves: HashMap::new(),
            os_mailbox: None,
            next_id: 1,
        }
    }

    /// The owner of a region.
    pub fn owner(&self, r: RegionId) -> RegionOwner {
        self.owners[r.index()]
    }

    /// The state of an enclave.
    pub fn enclave_state(&self, id: EnclaveId) -> Result<EnclaveState, MonitorError> {
        self.enclaves
            .get(&id)
            .map(|e| e.state)
            .ok_or(MonitorError::UnknownEnclave(id))
    }

    /// The measurement recorded at creation.
    pub fn measurement(&self, id: EnclaveId) -> Result<Digest, MonitorError> {
        self.enclaves
            .get(&id)
            .map(|e| e.measurement)
            .ok_or(MonitorError::UnknownEnclave(id))
    }

    /// Creates an enclave: claims `regions`, scrubs them, loads `program`
    /// into them (page tables included — an enclave shares no address
    /// space with the OS), and measures the initial state.
    ///
    /// # Errors
    ///
    /// Fails if any region is not free or the program does not fit.
    pub fn create_enclave(
        &mut self,
        machine: &mut Machine,
        program: &Program,
        regions: &[RegionId],
    ) -> Result<EnclaveId, MonitorError> {
        if regions.is_empty() {
            return Err(MonitorError::NoRegions);
        }
        for &r in regions {
            if self.owners[r.index()] != RegionOwner::Free {
                return Err(MonitorError::RegionBusy(r));
            }
        }
        // Scrub before use: the previous owner's data must not leak in.
        let region_bytes = self.region_map.region_bytes();
        for &r in regions {
            let base = self.region_map.base_of(r);
            machine.mem_mut().phys.scrub(base, region_bytes);
        }
        // Load entirely within the first region: tables first, frames
        // after. (Multi-region images simply get a larger frame window
        // when the regions are contiguous.)
        let base = self.region_map.base_of(regions[0]).raw();
        let contiguous = regions.windows(2).all(|w| w[1].index() == w[0].index() + 1);
        let window = if contiguous {
            region_bytes * regions.len() as u64
        } else {
            region_bytes
        };
        let table_bytes = 1 << 20;
        let mut frames = FrameAllocator::new(base + table_bytes, window - table_bytes);
        let image = loader::load_program(
            &mut machine.mem_mut().phys,
            program,
            base,
            table_bytes,
            &mut frames,
            &[], // no OS pages: enclaves share nothing with the OS
        )
        .map_err(|_| MonitorError::LoadFailed)?;
        // Measure: code, entry, and the region allocation.
        let mut measured = Vec::new();
        for w in &program.code {
            measured.extend_from_slice(&w.to_le_bytes());
        }
        measured.extend_from_slice(&image.entry.to_le_bytes());
        for &r in regions {
            measured.extend_from_slice(&(r.0).to_le_bytes());
        }
        let measurement = sha256(&measured);
        let id = EnclaveId(self.next_id);
        self.next_id += 1;
        for &r in regions {
            self.owners[r.index()] = RegionOwner::Enclave(id);
        }
        self.enclaves.insert(
            id,
            Enclave {
                regions: RegionBitvec::of(regions.iter().copied()),
                state: EnclaveState::Created,
                measurement,
                entry: image.entry,
                sp: image.sp,
                satp: image.satp,
                mailbox: None,
            },
        );
        Ok(id)
    }

    /// Schedules an enclave onto a core: purges the core (creating a
    /// pristine environment), installs the enclave's address space and
    /// region bitvector, and starts it at its entry point in user mode.
    pub fn schedule(
        &mut self,
        machine: &mut Machine,
        core: usize,
        id: EnclaveId,
    ) -> Result<(), MonitorError> {
        if self
            .enclaves
            .values()
            .any(|e| e.state == (EnclaveState::Running { core }))
        {
            return Err(MonitorError::CoreBusy(core));
        }
        let enclave = self
            .enclaves
            .get_mut(&id)
            .ok_or(MonitorError::UnknownEnclave(id))?;
        if let EnclaveState::Running { .. } = enclave.state {
            return Err(MonitorError::EnclaveRunning(id));
        }
        let (entry, sp, satp, regions) = (enclave.entry, enclave.sp, enclave.satp, enclave.regions);
        enclave.state = EnclaveState::Running { core };
        let now = machine.now();
        let c: &mut Core = machine.core_mut(core);
        // All enclave traps go to the monitor: nothing is delegated.
        c.csrs.medeleg = 0;
        c.csrs.mideleg = 0;
        c.csrs.satp = satp;
        c.csrs.mregions = regions.0;
        c.csrs.stimecmp = u64::MAX;
        c.regs = [0; 32];
        c.regs[mi6_isa::Reg::SP.index() as usize] = sp;
        c.halted = false;
        // The purge both scrubs the core and (on completion) drops to the
        // enclave's entry in user mode — the paper's secure context switch.
        c.start_purge(now, entry, PrivLevel::User);
        Ok(())
    }

    /// Deschedules a running enclave: purges the core (erasing all side
    /// effects of enclave execution) and returns it to the monitor idle
    /// loop (modelled as the halted machine-mode stub).
    pub fn deschedule(&mut self, machine: &mut Machine, id: EnclaveId) -> Result<(), MonitorError> {
        let enclave = self
            .enclaves
            .get_mut(&id)
            .ok_or(MonitorError::UnknownEnclave(id))?;
        let EnclaveState::Running { core } = enclave.state else {
            return Err(MonitorError::NotRunning(id));
        };
        enclave.state = EnclaveState::Stopped;
        let now = machine.now();
        let c = machine.core_mut(core);
        c.csrs.mregions = u64::MAX; // back to monitor/OS configuration
        c.start_purge(now, mi6_soc::kernel::M_STUB_BASE, PrivLevel::Machine);
        Ok(())
    }

    /// Destroys a stopped enclave: scrubs its regions and frees them.
    pub fn destroy(&mut self, machine: &mut Machine, id: EnclaveId) -> Result<(), MonitorError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(MonitorError::UnknownEnclave(id))?;
        if let EnclaveState::Running { .. } = enclave.state {
            return Err(MonitorError::EnclaveRunning(id));
        }
        let regions = enclave.regions;
        let region_bytes = self.region_map.region_bytes();
        for r in regions.iter() {
            machine
                .mem_mut()
                .phys
                .scrub(self.region_map.base_of(r), region_bytes);
            self.owners[r.index()] = RegionOwner::Free;
        }
        self.enclaves.remove(&id);
        Ok(())
    }

    /// Sends a 64-byte mailbox message to an enclave (or to the OS when
    /// `to` is `None`). The monitor's handling does not depend on the
    /// data (Section 6.2), so no purge is required.
    pub fn mailbox_send(
        &mut self,
        from: Option<EnclaveId>,
        to: Option<EnclaveId>,
        data: [u8; 64],
    ) -> Result<(), MonitorError> {
        let msg = MailboxMsg { from, data };
        match to {
            None => {
                if self.os_mailbox.is_some() {
                    return Err(MonitorError::MailboxFull);
                }
                self.os_mailbox = Some(msg);
            }
            Some(id) => {
                let enclave = self
                    .enclaves
                    .get_mut(&id)
                    .ok_or(MonitorError::UnknownEnclave(id))?;
                if enclave.mailbox.is_some() {
                    return Err(MonitorError::MailboxFull);
                }
                enclave.mailbox = Some(msg);
            }
        }
        Ok(())
    }

    /// Receives the pending mailbox message for a domain.
    pub fn mailbox_recv(&mut self, target: Option<EnclaveId>) -> Result<MailboxMsg, MonitorError> {
        match target {
            None => self.os_mailbox.take().ok_or(MonitorError::MailboxEmpty),
            Some(id) => self
                .enclaves
                .get_mut(&id)
                .ok_or(MonitorError::UnknownEnclave(id))?
                .mailbox
                .take()
                .ok_or(MonitorError::MailboxEmpty),
        }
    }

    /// The privileged memcopy (Section 6.2): copies `len` bytes from an
    /// OS-owned physical buffer into an enclave virtual address (an
    /// agreed buffer pair). The copy is performed by the monitor,
    /// non-speculatively, touching only the two buffers.
    pub fn memcopy_to_enclave(
        &mut self,
        machine: &mut Machine,
        id: EnclaveId,
        os_buf: PhysAddr,
        enclave_va: u64,
        len: u64,
    ) -> Result<(), MonitorError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(MonitorError::UnknownEnclave(id))?;
        let aspace = loader::AddressSpace::probe(enclave.satp);
        for off in (0..len).step_by(8) {
            let value = machine
                .mem()
                .phys
                .read_u64(PhysAddr::new(os_buf.raw() + off));
            let pa = aspace
                .translate(&machine.mem().phys, enclave_va + off)
                .ok_or(MonitorError::LoadFailed)?;
            // Invariant: the destination stays inside the enclave's regions.
            let dest_region = self.region_map.region_of(PhysAddr::new(pa));
            debug_assert!(enclave.regions.allows(dest_region));
            machine.mem_mut().phys.write_u64(PhysAddr::new(pa), value);
        }
        Ok(())
    }

    /// The reverse memcopy: enclave buffer to OS physical buffer.
    pub fn memcopy_from_enclave(
        &mut self,
        machine: &mut Machine,
        id: EnclaveId,
        enclave_va: u64,
        os_buf: PhysAddr,
        len: u64,
    ) -> Result<(), MonitorError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(MonitorError::UnknownEnclave(id))?;
        let aspace = loader::AddressSpace::probe(enclave.satp);
        for off in (0..len).step_by(8) {
            let pa = aspace
                .translate(&machine.mem().phys, enclave_va + off)
                .ok_or(MonitorError::LoadFailed)?;
            let value = machine.mem().phys.read_u64(PhysAddr::new(pa));
            machine
                .mem_mut()
                .phys
                .write_u64(PhysAddr::new(os_buf.raw() + off), value);
        }
        Ok(())
    }

    /// Produces an attestation report for an enclave.
    pub fn attest(&self, id: EnclaveId) -> Result<Attestation, MonitorError> {
        let enclave = self
            .enclaves
            .get(&id)
            .ok_or(MonitorError::UnknownEnclave(id))?;
        let mut signed = enclave.measurement.0.to_vec();
        signed.extend_from_slice(b"MI6-monitor-signing-key");
        Ok(Attestation {
            measurement: enclave.measurement,
            signature: sha256(&signed),
        })
    }

    /// Checks the global non-overlap invariant (every region has exactly
    /// one owner; every enclave's bitvector matches the owner table).
    /// Used by tests and debug assertions.
    pub fn check_invariants(&self) -> bool {
        for (i, owner) in self.owners.iter().enumerate() {
            if let RegionOwner::Enclave(id) = owner {
                let Some(e) = self.enclaves.get(id) else {
                    return false;
                };
                if !e.regions.allows(RegionId(i as u32)) {
                    return false;
                }
            }
        }
        for (id, e) in &self.enclaves {
            for r in e.regions.iter() {
                if self.owners[r.index()] != RegionOwner::Enclave(*id) {
                    return false;
                }
            }
            // No two enclaves share a region.
            for (id2, e2) in &self.enclaves {
                if id != id2 && e.regions.overlaps(e2.regions) {
                    return false;
                }
            }
        }
        true
    }
}
