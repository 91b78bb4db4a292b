//! Constant-latency DRAM controller.
//!
//! The paper evaluates MI6 with a constant-latency DRAM controller (Figure
//! 4: 120 cycles, max 24 outstanding requests) and argues in Section 5.2
//! that a *reordering* controller leaks timing across protection domains
//! through bank scheduling. This model therefore completes every request
//! exactly `latency` cycles after acceptance, in acceptance order.
//!
//! Backpressure: once `max_inflight` requests are outstanding the
//! controller accepts no more. With MI6's MSHR sizing (at most `dmax/2`
//! LLC MSHRs, each generating at most a writeback plus a read) this never
//! happens — asserted by the `secure_sizing_never_backpressures` test in
//! the LLC module.

use crate::config::DramConfig;
use mi6_isa::PhysAddr;
use std::collections::VecDeque;

/// A request accepted by the DRAM controller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramReq {
    /// Line address.
    pub line: PhysAddr,
    /// True for writebacks (no response is sent); false for reads.
    pub is_write: bool,
    /// Opaque tag returned with read responses (the LLC MSHR index).
    pub tag: u32,
}

/// A read response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramResp {
    /// Line address.
    pub line: PhysAddr,
    /// The tag from the request.
    pub tag: u32,
}

/// The constant-latency DRAM controller model.
#[derive(Clone, Debug)]
pub struct Dram {
    latency: u64,
    max_inflight: usize,
    inflight: VecDeque<(u64, DramReq)>,
    /// Statistics: total reads accepted.
    pub reads: u64,
    /// Statistics: total writebacks accepted.
    pub writes: u64,
    /// Statistics: cycles in which a request was refused (backpressure).
    pub backpressure_events: u64,
}

impl Dram {
    /// Creates the controller from its configuration.
    pub fn new(cfg: &DramConfig) -> Dram {
        Dram {
            latency: cfg.latency as u64,
            max_inflight: cfg.max_inflight,
            inflight: VecDeque::new(),
            reads: 0,
            writes: 0,
            backpressure_events: 0,
        }
    }

    /// Whether a request would be accepted this cycle.
    pub fn can_accept(&self) -> bool {
        self.inflight.len() < self.max_inflight
    }

    /// Number of outstanding requests.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// The completion cycle of the oldest outstanding request (requests
    /// complete in acceptance order, so this is the earliest one). Used
    /// by the event-driven idle-skip.
    pub fn next_ready(&self) -> Option<u64> {
        self.inflight.front().map(|&(ready, _)| ready)
    }

    /// Submits a request at cycle `now`. Returns `false` under
    /// backpressure (the caller must retry; this is the major timing leak
    /// MI6's MSHR sizing eliminates).
    #[must_use]
    pub fn submit(&mut self, now: u64, req: DramReq) -> bool {
        if !self.can_accept() {
            self.backpressure_events += 1;
            return false;
        }
        if req.is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.inflight.push_back((now + self.latency, req));
        true
    }

    /// Completes requests due at cycle `now`, returning read responses.
    /// Writebacks complete silently. At most the whole due set completes
    /// in one cycle (the response port is never backpressured — paper
    /// Section 5.4.1: responses are buffered in the requesting MSHR).
    pub fn tick(&mut self, now: u64) -> Vec<DramResp> {
        let mut resps = Vec::new();
        while let Some((ready, req)) = self.inflight.front().copied() {
            if ready > now {
                break;
            }
            self.inflight.pop_front();
            if !req.is_write {
                resps.push(DramResp {
                    line: req.line,
                    tag: req.tag,
                });
            }
        }
        resps
    }
}

// ---------------------------------------------------------------- snapshot

use mi6_snapshot::{SnapError, SnapReader, SnapState, SnapWriter};

mi6_snapshot::snap_struct! { DramReq { line, is_write, tag } }

impl SnapState for Dram {
    fn save(&self, w: &mut SnapWriter) {
        w.u64(self.latency);
        w.usize(self.max_inflight);
        self.inflight.save(w);
        w.u64(self.reads);
        w.u64(self.writes);
        w.u64(self.backpressure_events);
    }

    fn load(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let latency = r.u64()?;
        let max_inflight = r.usize()?;
        let inflight: VecDeque<(u64, DramReq)> = SnapState::load(r)?;
        if inflight.len() > max_inflight {
            return Err(SnapError::BadValue {
                what: format!(
                    "{} DRAM requests in flight over the limit of {max_inflight}",
                    inflight.len()
                ),
            });
        }
        Ok(Dram {
            latency,
            max_inflight,
            inflight,
            reads: r.u64()?,
            writes: r.u64()?,
            backpressure_events: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new(&DramConfig {
            size_bytes: 1 << 30,
            latency: 120,
            max_inflight: 4,
            regions: 64,
        })
    }

    fn read(line: u64, tag: u32) -> DramReq {
        DramReq {
            line: PhysAddr::new(line),
            is_write: false,
            tag,
        }
    }

    #[test]
    fn constant_latency() {
        let mut d = dram();
        assert!(d.submit(100, read(0x40, 1)));
        assert!(d.tick(219).is_empty());
        let resps = d.tick(220);
        assert_eq!(
            resps,
            vec![DramResp {
                line: PhysAddr::new(0x40),
                tag: 1
            }]
        );
    }

    #[test]
    fn writebacks_complete_silently() {
        let mut d = dram();
        assert!(d.submit(
            0,
            DramReq {
                line: PhysAddr::new(0x80),
                is_write: true,
                tag: 0
            }
        ));
        assert!(d.tick(120).is_empty());
        assert_eq!(d.inflight(), 0);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn backpressure_at_capacity() {
        let mut d = dram();
        for i in 0..4 {
            assert!(d.submit(0, read(0x40 * i, i as u32)));
        }
        assert!(!d.can_accept());
        assert!(!d.submit(0, read(0x400, 9)));
        assert_eq!(d.backpressure_events, 1);
        // after completion, capacity frees
        assert_eq!(d.tick(120).len(), 4);
        assert!(d.can_accept());
    }

    #[test]
    fn acceptance_order_preserved() {
        let mut d = dram();
        assert!(d.submit(0, read(0x40, 1)));
        assert!(d.submit(1, read(0x80, 2)));
        let r = d.tick(121);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].tag, 1);
        assert_eq!(r[1].tag, 2);
    }

    #[test]
    fn same_cycle_requests_complete_together() {
        let mut d = dram();
        assert!(d.submit(5, read(0x40, 1)));
        assert!(d.submit(5, read(0x80, 2)));
        assert_eq!(d.tick(124).len(), 0);
        assert_eq!(d.tick(125).len(), 2);
    }
}
