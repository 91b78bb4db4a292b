//! Unit tests for the LLC (both the Figure-2 and Figure-3 models).

use super::*;
use crate::config::{DramConfig, LINK_CAPACITY};
use mi6_snapshot::{SnapReader, SnapState, SnapWriter};

const LAT: u32 = 0; // zero link latency makes cycle math exact

struct Rig {
    llc: Llc,
    links: Vec<CoreLink>,
    dram: Dram,
    now: u64,
}

impl Rig {
    fn new(cfg: LlcConfig, cores: usize) -> Rig {
        let dram_cfg = DramConfig::paper();
        Rig {
            llc: Llc::new(cfg, cores, RegionMap::new(&dram_cfg)),
            links: (0..cores)
                .map(|_| CoreLink::new(LINK_CAPACITY, LAT))
                .collect(),
            dram: Dram::new(&dram_cfg),
            now: 0,
        }
    }

    fn request(&mut self, core: usize, line: u64, want: MsiState) {
        let child = ChildId::l1d(core);
        let ok = self.links[core].up_req.push(
            self.now,
            UpgradeReq {
                child,
                line: PhysAddr::new(line),
                want,
            },
        );
        assert!(ok, "request fifo full");
    }

    fn tick(&mut self) {
        self.llc.tick(self.now, &mut self.links, &mut self.dram);
        self.now += 1;
    }

    /// Runs until `core` receives an upgrade response for `line`, or
    /// panics after `limit` cycles. Returns the arrival cycle.
    fn run_until_resp(&mut self, core: usize, line: u64, limit: u64) -> u64 {
        let deadline = self.now + limit;
        while self.now < deadline {
            self.tick();
            if let Some(&(_, msg)) = self.links[core].down.peek(self.now) {
                if let ParentMsg::UpgradeResp { line: l, .. } = msg {
                    if l == PhysAddr::new(line) {
                        let _ = self.links[core].down.pop(self.now);
                        return self.now;
                    }
                }
                // Drain other messages (downgrade reqs handled by tests
                // that need them).
                let _ = self.links[core].down.pop(self.now);
            }
        }
        panic!("no response for line {line:#x} within {limit} cycles");
    }
}

#[test]
fn miss_fills_from_dram_and_hits_after() {
    let mut rig = Rig::new(LlcConfig::paper_base(), 1);
    rig.request(0, 0x4_0000, MsiState::S);
    let t_miss = rig.run_until_resp(0, 0x4_0000, 400);
    // Miss cost at least the DRAM latency.
    assert!(t_miss >= 120, "miss too fast: {t_miss}");
    assert_eq!(rig.llc.stats.misses, 1);
    assert!(rig.llc.contains(PhysAddr::new(0x4_0000)));
    // Second access from the same child after eviction from its L1:
    // the L1 would have it, but model a re-request (e.g. I-cache).
    let start = rig.now;
    rig.request(0, 0x4_0000, MsiState::S);
    let t_hit = rig.run_until_resp(0, 0x4_0000, 400) - start;
    assert!(t_hit < 30, "hit too slow: {t_hit}");
    assert_eq!(rig.llc.stats.hits, 1);
}

#[test]
fn store_request_grants_m_and_tracks_directory() {
    let mut rig = Rig::new(LlcConfig::paper_base(), 1);
    rig.request(0, 0x8000, MsiState::M);
    rig.run_until_resp(0, 0x8000, 400);
    assert_eq!(
        rig.llc.probe_sharers(PhysAddr::new(0x8000)),
        1 << ChildId::l1d(0).index()
    );
}

#[test]
fn second_core_store_downgrades_first() {
    let mut rig = Rig::new(LlcConfig::paper_base(), 2);
    rig.request(0, 0x8000, MsiState::M);
    rig.run_until_resp(0, 0x8000, 400);
    // Core 1 wants the same line M: LLC must downgrade core 0 first.
    rig.request(1, 0x8000, MsiState::M);
    // Run until core 0 sees the downgrade request, then ack it.
    let mut acked = false;
    for _ in 0..200 {
        rig.tick();
        if let Some(&(child, ParentMsg::DowngradeReq { line, to })) =
            rig.links[0].down.peek(rig.now)
        {
            assert_eq!(line, PhysAddr::new(0x8000));
            assert_eq!(to, MsiState::I);
            let _ = rig.links[0].down.pop(rig.now);
            let ok = rig.links[0].up_resp.push(
                rig.now,
                DowngradeResp {
                    child,
                    line,
                    now: MsiState::I,
                    dirty: true,
                },
            );
            assert!(ok);
            acked = true;
            break;
        }
    }
    assert!(acked, "no downgrade request reached core 0");
    rig.run_until_resp(1, 0x8000, 400);
    assert_eq!(
        rig.llc.probe_sharers(PhysAddr::new(0x8000)),
        1 << ChildId::l1d(1).index()
    );
    assert_eq!(rig.llc.stats.downgrades_sent, 1);
}

#[test]
fn replacement_writes_back_dirty_victim() {
    // Fill all 16 ways of one set, dirty one line, then force a 17th.
    let mut rig = Rig::new(LlcConfig::paper_base(), 1);
    let sets = LlcConfig::paper_base().sets() as u64; // 1024
    let stride = sets * 64;
    // Use want=M then "write back" via voluntary eviction so the LLC
    // copy becomes dirty.
    rig.request(0, 0, MsiState::M);
    rig.run_until_resp(0, 0, 2000);
    let ok = rig.links[0].up_resp.push(
        rig.now,
        DowngradeResp {
            child: ChildId::l1d(0),
            line: PhysAddr::new(0),
            now: MsiState::I,
            dirty: true,
        },
    );
    assert!(ok);
    for w in 1..16u64 {
        rig.request(0, w * stride, MsiState::S);
        rig.run_until_resp(0, w * stride, 2000);
        // Evict from L1 so the directory shows no sharers.
        let ok = rig.links[0].up_resp.push(
            rig.now,
            DowngradeResp {
                child: ChildId::l1d(0),
                line: PhysAddr::new(w * stride),
                now: MsiState::I,
                dirty: false,
            },
        );
        assert!(ok);
    }
    // Let the evictions drain through the pipeline.
    for _ in 0..200 {
        rig.tick();
    }
    let wb_before = rig.dram.writes;
    rig.request(0, 16 * stride, MsiState::S);
    rig.run_until_resp(0, 16 * stride, 2000);
    assert_eq!(rig.llc.stats.evictions, 1);
    // One of the 16 victims was the dirty line only if it was chosen;
    // way 0 (the dirty one) is chosen by the lowest-way policy.
    assert_eq!(rig.dram.writes, wb_before + 1, "dirty victim written back");
    assert_eq!(rig.llc.stats.writebacks, 1);
}

#[test]
fn retry_bit_takes_single_cycle_dequeues() {
    let mut base = Rig::new(LlcConfig::paper_base(), 1);
    let mut cfg = LlcConfig::paper_base();
    cfg.dq = DqOrg::RetryBit;
    let mut secure = Rig::new(cfg, 1);
    for rig in [&mut base, &mut secure] {
        let sets = LlcConfig::paper_base().sets() as u64;
        let stride = sets * 64;
        rig.request(0, 0, MsiState::M);
        rig.run_until_resp(0, 0, 2000);
        let ok = rig.links[0].up_resp.push(
            rig.now,
            DowngradeResp {
                child: ChildId::l1d(0),
                line: PhysAddr::new(0),
                now: MsiState::I,
                dirty: true,
            },
        );
        assert!(ok);
        for w in 1..16u64 {
            rig.request(0, w * stride, MsiState::S);
            rig.run_until_resp(0, w * stride, 2000);
            let ok = rig.links[0].up_resp.push(
                rig.now,
                DowngradeResp {
                    child: ChildId::l1d(0),
                    line: PhysAddr::new(w * stride),
                    now: MsiState::I,
                    dirty: false,
                },
            );
            assert!(ok);
        }
        for _ in 0..200 {
            rig.tick();
        }
        rig.request(0, 16 * stride, MsiState::S);
        rig.run_until_resp(0, 16 * stride, 3000);
    }
    assert_eq!(base.llc.stats.dq_double_cycles, 1);
    assert_eq!(base.llc.stats.dq_retries, 0);
    assert_eq!(secure.llc.stats.dq_double_cycles, 0);
    assert_eq!(secure.llc.stats.dq_retries, 1);
}

#[test]
fn per_core_mshrs_isolate_capacity() {
    // Core 0 saturates its partition; core 1's single miss must still
    // be accepted immediately.
    let cfg = LlcConfig::paper_secure(2, 24); // 6 MSHRs per core
    let mut rig = Rig::new(cfg, 2);
    // 6 outstanding misses for core 0 (distinct region-0 lines).
    let mut big = CoreLink::new(16, LAT);
    std::mem::swap(&mut rig.links[0], &mut big);
    for i in 0..6u64 {
        rig.request(0, 0x10000 + i * 64, MsiState::S);
    }
    // A 7th core-0 request must wait for a free partition slot, but a
    // core-1 request sails through.
    rig.request(0, 0x20000, MsiState::S);
    rig.request(1, 0x100_0000 * 4, MsiState::S); // a different region
    rig.run_until_resp(1, 0x100_0000 * 4, 1000);
    // Core-0's 7th is still pending behind its partition.
    assert!(!rig.links[0].up_req.is_empty() || !rig.llc.quiescent());
}

#[test]
fn partitioned_index_maps_regions_to_disjoint_sets() {
    let cfg = LlcConfig::paper_secure(2, 24);
    let dram_cfg = DramConfig::paper();
    let llc = Llc::new(cfg, 2, RegionMap::new(&dram_cfg));
    // Addresses in region 0 and region 1 must land in disjoint sets
    // when the regions differ in their low 2 bits.
    let region_bytes = dram_cfg.region_bytes();
    let mut sets0 = std::collections::HashSet::new();
    let mut sets1 = std::collections::HashSet::new();
    for i in 0..4096u64 {
        sets0.insert(llc.set_index(PhysAddr::new(i * 64)));
        sets1.insert(llc.set_index(PhysAddr::new(region_bytes + i * 64)));
    }
    assert!(sets0.is_disjoint(&sets1));
    // Regions 4k and 4k+4 share low bits and thus sets (an enclave can
    // claim multiple aligned regions to grow its share).
    let s0 = llc.set_index(PhysAddr::new(0));
    let s4 = llc.set_index(PhysAddr::new(4 * region_bytes));
    assert_eq!(s0, s4);
}

#[test]
fn base_index_uses_low_bits() {
    let llc = Llc::new(
        LlcConfig::paper_base(),
        1,
        RegionMap::new(&DramConfig::paper()),
    );
    assert_eq!(llc.set_index(PhysAddr::new(0)), 0);
    assert_eq!(llc.set_index(PhysAddr::new(64)), 1);
    assert_eq!(llc.set_index(PhysAddr::new(1023 * 64)), 1023);
    assert_eq!(llc.set_index(PhysAddr::new(1024 * 64)), 0);
}

#[test]
fn round_robin_slot_gating() {
    // With RR arbitration and 2 cores, a core-1 message arriving in
    // core 0's slot waits exactly one cycle.
    let mut cfg = LlcConfig::paper_base();
    cfg.arbitration = LlcArbitration::RoundRobin;
    let mut rig = Rig::new(cfg, 2);
    rig.request(1, 0x40, MsiState::S);
    let t = rig.run_until_resp(1, 0x40, 500);
    // Now repeat, shifted by one cycle: latency must be identical
    // modulo the slot alignment — i.e. the response time depends only
    // on the request's phase, not on core 0's activity.
    let mut rig2 = Rig::new(cfg, 2);
    // Core 0 is busy with many requests.
    let mut big = CoreLink::new(16, LAT);
    std::mem::swap(&mut rig2.links[0], &mut big);
    for i in 0..6u64 {
        rig2.request(0, 0x8000 + 64 * i, MsiState::S);
    }
    rig2.request(1, 0x100_0000, MsiState::S);
    let t2 = rig2.run_until_resp(1, 0x100_0000, 500);
    assert_eq!(t, t2, "core 1 latency changed with core 0 load");
}

#[test]
fn secure_sizing_never_backpressures_dram() {
    // 1 core, 12 MSHRs (24/2): even a flood of misses with writebacks
    // keeps DRAM inflight <= 24.
    let mut cfg = LlcConfig::paper_secure(1, 24);
    cfg.indexing = LlcIndexing::Base;
    let mut rig = Rig::new(cfg, 1);
    let mut big = CoreLink::new(64, LAT);
    std::mem::swap(&mut rig.links[0], &mut big);
    for i in 0..64u64 {
        rig.request(0, 0x100000 + i * 64 * 1024, MsiState::M);
    }
    for _ in 0..5000 {
        rig.tick();
        let _ = rig.links[0].down.pop(rig.now);
        assert!(rig.dram.inflight() <= 24);
    }
    assert_eq!(rig.dram.backpressure_events, 0);
}

fn encode_llc(llc: &Llc) -> Vec<u8> {
    let mut w = SnapWriter::new();
    llc.save_state(&mut w);
    w.finish()
}

fn decode_llc(bytes: &[u8]) -> Llc {
    let mut llc = Llc::new(
        LlcConfig::paper_base(),
        1,
        RegionMap::new(&DramConfig::paper()),
    );
    let mut r = SnapReader::new(bytes);
    assert!(llc.restore_state(&mut r).unwrap().is_empty());
    r.expect_end().unwrap();
    llc
}

/// Blank, valid, invalidated-but-tagged and MSHR-locked lines round-trip,
/// and only the blank ones shrink to their presence byte.
#[test]
fn snapshot_elides_only_blank_lines() {
    let mut rig = Rig::new(LlcConfig::paper_base(), 1);
    rig.request(0, 0x4_0000, MsiState::M);
    rig.run_until_resp(0, 0x4_0000, 400);
    rig.request(0, 0x8_0000, MsiState::S);
    for _ in 0..100 {
        if rig.llc.sets.iter().flatten().any(|l| l.locked_by.is_some()) {
            break;
        }
        rig.tick();
    }
    rig.llc.sets[7][3] = LlcLine {
        tag: 0x1234,
        ..LlcLine::default()
    };
    let lines = || rig.llc.sets.iter().flatten();
    assert!(lines().any(|l| l.valid), "a filled line");
    assert!(lines().any(|l| l.locked_by.is_some()), "an MSHR-locked way");
    let blank = lines().filter(|&&l| l == LlcLine::default()).count();
    assert_eq!(lines().count() - blank, 3);

    let bytes = encode_llc(&rig.llc);
    assert!(bytes.len() < blank + 1024, "{} bytes", bytes.len());
    let back = decode_llc(&bytes);
    assert_eq!(back.sets, rig.llc.sets);
    assert_eq!(encode_llc(&back), bytes);
}

/// `v`'s bytes, checked to decode to a value that re-encodes to them.
fn encoding<T: SnapState>(v: T) -> Vec<u8> {
    let mut w = SnapWriter::new();
    v.save(&mut w);
    let bytes = w.finish();
    let mut r = SnapReader::new(&bytes);
    let mut again = SnapWriter::new();
    T::load(&mut r).unwrap().save(&mut again);
    r.expect_end().unwrap();
    assert_eq!(again.finish(), bytes);
    bytes
}

/// Every variant of each tagged enum in this crate keeps its pinned
/// bytes; field values are distinct, so a reordered `snap_enum!` row
/// shows here although it would still round-trip.
#[test]
fn enum_variants_keep_their_bytes() {
    let (a, b) = (PhysAddr::new(0x40), PhysAddr::new(0x80));
    let cases = [
        (encoding(LlcIndexing::Base), "00"),
        (
            encoding(LlcIndexing::Partitioned { region_bits: 6 }),
            "01 06000000",
        ),
        (
            encoding(MshrOrg::Shared { total: 16 }),
            "00 1000000000000000",
        ),
        (
            encoding(MshrOrg::Banked {
                total: 16,
                banks: 4,
            }),
            "01 1000000000000000 0400000000000000",
        ),
        (
            encoding(MshrOrg::PerCore { per_core: 8 }),
            "02 0800000000000000",
        ),
        (encoding(LlcArbitration::Base), "00"),
        (encoding(LlcArbitration::RoundRobin), "01"),
        (encoding(UqOrg::Shared), "00"),
        (encoding(UqOrg::PerCore), "01"),
        (encoding(DowngradeOrg::Single), "00"),
        (encoding(DowngradeOrg::PerPartition), "01"),
        (encoding(DqOrg::TwoCycleDequeue), "00"),
        (encoding(DqOrg::RetryBit), "01"),
        (encoding(MsiState::I), "00"),
        (encoding(MsiState::S), "01"),
        (encoding(MsiState::M), "02"),
        (
            encoding(ParentMsg::UpgradeResp {
                line: a,
                granted: MsiState::M,
                from_dram: true,
            }),
            "00 4000000000000000 02",
        ),
        (
            encoding(ParentMsg::DowngradeReq {
                line: b,
                to: MsiState::S,
            }),
            "01 8000000000000000 01",
        ),
        (encoding(MshrState::WaitPipe), "00"),
        (encoding(MshrState::InPipe), "01"),
        (encoding(MshrState::Blocked(5)), "02 05000000"),
        (encoding(MshrState::WaitDowngrade), "03"),
        (encoding(MshrState::InDq), "04"),
        (encoding(MshrState::WaitDram), "05"),
        (encoding(MshrState::FillReady), "06"),
        (encoding(MshrState::InUq), "07"),
        (encoding(AfterDowngrade::Grant), "00"),
        (encoding(AfterDowngrade::Replace), "01"),
        (encoding(PipeMsg::Req(3)), "00 03000000"),
        (encoding(PipeMsg::Reentry(4)), "01 04000000"),
        (
            encoding(PipeMsg::DownResp(DowngradeResp {
                child: ChildId(1),
                line: a,
                now: MsiState::I,
                dirty: true,
            })),
            "02 0100 4000000000000000 00 01",
        ),
    ];
    for (got, want) in cases {
        assert_eq!(got, hex(want), "{want}");
    }
}

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).unwrap(), 16).unwrap())
        .collect()
}
