//! The snapshot codec at the machine level: the version-2 bytes pinned
//! across builds, the sparse layout against the committed version-1
//! fixture, and decoder robustness on damaged version-2 input.

use mi6::snapshot::{fnv1a64, SnapError, FORMAT_VERSION};
use mi6::soc::{Machine, SimBuilder, Variant};
use mi6::workloads::{Workload, WorkloadParams};
use std::panic::{catch_unwind, AssertUnwindSafe};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/pre_soa_base.mi6snap"
);

/// The machine shape every snapshot here was taken on.
fn target() -> Machine {
    SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .build()
        .unwrap()
}

fn header_version(snapshot: &[u8]) -> u32 {
    u32::from_le_bytes(snapshot[4..8].try_into().unwrap())
}

/// `variant` with timer 50,000 running `programs` (one per core) for
/// `cycles` cycles.
fn mid_run(variant: Variant, programs: Vec<mi6::soc::Program>, cycles: u64) -> Machine {
    let mut b = SimBuilder::new(variant)
        .cores(programs.len())
        .timer_interval(50_000);
    for (core, program) in programs.into_iter().enumerate() {
        b = b.workload(core, program);
    }
    let mut m = b.build().unwrap();
    m.run_cycles(cycles);
    m
}

/// Restore -> snapshot identity and the golden round trip both still
/// pass when a type's `save` and `load` change their field order
/// together, yet checkpoints written before such a change would then
/// restore the wrong values. So the bytes of four mid-run snapshots
/// (memory not quiescent) are pinned as (length, FNV-1a).
#[test]
fn version_2_snapshot_bytes_are_pinned() {
    let eval = |kinsts| WorkloadParams::evaluation().with_target_kinsts(kinsts);
    let machines = [
        (
            "BASE gcc",
            mid_run(
                Variant::Base,
                vec![Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40))],
                20_000,
            ),
            (77_501, 0x6242_e893_9cfa_2480),
        ),
        (
            "F+P+M+A mcf",
            mid_run(Variant::Fpma, vec![Workload::Mcf.build(&eval(60))], 60_000),
            (2_485_820, 0xe0f8_d235_1dd8_1290),
        ),
        (
            "FLUSH xalancbmk",
            mid_run(
                Variant::Flush,
                vec![Workload::Xalancbmk.build(&eval(60))],
                60_000,
            ),
            (90_372, 0xe6a1_6d40_b919_d2d5),
        ),
        (
            "two-core MI6 enclave-ws + libquantum",
            mid_run(
                Variant::SecureMi6,
                vec![
                    Workload::EnclaveWs.build(&eval(40)),
                    Workload::Libquantum.build(&eval(120)),
                ],
                40_000,
            ),
            (174_275, 0x40cb_777a_e2a6_e48e),
        ),
    ];
    for (name, machine, pinned) in machines {
        let bytes = machine.snapshot();
        assert_eq!(
            (bytes.len(), fnv1a64(&bytes)),
            pinned,
            "{name}: snapshot bytes moved"
        );
    }
}

/// The pre-SoA fixture is a version-1 snapshot with every page written
/// raw; the same state re-encoded in the current layout must be far
/// smaller and must itself round-trip byte for byte.
#[test]
fn pre_soa_fixture_re_encodes_to_under_a_quarter() {
    let v1 = std::fs::read(FIXTURE).expect("fixture exists");
    assert_eq!(header_version(&v1), 1);
    let mut m = target();
    m.restore(&v1).unwrap();
    let v2 = m.snapshot();
    assert_eq!(header_version(&v2), FORMAT_VERSION);
    assert!(
        v2.len() < v1.len() / 4,
        "{} bytes re-encoded from a {}-byte fixture",
        v2.len(),
        v1.len()
    );
    let mut again = target();
    again.restore(&v2).unwrap();
    assert_eq!(again.now(), 55_000);
    assert_eq!(again.snapshot(), v2, "restore -> snapshot is not identity");
}

/// Damaged input is an error, never a panic.
fn assert_refused(m: &mut Machine, bytes: &[u8], what: &str) {
    let outcome = catch_unwind(AssertUnwindSafe(|| m.restore(bytes)));
    match outcome {
        Ok(Err(_)) => {}
        Ok(Ok(())) => panic!("{what}: restored"),
        Err(_) => panic!("{what}: the decoder panicked"),
    }
}

#[test]
fn damaged_snapshots_are_errors_not_panics() {
    let mut warm = SimBuilder::new(Variant::Base)
        .timer_interval(50_000)
        .workload(
            0,
            Workload::Gcc.build(&WorkloadParams::tiny().with_target_kinsts(40)),
        )
        .build()
        .unwrap();
    warm.run_cycles(20_000);
    let snap = warm.snapshot();
    let mut m = target();
    m.restore(&snap).unwrap();

    let step = snap.len() / 500;
    let mut cuts = 0;
    for len in (0..snap.len()).step_by(step) {
        assert_refused(&mut m, &snap[..len], &format!("truncated to {len} bytes"));
        cuts += 1;
    }
    assert!(cuts >= 500, "{cuts} truncations");

    // The first page's word map claims all 512 words, one more than the
    // bytes after it hold. `MEMS` is followed by the core count (1), the
    // memory size, the page count, and the first page's index.
    let mems = snap
        .windows(12)
        .position(|w| w == b"MEMS\x01\0\0\0\0\0\0\0")
        .expect("memory section");
    let map = mems + 4 + 4 * 8;
    let mut bad = snap.clone();
    bad[map..map + 64].fill(0xff);
    bad.truncate((map + 64 + 8 * 511).min(bad.len()));
    assert_refused(&mut m, &bad, "over-full word map");
    assert!(matches!(m.restore(&bad), Err(SnapError::Eof { .. })));
}

/// A BASE libquantum state after 60,000 cycles, quiesced the way a
/// fork-base warm-up quiesces one.
fn quiesced_libquantum() -> Vec<u8> {
    let program = Workload::Libquantum.build(&WorkloadParams::evaluation().with_target_kinsts(60));
    let mut m = mid_run(Variant::Base, vec![program], 60_000);
    if m.run_until_mem_quiescent(20_000).is_err() {
        m.drain_to_quiescence(5_000_000).unwrap();
    }
    m.snapshot()
}

/// The three restores every flipped snapshot goes through: strict, and
/// forked into BASE and into F+P+M+A.
fn restore_targets() -> [(&'static str, Machine, bool); 3] {
    let fpma = SimBuilder::new(Variant::Fpma)
        .timer_interval(50_000)
        .build()
        .unwrap();
    [
        ("strict restore", target(), true),
        ("forked restore into BASE", target(), false),
        ("forked restore into F+P+M+A", fpma, false),
    ]
}

/// Restores `bytes` into `m`, catching a panic.
fn restore_caught(
    m: &mut Machine,
    strict: bool,
    bytes: &[u8],
) -> std::thread::Result<Result<(), SnapError>> {
    catch_unwind(AssertUnwindSafe(|| {
        if strict {
            m.restore(bytes)
        } else {
            m.restore_forked(bytes)
        }
    }))
}

/// Restore code indexes by decoded values, so a flipped byte anywhere in
/// the per-crate sections must come back as `Ok` or `Err`, never as a
/// panic: in a strict restore, and in forked restores into BASE and into
/// F+P+M+A.
#[test]
fn byte_flips_are_errors_not_panics() {
    let snap = quiesced_libquantum();
    let mut targets = restore_targets();
    let mut flips = 0;
    for at in (0..snap.len()).step_by(snap.len() / 1500) {
        let mut bad = snap.clone();
        bad[at] ^= 0xff;
        for (name, m, strict) in &mut targets {
            let outcome = restore_caught(m, *strict, &bad);
            assert!(outcome.is_ok(), "{name}, byte {at} flipped: panicked");
        }
        flips += 1;
    }
    assert!(flips >= 1500, "{flips} flips");
}

/// A restore that returns `Ok` must leave a machine that runs, so the
/// restore checks what the pipeline and the LLC index by: ROB sequence
/// numbers strictly ascending and below the next one to rename, and every
/// L1 named by the directory or an MSHR on a core the machine has. Each
/// flip here broke one of those, restored `Ok` before the checks, and then
/// panicked within 200,000 cycles.
#[test]
fn flips_that_would_panic_later_are_refused() {
    let snap = quiesced_libquantum();
    assert_eq!(
        (snap.len(), fnv1a64(&snap)),
        (129_975, 0xe2f7_efd1_cd3d_022c),
        "the flipped offsets below assume these bytes"
    );
    let mut targets = restore_targets();
    for at in [
        15_050, 17_630, 18_748, 19_264, 55_728, 57_534, 57_792, 60_544, 61_920, 63_038, 66_478,
        68_800, 69_918, 70_176, 72_928, 74_046,
    ] {
        let mut bad = snap.clone();
        bad[at] ^= 0xff;
        for (name, m, strict) in &mut targets {
            let outcome = restore_caught(m, *strict, &bad);
            assert!(
                matches!(outcome, Ok(Err(_))),
                "{name}, byte {at} flipped: {outcome:?}"
            );
        }
    }
}
