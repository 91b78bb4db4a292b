//! The snapshot codec at the machine level: the sparse (version-2) layout
//! against the committed version-1 fixture, and decoder robustness on
//! damaged version-2 input.

use mi6::snapshot::{SnapError, FORMAT_VERSION};
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
