//! The benchmark's three workloads and the inputs they hand the program.
//!
//! Each workload is fixed by its flags; only the seed varies. The seed
//! argument is a seed *index*: index 0 is `mi6_bench::DEFAULT_SEED` (the
//! seed every paper figure is measured with) and index `n > 0` is the
//! splitmix64-derived seed `HarnessOpts::seed_at(n)` that `--seeds`
//! sweeps use.

use mi6_bench::scenario::{victim_program, ATTACKER};
use mi6_bench::HarnessOpts;
use mi6_isa::{Assembler, Inst, Reg};
use mi6_soc::{kernel, loader, Program, SimBuilder, Variant};
use mi6_workloads::WorkloadParams;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BenchWorkload {
    /// `mi6-experiments --all --kinsts 200`, caches empty.
    PaperCold,
    /// `mi6-experiments --all --kinsts 100 --warmup 120000 --fork-base
    /// --seeds 2`, warm states in the in-memory pool only.
    PaperForkbase,
    /// `mi6-experiments --scenario enclave-attacker --kinsts 500`.
    EnclaveAttack,
}

/// The grid shape of a figure-grid workload.
#[derive(Clone, Copy, Debug)]
pub struct GridSpec {
    /// Thousands of instructions per point.
    pub kinsts: u64,
    /// Fork-base warm-up length in cycles (0 = cold).
    pub warmup: u64,
    /// Workload seeds per point (`--seeds`).
    pub seeds: u64,
}

/// Extra cycles allowed for the quiescence drain after a fork-base
/// warm-up (the same cap `mi6_bench::runner` applies).
pub const QUIESCE_CAP: u64 = 5_000_000;

/// Cycles the fork-base warm-up first waits for a natural quiescent
/// window before draining (the same window `mi6_bench::runner` uses).
pub const QUIESCE_WINDOW: u64 = 20_000;

impl BenchWorkload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::PaperCold,
        BenchWorkload::PaperForkbase,
        BenchWorkload::EnclaveAttack,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::PaperCold => "paper-cold",
            BenchWorkload::PaperForkbase => "paper-forkbase",
            BenchWorkload::EnclaveAttack => "enclave-attack",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The grid shape, for the two figure-grid workloads.
    pub fn grid(self) -> Option<GridSpec> {
        match self {
            BenchWorkload::PaperCold => Some(GridSpec {
                kinsts: 200,
                warmup: 0,
                seeds: 1,
            }),
            BenchWorkload::PaperForkbase => Some(GridSpec {
                kinsts: 100,
                warmup: 120_000,
                seeds: 2,
            }),
            BenchWorkload::EnclaveAttack => None,
        }
    }

    /// Run options for seed index `seed_index` (see the module docs).
    pub fn opts(self, seed_index: u64) -> HarnessOpts {
        let kinsts = self.grid().map_or(500, |g| g.kinsts);
        let base = HarnessOpts::default();
        base.with_kinsts(kinsts).with_seed(base.seed_at(seed_index))
    }
}

/// The evaluation workload parameters at `opts`' length and seed.
pub fn params(opts: &HarnessOpts) -> WorkloadParams {
    WorkloadParams::evaluation()
        .with_target_kinsts(opts.kinsts)
        .with_seed(opts.seed)
}

/// The scenario's (variant, contended) points, in the order
/// `mi6_bench::scenario::run_enclave_attacker` returns them.
pub const SCENARIO_POINTS: [(Variant, bool); 4] = [
    (Variant::Base, false),
    (Variant::Base, true),
    (Variant::SecureMi6, false),
    (Variant::SecureMi6, true),
];

/// A program that exits immediately: parks the second core of a solo
/// scenario point, as the scenario does.
fn park_program() -> Program {
    let mut asm = Assembler::new(loader::CODE_VA);
    asm.li(Reg::A0, 0);
    asm.li(Reg::A7, kernel::sys::EXIT);
    asm.push(Inst::Ecall);
    Program {
        name: "park".into(),
        code: asm.assemble().expect("park program assembles"),
        data_size: 4096,
        data_init: vec![],
        stack_size: 4096,
    }
}

/// Generates one scenario point's programs: the enclave victim for core
/// 0 and, for core 1, the streaming attacker (three times the victim's
/// length, so it outlives it) or the park program.
pub fn scenario_programs(contended: bool, opts: &HarnessOpts) -> [Program; 2] {
    let core1 = if contended {
        ATTACKER.build(&params(&opts.with_kinsts(opts.kinsts.saturating_mul(3))))
    } else {
        park_program()
    };
    [victim_program(&params(opts)), core1]
}

/// The two-core builder of one scenario point.
pub fn scenario_builder(
    variant: Variant,
    opts: &HarnessOpts,
    programs: [Program; 2],
) -> SimBuilder {
    let [victim, core1] = programs;
    SimBuilder::new(variant)
        .cores(2)
        .timer_interval(opts.timer)
        .workload(0, victim)
        .workload(1, core1)
}

/// The scenario's run-length cap.
pub fn scenario_cap(opts: &HarnessOpts) -> u64 {
    opts.kinsts.saturating_mul(6_000_000).max(400_000_000)
}
