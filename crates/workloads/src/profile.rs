//! Workload profiles: the knobs that shape a synthetic benchmark.
//!
//! Each SPEC CINT2006 benchmark is modelled by a [`Profile`] whose knobs
//! reproduce the characteristics the paper itself reports for it
//! (Figure 7 branch MPKI, Figure 9 LLC MPKI, the xalancbmk syscall rate,
//! libquantum's streaming, mcf's pointer chasing, h264ref's ILP, astar's
//! data-dependent branches, gcc's multi-megabyte sequentially-allocated
//! working set). The generator, [`crate::generate()`], lowers a profile to
//! an assembled program.

/// Scale of a generated run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkloadParams {
    /// Target run length in thousands of committed instructions. The
    /// generator converts this to a loop count using
    /// [`Profile::insts_per_iteration`], so every workload runs a
    /// comparable instruction volume.
    pub target_kinsts: u64,
    /// RNG seed for data layouts (pointer-chase permutations).
    pub seed: u64,
}

impl WorkloadParams {
    /// The default evaluation scale (a few million instructions).
    pub fn evaluation() -> WorkloadParams {
        WorkloadParams {
            target_kinsts: 3_000,
            seed: 0xC0FFEE,
        }
    }

    /// A tiny scale for unit tests and doc examples.
    pub fn tiny() -> WorkloadParams {
        WorkloadParams {
            target_kinsts: 40,
            seed: 7,
        }
    }

    /// Custom instruction target (in thousands).
    pub fn with_target_kinsts(mut self, target_kinsts: u64) -> WorkloadParams {
        self.target_kinsts = target_kinsts;
        self
    }

    /// Custom data-layout seed (distinct seeds give statistically
    /// independent runs of the same benchmark — the `--seeds` knob of
    /// `mi6-experiments`).
    pub fn with_seed(mut self, seed: u64) -> WorkloadParams {
        self.seed = seed;
        self
    }
}

impl Default for WorkloadParams {
    fn default() -> WorkloadParams {
        WorkloadParams::evaluation()
    }
}

/// How hard a workload's data-dependent branches are to predict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BranchStyle {
    /// Heavily biased / loop-like: near-perfect prediction (libquantum,
    /// h264ref, hmmer).
    Easy,
    /// Mixed patterns with learnable structure (bzip2, gcc, omnetpp).
    Medium,
    /// Data-dependent, effectively random bits (astar, gobmk, sjeng).
    Hard,
}

/// The shape of one synthetic benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Profile {
    /// Bytes swept sequentially per program (streaming array; 0 = none).
    pub stream_bytes: u64,
    /// Lines streamed per iteration.
    pub stream_lines_per_iter: u32,
    /// Bytes of the pointer-chase arena (0 = none).
    pub chase_bytes: u64,
    /// Nodes chased per iteration.
    pub chase_nodes_per_iter: u32,
    /// Bytes of the random-access working set (0 = none).
    pub ws_bytes: u64,
    /// Random accesses into the working set per iteration.
    pub ws_accesses_per_iter: u32,
    /// Number of distinct data-dependent branch sites in the loop body
    /// (predictor/BTB footprint).
    pub branch_sites: u32,
    /// Difficulty of those branches.
    pub branch_style: BranchStyle,
    /// Independent ALU operations per iteration (ILP).
    pub ilp_ops: u32,
    /// Multiply/divide operations per iteration.
    pub muldiv_ops: u32,
    /// Issue a `print` syscall every N iterations (0 = never).
    pub syscall_every: u32,
}

impl Profile {
    /// A rough per-iteration instruction count, used to normalise run
    /// lengths across workloads.
    pub fn insts_per_iteration(&self) -> u64 {
        let stream = self.stream_lines_per_iter as u64 * 4;
        let chase = self.chase_nodes_per_iter as u64 * 2;
        let ws = self.ws_accesses_per_iter as u64 * 6;
        let branches = self.branch_sites as u64 * 4;
        let ilp = self.ilp_ops as u64;
        let muldiv = self.muldiv_ops as u64;
        8 + stream + chase + ws + branches + ilp + muldiv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_presets() {
        assert!(WorkloadParams::evaluation().target_kinsts > WorkloadParams::tiny().target_kinsts);
        assert_eq!(
            WorkloadParams::tiny().with_target_kinsts(5).target_kinsts,
            5
        );
    }

    #[test]
    fn insts_per_iteration_scales_with_knobs() {
        let base = Profile {
            stream_bytes: 0,
            stream_lines_per_iter: 0,
            chase_bytes: 0,
            chase_nodes_per_iter: 0,
            ws_bytes: 0,
            ws_accesses_per_iter: 0,
            branch_sites: 0,
            branch_style: BranchStyle::Easy,
            ilp_ops: 0,
            muldiv_ops: 0,
            syscall_every: 0,
        };
        let more = Profile {
            branch_sites: 10,
            ilp_ops: 20,
            ..base
        };
        assert!(more.insts_per_iteration() > base.insts_per_iteration());
    }
}
