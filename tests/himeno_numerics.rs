//! Tier-1 pin on the Himeno stencil's host numerics.
//!
//! The other tier-1 Himeno tests compare virtual-time orderings; these
//! compare bits. The serial reference solver and a 4-rank clMPI run on
//! the Cichlid preset, in both exec cores, must reproduce the `gosa` and
//! `checksum` bit patterns recorded at commit 81c3dda, before the
//! stencil kernel was vectorised. A reordered neighbour sum or a fused
//! multiply-add fails here (at 3 iterations a fused update still matched;
//! at 6 it does not). A reassociated residual fold does not: on the
//! standard field the `f64` sum of these `f32` squares is exact in any
//! order. The random-field test next to `jacobi_sweep` covers the fold.

use clmpi_repro::clmpi::SystemConfig;
use clmpi_repro::himeno::{
    checksum, reference_jacobi, run_himeno_with_faults_mode, GridSize, HimenoConfig, Variant,
};
use clmpi_repro::minimpi::FaultPlan;
use clmpi_repro::simtime::ExecMode;

const ITERS: usize = 6;
/// `reference_jacobi(GridSize::S, 6)` at 81c3dda: `gosa` and
/// `checksum(&p)` (whole field, shell included).
const REF_GOSA_BITS: u64 = 4569317958149202944;
const REF_CHECKSUM_BITS: u64 = 4685537700679877267;
/// The 4-rank run at 81c3dda: `gosa` summed over ranks, and the
/// interior checksum. Identical in both exec cores.
const RUN_GOSA_BITS: u64 = 4569317958149202944;
const RUN_CHECKSUM_BITS: u64 = 4684974682006979219;

#[test]
fn reference_solver_bits_are_pinned() {
    let r = reference_jacobi(GridSize::S, ITERS);
    assert_eq!(r.gosa.to_bits(), REF_GOSA_BITS, "gosa {}", r.gosa);
    assert_eq!(checksum(&r.p).to_bits(), REF_CHECKSUM_BITS);
}

#[test]
fn clmpi_run_bits_are_pinned_in_both_cores() {
    for mode in [ExecMode::Threads, ExecMode::Events] {
        let cfg = HimenoConfig {
            size: GridSize::S,
            iters: ITERS,
            sys: SystemConfig::cichlid(),
            nodes: 4,
            strategy: None,
            halo: Default::default(),
        };
        let r = run_himeno_with_faults_mode(Variant::ClMpi, cfg, FaultPlan::none(), mode);
        assert_eq!(r.gosa.to_bits(), RUN_GOSA_BITS, "{mode:?}: gosa {}", r.gosa);
        assert_eq!(
            r.checksum.to_bits(),
            RUN_CHECKSUM_BITS,
            "{mode:?}: checksum"
        );
    }
}
