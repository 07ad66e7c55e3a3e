//! Pins the Fock seam: J/K bits, `FockBuildStats` and the device clock of the
//! solo engine and of the multi-rank build, fault-free and under a seeded
//! chaotic fault plan.
//!
//! The constants below were generated on the code that still had seven
//! `build_jk*` entry points: `SOLO_*` from `build_jk_with_configs`,
//! `DIST_QUIET` from the then separate fault-free `build_jk_distributed` (its
//! own copy of the spawn and merge phases) and `DIST_CHAOS` from
//! `build_jk_distributed_ft`. The two entry points that survive —
//! `build_jk_with_configs` and `build_jk_distributed`, the renamed FT driver,
//! whose fault-free build is the quiet plan — must reproduce every one of
//! them; a deliberate change of summation order, scheduling or pricing must
//! regenerate them (failure messages print the new values) and say so in
//! CHANGES.md.
//!
//! Each row is a [`Pin`] (`digest/mod.rs`): the *exact* half holds the quartet
//! counts, `device_seconds`, per-rank seconds and the recovery ledger; the
//! *float* half holds J and K. The halves were split on the
//! per-primitive `boys_reference` engine (`b9cece2`); the float halves were
//! then regenerated once, for the table-Boys, contraction-stacked FP64
//! quartet. With all 120 quartets of this fixture in FP64, J and K move by at
//! most 2.7e-15 an element; on the pinned schedule (115 quantized) by at most
//! 7.7e-11, because the quantized quartets' Boys values came from a 1e-10
//! interpolation table and are now accurate to 1e-15. No exact half moved.
//!
//! The float halves were regenerated once more when assembly began to
//! digest each stored value once into its six J/K targets instead of
//! scattering it over up to eight index arrangements. On the pinned
//! schedule K moves by at most 8.9e-16 an element and J by at most 2.2e-6
//! (3.8e-7 of max|J|). The J shift is not rounding: a quantized quartet
//! whose bra and ket are the same shell pair is bra–ket asymmetric (by up
//! to 9.0e-6 here; an FP64 one is exactly symmetric), and the digest reads
//! both of its halves, `(μν|λσ)` and `(λσ|μν)`, with weight ½ where the
//! arrangement scatter read only the first. No exact half moved.

use mako_accel::fault::{FaultConfig, FaultPlan};
use mako_accel::{CostModel, DeviceSpec};
use mako_chem::basis::sto3g::sto3g;
use mako_chem::{builders, AoLayout};
use mako_eri::batch::batch_quartets;
use mako_eri::screening::build_screened_pairs;
use mako_eri::{QuartetBatch, ScreenedPair};
use mako_kernels::pipeline::PipelineConfig;
use mako_linalg::Matrix;
use mako_quant::QuantSchedule;
use mako_scf::fock::{build_jk_with_configs, FockEngineOptions, JkMatrices};
use mako_scf::parallel::{build_jk_distributed, DistributedScf};

mod digest;
use digest::{Digest, Pin};

const RANKS: usize = 3;

const SOLO_DEFAULT: Pin = Pin {
    exact: 0x5c1c_20dc_08f8_8eef,
    float: 0xf7d1_6ed1_7c5e_15d3,
};
const DIST_QUIET: Pin = Pin {
    exact: 0x1f85_1817_eda9_c63d,
    float: 0x93c0_da71_be00_b230,
};
const DIST_CHAOS: Pin = Pin {
    exact: 0x7d9c_27ec_2105_d05d,
    float: 0x93c0_da71_be00_b230,
};

/// The float half of a build: J and K, then 0.0 where the retired skipped
/// bound went, as a build without the screen had.
fn float_digest(jk: &JkMatrices) -> u64 {
    let mut d = Digest::new();
    d.floats(jk.j.as_slice());
    d.floats(jk.k.as_slice());
    d.floats(&[0.0]);
    d.0
}

/// Water/STO-3G, a synthetic symmetric density, and the early-SCF schedule,
/// which splits the 120 quartets between the FP64 (5) and the quantized (115)
/// pipeline.
struct Fixture {
    density: Matrix,
    pairs: Vec<ScreenedPair>,
    batches: Vec<QuartetBatch>,
    layout: AoLayout,
    schedule: QuantSchedule,
    fp64: PipelineConfig,
    quant: PipelineConfig,
    model: CostModel,
}

fn fixture() -> Fixture {
    let shells = sto3g().shells_for(&builders::water());
    let layout = AoLayout::new(&shells);
    let pairs = build_screened_pairs(&shells, 1e-12);
    let batches = batch_quartets(&pairs, 1e-14);
    let mut density = Matrix::from_fn(layout.nao, layout.nao, |i, j| {
        0.5 / (1.0 + (i as f64 - j as f64).abs())
    });
    density.symmetrize();
    Fixture {
        density,
        pairs,
        batches,
        layout,
        schedule: QuantSchedule::for_iteration(1.0, 1e-7),
        fp64: PipelineConfig::kernel_mako_fp64(),
        quant: PipelineConfig::quant_mako(),
        model: CostModel::new(DeviceSpec::a100()),
    }
}

/// One solo build on the fixture.
fn solo() -> Pin {
    let f = fixture();
    let (jk, st) = build_jk_with_configs(
        &f.density,
        &f.pairs,
        &f.batches,
        &f.layout,
        &f.schedule,
        |_| (f.fp64, f.quant),
        &f.model,
        FockEngineOptions::default(),
    );
    let mut d = Digest::new();
    d.stats(&st);
    Pin {
        exact: d.0,
        float: float_digest(&jk),
    }
}

fn distributed(plan: FaultPlan) -> Pin {
    let f = fixture();
    let out = build_jk_distributed(
        &f.density,
        &f.pairs,
        &f.batches,
        &f.layout,
        &f.schedule,
        |_| (f.fp64, f.quant),
        &f.model,
        &DistributedScf { plan, cluster: None },
        0,
    )
    .expect("distributed build");
    let mut d = Digest::new();
    d.stats(&out.stats);
    d.floats(&out.rank_seconds);
    d.ledger(&out.recovery);
    Pin {
        exact: d.0,
        float: float_digest(&out.jk),
    }
}

#[test]
fn solo_build_at_default_options_is_pinned() {
    solo().assert_eq(SOLO_DEFAULT, "SOLO_DEFAULT");
}

/// The fault-free multi-rank build — J/K, merged stats, per-rank seconds, a
/// quiet ledger — is the quiet plan's.
#[test]
fn fault_free_three_rank_build_is_pinned() {
    distributed(FaultPlan::quiet(RANKS)).assert_eq(DIST_QUIET, "DIST_QUIET");
}

#[test]
fn chaotic_three_rank_build_is_pinned() {
    let plan = FaultPlan::seeded(6, RANKS, &FaultConfig::chaotic());
    let got = distributed(plan);
    got.assert_eq(DIST_CHAOS, "DIST_CHAOS");
    // Faults change who executes, never the numbers.
    assert_eq!(got.float, DIST_QUIET.float, "faulted J/K differ from the fault-free build");
}
