//! Where one `evaluate_xc` call spends its time (ROADMAP item 8).
//!
//! On the benchmark's `scf_dft_quant` input — water trimer, STO-3G, B3LYP,
//! the (40, 12) grid — at the density that workload's SCF converges to, the
//! blocked XC pass is re-run through its public pieces with a clock read
//! between its stages, per block:
//!
//! * **GEMM 1** — gather `D[S_b, S_b]` and `P_b = Φ_b·D[S_b, S_b]`;
//! * **ρ/∇ρ** — the four dots per point that read `P_g`;
//! * **functional** — `XcFunctional::eval` per point;
//! * **Z** — the `Z_g` row that overwrites `P_g`;
//! * **GEMM 2** — `Φ_bᵀ Z_b` and its scatter into `V`.
//!
//! `evaluate_xc` fuses the middle three into one sweep over a block's points;
//! here they are three sweeps, so each can be timed. Printed per call, the
//! minimum of nine passes per stage, beside `evaluate_xc` itself.
//!
//! ```sh
//! cargo run --release -p mako-scf --example xc_profile
//! ```

use mako_chem::basis::sto3g::sto3g;
use mako_chem::builders;
use mako_linalg::{gemm_into, Matrix, Transpose};
use mako_scf::grid::MolecularGrid;
use mako_scf::xc::{b3lyp, evaluate_aos, evaluate_xc, AoOnGrid, XcFunctional};
use mako_scf::{ScfConfig, ScfDriver, ScfMethod};
use std::hint::black_box;
use std::time::Instant;

const PASSES: usize = 9;
const STAGES: [&str; 5] = ["GEMM 1", "rho/grad rho", "functional", "Z", "GEMM 2 + scatter"];

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// One blocked XC pass; returns `V` (unsymmetrised) and the seconds spent in
/// each of [`STAGES`].
fn pass(f: &XcFunctional, aos: &AoOnGrid, grid: &MolecularGrid, d: &Matrix) -> (Matrix, [f64; 5]) {
    let mut secs = [0.0; 5];
    let mut v = Matrix::zeros(aos.nao(), aos.nao());
    let (mut d_b, mut z, mut v_b) = (Matrix::default(), Matrix::default(), Matrix::default());
    let (mut dens, mut pots) = (Vec::new(), Vec::new());
    for blk in aos.blocks() {
        let kept = &blk.aos;
        if kept.is_empty() {
            continue;
        }
        let rows = blk.phi.rows();
        let mut clock = Instant::now();
        let mut lap = |stage: usize| {
            let now = Instant::now();
            secs[stage] += (now - clock).as_secs_f64();
            clock = now;
        };

        d_b.reset(kept.len(), kept.len());
        for (i, &a) in kept.iter().enumerate() {
            for (j, &b) in kept.iter().enumerate() {
                d_b[(i, j)] = d[(a, b)];
            }
        }
        z.reset(rows, kept.len());
        gemm_into(1.0, &blk.phi, Transpose::No, &d_b, Transpose::No, 0.0, &mut z);
        lap(0);

        dens.clear();
        dens.extend((0..rows).map(|g| {
            let row = z.row(g);
            let grad_rho = blk.grad.each_ref().map(|m| 4.0 * dot(row, m.row(g)));
            (2.0 * dot(row, blk.phi.row(g)), grad_rho)
        }));
        lap(1);

        pots.clear();
        pots.extend(dens.iter().map(|(rho, gr)| {
            f.eval(*rho, gr[0] * gr[0] + gr[1] * gr[1] + gr[2] * gr[2])
        }));
        lap(2);

        for (g, ((_, grad_rho), (_, vrho, vgamma))) in dens.iter().zip(&pots).enumerate() {
            let w = grid.points[blk.start + g].weight;
            let a = 0.5 * w * vrho;
            let b = grad_rho.map(|dr| 2.0 * w * vgamma * dr);
            let (phi, dphi) = (blk.phi.row(g), blk.grad.each_ref().map(|m| m.row(g)));
            for (j, zj) in z.row_mut(g).iter_mut().enumerate() {
                *zj = a * phi[j] + b[0] * dphi[0][j] + b[1] * dphi[1][j] + b[2] * dphi[2][j];
            }
        }
        lap(3);

        v_b.reset(kept.len(), kept.len());
        gemm_into(1.0, &blk.phi, Transpose::Yes, &z, Transpose::No, 0.0, &mut v_b);
        for (i, &a) in kept.iter().enumerate() {
            for (j, &b) in kept.iter().enumerate() {
                v[(a, b)] += v_b[(i, j)];
            }
        }
        lap(4);
    }
    (v, secs)
}

fn main() {
    let mol = builders::water_cluster(3);
    let config = ScfConfig {
        method: ScfMethod::Rks(b3lyp()),
        quantized: true,
        grid: (40, 12),
        ..ScfConfig::default()
    };
    let d = ScfDriver::new(&mol, &sto3g(), config).run().expect("scf_dft_quant's SCF").density;
    let grid = MolecularGrid::build(&mol, 40, 12);
    let aos = evaluate_aos(&sto3g().shells_for(&mol), &grid);
    let f = b3lyp();

    let mut best = [f64::INFINITY; 5];
    let mut whole = f64::INFINITY;
    for _ in 0..PASSES {
        let (v, secs) = pass(&f, &aos, &grid, &d);
        black_box(v);
        for (b, s) in best.iter_mut().zip(secs) {
            *b = b.min(s);
        }
        let t0 = Instant::now();
        black_box(evaluate_xc(&f, &aos, &grid, &d));
        whole = whole.min(t0.elapsed().as_secs_f64());
    }

    println!(
        "water3/STO-3G, grid (40, 12): {} points, {} AOs, {} blocks, kept fraction {:.3}",
        grid.len(),
        aos.nao(),
        aos.blocks().len(),
        aos.kept_frac()
    );
    let split: Vec<String> =
        STAGES.iter().zip(best).map(|(name, s)| format!("{name} {:.2}", s * 1e3)).collect();
    println!(
        "  per call, ms: {} | sum {:.2}",
        split.join(" | "),
        best.iter().sum::<f64>() * 1e3
    );
    println!("  evaluate_xc: {:.2} ms per call", whole * 1e3);
}
