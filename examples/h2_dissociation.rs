//! H₂ dissociation curve with RHF — a property-style workload using the full
//! stack (integrals → SCF), plus the dipole machinery on water for good
//! measure.
//!
//! ```sh
//! cargo run --release -p mako --example h2_dissociation
//! ```

use mako::chem::basis::sto3g::sto3g;
use mako::prelude::*;
use mako::scf::properties::dipole_moment;

fn h2(r: f64) -> Molecule {
    let mut m = Molecule::new(format!("H2 r={r:.2}"));
    m.atoms.push(mako::chem::Atom {
        element: Element::H,
        position: [0.0, 0.0, 0.0],
    });
    m.atoms.push(mako::chem::Atom {
        element: Element::H,
        position: [0.0, 0.0, r],
    });
    m
}

fn main() {
    println!("H2 dissociation, RHF / STO-3G (distances in Bohr)\n");
    println!("{:>6} {:>14}", "r", "E(RHF)/Ha");
    let engine = MakoEngine::new();
    let mut min = (0.0f64, f64::INFINITY);
    for step in 0..12 {
        let r = 0.9 + 0.2 * step as f64;
        let res = engine.run_rhf(&h2(r), BasisFamily::Sto3g).expect("scf run");
        if res.energy < min.1 {
            min = (r, res.energy);
        }
        println!("{r:>6.2} {:>14.8}", res.energy);
    }
    println!("\nRHF minimum near r = {:.2} Bohr (experimental r_e ≈ 1.40)", min.0);

    let water = mako::chem::builders::water();
    let shells = sto3g().shells_for(&water);
    let res = engine.run_rhf(&water, BasisFamily::Sto3g).expect("scf run");
    let mu = dipole_moment(&water, &shells, &res.density);
    println!(
        "\nbonus property: μ(H2O, RHF/STO-3G) = {:.3} D (literature ≈ 1.71 D)",
        mu.debye()
    );
}
