//! Deterministic geometry builders for the paper's workloads.
//!
//! * water / water clusters — the compact, globular systems of Figure 8;
//! * polyglycine chains — the linear systems of Figure 8;
//! * a 1,231-atom synthetic protein with ubiquitin's elemental composition —
//!   the Figure 10 scaling workload;
//! * a parameterized suite of small molecules — the Table 3 accuracy set
//!   (standing in for the paper's 200+ tmQM/PubChem molecules).
//!
//! All builders are deterministic: identical inputs give identical geometries
//! across runs and platforms.

use crate::element::Element;
use crate::molecule::{Atom, Molecule};
use crate::BOHR_PER_ANGSTROM;

/// A single water molecule at the standard experimental geometry
/// (r(OH) = 0.9572 Å, ∠HOH = 104.52°), oxygen at the origin.
pub fn water() -> Molecule {
    water_at([0.0, 0.0, 0.0], 0)
}

/// A water molecule with its oxygen at `center` (Å), rotated about z by
/// `orientation` quarter-ish turns for cluster variety.
fn water_at(center: [f64; 3], orientation: usize) -> Molecule {
    let r = 0.9572;
    let half = 104.52f64.to_radians() / 2.0;
    let theta = orientation as f64 * 1.9; // ~109° increments, deterministic
    let (c, s) = (theta.cos(), theta.sin());
    let rot = |p: [f64; 3]| [c * p[0] - s * p[1], s * p[0] + c * p[1], p[2]];
    let h1 = rot([r * half.sin(), 0.0, r * half.cos()]);
    let h2 = rot([-r * half.sin(), 0.0, r * half.cos()]);
    let mut m = Molecule::new("H2O");
    m.atoms.push(Atom::new_angstrom(Element::O, center));
    m.atoms.push(Atom::new_angstrom(
        Element::H,
        [center[0] + h1[0], center[1] + h1[1], center[2] + h1[2]],
    ));
    m.atoms.push(Atom::new_angstrom(
        Element::H,
        [center[0] + h2[0], center[1] + h2[1], center[2] + h2[2]],
    ));
    m
}

/// A pathologically stretched water: both O–H bonds scaled by `stretch`
/// (> 1 elongates) at the equilibrium angle. Around 2× the homolytic
/// dissociation region makes restricted SCF genuinely hard — small
/// HOMO–LUMO gap, oscillating/stagnating DIIS — which is exactly what the
/// self-healing SCF suite needs a deterministic supply of.
pub fn stretched_water(stretch: f64) -> Molecule {
    let r = 0.9572 * stretch;
    let half = 104.52f64.to_radians() / 2.0;
    let mut m = Molecule::new(format!("H2O-stretch{stretch:.2}"));
    m.atoms.push(Atom::new_angstrom(Element::O, [0.0, 0.0, 0.0]));
    m.atoms.push(Atom::new_angstrom(
        Element::H,
        [r * half.sin(), 0.0, r * half.cos()],
    ));
    m.atoms.push(Atom::new_angstrom(
        Element::H,
        [-r * half.sin(), 0.0, r * half.cos()],
    ));
    m
}

/// A compact (globular) cluster of `n` water molecules.
///
/// Oxygen sites occupy the `n` lattice points of a simple cubic grid
/// (spacing 3.1 Å ≈ the O–O distance in ice) closest to the origin, each
/// water rotated differently — the "(H2O)ₙ" workloads of Figure 8.
pub fn water_cluster(n: usize) -> Molecule {
    let spacing = 3.1;
    // Enumerate lattice points by distance from origin, take the first n.
    let r = (n as f64).cbrt().ceil() as i64 + 1;
    let mut sites: Vec<[i64; 3]> = Vec::new();
    for x in -r..=r {
        for y in -r..=r {
            for z in -r..=r {
                sites.push([x, y, z]);
            }
        }
    }
    sites.sort_by(|a, b| {
        let da = a[0] * a[0] + a[1] * a[1] + a[2] * a[2];
        let db = b[0] * b[0] + b[1] * b[1] + b[2] * b[2];
        da.cmp(&db).then(a.cmp(b))
    });
    let mut m = Molecule::new(format!("(H2O){n}"));
    for (i, site) in sites.into_iter().take(n).enumerate() {
        let center = [
            site[0] as f64 * spacing,
            site[1] as f64 * spacing,
            site[2] as f64 * spacing,
        ];
        m.atoms.extend(water_at(center, i).atoms);
    }
    m
}

/// Jitter every atomic coordinate by a seeded uniform offset in
/// `[-magnitude, +magnitude]` Å. Deterministic (the LCG stream of
/// `synthetic_protein`, keyed by `seed`), so the same `(geometry, seed,
/// magnitude)` always yields the same molecule — the supply line for
/// ensemble conformance tests and the throughput bench, where hundreds of
/// *distinct but reproducible* near-equilibrium geometries are needed.
/// Keep `magnitude` small (≲ 0.05 Å) so the perturbed geometry stays in the
/// same SCF basin as its parent.
pub fn perturb_geometry(mut m: Molecule, seed: u64, magnitude_angstrom: f64) -> Molecule {
    // Injective odd seeding (seed → 2·seed+1): adjacent seeds must yield
    // distinct streams, which a plain `seed | 1` would collide on every
    // even/odd pair.
    let mut state = seed.wrapping_mul(2).wrapping_add(1);
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    let mag_bohr = magnitude_angstrom * BOHR_PER_ANGSTROM;
    for atom in &mut m.atoms {
        for c in &mut atom.position {
            *c += mag_bohr * (2.0 * rnd() - 1.0);
        }
    }
    m.name = format!("{}~{seed}", m.name);
    m
}

/// A seeded near-equilibrium water monomer: [`water`] with every coordinate
/// jittered by up to `magnitude_angstrom` (see [`perturb_geometry`]).
pub fn perturbed_water(seed: u64, magnitude_angstrom: f64) -> Molecule {
    perturb_geometry(water(), seed, magnitude_angstrom)
}

/// A seeded perturbed `(H2O)ₙ` cluster: [`water_cluster`] with every
/// coordinate jittered by up to `magnitude_angstrom` — the "100 perturbed
/// water clusters" ensemble workload.
pub fn perturbed_water_cluster(n: usize, seed: u64, magnitude_angstrom: f64) -> Molecule {
    perturb_geometry(water_cluster(n), seed, magnitude_angstrom)
}

/// A polyglycine chain (gly)ₙ in an extended (β-strand-like) conformation —
/// the linear workloads of Figure 8.
///
/// Each residue contributes the backbone N, H, Cα, 2×Hα, C′, O; the chain is
/// capped with an N-terminal H and a C-terminal OH, giving `7n + 3` atoms.
pub fn polyglycine(n: usize) -> Molecule {
    assert!(n >= 1);
    let mut m = Molecule::new(format!("(gly){n}"));
    let pitch = 3.63; // Å advance per residue along x (extended chain)
    for i in 0..n {
        let x0 = i as f64 * pitch;
        let flip = if i % 2 == 0 { 1.0 } else { -1.0 }; // zig-zag in y
        let res: [(Element, [f64; 3]); 7] = [
            (Element::N, [x0, 0.25 * flip, 0.0]),
            (Element::H, [x0 - 0.35, 0.9 * flip, 0.35]),
            (Element::C, [x0 + 1.21, -0.45 * flip, 0.0]), // Cα
            (Element::H, [x0 + 1.25, -1.05 * flip, 0.89]),
            (Element::H, [x0 + 1.25, -1.05 * flip, -0.89]),
            (Element::C, [x0 + 2.42, 0.40 * flip, 0.0]), // C′
            (Element::O, [x0 + 2.46, 1.62 * flip, 0.05]),
        ];
        for (e, p) in res {
            m.atoms.push(Atom::new_angstrom(e, p));
        }
    }
    // N-terminal hydrogen.
    m.atoms.push(Atom::new_angstrom(Element::H, [-0.55, -0.55, -0.5]));
    // C-terminal OH.
    let xe = (n - 1) as f64 * pitch;
    let flip = if (n - 1).is_multiple_of(2) { 1.0 } else { -1.0 };
    m.atoms
        .push(Atom::new_angstrom(Element::O, [xe + 3.2, -0.35 * flip, -0.6]));
    m.atoms
        .push(Atom::new_angstrom(Element::H, [xe + 4.05, 0.1 * flip, -0.75]));
    m
}

/// Methane at tetrahedral geometry, r(CH) = 1.089 Å.
pub fn methane() -> Molecule {
    let r = 1.089 / 3f64.sqrt();
    let mut m = Molecule::new("CH4");
    m.atoms.push(Atom::new_angstrom(Element::C, [0.0, 0.0, 0.0]));
    for p in [
        [r, r, r],
        [r, -r, -r],
        [-r, r, -r],
        [-r, -r, r],
    ] {
        m.atoms.push(Atom::new_angstrom(Element::H, p));
    }
    m
}

/// Ammonia, r(NH) = 1.012 Å, ∠HNH ≈ 106.7°.
pub fn ammonia() -> Molecule {
    let mut m = Molecule::new("NH3");
    m.atoms.push(Atom::new_angstrom(Element::N, [0.0, 0.0, 0.0]));
    let r = 1.012;
    let theta = 112.0f64.to_radians(); // polar angle giving ~106.7° HNH
    for k in 0..3 {
        let phi = k as f64 * 2.0 * std::f64::consts::PI / 3.0;
        m.atoms.push(Atom::new_angstrom(
            Element::H,
            [
                r * theta.sin() * phi.cos(),
                r * theta.sin() * phi.sin(),
                r * theta.cos(),
            ],
        ));
    }
    m
}

/// Formaldehyde (CH₂O) at the experimental geometry — a compact polar
/// molecule with a double bond, used by the accuracy suite for chemical
/// diversity at low cost.
pub fn formaldehyde() -> Molecule {
    let mut m = Molecule::new("CH2O");
    m.atoms.push(Atom::new_angstrom(Element::C, [0.0, 0.0, 0.0]));
    m.atoms.push(Atom::new_angstrom(Element::O, [0.0, 0.0, 1.205]));
    m.atoms.push(Atom::new_angstrom(Element::H, [0.943, 0.0, -0.587]));
    m.atoms.push(Atom::new_angstrom(Element::H, [-0.943, 0.0, -0.587]));
    m
}

/// A deterministic synthetic globular "protein": `natoms` atoms with
/// ubiquitin's elemental composition (H 51.1%, C 30.7%, N 8.5%, O 9.6%,
/// plus one S), packed on a jittered cubic lattice at protein-like density.
///
/// Substitutes for the ubiquitin PDB structure in the Figure 10 scaling
/// experiment: the scaling behaviour depends on atom/shell counts and
/// spatial extent, not on the true fold.
pub(crate) fn synthetic_protein(natoms: usize, seed: u64) -> Molecule {
    assert!(natoms >= 2);
    let mut m = Molecule::new(format!("synthetic-protein-{natoms}"));
    // Element sequence honoring ubiquitin fractions, deterministic.
    let mut counts = [
        (Element::H, (natoms as f64 * 0.511).round() as usize),
        (Element::C, (natoms as f64 * 0.307).round() as usize),
        (Element::N, (natoms as f64 * 0.085).round() as usize),
        (Element::O, (natoms as f64 * 0.096).round() as usize),
        (Element::S, 1usize),
    ];
    // Fix rounding drift on hydrogen.
    let assigned: usize = counts.iter().map(|&(_, c)| c).sum();
    counts[0].1 = (counts[0].1 as i64 + natoms as i64 - assigned as i64).max(0) as usize;

    let mut elements = Vec::with_capacity(natoms);
    for &(e, c) in &counts {
        elements.extend(std::iter::repeat_n(e, c));
    }
    elements.truncate(natoms);
    // Deterministic interleave so chemistry is spatially mixed.
    let mut state = seed | 1;
    let mut rnd = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64
    };
    for i in (1..elements.len()).rev() {
        let j = (rnd() * (i + 1) as f64) as usize % (i + 1);
        elements.swap(i, j);
    }

    // Jittered cubic lattice, spacing 2.2 Å (~protein interior density),
    // sites nearest the origin first → globular shape.
    let spacing = 2.2;
    let r = (natoms as f64).cbrt().ceil() as i64 / 2 + 2;
    let mut sites: Vec<[i64; 3]> = Vec::new();
    for x in -r..=r {
        for y in -r..=r {
            for z in -r..=r {
                sites.push([x, y, z]);
            }
        }
    }
    sites.sort_by(|a, b| {
        let da = a[0] * a[0] + a[1] * a[1] + a[2] * a[2];
        let db = b[0] * b[0] + b[1] * b[1] + b[2] * b[2];
        da.cmp(&db).then(a.cmp(b))
    });
    for (e, site) in elements.into_iter().zip(sites) {
        let jitter = [rnd() * 0.5 - 0.25, rnd() * 0.5 - 0.25, rnd() * 0.5 - 0.25];
        m.atoms.push(Atom::new_angstrom(
            e,
            [
                site[0] as f64 * spacing + jitter[0],
                site[1] as f64 * spacing + jitter[1],
                site[2] as f64 * spacing + jitter[2],
            ],
        ));
    }
    m
}

/// The Figure 10 workload: 1,231 atoms with ubiquitin's composition.
pub fn ubiquitin_like() -> Molecule {
    let mut m = synthetic_protein(1231, 0x5EED_0BAD_F00D);
    m.name = "ubiquitin-like (1231 atoms)".into();
    m
}

/// A deterministic accuracy-validation suite of `count` small molecules —
/// the stand-in for the paper's 200+ tmQM/PubChem dataset. Mixes fixed
/// textbook molecules with perturbed variants (stretched/compressed bonds,
/// rotated clusters) for structural and compositional diversity.
pub fn accuracy_suite(count: usize) -> Vec<Molecule> {
    let base: Vec<Molecule> = vec![water(), methane(), ammonia(), water_cluster(2), formaldehyde()];
    let mut out = Vec::with_capacity(count);
    let mut k = 0usize;
    while out.len() < count {
        let proto = &base[k % base.len()];
        let variant = k / base.len();
        let scale = 1.0 + 0.02 * ((variant % 7) as f64 - 3.0); // ±6% bond scaling
        let mut m = proto.clone();
        m.name = format!("{}-v{}", proto.name, variant);
        for a in &mut m.atoms {
            for d in 0..3 {
                a.position[d] *= scale;
            }
        }
        out.push(m);
        k += 1;
    }
    out
}

/// Guard used by tests and builders: no two atoms closer than `min_angstrom`.
#[cfg(test)]
pub(crate) fn check_min_distance(m: &Molecule, min_angstrom: f64) -> bool {
    m.min_distance() >= min_angstrom * BOHR_PER_ANGSTROM
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::molecule::dist;

    #[test]
    fn water_geometry() {
        let w = water();
        assert_eq!(w.natoms(), 3);
        let roh = dist(w.atoms[0].position, w.atoms[1].position) / BOHR_PER_ANGSTROM;
        assert!((roh - 0.9572).abs() < 1e-6);
        let rhh = dist(w.atoms[1].position, w.atoms[2].position) / BOHR_PER_ANGSTROM;
        // HH distance from law of cosines ≈ 1.513 Å.
        assert!((rhh - 1.5139).abs() < 1e-3, "rhh = {rhh}");
    }

    #[test]
    fn stretched_water_scales_bonds_only() {
        let w = stretched_water(2.0);
        assert_eq!(w.natoms(), 3);
        let roh = dist(w.atoms[0].position, w.atoms[1].position) / BOHR_PER_ANGSTROM;
        assert!((roh - 2.0 * 0.9572).abs() < 1e-6, "roh = {roh}");
        // Same angle as equilibrium: HH/OH ratio is preserved.
        let rhh = dist(w.atoms[1].position, w.atoms[2].position) / BOHR_PER_ANGSTROM;
        assert!((rhh / roh - 1.5139 / 0.9572).abs() < 1e-3);
        // stretch = 1 reproduces the equilibrium geometry.
        let eq = stretched_water(1.0);
        for (a, b) in eq.atoms.iter().zip(&water().atoms) {
            for d in 0..3 {
                assert!((a.position[d] - b.position[d]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn water_cluster_counts_and_spacing() {
        for n in [1usize, 2, 5, 20] {
            let c = water_cluster(n);
            assert_eq!(c.natoms(), 3 * n);
            assert!(check_min_distance(&c, 0.8), "n={n} atoms overlap");
        }
    }

    #[test]
    fn water_cluster_is_deterministic() {
        assert_eq!(water_cluster(7), water_cluster(7));
    }

    #[test]
    fn perturbed_geometries_are_seeded_and_bounded() {
        // Same seed → bitwise identical; different seed → different.
        assert_eq!(perturbed_water(42, 0.02), perturbed_water(42, 0.02));
        assert_ne!(perturbed_water(42, 0.02), perturbed_water(43, 0.02));
        // Adjacent seeds must differ in *geometry*, not just in name (the
        // molecule name records the seed, so `assert_ne!` alone would pass
        // even if the jitter streams collided).
        let a = perturbed_water(42, 0.02);
        let b = perturbed_water(43, 0.02);
        assert!(
            a.atoms
                .iter()
                .zip(&b.atoms)
                .any(|(x, y)| x.position != y.position),
            "adjacent seeds produced identical geometries"
        );
        assert_eq!(
            perturbed_water_cluster(4, 7, 0.02),
            perturbed_water_cluster(4, 7, 0.02)
        );
        // Every coordinate moves by at most the magnitude.
        let base = water_cluster(4);
        let p = perturbed_water_cluster(4, 7, 0.02);
        let bound = 0.02 * BOHR_PER_ANGSTROM;
        let mut moved = false;
        for (a, b) in base.atoms.iter().zip(&p.atoms) {
            for d in 0..3 {
                let delta = (a.position[d] - b.position[d]).abs();
                assert!(delta <= bound + 1e-12, "delta {delta} exceeds {bound}");
                moved |= delta > 0.0;
            }
        }
        assert!(moved, "perturbation must actually move atoms");
        // The name records the seed so traces and benches can tell members
        // apart.
        assert_eq!(p.name, "(H2O)4~7");
    }

    #[test]
    fn polyglycine_counts() {
        for n in [1usize, 2, 4, 8] {
            let p = polyglycine(n);
            assert_eq!(p.natoms(), 7 * n + 3);
            assert!(check_min_distance(&p, 0.75), "n={n}");
            // Linear: x-extent grows with n.
            let xmax = p
                .atoms
                .iter()
                .map(|a| a.position[0])
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(xmax > (n as f64 - 1.0) * 3.0 * BOHR_PER_ANGSTROM);
        }
    }

    #[test]
    fn methane_and_ammonia_shapes() {
        let m = methane();
        assert_eq!(m.natoms(), 5);
        for h in 1..5 {
            let r = dist(m.atoms[0].position, m.atoms[h].position) / BOHR_PER_ANGSTROM;
            assert!((r - 1.089).abs() < 1e-6);
        }
        let a = ammonia();
        assert_eq!(a.natoms(), 4);
        assert_eq!(a.n_electrons(), 10);
    }

    #[test]
    fn ubiquitin_like_composition() {
        let u = ubiquitin_like();
        assert_eq!(u.natoms(), 1231);
        let count = |e: Element| u.atoms.iter().filter(|a| a.element == e).count();
        assert_eq!(count(Element::S), 1);
        assert!((count(Element::H) as f64 / 1231.0 - 0.511).abs() < 0.01);
        assert!((count(Element::C) as f64 / 1231.0 - 0.307).abs() < 0.01);
        assert!(check_min_distance(&u, 1.2));
        // Deterministic.
        assert_eq!(ubiquitin_like(), ubiquitin_like());
    }

    #[test]
    fn accuracy_suite_size_and_diversity() {
        let suite = accuracy_suite(200);
        assert_eq!(suite.len(), 200);
        let names: std::collections::HashSet<_> = suite.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names.len(), 200, "all variants distinct");
        assert!(suite.iter().all(|m| m.natoms() >= 3));
    }
}
