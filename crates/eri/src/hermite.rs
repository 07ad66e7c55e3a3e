//! Hermite Gaussian machinery of the McMurchie–Davidson (MMD) scheme:
//! the expansion coefficients `E_t^{ij}` and the Hermite Coulomb integrals
//! `R^{(n)}_{tuv}` (the paper's r-integrals, Eqs. 4–5).
//!
//! The hot paths evaluate `R` through [`HermiteLanes`]: the Eq. (5)
//! recursion of each order is flattened once per process into a plan of
//! slot operations, then run over many independent inputs at once — the
//! primitive-pair combinations of a quartet, or the nuclei of a one-electron
//! primitive pair — stored struct-of-arrays, so every operation is one
//! contiguous, vectorizable loop over lanes. Each lane performs exactly the
//! scalar operations of the generic [`r_integrals`], which stays as the
//! reference.

use crate::boys::M_MAX;
use mako_chem::cart::{cart_components, hermite_components};
use std::sync::OnceLock;

/// One-dimensional Hermite expansion coefficients `E_t^{i,j}` for a pair of
/// Gaussians with exponents `a`, `b` separated by `x_ab = A_x − B_x`.
///
/// Returned as a flat table indexed by `[i][j][t]` with `i ≤ la`, `j ≤ lb`,
/// `t ≤ i + j` (entries with `t > i + j` are zero).
#[derive(Debug, Clone, Default)]
pub struct ETable {
    la: usize,
    lb: usize,
    data: Vec<f64>,
}

impl ETable {
    /// Build the table by the standard two-term recursions:
    ///
    /// ```text
    /// E_0^{00}     = exp(−μ x_AB²),  μ = ab/(a+b)
    /// E_t^{i+1,j}  = E_{t−1}^{ij}/(2p) + X_PA E_t^{ij} + (t+1) E_{t+1}^{ij}
    /// E_t^{i,j+1}  = E_{t−1}^{ij}/(2p) + X_PB E_t^{ij} + (t+1) E_{t+1}^{ij}
    /// ```
    pub fn new(la: usize, lb: usize, a: f64, b: f64, x_ab: f64) -> ETable {
        let mut e = ETable::default();
        e.fill(la, lb, a, b, x_ab);
        e
    }

    /// [`ETable::new`] into this table's storage: no heap traffic once the
    /// buffer has grown to the largest `(la, lb)` it has held.
    pub(crate) fn fill(&mut self, la: usize, lb: usize, a: f64, b: f64, x_ab: f64) {
        let p = a + b;
        let mu = a * b / p;
        let x_pa = -b * x_ab / p; // P − A
        let x_pb = a * x_ab / p; // P − B
        let tdim = la + lb + 1;
        // The recursions read never-written entries as zero.
        self.data.clear();
        self.data.resize((la + 1) * (lb + 1) * (tdim + 1), 0.0);
        let t_buf = &mut self.data;
        let idx = |i: usize, j: usize, t: usize| (i * (lb + 1) + j) * (tdim + 1) + t;

        t_buf[idx(0, 0, 0)] = (-mu * x_ab * x_ab).exp();
        // Raise i with j = 0.
        for i in 0..la {
            for t in 0..=(i + 1) {
                let mut v = 0.0;
                if t > 0 {
                    v += t_buf[idx(i, 0, t - 1)] / (2.0 * p);
                }
                v += x_pa * t_buf[idx(i, 0, t)];
                v += (t + 1) as f64 * t_buf[idx(i, 0, t + 1)];
                t_buf[idx(i + 1, 0, t)] = v;
            }
        }
        // Raise j for every i.
        for i in 0..=la {
            for j in 0..lb {
                for t in 0..=(i + j + 1) {
                    let mut v = 0.0;
                    if t > 0 {
                        v += t_buf[idx(i, j, t - 1)] / (2.0 * p);
                    }
                    v += x_pb * t_buf[idx(i, j, t)];
                    if t < i + j {
                        v += (t + 1) as f64 * t_buf[idx(i, j, t + 1)];
                    }
                    t_buf[idx(i, j + 1, t)] = v;
                }
            }
        }
        (self.la, self.lb) = (la, lb);
    }

    /// `E_t^{i,j}` (zero outside the valid triangle).
    #[inline]
    pub fn get(&self, i: usize, j: usize, t: usize) -> f64 {
        if t > i + j || i > self.la || j > self.lb {
            return 0.0;
        }
        let tdim = self.la + self.lb + 1;
        self.data[(i * (self.lb + 1) + j) * (tdim + 1) + t]
    }
}

/// The 3D Hermite expansion matrix `E^{ab}_{(cart pair) × (tuv)}` for a
/// primitive pair: rows run over Cartesian component pairs of shells
/// `(la, lb)` (row = ca · ncart(lb) + cb), columns over Hermite components
/// `(t,u,v)` with `t+u+v ≤ la+lb`.
///
/// `E^{ab}_{tuv} = E_t^{i i'} · E_u^{j j'} · E_v^{k k'}`.
pub(crate) fn e_matrix(la: usize, lb: usize, a: f64, b: f64, ab: [f64; 3]) -> Vec<f64> {
    let ex = ETable::new(la, lb, a, b, ab[0]);
    let ey = ETable::new(la, lb, a, b, ab[1]);
    let ez = ETable::new(la, lb, a, b, ab[2]);
    let ca = cart_components(la);
    let cb = cart_components(lb);
    let herm = hermite_components(la + lb);
    let ncols = herm.len();
    let mut m = vec![0.0f64; ca.len() * cb.len() * ncols];
    for (ia, &(ax, ay, az)) in ca.iter().enumerate() {
        for (ib, &(bx, by, bz)) in cb.iter().enumerate() {
            let row = ia * cb.len() + ib;
            for (hc, &(t, u, v)) in herm.iter().enumerate() {
                if t <= ax + bx && u <= ay + by && v <= az + bz {
                    m[row * ncols + hc] = ex.get(ax, bx, t) * ey.get(ay, by, u) * ez.get(az, bz, v);
                }
            }
        }
    }
    m
}

/// Hermite Coulomb integrals `R^{(0)}_{tuv}` for all `t+u+v ≤ l`, given the
/// Boys values `F_0..F_l` at `T = α |PQ|²` and the separation `pq = P − Q`.
///
/// Built by the paper's Eq. (5) recursion:
/// `R^{(n)}_{t+1,u,v} = t R^{(n+1)}_{t−1,u,v} + X_PQ R^{(n+1)}_{t,u,v}` (and
/// cyclically for u, v), seeded by `R^{(n)}_{000} = (−2α)^n F_n(T)`.
///
/// Returns a flat vector over [`hermite_components`]`(l)` ordering. This is
/// the generic, one-integral-at-a-time form: the reference that
/// [`HermiteLanes`] is tested against and that the slow one-electron blocks
/// use.
pub fn r_integrals(l: usize, alpha: f64, pq: [f64; 3], boys: &[f64]) -> Vec<f64> {
    assert!(boys.len() > l, "need F_0..F_l");
    let dim = l + 1;
    let stride_n = dim * dim * dim;
    let idx = |n: usize, t: usize, u: usize, v: usize| n * stride_n + (t * dim + u) * dim + v;
    let mut buf = vec![0.0f64; (l + 1) * stride_n];

    let mut pow = 1.0;
    for n in 0..=l {
        buf[idx(n, 0, 0, 0)] = pow * boys[n];
        pow *= -2.0 * alpha;
    }

    // Ascending total degree; for each target we need degree−1 and degree−2
    // entries at auxiliary order n+1, which are already present.
    for deg in 1..=l {
        for t in 0..=deg {
            for u in 0..=(deg - t) {
                let v = deg - t - u;
                for n in 0..=(l - deg) {
                    let val = if t > 0 {
                        let mut s = pq[0] * buf[idx(n + 1, t - 1, u, v)];
                        if t > 1 {
                            s += (t - 1) as f64 * buf[idx(n + 1, t - 2, u, v)];
                        }
                        s
                    } else if u > 0 {
                        let mut s = pq[1] * buf[idx(n + 1, t, u - 1, v)];
                        if u > 1 {
                            s += (u - 1) as f64 * buf[idx(n + 1, t, u - 2, v)];
                        }
                        s
                    } else {
                        let mut s = pq[2] * buf[idx(n + 1, t, u, v - 1)];
                        if v > 1 {
                            s += (v - 1) as f64 * buf[idx(n + 1, t, u, v - 2)];
                        }
                        s
                    };
                    buf[idx(n, t, u, v)] = val;
                }
            }
        }
    }

    hermite_components(l)
        .into_iter()
        .map(|(t, u, v)| buf[idx(0, t, u, v)])
        .collect()
}

/// One step of an [`RPlan`], over dense slots. Two kinds, not one with a
/// zero factor: `x·a + 0·b` would turn a `−0.0` product into `+0.0` and let a
/// non-finite `b` leak in, where [`r_integrals`] computes `x·a` alone.
#[derive(Debug, Clone, Copy)]
enum ROp {
    /// `dst = pq[axis] · a`.
    Mul { dst: usize, axis: usize, a: usize },
    /// `dst = pq[axis] · a + f · b`.
    MulAdd {
        dst: usize,
        axis: usize,
        a: usize,
        f: f64,
        b: usize,
    },
}

/// The Eq. (5) recursion of order `l` flattened once into a list of slot
/// operations: the operations of [`r_integrals`], in its `(deg, t, u, n)`
/// order, each reading only slots written before it. Only the entries the
/// recursion touches get a slot — `R^{(0)}_{tuv}` first, in
/// [`hermite_components`] order, then the seeds `R^{(n≥1)}_{000}`, then the
/// intermediates — so no index arithmetic is left for evaluation time.
/// Shared per order through [`r_plan`]; evaluated over lanes by
/// [`HermiteLanes`].
#[derive(Debug)]
pub(crate) struct RPlan {
    /// Number of slots.
    slots: usize,
    /// Slot of the seed `R^{(n)}_{000}`, per `n ≤ l`.
    seeds: Vec<usize>,
    ops: Vec<ROp>,
}

impl RPlan {
    fn build(l: usize) -> RPlan {
        let dim = l + 1;
        let key = |n: usize, t: usize, u: usize, v: usize| ((n * dim + t) * dim + u) * dim + v;
        // Slot of each touched `(n, t, u, v)`, numbered on first sight.
        let mut slot_of = vec![usize::MAX; dim * dim * dim * dim];
        let mut slots = 0;
        let mut slot = |k: usize| {
            if slot_of[k] == usize::MAX {
                slot_of[k] = slots;
                slots += 1;
            }
            slot_of[k]
        };
        for (t, u, v) in hermite_components(l) {
            slot(key(0, t, u, v));
        }
        let seeds: Vec<usize> = (0..=l).map(|n| slot(key(n, 0, 0, 0))).collect();
        let mut ops = Vec::new();
        for deg in 1..=l {
            for t in 0..=deg {
                for u in 0..=(deg - t) {
                    let v = deg - t - u;
                    for n in 0..=(l - deg) {
                        // The axis being raised, its index `m`, and the
                        // sources one and two steps below the target along it.
                        let (axis, m, below1, below2) = if t > 0 {
                            (
                                0,
                                t,
                                key(n + 1, t - 1, u, v),
                                (t > 1).then(|| key(n + 1, t - 2, u, v)),
                            )
                        } else if u > 0 {
                            (
                                1,
                                u,
                                key(n + 1, t, u - 1, v),
                                (u > 1).then(|| key(n + 1, t, u - 2, v)),
                            )
                        } else {
                            (
                                2,
                                v,
                                key(n + 1, t, u, v - 1),
                                (v > 1).then(|| key(n + 1, t, u, v - 2)),
                            )
                        };
                        let (a, dst) = (slot(below1), slot(key(n, t, u, v)));
                        ops.push(match below2 {
                            None => ROp::Mul { dst, axis, a },
                            Some(b) => ROp::MulAdd {
                                dst,
                                axis,
                                a,
                                f: (m - 1) as f64,
                                b: slot(b),
                            },
                        });
                    }
                }
            }
        }
        RPlan { slots, seeds, ops }
    }

    /// Run every operation over `lanes` lanes of `r` (slot `s` of lane `i`
    /// at `r[s·lanes + i]`), whose seeds are written, with `P − Q` component
    /// `k` of lane `i` at `pq[k·lanes + i]`. Each operation is one loop over
    /// contiguous lanes, and each lane sees exactly the scalar operations of
    /// [`r_integrals`].
    fn run(&self, lanes: usize, pq: &[f64], r: &mut [f64]) {
        for op in &self.ops {
            let (ROp::Mul { dst, axis, a } | ROp::MulAdd { dst, axis, a, .. }) = *op;
            // Sources are never the destination: split around it.
            let (below, rest) = r.split_at_mut(dst * lanes);
            let (out, above) = rest.split_at_mut(lanes);
            let src = |s: usize| {
                if s < dst {
                    &below[s * lanes..(s + 1) * lanes]
                } else {
                    &above[(s - dst - 1) * lanes..(s - dst) * lanes]
                }
            };
            let x = &pq[axis * lanes..(axis + 1) * lanes];
            match *op {
                ROp::Mul { .. } => {
                    for ((o, &x), &a) in out.iter_mut().zip(x).zip(src(a)) {
                        *o = x * a;
                    }
                }
                ROp::MulAdd { f, b, .. } => {
                    for (((o, &x), &a), &b) in out.iter_mut().zip(x).zip(src(a)).zip(src(b)) {
                        *o = x * a + f * b;
                    }
                }
            }
        }
    }
}

/// The process-wide [`RPlan`] of order `l ≤ M_MAX`, built on first use.
pub(crate) fn r_plan(l: usize) -> &'static RPlan {
    static PLANS: [OnceLock<RPlan>; M_MAX + 1] = [const { OnceLock::new() }; M_MAX + 1];
    PLANS[l].get_or_init(|| RPlan::build(l))
}

/// Struct-of-arrays workspace of one recursion plan run over independent lanes
/// (one per primitive-pair combination of a quartet, or one per nucleus of a
/// one-electron primitive pair): `HermiteLanes::reset` sizes it,
/// `HermiteLanes::seed` writes every lane's `α`, `P − Q` and Boys values,
/// `HermiteLanes::run` runs the recursion across all lanes at once, and
/// `HermiteLanes::get` reads `R^{(0)}_{tuv}`. Lane `i` holds exactly the
/// bits [`r_integrals`] returns for its inputs, whatever the lane count and
/// its neighbours.
#[derive(Debug)]
pub struct HermiteLanes {
    plan: &'static RPlan,
    lanes: usize,
    /// `P − Q` per lane, component-major.
    pq: Vec<f64>,
    /// Every slot per lane, slot-major.
    r: Vec<f64>,
}

impl Default for HermiteLanes {
    fn default() -> Self {
        HermiteLanes {
            plan: r_plan(0),
            lanes: 0,
            pq: Vec::new(),
            r: Vec::new(),
        }
    }
}

impl HermiteLanes {
    /// Size the workspace for `lanes` lanes of order `l`: one `resize` per
    /// buffer, so nothing allocates once it has held the largest size. The
    /// old contents stay; every lane must be seeded before [`Self::run`].
    pub(crate) fn reset(&mut self, l: usize, lanes: usize) {
        self.plan = r_plan(l);
        self.lanes = lanes;
        self.pq.resize(3 * lanes, 0.0);
        self.r.resize(self.plan.slots * lanes, 0.0);
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Seed lane `lane`: `R^{(n)}_{000} = (−2α)^n F_n` from the Boys values
    /// `boys[..=l]`, and its separation `pq = P − Q`.
    #[inline]
    pub(crate) fn seed(&mut self, lane: usize, alpha: f64, pq: [f64; 3], boys: &[f64]) {
        let lanes = self.lanes;
        assert!(boys.len() >= self.plan.seeds.len(), "need F_0..F_l");
        for (k, x) in pq.into_iter().enumerate() {
            self.pq[k * lanes + lane] = x;
        }
        let mut pow = 1.0;
        for (&slot, &f) in self.plan.seeds.iter().zip(boys) {
            self.r[slot * lanes + lane] = pow * f;
            pow *= -2.0 * alpha;
        }
    }

    /// Run the recursion across every lane.
    pub(crate) fn run(&mut self) {
        self.plan.run(self.lanes, &self.pq, &mut self.r);
    }

    /// `R^{(0)}` of Hermite component `h` ([`hermite_components`] order) in
    /// every lane.
    #[inline]
    pub fn component(&self, h: usize) -> &[f64] {
        &self.r[h * self.lanes..(h + 1) * self.lanes]
    }

    /// `R^{(0)}` of Hermite component `h` in lane `lane`.
    #[inline]
    pub(crate) fn get(&self, h: usize, lane: usize) -> f64 {
        self.r[h * self.lanes + lane]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boys::boys_reference;
    use proptest::prelude::*;

    /// Lane inputs `(α, P − Q, F_0..F_M_MAX)` from unit draws: α over three
    /// decades, `P − Q` in a 6-bohr box with components that are exactly
    /// `0.0` or `−0.0` where `zeros` says so.
    fn lane_inputs(draws: &[f64], zeros: &[usize]) -> Vec<(f64, [f64; 3], Vec<f64>)> {
        draws
            .chunks_exact(4)
            .zip(zeros.chunks_exact(3))
            .map(|(d, z)| {
                let alpha = 0.05 * 1000f64.powf(d[0]);
                let pq: [f64; 3] = std::array::from_fn(|k| match z[k] {
                    0 => 0.0,
                    1 => -0.0,
                    _ => 6.0 * d[k + 1] - 3.0,
                });
                let mut boys = vec![0.0; M_MAX + 1];
                boys_reference(
                    M_MAX,
                    alpha * pq.iter().map(|x| x * x).sum::<f64>(),
                    &mut boys,
                );
                (alpha, pq, boys)
            })
            .collect()
    }

    /// One [`HermiteLanes`] run of order `l` over the given lanes.
    fn run_lanes(l: usize, inputs: &[&(f64, [f64; 3], Vec<f64>)]) -> HermiteLanes {
        let mut lanes = HermiteLanes::default();
        lanes.reset(l, inputs.len());
        for (lane, (alpha, pq, boys)) in inputs.iter().enumerate() {
            lanes.seed(lane, *alpha, *pq, boys);
        }
        lanes.run();
        lanes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4))]
        /// The flattened plan is the generic recursion bit for bit at every
        /// order, and a lane's bits do not depend on the lane count or on
        /// its neighbours: 81 lanes against `r_integrals`, then one lane and
        /// three reordered lanes of the same inputs against those 81.
        #[test]
        fn plan_is_the_generic_recursion_bit_for_bit_in_any_lane(
            draws in proptest::collection::vec(0.0f64..1.0, 324..325),
            zeros in proptest::collection::vec(0usize..6, 243..244),
        ) {
            let inputs = lane_inputs(&draws, &zeros);
            let all: Vec<_> = inputs.iter().collect();
            for l in 0..=M_MAX {
                let wide = run_lanes(l, &all);
                for (lane, (alpha, pq, boys)) in inputs.iter().enumerate() {
                    let reference = r_integrals(l, *alpha, *pq, &boys[..=l]);
                    for (h, x) in reference.iter().enumerate() {
                        prop_assert!(
                            wide.get(h, lane).to_bits() == x.to_bits(),
                            "l = {l}, lane {lane}, component {h}: {} vs {x}",
                            wide.get(h, lane)
                        );
                    }
                }
                for pick in [vec![42], vec![80, 0, 7]] {
                    let picked: Vec<_> = pick.iter().map(|&i| &inputs[i]).collect();
                    let narrow = run_lanes(l, &picked);
                    for (lane, &i) in pick.iter().enumerate() {
                        for h in 0..mako_chem::cart::nherm(l) {
                            prop_assert!(
                                narrow.get(h, lane).to_bits() == wide.get(h, i).to_bits(),
                                "l = {l}, lane {i} among {pick:?}, component {h}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn e00_is_gaussian_product_prefactor() {
        let (a, b, x) = (1.3, 0.7, 0.9);
        let e = ETable::new(0, 0, a, b, x);
        let mu = a * b / (a + b);
        assert!((e.get(0, 0, 0) - (-mu * x * x).exp()).abs() < 1e-15);
    }

    #[test]
    fn e_sum_rule_overlap() {
        // The 1D overlap ∫ G_i G_j dx = E_0^{ij} √(π/p). Check i=j=0 and the
        // translation-invariance property E_t^{ij}(x_ab) = parity flip under
        // x_ab → −x_ab with (i ↔ j).
        let (a, b, x) = (0.8, 1.9, -0.63);
        let e1 = ETable::new(3, 2, a, b, x);
        let e2 = ETable::new(2, 3, b, a, -x);
        for i in 0..=3 {
            for j in 0..=2 {
                for t in 0..=(i + j) {
                    assert!(
                        (e1.get(i, j, t) - e2.get(j, i, t)).abs() < 1e-13,
                        "swap symmetry i={i} j={j} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn e_derivative_consistency() {
        // d/dA_x E_0^{00} = 2a E_0^{10}? The first Hermite relation gives
        // E_0^{10} = X_PA E_0^{00}; check against finite differences of the
        // Gaussian product prefactor moment:
        // ∫ (x − A) e^{−a(x−A)²} e^{−b(x−B)²} dx = E_0^{10} √(π/p) with the
        // origin at A… instead verify the simplest analytic case directly:
        // for i=1, j=0: E_0^{10} = X_PA e^{−μ x²}, E_1^{10} = e^{−μ x²}/(2p).
        let (a, b, x) = (1.1, 0.4, 0.77);
        let p = a + b;
        let e = ETable::new(1, 0, a, b, x);
        let k = (-(a * b / p) * x * x).exp();
        let x_pa = -b * x / p;
        assert!((e.get(1, 0, 0) - x_pa * k).abs() < 1e-14);
        assert!((e.get(1, 0, 1) - k / (2.0 * p)).abs() < 1e-14);
    }

    #[test]
    fn e_matrix_shape_and_s_content() {
        let m = e_matrix(1, 1, 0.9, 1.4, [0.3, -0.2, 0.5]);
        // 3×3 cart pairs × nherm(2)=10 columns.
        assert_eq!(m.len(), 9 * 10);
        // Row (x,x): only t-components along x and the scalar can be nonzero.
        // Column for (0,1,0) (index 2 in hermite ordering of l=2:
        // degree0:(000); degree1:(100),(010),(001) → index 2 is (010)).
        let row_xx = 0usize;
        assert_eq!(m[row_xx * 10 + 2], 0.0);
        assert_eq!(m[row_xx * 10 + 3], 0.0);
        assert!(m[row_xx * 10] != 0.0);
    }

    #[test]
    fn r000_seed_and_symmetry() {
        let l = 4;
        let alpha = 0.8;
        let pq = [0.0, 0.0, 0.0];
        let mut boys = vec![0.0; l + 1];
        boys_reference(l, 0.0, &mut boys);
        let r = r_integrals(l, alpha, pq, &boys);
        // At PQ = 0, odd-degree R vanish.
        let herm = mako_chem::cart::hermite_components(l);
        for (i, &(t, u, v)) in herm.iter().enumerate() {
            if (t + u + v) % 2 == 1 {
                assert_eq!(r[i], 0.0, "odd component ({t},{u},{v})");
            }
        }
        assert!((r[0] - 1.0).abs() < 1e-15); // F_0(0) = 1
    }

    #[test]
    fn r_matches_finite_difference_derivative() {
        // R_{100} = ∂/∂PQ_x R_{000} evaluated as a derivative of
        // F_0(α|PQ|²) — check with central differences.
        let l = 2;
        let alpha = 0.9;
        let pq = [0.4, -0.3, 0.8];
        let t_of = |q: [f64; 3]| alpha * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]);
        let f0 = |q: [f64; 3]| {
            let mut b = vec![0.0; 1];
            boys_reference(0, t_of(q), &mut b);
            b[0]
        };
        let h = 1e-5;
        let mut qp = pq;
        qp[0] += h;
        let mut qm = pq;
        qm[0] -= h;
        let fd = (f0(qp) - f0(qm)) / (2.0 * h);

        let mut boys = vec![0.0; l + 1];
        boys_reference(l, t_of(pq), &mut boys);
        let r = r_integrals(l, alpha, pq, &boys);
        // hermite ordering for l=2: index 1 = (100).
        assert!((r[1] - fd).abs() < 1e-8, "R100 {} vs fd {}", r[1], fd);
    }

    #[test]
    fn r_second_derivative() {
        // R_{200} = ∂²/∂PQ_x² F_0.
        let alpha = 1.2;
        let pq = [0.25, 0.6, -0.45];
        let t_of = |q: [f64; 3]| alpha * (q[0] * q[0] + q[1] * q[1] + q[2] * q[2]);
        let f0 = |q: [f64; 3]| {
            let mut b = [0.0];
            boys_reference(0, t_of(q), &mut b);
            b[0]
        };
        let h = 1e-4;
        let mut qp = pq;
        qp[0] += h;
        let mut qm = pq;
        qm[0] -= h;
        let fd2 = (f0(qp) - 2.0 * f0(pq) + f0(qm)) / (h * h);
        let mut boys = vec![0.0; 3];
        boys_reference(2, t_of(pq), &mut boys);
        let r = r_integrals(2, alpha, pq, &boys);
        // l=2 hermite ordering: degree2 starts at index 4: (200),(110),(101),(020),(011),(002)
        assert!((r[4] - fd2).abs() < 1e-5, "R200 {} vs fd {}", r[4], fd2);
    }
}
