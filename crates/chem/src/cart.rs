//! Cartesian monomial bookkeeping for Gaussian shells.
//!
//! A Cartesian shell of angular momentum `l` spans the monomials
//! `x^a y^b z^c` with `a + b + c = l`; a spherical shell spans `2l + 1` real
//! solid harmonics; the Hermite intermediates of the McMurchie–Davidson
//! scheme span all `(t, u, v)` with `t + u + v ≤ L`.

/// Number of Cartesian components of a shell: `(l+1)(l+2)/2`.
pub const fn ncart(l: usize) -> usize {
    (l + 1) * (l + 2) / 2
}

/// Number of spherical components of a shell: `2l + 1`.
pub const fn nsph(l: usize) -> usize {
    2 * l + 1
}

/// Number of Hermite components with total degree ≤ `l`:
/// `(l+1)(l+2)(l+3)/6`.
pub const fn nherm(l: usize) -> usize {
    (l + 1) * (l + 2) * (l + 3) / 6
}

/// The Cartesian exponent triples `(a, b, c)` of a shell of angular momentum
/// `l`, in the canonical ordering `a` descending, then `b` descending.
///
/// For `l = 1` this yields `[(1,0,0), (0,1,0), (0,0,1)]` — i.e. x, y, z.
pub fn cart_components(l: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::with_capacity(ncart(l));
    for a in (0..=l).rev() {
        for b in (0..=(l - a)).rev() {
            out.push((a, b, l - a - b));
        }
    }
    out
}

/// The Hermite index triples `(t, u, v)` with `t + u + v ≤ l`, ordered by
/// total degree then canonically within a degree. Index 0 is always
/// `(0,0,0)`.
pub fn hermite_components(l: usize) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::with_capacity(nherm(l));
    for deg in 0..=l {
        out.extend(cart_components(deg));
    }
    out
}

/// Cached, shared [`hermite_components`] for per-primitive hot loops (the
/// Hermite-to-spherical transforms rebuild the same triple list for every
/// primitive pair otherwise). Built lazily once per `l`.
pub fn hermite_components_cached(l: usize) -> &'static [(usize, usize, usize)] {
    use std::sync::OnceLock;
    /// Beyond any angular momentum the engine can produce (4 shells × g).
    const L_CAP: usize = 32;
    type Slot = OnceLock<Vec<(usize, usize, usize)>>;
    static CACHE: OnceLock<Vec<Slot>> = OnceLock::new();
    assert!(l <= L_CAP, "hermite order beyond cache capacity");
    let slots = CACHE.get_or_init(|| (0..=L_CAP).map(|_| OnceLock::new()).collect());
    slots[l].get_or_init(|| hermite_components(l))
}

/// Inverse map for Hermite components: `(t,u,v)` → flat index, valid for all
/// triples with `t+u+v ≤ l_max` used to build it.
pub fn hermite_index_map(l_max: usize) -> std::collections::HashMap<(usize, usize, usize), usize> {
    hermite_components(l_max)
        .into_iter()
        .enumerate()
        .map(|(i, t)| (t, i))
        .collect()
}

/// Double factorial `n!! = n (n−2) (n−4) …` with `(−1)!! = 0!! = 1`.
pub(crate) fn double_factorial(n: i64) -> f64 {
    if n <= 0 {
        1.0
    } else {
        let mut acc = 1.0;
        let mut k = n;
        while k > 1 {
            acc *= k as f64;
            k -= 2;
        }
        acc
    }
}

/// Angular-momentum letter (s, p, d, f, g, h, i) for display.
pub fn l_letter(l: usize) -> char {
    const LETTERS: [char; 7] = ['s', 'p', 'd', 'f', 'g', 'h', 'i'];
    LETTERS.get(l).copied().unwrap_or('?')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        assert_eq!(ncart(0), 1);
        assert_eq!(ncart(1), 3);
        assert_eq!(ncart(2), 6);
        assert_eq!(ncart(3), 10);
        assert_eq!(ncart(4), 15);
        assert_eq!(nsph(0), 1);
        assert_eq!(nsph(4), 9);
        assert_eq!(nherm(0), 1);
        assert_eq!(nherm(2), 10);
        assert_eq!(nherm(4), 35);
        assert_eq!(nherm(8), 165);
    }

    #[test]
    fn component_lists_are_consistent() {
        for l in 0..=6 {
            let cc = cart_components(l);
            assert_eq!(cc.len(), ncart(l));
            for &(a, b, c) in &cc {
                assert_eq!(a + b + c, l);
            }
            let hc = hermite_components(l);
            assert_eq!(hc.len(), nherm(l));
            assert_eq!(hc[0], (0, 0, 0));
            // No duplicates.
            let set: std::collections::HashSet<_> = hc.iter().collect();
            assert_eq!(set.len(), hc.len());
        }
    }

    #[test]
    fn p_shell_ordering_is_xyz() {
        assert_eq!(cart_components(1), vec![(1, 0, 0), (0, 1, 0), (0, 0, 1)]);
    }

    #[test]
    fn hermite_index_map_inverts() {
        let map = hermite_index_map(5);
        for (i, t) in hermite_components(5).iter().enumerate() {
            assert_eq!(map[t], i);
        }
    }

    #[test]
    fn double_factorials() {
        assert_eq!(double_factorial(-1), 1.0);
        assert_eq!(double_factorial(0), 1.0);
        assert_eq!(double_factorial(1), 1.0);
        assert_eq!(double_factorial(5), 15.0);
        assert_eq!(double_factorial(6), 48.0);
        assert_eq!(double_factorial(7), 105.0);
    }

    #[test]
    fn letters() {
        assert_eq!(l_letter(0), 's');
        assert_eq!(l_letter(4), 'g');
    }
}
