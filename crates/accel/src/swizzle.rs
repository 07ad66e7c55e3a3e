//! The XOR layout swizzle of KernelMako §3.1.2 and a shared-memory
//! bank-conflict model.
//!
//! KernelMako needs the `pq` integrals in a *blocked layout* for the GEMM
//! while they are produced in a *striped layout* for coalescing. The paper's
//! lightweight fix transposes in shared memory using the bijection
//! `(x_p, y_p) = (x_l ⊕ y_l, y_l)` (Eq. 10), which places every column of a
//! tile in distinct banks so that both row-wise and column-wise accesses are
//! conflict-free.
//!
//! This module implements the mapping and a bank-conflict *counter*: given an
//! access pattern over a tile, it reports the conflict degree (max number of
//! simultaneous accesses hitting one bank within a warp), which the cost
//! model turns into a shared-memory stage slowdown for unswizzled kernels.

use std::sync::OnceLock;

/// The XOR swizzle bijection of Eq. (10): logical `(x, y)` → physical
/// `(x ⊕ y, y)`. `width` must be a power of two; the XOR is taken modulo the
/// row width so the mapping stays within the tile.
#[inline]
pub fn swizzle_xor(x_logical: usize, y_logical: usize, width: usize) -> (usize, usize) {
    debug_assert!(width.is_power_of_two(), "swizzle width must be a power of two");
    ((x_logical ^ y_logical) & (width - 1), y_logical)
}

/// Shared-memory layouts a tile can use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SmemLayout {
    /// Row-major as produced (striped across threads).
    Linear,
    /// XOR-swizzled per Eq. (10).
    Swizzled,
}

impl SmemLayout {
    /// Slowdown of the r→pq transpose stage under this layout relative to
    /// the swizzled one — the cost model's `bank_conflict_factor`. Defined by
    /// [`avg_column_conflict`] on the 32×32 f64 tile a warp transposes over
    /// 32 banks; that simulation runs once per process, so pricing a launch
    /// never repeats it.
    pub fn conflict_ratio(self) -> f64 {
        static RATIOS: OnceLock<[f64; 2]> = OnceLock::new();
        let degree = |layout| avg_column_conflict(layout, 32, 32, 8, 32).max(1.0);
        RATIOS.get_or_init(|| {
            [SmemLayout::Linear, SmemLayout::Swizzled]
                .map(|layout| degree(layout) / degree(SmemLayout::Swizzled))
        })[self as usize]
    }
}

/// Most banks [`bank_conflict_degree`] models (NVIDIA hardware has 32).
pub const MAX_BANKS: usize = 64;

/// Conflict degree for a warp of `warp` threads accessing *column* `col` of a
/// `width`-wide tile of `elem_bytes`-sized elements under the given layout,
/// on hardware with `banks` 4-byte banks.
///
/// Returns the maximum number of threads mapped to the same bank — 1 means
/// conflict-free, `warp` means fully serialized. Panics if `banks` exceeds
/// [`MAX_BANKS`] (the counts live on the stack).
pub fn bank_conflict_degree(
    layout: SmemLayout,
    width: usize,
    col: usize,
    warp: usize,
    elem_bytes: usize,
    banks: usize,
) -> usize {
    assert!(banks <= MAX_BANKS, "{banks} banks exceed the modeled {MAX_BANKS}");
    let words_per_elem = elem_bytes.div_ceil(4);
    let mut counts = [0usize; MAX_BANKS];
    for row in 0..warp {
        let (x, y) = match layout {
            SmemLayout::Linear => (col, row),
            SmemLayout::Swizzled => swizzle_xor(col, row, width),
        };
        // Address of element (x, y) in a row-major tile, in 4-byte words.
        let word = (y * width + x) * words_per_elem;
        // An f64 element occupies two consecutive banks; count the first
        // (hardware broadcasts across the pair in the same transaction).
        counts[word % banks] += 1;
    }
    counts.into_iter().max().unwrap_or(1).max(1)
}

/// Average conflict degree over all columns of a tile — the factor by which
/// an unswizzled transpose stage slows down relative to conflict-free access.
pub fn avg_column_conflict(layout: SmemLayout, width: usize, warp: usize, elem_bytes: usize, banks: usize) -> f64 {
    let total: usize = (0..width)
        .map(|c| bank_conflict_degree(layout, width, c, warp, elem_bytes, banks))
        .sum();
    total as f64 / width as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn swizzle_is_bijective() {
        for &w in &[8usize, 16, 32, 64] {
            let mut seen = HashSet::new();
            for y in 0..w {
                for x in 0..w {
                    let p = swizzle_xor(x, y, w);
                    assert!(p.0 < w && p.1 < w, "stays in domain");
                    assert!(seen.insert(p), "collision at {:?}", (x, y));
                }
            }
            assert_eq!(seen.len(), w * w);
        }
    }

    #[test]
    fn swizzle_preserves_rows() {
        // Condition (2) of the paper: y is unchanged, so row membership (and
        // thus row-wise coalescing) is preserved.
        for y in 0..32 {
            for x in 0..32 {
                assert_eq!(swizzle_xor(x, y, 32).1, y);
            }
        }
    }

    #[test]
    fn swizzle_is_involutive_on_x() {
        // Applying the map twice restores the logical coordinate.
        for y in 0..16 {
            for x in 0..16 {
                let (xp, yp) = swizzle_xor(x, y, 16);
                let (xb, yb) = swizzle_xor(xp, yp, 16);
                assert_eq!((xb, yb), (x, y));
            }
        }
    }

    #[test]
    fn linear_column_access_conflicts_heavily() {
        // A 32-wide f64 tile: column access with stride 32*2 words hits a
        // 64-word period → every other bank → degree 2 per 32 banks... in
        // fact stride 64 words ≡ 0 mod 32 banks: all 32 threads hit the SAME
        // bank → degree 32? stride 64 % 32 = 0 → degree = warp.
        let d = bank_conflict_degree(SmemLayout::Linear, 32, 0, 32, 8, 32);
        assert_eq!(d, 32, "fully serialized column reads");
    }

    #[test]
    fn swizzled_column_access_is_conflict_free_fp32() {
        // 32-wide f32 tile (one word per element): swizzle spreads a column
        // across all 32 banks.
        for col in 0..32 {
            let d = bank_conflict_degree(SmemLayout::Swizzled, 32, col, 32, 4, 32);
            assert_eq!(d, 1, "col {col}");
        }
    }

    #[test]
    fn swizzled_column_access_fp64() {
        // f64 elements span 2 words; with 32 banks a 32-row column touches
        // each bank pair once → degree ≤ 2 (hardware issues 2 phases for
        // 64-bit accesses anyway, so 2 is the conflict-free optimum here).
        for col in 0..32 {
            let d = bank_conflict_degree(SmemLayout::Swizzled, 32, col, 32, 8, 32);
            assert!(d <= 2, "col {col} degree {d}");
        }
    }

    #[test]
    fn average_conflict_orders_layouts() {
        let lin = avg_column_conflict(SmemLayout::Linear, 32, 32, 8, 32);
        let swz = avg_column_conflict(SmemLayout::Swizzled, 32, 32, 8, 32);
        assert!(
            swz * 4.0 < lin,
            "swizzle should slash conflicts: linear {lin}, swizzled {swz}"
        );
    }

    #[test]
    fn conflict_ratio_is_the_column_simulation_bit_for_bit() {
        // The hoisted per-layout constant against its definition: the ratio
        // `batch_profiles` used to recompute on every call.
        for layout in [SmemLayout::Linear, SmemLayout::Swizzled] {
            let oracle = avg_column_conflict(layout, 32, 32, 8, 32).max(1.0)
                / avg_column_conflict(SmemLayout::Swizzled, 32, 32, 8, 32).max(1.0);
            assert_eq!(layout.conflict_ratio().to_bits(), oracle.to_bits(), "{layout:?}");
        }
        assert_eq!(SmemLayout::Swizzled.conflict_ratio(), 1.0);
        assert!(SmemLayout::Linear.conflict_ratio() > 4.0);
    }

    #[test]
    fn row_access_is_conflict_free_in_both_layouts() {
        // Row-major row access: consecutive words → distinct banks.
        for &layout in &[SmemLayout::Linear, SmemLayout::Swizzled] {
            let mut counts = vec![0usize; 32];
            for x in 0..32usize {
                let (xp, yp) = match layout {
                    SmemLayout::Linear => (x, 5),
                    SmemLayout::Swizzled => swizzle_xor(x, 5, 32),
                };
                counts[(yp * 32 + xp) % 32] += 1;
            }
            assert_eq!(*counts.iter().max().unwrap(), 1, "{layout:?}");
        }
    }
}
