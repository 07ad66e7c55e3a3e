//! Row-major dense matrix of `f64`.

/// A dense, row-major matrix of `f64`.
///
/// Element `(i, j)` lives at `data[i * cols + j]`. The type is deliberately
/// simple — a length-checked `Vec` with shape — because the performance-
/// critical paths (GEMM, eigensolver) operate on the raw slice directly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Append the transpose of the row-major `rows × cols` matrix `src` to `dst`
/// (as `cols` rows of `rows` values).
pub fn transpose_extend(src: &[f64], rows: usize, cols: usize, dst: &mut Vec<f64>) {
    assert_eq!(src.len(), rows * cols, "buffer length != rows*cols");
    for j in 0..cols {
        dst.extend((0..rows).map(|i| src[i * cols + j]));
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The `n × n` identity.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from an existing row-major buffer. Panics if the buffer length
    /// does not equal `rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "buffer length != rows*cols");
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(i, j)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Reshape in place to `rows × cols` and zero-fill, reusing the backing
    /// allocation — the scratch-reuse primitive for per-quartet hot loops.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Reshape in place to `rows × cols` *without* clearing: elements the old
    /// shape already held keep whatever they were. For scratch operands whose
    /// every element the caller is about to overwrite.
    pub fn reshape(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// The backing row-major buffer, by value.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Immutable view of the backing row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the backing row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Elementwise sum. Panics on shape mismatch.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Elementwise difference. Panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `self += alpha * other`, in place. Panics on shape mismatch.
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scale every element by `alpha`, returning a new matrix.
    pub fn scale(&self, alpha: f64) -> Matrix {
        let data = self.data.iter().map(|x| alpha * x).collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Scale in place.
    pub fn scale_mut(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Matrix-vector product `self * x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        let mut y = vec![0.0; self.rows];
        for (i, yi) in y.iter_mut().enumerate() {
            let row = self.row(i);
            let mut s = 0.0;
            for (a, b) in row.iter().zip(x) {
                s += a * b;
            }
            *yi = s;
        }
        y
    }

    /// Trace (sum of diagonal). Panics if not square.
    #[cfg(test)]
    pub(crate) fn trace(&self) -> f64 {
        assert!(self.is_square());
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius inner product `tr(selfᵀ other)` — used for `E = Σ D (H+F)`.
    pub fn dot(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.iter().zip(&other.data).map(|(a, b)| a * b).sum()
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute element.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Whether every element is finite (no NaN/Inf). `max_abs` cannot be
    /// used for this check: `f64::max` ignores NaN operands.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Force exact symmetry by averaging with the transpose (used after
    /// numerically-symmetric builds like Fock assembly).
    pub fn symmetrize(&mut self) {
        assert!(self.is_square());
        for i in 0..self.rows {
            for j in 0..i {
                let avg = 0.5 * (self[(i, j)] + self[(j, i)]);
                self[(i, j)] = avg;
                self[(j, i)] = avg;
            }
        }
    }

    /// Maximum asymmetry `max |A_ij − A_ji|`.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square());
        let mut m = 0.0f64;
        for i in 0..self.rows {
            for j in 0..i {
                m = m.max((self[(i, j)] - self[(j, i)]).abs());
            }
        }
        m
    }

    /// Copy a rectangular block of `other` into `self` at `(row0, col0)`.
    pub fn set_block(&mut self, row0: usize, col0: usize, other: &Matrix) {
        assert!(row0 + other.rows <= self.rows && col0 + other.cols <= self.cols);
        for i in 0..other.rows {
            let src = other.row(i);
            let dst = &mut self.data
                [(row0 + i) * self.cols + col0..(row0 + i) * self.cols + col0 + other.cols];
            dst.copy_from_slice(src);
        }
    }

    /// Extract the block `[row0..row0+nr) × [col0..col0+nc)`.
    #[cfg(test)]
    pub(crate) fn block(&self, row0: usize, col0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(row0 + nr <= self.rows && col0 + nc <= self.cols);
        Matrix::from_fn(nr, nc, |i, j| self[(row0 + i, col0 + j)])
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                write!(f, "{:>12.6} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m[(1, 2)], 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_fn(3, 5, |i, j| (i + 7 * j) as f64 * 0.5);
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(4, 2)], m[(2, 4)]);
    }

    #[test]
    fn arithmetic() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Matrix::identity(2);
        let c = a.add(&b);
        assert_eq!(c[(0, 0)], 1.0);
        assert_eq!(c[(1, 1)], 3.0);
        assert_eq!(a.sub(&a).norm_fro(), 0.0);
        let mut d = a.clone();
        d.axpy(2.0, &b);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(0, 1)], 1.0);
    }

    #[test]
    fn matvec_matches_manual() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let y = m.matvec(&[1.0, 0.0, -1.0]);
        assert_eq!(y, vec![-2.0, -2.0]);
    }

    #[test]
    fn trace_and_dot() {
        let a = Matrix::from_fn(3, 3, |i, j| if i == j { 2.0 } else { 1.0 });
        assert_eq!(a.trace(), 6.0);
        assert_eq!(Matrix::identity(3).dot(&a), 6.0);
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        assert!(m.asymmetry() > 0.0);
        m.symmetrize();
        assert_eq!(m.asymmetry(), 0.0);
    }

    #[test]
    fn block_roundtrip() {
        let m = Matrix::from_fn(5, 6, |i, j| (i * 6 + j) as f64);
        let b = m.block(1, 2, 3, 2);
        assert_eq!(b[(0, 0)], m[(1, 2)]);
        let mut z = Matrix::zeros(5, 6);
        z.set_block(1, 2, &b);
        assert_eq!(z[(3, 3)], m[(3, 3)]);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    #[should_panic]
    fn from_vec_rejects_bad_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }
}
