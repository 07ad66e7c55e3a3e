//! A minimal dense rank-4 tensor for shell-quartet ERI blocks.

/// Dense rank-4 tensor, row-major in the order `(i, j, k, l)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor4 {
    /// Extents of the four axes.
    pub dims: [usize; 4],
    /// Row-major storage.
    pub data: Vec<f64>,
}

impl Tensor4 {
    /// Zero tensor of the given shape.
    pub fn zeros(dims: [usize; 4]) -> Tensor4 {
        Tensor4 {
            dims,
            data: vec![0.0; dims.iter().product()],
        }
    }

    /// Reshape in place to `dims` and zero the contents, reusing the
    /// existing allocation when it is large enough — the buffer-reuse hook
    /// of the batched pipelines.
    pub fn reset(&mut self, dims: [usize; 4]) {
        self.dims = dims;
        self.data.clear();
        self.data.resize(dims.iter().product(), 0.0);
    }

    /// Flat index of `(i, j, k, l)`.
    #[inline]
    pub(crate) fn index(&self, i: usize, j: usize, k: usize, l: usize) -> usize {
        debug_assert!(i < self.dims[0] && j < self.dims[1] && k < self.dims[2] && l < self.dims[3]);
        ((i * self.dims[1] + j) * self.dims[2] + k) * self.dims[3] + l
    }

    /// Read element `(i, j, k, l)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize, k: usize, l: usize) -> f64 {
        self.data[self.index(i, j, k, l)]
    }

    /// Write element `(i, j, k, l)`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, k: usize, l: usize, v: f64) {
        let idx = self.index(i, j, k, l);
        self.data[idx] = v;
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, x| m.max(x.abs()))
    }

    /// Largest absolute difference against another tensor of the same shape.
    pub fn max_abs_diff(&self, other: &Tensor4) -> f64 {
        assert_eq!(self.dims, other.dims);
        self.data
            .iter()
            .zip(&other.data)
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor4::zeros([2, 3, 4, 5]);
        assert_eq!(t.data.len(), 120);
        t.set(1, 2, 3, 4, 7.5);
        assert_eq!(t.get(1, 2, 3, 4), 7.5);
        assert_eq!(t.get(0, 0, 0, 0), 0.0);
        assert_eq!(t.index(1, 2, 3, 4), 119);
    }

    #[test]
    fn diff_and_max() {
        let mut a = Tensor4::zeros([2, 2, 2, 2]);
        let b = Tensor4::zeros([2, 2, 2, 2]);
        a.set(0, 1, 0, 1, -3.0);
        assert_eq!(a.max_abs(), 3.0);
        assert_eq!(a.max_abs_diff(&b), 3.0);
    }
}
