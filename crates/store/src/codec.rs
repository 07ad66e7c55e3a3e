//! The one little-endian byte writer/reader under every persisted format:
//! `MAKOCKPT` checkpoints, write-ahead journal records, "screen" artifacts
//! and this crate's own frames.
//!
//! `f64` values travel as [`f64::to_bits`], never text, so a round trip is
//! bit-exact. The reader treats its input as hostile: every offset is
//! `checked_add`, every length prefix is checked against the bytes that
//! remain *before* anything is allocated, and a decoder finishes by asking
//! [`ByteReader::done`] whether the input was consumed exactly — so a
//! corrupt count can neither index out of bounds, overflow, nor reserve
//! memory the input could not fill.

/// Appends little-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct ByteWriter(Vec<u8>);

impl ByteWriter {
    /// An empty writer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> ByteWriter {
        ByteWriter(Vec::with_capacity(capacity))
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`, as its bits.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Raw bytes, no prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }

    /// A `u64` length prefix, then the bytes.
    pub fn len_bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.bytes(v);
    }

    /// A `u64` length prefix, then the values.
    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    /// A row-major matrix: `rows`, `cols`, then `rows × cols` values.
    pub fn matrix(&mut self, rows: usize, cols: usize, data: &[f64]) {
        debug_assert_eq!(rows * cols, data.len());
        self.u64(rows as u64);
        self.u64(cols as u64);
        for &x in data {
            self.f64(x);
        }
    }

    /// The bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }
}

/// Reads what [`ByteWriter`] wrote; every method is `None` once the input
/// runs short.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes consumed so far.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the input was consumed exactly — trailing bytes mean the
    /// payload is not what the writer wrote.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// The next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A `u64` that must fit the host's `usize`.
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// An `f64` from its bits.
    pub fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64()?))
    }

    /// A `u64` element count whose elements each occupy at least
    /// `min_elem_bytes` (> 0) of the input: `None` unless that many bytes
    /// remain, so the count is safe to pre-allocate.
    pub fn count(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        (n.checked_mul(min_elem_bytes)? <= self.remaining()).then_some(n)
    }

    /// A `u64` length prefix, then that many bytes.
    pub fn len_bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.usize()?;
        self.take(n)
    }

    /// A `u64` length prefix, then that many values.
    pub fn f64s(&mut self) -> Option<Vec<f64>> {
        let n = self.count(8)?;
        self.f64_run(n)
    }

    /// A row-major matrix as `(rows, cols, data)`.
    pub fn matrix(&mut self) -> Option<(usize, usize, Vec<f64>)> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let data = self.f64_run(rows.checked_mul(cols)?)?;
        Some((rows, cols, data))
    }

    fn f64_run(&mut self, n: usize) -> Option<Vec<f64>> {
        let raw = self.take(n.checked_mul(8)?)?;
        Some(
            raw.chunks_exact(8)
                .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_field_kind_roundtrips_and_is_consumed_exactly() {
        let mut w = ByteWriter::with_capacity(64);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.0);
        w.len_bytes(b"abc");
        w.f64s(&[1.5, f64::INFINITY]);
        w.matrix(2, 1, &[0.25, -3.0]);
        w.u64(2);
        w.bytes(&[9, 9]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u32(), Some(0xDEAD_BEEF));
        assert_eq!(r.u64(), Some(u64::MAX - 1));
        assert_eq!(r.f64().map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(r.len_bytes(), Some(&b"abc"[..]));
        assert_eq!(r.f64s(), Some(vec![1.5, f64::INFINITY]));
        assert_eq!(r.matrix(), Some((2, 1, vec![0.25, -3.0])));
        assert!(!r.done());
        assert_eq!(r.count(1), Some(2));
        assert_eq!((r.pos(), r.remaining()), (bytes.len() - 2, 2));
        assert_eq!(r.take(2), Some(&[9u8, 9][..]));
        assert!(r.done());
        assert_eq!(r.u8(), None, "reads past the end fail, they do not panic");
    }

    #[test]
    fn inflated_lengths_fail_before_any_allocation() {
        // Each prefix claims more than the input holds — up to u64::MAX,
        // where an unchecked `pos + n` or `n * 8` would overflow.
        for claimed in [17u64, 1 << 28, u64::MAX / 8, u64::MAX] {
            let mut w = ByteWriter::default();
            w.u64(claimed);
            w.bytes(&[0; 16]);
            let bytes = w.into_bytes();
            assert_eq!(ByteReader::new(&bytes).len_bytes(), None, "{claimed} bytes in 16");
            assert_eq!(ByteReader::new(&bytes).f64s(), None, "{claimed} f64s in 16 bytes");
            assert_eq!(ByteReader::new(&bytes).count(8), None);
            let mut w = ByteWriter::default();
            w.u64(claimed);
            w.u64(claimed);
            w.bytes(&[0; 16]);
            assert_eq!(ByteReader::new(&w.into_bytes()).matrix(), None, "{claimed}² matrix");
        }
    }
}
