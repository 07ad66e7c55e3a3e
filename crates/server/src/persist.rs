//! On-disk codec for the persistent artifact cache.
//!
//! One driver-construction artifact survives process restarts through the
//! [`mako_store::ArtifactStore`]: the **screened shell-pair list**
//! (`kind = "screen"`, keyed by `ArtifactKey::content_hash`) — the
//! Schwarz-screening output, including the precomputed
//! [`ShellPairData`] tensors, so a warm restart skips the O(nshell²)
//! screening pass entirely. (Tuned kernels are not persisted: re-tuning one
//! costs microseconds.)
//!
//! The artifact is a pure cache of a deterministic computation: a decoded
//! list is bitwise the recomputed one, so consuming it can never change
//! results — every `f64` travels as [`f64::to_bits`] through the store's
//! [`ByteWriter`]/[`ByteReader`]. A payload that does not decode exactly is
//! treated by the [`ArtifactStore`](mako_store::ArtifactStore) caller like
//! any other corrupt artifact — quarantine and recompute.

use mako_eri::mmd::{PrimPair, ShellPairData};
use mako_eri::screening::ScreenedPair;
use mako_linalg::{transpose_extend, Matrix};
use mako_store::{ByteReader, ByteWriter};

/// Fixed bytes of one encoded pair (eight `u64` fields) and of one
/// primitive (exponent, centre, matrix shape) — the floor a length prefix
/// is checked against before anything is allocated.
const MIN_PAIR_BYTES: usize = 64;
const MIN_PRIM_BYTES: usize = 48;

/// Encode a screened pair list.
pub(crate) fn encode_pairs(pairs: &[ScreenedPair]) -> Vec<u8> {
    let mut out = ByteWriter::with_capacity(64 + pairs.len() * 128);
    out.u64(pairs.len() as u64);
    let mut e_sph = Vec::new();
    for p in pairs {
        out.u64(p.i as u64);
        out.u64(p.j as u64);
        out.f64(p.bound);
        out.u64(p.data.la as u64);
        out.u64(p.data.lb as u64);
        out.u64(p.data.nsph_pair as u64);
        out.u64(p.data.nherm as u64);
        out.u64(p.data.prims.len() as u64);
        let (ns, nh) = (p.data.nsph_pair, p.data.nherm);
        for (k, prim) in p.data.prims.iter().enumerate() {
            out.f64(prim.p);
            for &c in &prim.center {
                out.f64(c);
            }
            // On disk a primitive's E is `nsph_pair × nherm`; in memory the
            // pair holds it transposed, as block `k` of its stack.
            e_sph.clear();
            transpose_extend(p.data.e_block(k), nh, ns, &mut e_sph);
            out.matrix(ns, nh, &e_sph);
        }
    }
    out.into_bytes()
}

/// Decode a screened pair list. `None` on any structural mismatch — the
/// caller quarantines and recomputes.
pub(crate) fn decode_pairs(bytes: &[u8]) -> Option<Vec<ScreenedPair>> {
    let mut r = ByteReader::new(bytes);
    let n = r.count(MIN_PAIR_BYTES)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let i = r.usize()?;
        let j = r.usize()?;
        let bound = r.f64()?;
        let la = r.usize()?;
        let lb = r.usize()?;
        let nsph_pair = r.usize()?;
        let nherm = r.usize()?;
        let nprims = r.count(MIN_PRIM_BYTES)?;
        let mut prims = Vec::with_capacity(nprims);
        let mut stack = Vec::new();
        for _ in 0..nprims {
            let p = r.f64()?;
            let center = [r.f64()?, r.f64()?, r.f64()?];
            let (rows, cols, e_sph) = r.matrix()?;
            if (rows, cols) != (nsph_pair, nherm) {
                return None;
            }
            transpose_extend(&e_sph, nsph_pair, nherm, &mut stack);
            prims.push(PrimPair { p, center });
        }
        pairs.push(ScreenedPair {
            i,
            j,
            data: ShellPairData {
                la,
                lb,
                e: Matrix::from_vec(prims.len() * nherm, nsph_pair, stack),
                prims,
                nsph_pair,
                nherm,
            },
            bound,
        });
    }
    r.done().then_some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mako_chem::builders;
    use mako_eri::screening::build_screened_pairs;

    fn water_pairs() -> Vec<ScreenedPair> {
        let mol = builders::water();
        let elements: Vec<_> = mol.atoms.iter().map(|a| a.element).collect();
        let basis = mako_chem::BasisFamily::Sto3g.basis_for(&elements);
        let shells = basis.shells_for(&mol);
        build_screened_pairs(&shells, 1e-12)
    }

    #[test]
    fn pairs_roundtrip_bitwise() {
        let pairs = water_pairs();
        assert!(!pairs.is_empty());
        let bytes = encode_pairs(&pairs);
        // The "screen" artifact byte image is pinned (FNV-1a). Regenerated when
        // the FP64 quartet moved to table Boys values and stacked transforms
        // (QUARTET_NUMERICS_VERSION 1): 5 of the 15 Schwarz bounds moved by one
        // ulp, every E block kept its bytes and its on-disk layout.
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (18104, 0xd988_7c30_d254_6599), "screen artifact byte image moved");
        let back = decode_pairs(&bytes).expect("decode");
        assert_eq!(back.len(), pairs.len());
        for (a, b) in pairs.iter().zip(&back) {
            assert_eq!((a.i, a.j), (b.i, b.j));
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
            assert_eq!(a.data.prims.len(), b.data.prims.len());
            for (pa, pb) in a.data.prims.iter().zip(&b.data.prims) {
                assert_eq!(pa.p.to_bits(), pb.p.to_bits());
            }
            assert_eq!((a.data.e.rows(), a.data.e.cols()), (b.data.e.rows(), b.data.e.cols()));
            for (x, y) in a.data.e.as_slice().iter().zip(b.data.e.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "bitwise matrix payload");
            }
        }
    }

    #[test]
    fn truncated_or_padded_pairs_fail_closed() {
        let bytes = encode_pairs(&water_pairs());
        for cut in [1, 7, 8, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                decode_pairs(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_pairs(&padded).is_none(), "trailing bytes must fail");
        // An absurd length prefix must fail fast, not allocate.
        let mut huge = bytes;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_pairs(&huge).is_none());
    }
}
