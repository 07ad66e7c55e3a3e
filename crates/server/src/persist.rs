//! On-disk codecs for the persistent artifact cache.
//!
//! Two driver-construction artifacts survive process restarts through the
//! [`mako_store::ArtifactStore`]:
//!
//! * **Screened shell-pair lists** (`kind = "screen"`, keyed by
//!   [`ArtifactKey::content_hash`](crate::cache::ArtifactKey::content_hash))
//!   — the Schwarz-screening output, including the precomputed
//!   [`ShellPairData`] tensors, so a warm restart skips the O(nshell²)
//!   screening pass entirely.
//! * **The tuned-kernel table** (`kind = "kernels"`, fixed key
//!   [`KERNELS_KEY`]) — every `(EriClass, Precision, DeviceKind)` winner the
//!   tuner has memoized, seeded back into the
//!   [`KernelCache`](mako_compiler::KernelCache) on
//!   [`MakoServer::with_store`](crate::MakoServer::with_store).
//!
//! Both artifacts are pure caches of deterministic computations: a decoded
//! entry is bitwise the recomputed one, so consuming a persisted artifact
//! can never change results — and every `f64` travels as
//! [`f64::to_bits`], never text, to keep that exact. Enum fields travel as
//! explicit stable codes (not `as` casts of source order), so reordering a
//! variant in source cannot silently reinterpret an existing file; an
//! unknown code makes the whole decode fail, and the
//! [`ArtifactStore`](mako_store::ArtifactStore) caller treats that like any
//! other corrupt artifact — quarantine and recompute.

use mako_accel::DeviceKind;
use mako_compiler::TunedKernel;
use mako_eri::batch::EriClass;
use mako_eri::mmd::{PrimPair, ShellPairData};
use mako_eri::screening::ScreenedPair;
use mako_kernels::pipeline::{FusionStrategy, PipelineConfig};
use mako_linalg::Matrix;
use mako_precision::{Precision, ScalePolicy};
use mako_accel::SmemLayout;

/// Artifact-store key of the single tuned-kernel table (`b"MAKOKRNL"`).
pub const KERNELS_KEY: u64 = 0x4D41_4B4F_4B52_4E4C;

/// One persisted kernel-table entry.
pub type KernelEntry = ((EriClass, Precision, DeviceKind), TunedKernel);

// ---------------------------------------------------------------------------
// Screened shell-pair lists
// ---------------------------------------------------------------------------

/// Encode a screened pair list.
pub fn encode_pairs(pairs: &[ScreenedPair]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + pairs.len() * 128);
    put_u64(&mut out, pairs.len() as u64);
    for p in pairs {
        put_u64(&mut out, p.i as u64);
        put_u64(&mut out, p.j as u64);
        put_u64(&mut out, p.bound.to_bits());
        put_u64(&mut out, p.data.la as u64);
        put_u64(&mut out, p.data.lb as u64);
        put_u64(&mut out, p.data.nsph_pair as u64);
        put_u64(&mut out, p.data.nherm as u64);
        put_u64(&mut out, p.data.prims.len() as u64);
        for prim in &p.data.prims {
            put_u64(&mut out, prim.p.to_bits());
            for &c in &prim.center {
                put_u64(&mut out, c.to_bits());
            }
            put_matrix(&mut out, &prim.e_sph);
        }
    }
    out
}

/// Decode a screened pair list. `None` on any structural mismatch — the
/// caller quarantines and recomputes.
pub fn decode_pairs(bytes: &[u8]) -> Option<Vec<ScreenedPair>> {
    let mut r = Rd::new(bytes);
    let n = r.len_checked(96)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let i = r.u64()? as usize;
        let j = r.u64()? as usize;
        let bound = f64::from_bits(r.u64()?);
        let la = r.u64()? as usize;
        let lb = r.u64()? as usize;
        let nsph_pair = r.u64()? as usize;
        let nherm = r.u64()? as usize;
        let nprims = r.len_checked(32)?;
        let mut prims = Vec::with_capacity(nprims);
        for _ in 0..nprims {
            let p = f64::from_bits(r.u64()?);
            let center = [
                f64::from_bits(r.u64()?),
                f64::from_bits(r.u64()?),
                f64::from_bits(r.u64()?),
            ];
            let e_sph = r.matrix()?;
            prims.push(PrimPair { p, center, e_sph });
        }
        pairs.push(ScreenedPair {
            i,
            j,
            data: ShellPairData {
                la,
                lb,
                prims,
                nsph_pair,
                nherm,
            },
            bound,
        });
    }
    r.done().then_some(pairs)
}

// ---------------------------------------------------------------------------
// The tuned-kernel table
// ---------------------------------------------------------------------------

/// Encode the kernel table, sorted by stable key codes so the image is
/// deterministic whatever the in-memory map's iteration order was.
pub fn encode_kernels(entries: &[KernelEntry]) -> Vec<u8> {
    let mut sorted: Vec<&KernelEntry> = entries.iter().collect();
    sorted.sort_by_key(|((c, p, d), _)| {
        (c.la, c.lb, c.lc, c.ld, c.kab, c.kcd, precision_code(*p), device_code(*d))
    });
    let mut out = Vec::with_capacity(16 + sorted.len() * 96);
    put_u64(&mut out, sorted.len() as u64);
    for ((class, precision, device), kernel) in sorted {
        put_u64(&mut out, class.la as u64);
        put_u64(&mut out, class.lb as u64);
        put_u64(&mut out, class.lc as u64);
        put_u64(&mut out, class.ld as u64);
        put_u64(&mut out, class.kab as u64);
        put_u64(&mut out, class.kcd as u64);
        out.push(precision_code(*precision));
        out.push(device_code(*device));
        put_config(&mut out, &kernel.config);
        put_u64(&mut out, kernel.cost_s.to_bits());
        put_u64(&mut out, kernel.candidates_evaluated as u64);
        put_u64(&mut out, kernel.eq13_rejections as u64);
    }
    out
}

/// Decode the kernel table. `None` on any mismatch or unknown enum code.
pub fn decode_kernels(bytes: &[u8]) -> Option<Vec<KernelEntry>> {
    let mut r = Rd::new(bytes);
    let n = r.len_checked(96)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let class = EriClass {
            la: r.u64()? as usize,
            lb: r.u64()? as usize,
            lc: r.u64()? as usize,
            ld: r.u64()? as usize,
            kab: r.u64()? as usize,
            kcd: r.u64()? as usize,
        };
        let precision = precision_from(r.u8()?)?;
        let device = device_from(r.u8()?)?;
        let config = r.config()?;
        let kernel = TunedKernel {
            config,
            cost_s: f64::from_bits(r.u64()?),
            candidates_evaluated: r.u64()? as usize,
            eq13_rejections: r.u64()? as usize,
        };
        entries.push(((class, precision, device), kernel));
    }
    r.done().then_some(entries)
}

// ---------------------------------------------------------------------------
// Stable enum codes
// ---------------------------------------------------------------------------

fn precision_code(p: Precision) -> u8 {
    match p {
        Precision::Fp64 => 0,
        Precision::Fp32 => 1,
        Precision::Tf32 => 2,
        Precision::Bf16 => 3,
        Precision::Fp16 => 4,
    }
}

fn precision_from(code: u8) -> Option<Precision> {
    Some(match code {
        0 => Precision::Fp64,
        1 => Precision::Fp32,
        2 => Precision::Tf32,
        3 => Precision::Bf16,
        4 => Precision::Fp16,
        _ => return None,
    })
}

fn device_code(d: DeviceKind) -> u8 {
    match d {
        DeviceKind::A100_40G => 0,
        DeviceKind::A100_80G => 1,
        DeviceKind::V100 => 2,
        DeviceKind::H100 => 3,
    }
}

fn device_from(code: u8) -> Option<DeviceKind> {
    Some(match code {
        0 => DeviceKind::A100_40G,
        1 => DeviceKind::A100_80G,
        2 => DeviceKind::V100,
        3 => DeviceKind::H100,
        _ => return None,
    })
}

fn fusion_code(f: FusionStrategy) -> u8 {
    match f {
        FusionStrategy::Unfused => 0,
        FusionStrategy::FuseRPq => 1,
        FusionStrategy::FuseAll => 2,
        FusionStrategy::FuseAllCoalesced => 3,
    }
}

fn fusion_from(code: u8) -> Option<FusionStrategy> {
    Some(match code {
        0 => FusionStrategy::Unfused,
        1 => FusionStrategy::FuseRPq,
        2 => FusionStrategy::FuseAll,
        3 => FusionStrategy::FuseAllCoalesced,
        _ => return None,
    })
}

fn layout_code(l: SmemLayout) -> u8 {
    match l {
        SmemLayout::Linear => 0,
        SmemLayout::Swizzled => 1,
    }
}

fn layout_from(code: u8) -> Option<SmemLayout> {
    Some(match code {
        0 => SmemLayout::Linear,
        1 => SmemLayout::Swizzled,
        _ => return None,
    })
}

fn scale_code(s: ScalePolicy) -> u8 {
    match s {
        ScalePolicy::Global => 0,
        ScalePolicy::PerGroup => 1,
        ScalePolicy::Unscaled => 2,
    }
}

fn scale_from(code: u8) -> Option<ScalePolicy> {
    Some(match code {
        0 => ScalePolicy::Global,
        1 => ScalePolicy::PerGroup,
        2 => ScalePolicy::Unscaled,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    for &v in m.as_slice() {
        put_u64(out, v.to_bits());
    }
}

fn put_config(out: &mut Vec<u8>, cfg: &PipelineConfig) {
    out.push(fusion_code(cfg.fusion));
    out.push(layout_code(cfg.layout));
    put_u64(out, cfg.ilp as u64);
    put_u64(out, cfg.threads_per_block as u64);
    out.push(precision_code(cfg.precision));
    out.push(scale_code(cfg.scale_policy));
    put_u64(out, cfg.tile as u64);
}

struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Rd<'a> {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length prefix, sanity-bounded by the bytes actually remaining
    /// (each element needs at least `min_elem_bytes`) so a corrupt count
    /// cannot drive a huge allocation before the decode fails.
    fn len_checked(&mut self, min_elem_bytes: usize) -> Option<usize> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len().saturating_sub(self.pos);
        (n == 0 || n.checked_mul(min_elem_bytes)? <= remaining.checked_mul(8)?).then_some(n)
    }

    fn matrix(&mut self) -> Option<Matrix> {
        let rows = self.u64()? as usize;
        let cols = self.u64()? as usize;
        let count = rows.checked_mul(cols)?;
        if count.checked_mul(8)? > self.buf.len().saturating_sub(self.pos) {
            return None;
        }
        let mut data = Vec::with_capacity(count);
        for _ in 0..count {
            data.push(f64::from_bits(self.u64()?));
        }
        Some(Matrix::from_vec(rows, cols, data))
    }

    fn config(&mut self) -> Option<PipelineConfig> {
        Some(PipelineConfig {
            fusion: fusion_from(self.u8()?)?,
            layout: layout_from(self.u8()?)?,
            ilp: self.u64()? as usize,
            threads_per_block: self.u64()? as usize,
            precision: precision_from(self.u8()?)?,
            scale_policy: scale_from(self.u8()?)?,
            tile: self.u64()? as usize,
        })
    }

    /// The buffer must be fully consumed — trailing bytes mean the payload
    /// is not what the codec wrote.
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
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
        // The "screen" artifact byte image is pinned (FNV-1a, generated at c1572ca).
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), fnv), (18104, 0xdf00_48ba_a7c7_1862), "screen artifact byte image moved");
        let back = decode_pairs(&bytes).expect("decode");
        assert_eq!(back.len(), pairs.len());
        for (a, b) in pairs.iter().zip(&back) {
            assert_eq!((a.i, a.j), (b.i, b.j));
            assert_eq!(a.bound.to_bits(), b.bound.to_bits());
            assert_eq!(a.data.prims.len(), b.data.prims.len());
            for (pa, pb) in a.data.prims.iter().zip(&b.data.prims) {
                assert_eq!(pa.p.to_bits(), pb.p.to_bits());
                assert_eq!(pa.e_sph.as_slice().len(), pb.e_sph.as_slice().len());
                for (x, y) in pa.e_sph.as_slice().iter().zip(pb.e_sph.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "bitwise matrix payload");
                }
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

    #[test]
    fn kernel_table_roundtrips_and_is_deterministic() {
        use mako_accel::{CostModel, DeviceSpec};
        let model = CostModel::new(DeviceSpec::a100());
        let classes = [
            EriClass { la: 0, lb: 0, lc: 0, ld: 0, kab: 1, kcd: 1 },
            EriClass { la: 2, lb: 2, lc: 2, ld: 2, kab: 5, kcd: 5 },
        ];
        let mut entries: Vec<KernelEntry> = Vec::new();
        for c in &classes {
            for p in [Precision::Fp64, Precision::Fp16] {
                entries.push(((*c, p, model.device.kind), mako_compiler::tune_class(c, p, &model)));
            }
        }
        let bytes = encode_kernels(&entries);
        // Deterministic image: encoding a shuffled copy yields identical bytes.
        let mut shuffled = entries.clone();
        shuffled.reverse();
        assert_eq!(bytes, encode_kernels(&shuffled));
        let back = decode_kernels(&bytes).expect("decode");
        assert_eq!(back.len(), entries.len());
        for ((key, kernel), (bkey, bkernel)) in
            decode_kernels(&encode_kernels(&entries)).unwrap().iter().zip(&back)
        {
            assert_eq!(key, bkey);
            assert_eq!(kernel.cost_s.to_bits(), bkernel.cost_s.to_bits());
            assert_eq!(kernel.config, bkernel.config);
        }
        // Unknown enum codes fail the whole decode.
        let mut poisoned = encode_kernels(&entries);
        poisoned[8 + 48] = 0xFF; // first entry's precision code
        assert!(decode_kernels(&poisoned).is_none());
    }
}
