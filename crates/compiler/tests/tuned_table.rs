//! Pins the simulated device clock: every tuner winner and every launch
//! price, bit for bit.
//!
//! The digests below were generated on the code *before* device-clock
//! pricing was made allocation-free, so a host-side optimisation of the
//! pricing path passes only if it performs the same floating-point
//! operations in the same order. A legitimate cost-model change must
//! regenerate both constants (the failure message prints the new value) and
//! say so in CHANGES.md.

use mako_accel::{CostModel, DeviceKind, DeviceSpec, SmemLayout};
use mako_compiler::tune_class;
use mako_eri::batch::EriClass;
use mako_kernels::pipeline::{
    batch_device_seconds, fused_batch_device_seconds, simulate_batch_cost, FusionStrategy,
    PipelineConfig,
};
use mako_precision::{Precision, ScalePolicy};

const TUNED_TABLE_DIGEST: u64 = 0xc23d_6691_8e5a_e6bb;
const LAUNCH_PRICE_DIGEST: u64 = 0x049a_a930_d50a_e517;

/// Launch sizes priced per config: a single quartet, a ragged tail, and the
/// tuner's probe batch.
const COUNTS: [usize; 3] = [1, 47, 50_000];

/// FNV-1a over little-endian u64 words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn config(&mut self, c: &PipelineConfig) {
        self.word(c.fusion as u64);
        self.word(c.layout as u64);
        self.word(c.ilp as u64);
        self.word(c.threads_per_block as u64);
        self.word(c.precision as u64);
        self.word(c.scale_policy as u64);
        self.word(c.tile as u64);
    }
}

/// `la,lb,lc,ld ∈ 0..=2` × `kab,kcd ∈ {1, 3, 9}`, in a fixed order.
fn classes() -> Vec<EriClass> {
    let mut v = Vec::new();
    for la in 0..=2 {
        for lb in 0..=2 {
            for lc in 0..=2 {
                for ld in 0..=2 {
                    for kab in [1, 3, 9] {
                        for kcd in [1, 3, 9] {
                            v.push(EriClass { la, lb, lc, ld, kab, kcd });
                        }
                    }
                }
            }
        }
    }
    v
}

const DEVICES: [DeviceKind; 3] = [DeviceKind::V100, DeviceKind::A100_40G, DeviceKind::H100];
const PRECISIONS: [Precision; 2] = [Precision::Fp64, Precision::Fp16];

#[test]
fn tuned_table_is_bit_identical_to_the_pinned_one() {
    let mut d = Digest::new();
    for kind in DEVICES {
        let model = CostModel::new(DeviceSpec::new(kind));
        for precision in PRECISIONS {
            for class in classes() {
                let t = tune_class(&class, precision, &model);
                d.config(&t.config);
                d.word(t.cost_s.to_bits());
                d.word(t.candidates_evaluated as u64);
                d.word(t.eq13_rejections as u64);
                // The winner's launch prices: what the SCF driver, the
                // ensemble and the server charge the device clock with.
                for n in COUNTS {
                    d.word(batch_device_seconds(&class, n, &t.config, &model).to_bits());
                }
                let (fused, solo) = fused_batch_device_seconds(&class, &COUNTS, &t.config, &model);
                d.word(fused.to_bits());
                d.word(solo.to_bits());
            }
        }
    }
    assert_eq!(
        d.0, TUNED_TABLE_DIGEST,
        "tuner winners or their launch prices moved: new digest {:#018x}",
        d.0
    );
}

#[test]
fn launch_prices_are_bit_identical_for_every_strategy_and_layout() {
    // Winners are almost always fully fused and swizzled; this leg prices
    // the losing corners too (every profile shape `batch_profiles` emits,
    // both conflict ratios, the unlaunchable coalesced-at-K>1 case).
    let mut d = Digest::new();
    for kind in DEVICES {
        let model = CostModel::new(DeviceSpec::new(kind));
        for precision in PRECISIONS {
            for class in classes() {
                for fusion in [
                    FusionStrategy::Unfused,
                    FusionStrategy::FuseRPq,
                    FusionStrategy::FuseAll,
                    FusionStrategy::FuseAllCoalesced,
                ] {
                    for layout in [SmemLayout::Linear, SmemLayout::Swizzled] {
                        let cfg = PipelineConfig {
                            fusion,
                            layout,
                            ilp: 2,
                            threads_per_block: 128,
                            precision,
                            scale_policy: ScalePolicy::Unscaled,
                            tile: 8,
                        };
                        for n in COUNTS {
                            d.word(batch_device_seconds(&class, n, &cfg, &model).to_bits());
                            d.word(simulate_batch_cost(&class, n, &cfg, &model).to_bits());
                        }
                        let (fused, solo) =
                            fused_batch_device_seconds(&class, &COUNTS, &cfg, &model);
                        d.word(fused.to_bits());
                        d.word(solo.to_bits());
                    }
                }
            }
        }
    }
    assert_eq!(
        d.0, LAUNCH_PRICE_DIGEST,
        "device-clock launch prices moved: new digest {:#018x}",
        d.0
    );
}
