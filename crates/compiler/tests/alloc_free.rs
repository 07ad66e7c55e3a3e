//! Structural guard for the device-clock pricing path: with tracing off,
//! pricing a launch and serving a tuned kernel touch the heap zero times,
//! and a whole tuner sweep a pinned handful of times.
//!
//! This is the regression test for "tuning is 47 % of a serve": a
//! wall-clock assert would flake on a shared host, an allocation count
//! repeats exactly. Counts are per thread, so the harness's own threads
//! cannot disturb them.

use mako_accel::{CostModel, DeviceKind, DeviceSpec, SmemLayout};
use mako_compiler::{tune_class, KernelCache};
use mako_eri::batch::EriClass;
use mako_kernels::pipeline::{
    batch_device_seconds, simulate_batch_cost, FusionStrategy, PipelineConfig,
};
use mako_precision::Precision;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is therefore the one upheld; the counter is a
// const-initialized, destructor-free thread-local `Cell`, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations the current thread performs while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCS.with(Cell::get);
    std::hint::black_box(f());
    ALLOCS.with(Cell::get) - before
}

fn class(l: usize, k: usize) -> EriClass {
    EriClass {
        la: l,
        lb: l,
        lc: l,
        ld: l,
        kab: k,
        kcd: k,
    }
}

#[test]
fn pricing_is_allocation_free_and_a_sweep_is_nearly_so() {
    assert!(!mako_trace::enabled(), "the guard is about the untraced path");
    let model = CostModel::new(DeviceSpec::a100());
    let c = class(2, 3);

    // Launch pricing, every profile shape and both layouts.
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
                ..PipelineConfig::kernel_mako_fp64()
            };
            // First touch of a layout may initialize its conflict ratio.
            batch_device_seconds(&c, 47, &cfg, &model);
            assert_eq!(
                allocations(|| batch_device_seconds(&c, 47, &cfg, &model)),
                0,
                "batch_device_seconds {fusion:?} {layout:?}"
            );
            assert_eq!(
                allocations(|| simulate_batch_cost(&c, 50_000, &cfg, &model)),
                0,
                "simulate_batch_cost {fusion:?} {layout:?}"
            );
        }
    }

    // A cache hit hands back a `Copy` kernel under the read lock.
    let cache = KernelCache::new();
    cache.get_or_tune(&c, Precision::Fp16, &model);
    assert_eq!(
        allocations(|| cache.get_or_tune(&c, Precision::Fp16, &model)),
        0,
        "cache-hit get_or_tune"
    );
    assert_eq!((cache.tunes_performed(), cache.hits()), (1, 1));

    // One sweep: 9 planned shapes + 108 candidates, all on the stack. The
    // only heap use left is `FusionPlan::rejected`, one small Vec per shape
    // that has an Eq. 13 rejection to report — none for (dd|dd) on an A100.
    assert_eq!(allocations(|| tune_class(&c, Precision::Fp64, &model)), 0);
    // (gg|gg) FP64 on a V100 fits fully fused at tile edge 8 but rejects a
    // strategy at 16 and 32: six of the nine shapes report a list.
    let v100 = CostModel::new(DeviceSpec::new(DeviceKind::V100));
    let gggg = allocations(|| tune_class(&class(4, 1), Precision::Fp64, &v100));
    assert_eq!(gggg, 6, "one rejection list per rejecting shape, nothing else");
}
