//! Criterion microbenchmarks of the real (CPU-executed) numerical kernels:
//! Boys function, GEMM variants, MMD quartets per ERI class, and the
//! quantized pipelines. These measure *host* performance of this
//! reproduction's engines (the per-figure binaries report the simulated
//! device times).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mako_bench::random_class_batch;
use mako_eri::batch::EriClass;
use mako_eri::{boys_reference, eri_quartet_mmd, BoysTable};
use mako_kernels::pipeline::{run_batch, PipelineConfig};
use mako_linalg::{gemm_into, gemm_naive, Matrix, Transpose};

fn bench_boys(c: &mut Criterion) {
    let mut group = c.benchmark_group("boys");
    let table = BoysTable::new(16);
    let mut out = [0.0f64; 21];
    group.bench_function("reference_m16", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..64 {
                boys_reference(16, 0.37 * i as f64, &mut out);
                acc += out[16];
            }
            acc
        })
    });
    group.bench_function("table_m16", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..64 {
                table.eval(16, 0.37 * i as f64, &mut out);
                acc += out[16];
            }
            acc
        })
    });
    group.finish();
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    for &n in &[64usize, 128] {
        let a = Matrix::from_fn(n, n, |i, j| ((i * 31 + j * 7) % 97) as f64 * 0.013);
        let b = Matrix::from_fn(n, n, |i, j| ((i * 17 + j * 3) % 89) as f64 * 0.017);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bench, _| {
            let mut out = Matrix::zeros(n, n);
            bench.iter(|| gemm_naive(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut out))
        });
        group.bench_with_input(BenchmarkId::new("engine", n), &n, |bench, _| {
            let mut out = Matrix::zeros(n, n);
            bench.iter(|| gemm_into(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut out))
        });
    }
    group.finish();
}

fn bench_eri_classes(c: &mut Criterion) {
    let mut group = c.benchmark_group("eri_quartet_mmd");
    group.sample_size(20);
    for l in 0..=3usize {
        let class = EriClass {
            la: l,
            lb: l,
            lc: l,
            ld: l,
            kab: 1,
            kcd: 1,
        };
        let (pairs, _batch) = random_class_batch(&class, 1, 42 + l as u64);
        let (pab, pcd) = (&pairs[0].data, &pairs[1].data);
        group.bench_with_input(BenchmarkId::new("class", class.label()), &l, |bench, _| {
            bench.iter(|| eri_quartet_mmd(pab, pcd))
        });
    }
    group.finish();
}

fn bench_pipelines(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_batch16");
    group.sample_size(10);
    let model = mako_accel::CostModel::new(mako_accel::DeviceSpec::a100());
    let class = EriClass {
        la: 2,
        lb: 2,
        lc: 2,
        ld: 2,
        kab: 1,
        kcd: 1,
    };
    let (pairs, batch) = random_class_batch(&class, 16, 99);
    group.bench_function("fp64", |bench| {
        bench.iter(|| run_batch(&batch, &pairs, &PipelineConfig::kernel_mako_fp64(), &model))
    });
    group.bench_function("quantized", |bench| {
        bench.iter(|| run_batch(&batch, &pairs, &PipelineConfig::quant_mako(), &model))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    // Single-core CI machine: keep measurement windows short.
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_boys, bench_gemm, bench_eri_classes, bench_pipelines
}
criterion_main!(benches);
