//! Distance-kernel micro-benchmarks, and the CRC32 every durable file is
//! checked with.
//!
//! Distance computations dominate search cost (the paper's standing
//! assumption, §3.2); these benches track the kernels across the
//! dimensionalities of the four datasets (128/200/512/768). The `crc32`
//! rows checksum one buffer of the size their id names (a WAL batch, a
//! checkpoint, a segment file): bytes ÷ time is the throughput of the body
//! `kernel_path` picked (`ACORN_FORCE_SCALAR=1` pins slicing-by-16).

use acorn_hnsw::checksum::crc32;
use acorn_hnsw::vecs::{dot, l2_sq, neg_cosine};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

fn vectors(dim: usize) -> (Vec<f32>, Vec<f32>) {
    let a: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..dim).map(|i| (i as f32 * 0.11).cos()).collect();
    (a, b)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("distance");
    for dim in [128usize, 200, 512, 768] {
        let (a, b) = vectors(dim);
        group.bench_with_input(BenchmarkId::new("l2_sq", dim), &dim, |bench, _| {
            bench.iter(|| l2_sq(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("dot", dim), &dim, |bench, _| {
            bench.iter(|| dot(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("neg_cosine", dim), &dim, |bench, _| {
            bench.iter(|| neg_cosine(black_box(&a), black_box(&b)))
        });
    }
    group.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    for (name, len) in [("4KiB", 4 << 10), ("64KiB", 64 << 10), ("4MiB", 4 << 20)] {
        let bytes: Vec<u8> =
            (0..len as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        group.bench_function(name, |bench| bench.iter(|| crc32(black_box(&bytes))));
    }
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_crc32);
criterion_main!(benches);
