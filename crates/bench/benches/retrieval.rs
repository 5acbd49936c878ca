//! Retrieval-scan microbench: the Table V latency story at criterion
//! precision (10k rows; the binary covers 100k/1m).
//!
//! Three paths per plugin variant:
//! * `kernel_heap` — `EmbeddingStore::knn`: monomorphized kernel +
//!   bounded heap (O(n log k), single-threaded);
//! * `flat_batch` — `EmbeddingStore::knn_batch` over 4 queries, parallel
//!   across queries (reported per batch; divide by 4 for per-query);
//! * `indexed_batch` — `IndexedStore::knn_batch` over the same 4 queries:
//!   pivot cells + triangle-inequality pruning for Euclidean / Lorentz,
//!   the convex-mix bound for fused — exact for all three.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lh_core::config::{PluginConfig, PluginVariant};
use lh_core::{EmbeddingStore, IndexParams, IndexedStore};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synth(n: usize, dim: usize, cfg: &PluginConfig, rng: &mut StdRng) -> EmbeddingStore {
    let mut store = EmbeddingStore::new(
        dim,
        cfg.variant,
        cfg.beta,
        cfg.variant.uses_fusion().then_some(cfg.factor_dim),
    );
    for _ in 0..n {
        let eu: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let nsq: f32 = eu.iter().map(|v| v * v).sum();
        let mut hy = vec![(nsq + cfg.beta).sqrt()];
        hy.extend_from_slice(&eu);
        let fa: Vec<f32> = (0..2 * cfg.factor_dim)
            .map(|_| rng.gen_range(0.01f32..1.0))
            .collect();
        store.push(
            &eu,
            cfg.variant.uses_hyperbolic().then_some(&hy[..]),
            cfg.variant.uses_fusion().then_some(&fa[..]),
        );
    }
    store
}

fn bench_knn_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn_scan_10k");
    group.sample_size(20);
    for variant in [
        PluginVariant::Original,
        PluginVariant::LorentzCosh,
        PluginVariant::FusionDist,
    ] {
        let cfg = PluginConfig::paper_default().with_variant(variant);
        let mut rng = StdRng::seed_from_u64(11);
        let db = synth(10_000, 16, &cfg, &mut rng);
        let q = synth(4, 16, &cfg, &mut rng);
        group.bench_with_input(
            BenchmarkId::new("kernel_heap", variant.name()),
            &(&db, &q),
            |b, (db, q)| b.iter(|| std::hint::black_box(db.knn(q, 0, 50))),
        );
        group.bench_with_input(
            BenchmarkId::new("flat_batch4", variant.name()),
            &(&db, &q),
            |b, (db, q)| b.iter(|| std::hint::black_box(db.knn_batch(q, 50))),
        );
        let indexed = IndexedStore::build(db.clone(), IndexParams::default());
        group.bench_with_input(
            BenchmarkId::new("indexed_batch4", variant.name()),
            &(&indexed, &q),
            |b, (indexed, q)| b.iter(|| std::hint::black_box(indexed.knn_batch(q, 50))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_knn_scan);
criterion_main!(benches);
