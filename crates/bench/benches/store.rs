//! KV store benchmarks: serialization, tiered insert/get, disk-tier reads,
//! chunk hashing.

use cb_kv::chunk::hash_tokens;
use cb_kv::precompute::precompute_chunk;
use cb_kv::serialize::{decode, encode, EntryReader};
use cb_kv::store::KvStore;
use cb_kv::ChunkId;
use cb_model::{Model, ModelConfig, ModelProfile};
use cb_tokenizer::TokenKind;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn chunk_cache() -> cb_model::KvCache {
    let model = Model::compiled(ModelConfig::standard(ModelProfile::Mistral7B, 11));
    let v = &model.cfg.vocab;
    let toks: Vec<u32> = (0..24)
        .map(|i| match i % 4 {
            0 => v.id(TokenKind::Entity(i as u32 % 8)),
            1 => v.id(TokenKind::Attr(i as u32 % 8)),
            2 => v.id(TokenKind::Value(i as u32 % 16)),
            _ => v.id(TokenKind::Sep),
        })
        .collect();
    precompute_chunk(&model, &toks)
}

fn bench_serialize(c: &mut Criterion) {
    let cache = chunk_cache();
    let bytes = encode(&cache);
    let mut g = c.benchmark_group("serialize");
    g.throughput(criterion::Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode", |b| b.iter(|| black_box(encode(&cache))));
    g.bench_function("decode", |b| {
        b.iter(|| black_box(decode(bytes.clone()).unwrap()))
    });
    g.bench_function("decode_one_layer", |b| {
        let reader = EntryReader::new(bytes.clone()).unwrap();
        b.iter(|| black_box(reader.layer(2)))
    });
    g.finish();
}

fn bench_store_ops(c: &mut Criterion) {
    let cache = chunk_cache();
    let store = KvStore::single("ram", 1 << 30);
    for i in 0..256u64 {
        store.insert(ChunkId(i), &cache).unwrap();
    }
    c.bench_function("store_get_hit", |b| {
        b.iter(|| black_box(store.get_bytes(ChunkId(128))))
    });
    c.bench_function("store_insert_refresh", |b| {
        b.iter(|| black_box(store.insert(ChunkId(7), &cache)))
    });
}

fn bench_quantize(c: &mut Criterion) {
    use cb_kv::quantize::{decode_quantized, encode_quantized};
    let cache = chunk_cache();
    let q = encode_quantized(&cache);
    let mut g = c.benchmark_group("quantize");
    g.throughput(criterion::Throughput::Bytes(q.len() as u64));
    g.bench_function("encode_int8", |b| {
        b.iter(|| black_box(encode_quantized(&cache)))
    });
    g.bench_function("decode_int8", |b| {
        b.iter(|| black_box(decode_quantized(q.clone()).unwrap()))
    });
    g.finish();
}

fn bench_disk_tier(c: &mut Criterion) {
    use cb_kv::store::TierConfig;
    use cb_storage::{MemBackend, SegmentLogBackend, StorageBackend};
    use std::sync::Arc;
    let cache = chunk_cache();
    let bytes = encode(&cache);
    let dir = std::env::temp_dir().join(format!("cb-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // RAM tier below one entry: reads genuinely hit the disk backend.
    let store = KvStore::with_backends(vec![
        (
            TierConfig::new("ram", 64),
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        ),
        (
            TierConfig::new("disk", 1 << 30),
            Arc::new(SegmentLogBackend::new(&dir, None).unwrap()),
        ),
    ]);
    store.insert_bytes(ChunkId(1), bytes).unwrap();
    store.flush().unwrap();
    c.bench_function("disk_get_full_entry", |b| {
        b.iter(|| black_box(store.get_bytes(ChunkId(1)).unwrap()))
    });
    c.bench_function("disk_prefetch_stream_layers", |b| {
        b.iter(|| {
            let mut h = store.prefetch(ChunkId(1)).unwrap().unwrap();
            let m = h.meta().unwrap().clone();
            let mut out = cb_model::LayerKv::empty(m.width);
            for l in 0..m.n_layers {
                h.layer_into(l, &mut out).unwrap();
            }
            black_box(out.len())
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
}

fn bench_hash(c: &mut Criterion) {
    let toks: Vec<u32> = (0..512).map(|i| i % 190).collect();
    c.bench_function("hash_512_tokens", |b| {
        b.iter(|| black_box(hash_tokens(&toks)))
    });
}

criterion_group!(
    benches,
    bench_serialize,
    bench_store_ops,
    bench_disk_tier,
    bench_quantize,
    bench_hash
);
criterion_main!(benches);
