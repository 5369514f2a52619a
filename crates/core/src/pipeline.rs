//! Pipelined KV loading overlapped with selective recompute (§5/§6).
//!
//! A loader thread streams one fused context layer at a time — decoding
//! each chunk's serialized entry (`cb-kv::serialize::EntryReader`),
//! applying the Appendix-A re-rotation, and concatenating the chunk rows —
//! through a bounded channel. The fusor consumes layers in order; its
//! per-layer `synchronize()` is simply the channel `recv`. Because HKVD
//! selection for layer `i` needs only layer `i`'s loaded KV, loading layer
//! `i+1` proceeds while layer `i` is recomputed, exactly the overlap that
//! lets CacheBlend keep KV on slow devices without TTFT cost.
//!
//! An optional per-layer throttle emulates a storage device's read time for
//! tests/benches that demonstrate the overlap.

use std::time::{Duration, Instant};

use bytes::Bytes;
use cb_kv::prefetch::PrefetchHandle;
use cb_kv::serialize::DecodeError;
use cb_kv::store::StoreError;
use cb_model::{LayerKv, Model};
use cb_tokenizer::TokenId;
use crossbeam::channel::bounded;

use crate::fusor::{BlendConfig, BlendResult, BlendScratch, Fusor};
use crate::rope_align;

/// Timing evidence from a pipelined blend.
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineReport {
    /// Wall-clock of the whole blend.
    pub total: Duration,
    /// Time the fusor spent blocked waiting for a layer (`synchronize()`).
    pub wait: Duration,
    /// Time the loader spent producing layers (decode + rotate + throttle).
    pub loader_busy: Duration,
}

/// Result of [`blend_pipelined`].
#[derive(Debug)]
pub struct PipelineOutput {
    /// The blend result (cache, residual, stats).
    pub result: BlendResult,
    /// Overlap evidence.
    pub report: PipelineReport,
}

/// Fuses serialized chunk entries with a real loader thread.
///
/// `parts` are the serialized per-chunk caches (as stored by
/// `cb-kv::KvStore`), in request order. `throttle` adds an artificial
/// per-layer read delay emulating a device.
///
/// # Errors
///
/// Returns a [`DecodeError`] if any entry fails its checksum.
pub fn blend_pipelined(
    model: &Model,
    cfg: BlendConfig,
    parts: Vec<Bytes>,
    suffix: &[TokenId],
    throttle: Option<Duration>,
) -> Result<PipelineOutput, DecodeError> {
    let handles: Vec<PrefetchHandle> = parts
        .into_iter()
        .map(|b| PrefetchHandle::from_bytes(b, 0))
        .collect::<Result<_, _>>()?;
    blend_prefetched(model, cfg, handles, suffix, throttle).map_err(|e| match e {
        StoreError::Corrupt(d) => d,
        // In-memory handles cannot raise backend/capacity errors.
        _ => DecodeError::Truncated,
    })
}

/// Fuses chunk entries delivered by [`PrefetchHandle`]s — the storage-aware
/// pipeline. RAM-resident handles decode on the loader thread; disk-backed
/// handles stream layer blocks off the device (issued at prefetch time, so
/// the device read of layer `i+1` overlaps both the decode *and* the
/// selective recompute of layer `i`). `extra_throttle` adds a per-layer
/// artificial delay on top (used to emulate a device for RAM-resident
/// entries).
///
/// # Errors
///
/// Returns the first [`StoreError`] raised by a handle (corrupt layer
/// block, vanished segment, backend I/O failure); the blend is aborted and
/// no partial KV escapes.
pub fn blend_prefetched(
    model: &Model,
    cfg: BlendConfig,
    mut handles: Vec<PrefetchHandle>,
    suffix: &[TokenId],
    extra_throttle: Option<Duration>,
) -> Result<PipelineOutput, StoreError> {
    // Header phase: wait for every entry's metadata (disk headers were
    // requested when the handles were issued, so these waits overlap).
    let mut rows_per_chunk = Vec::with_capacity(handles.len());
    for h in &mut handles {
        let m = h.meta()?;
        rows_per_chunk.push((m.rows, m.positions.first().copied().unwrap_or(0)));
    }

    // Context metadata: BOS at 0, then each chunk relocated after the last.
    let bos = cb_kv::precompute::bos_cache(model);
    let mut offsets = Vec::with_capacity(handles.len());
    let mut positions: Vec<usize> = vec![0];
    let mut tokens: Vec<TokenId> = bos.tokens.clone();
    let mut cursor = 1usize;
    for (h, &(rows, _)) in handles.iter_mut().zip(rows_per_chunk.iter()) {
        offsets.push(cursor);
        positions.extend(cursor..cursor + rows);
        tokens.extend_from_slice(h.meta().expect("meta cached").tokens.as_slice());
        cursor += rows;
    }

    let n_layers = model.n_layers();
    let start = Instant::now();
    let (tx, rx) = bounded::<Result<LayerKv, StoreError>>(2);

    let width = model.cfg.kv_width();
    let total_rows = 1 + rows_per_chunk.iter().map(|&(r, _)| r).sum::<usize>();
    let (result, loader_busy) = std::thread::scope(|scope| {
        let handles = &mut handles;
        let loader = scope.spawn(move || {
            let busy_start = Instant::now();
            // One scratch buffer decodes every chunk of every layer; the
            // BOS layer KV is shared by reference.
            let mut chunk_buf = LayerKv::empty(width);
            'layers: for layer in 0..n_layers {
                let mut merged = LayerKv::empty(width);
                merged.reserve(total_rows);
                merged.append(&bos.layers[layer].k, &bos.layers[layer].v);
                for ((h, &off), &(_, first_pos)) in handles
                    .iter_mut()
                    .zip(offsets.iter())
                    .zip(rows_per_chunk.iter())
                {
                    // §6 per-layer fetch: blocks only if the device has
                    // not delivered this layer's block yet.
                    if let Err(e) = h.layer_into(layer, &mut chunk_buf) {
                        let _ = tx.send(Err(e));
                        break 'layers;
                    }
                    let delta = off as i64 - first_pos as i64;
                    rope_align::relocate_layer(model, layer, &mut chunk_buf, delta);
                    merged.append(&chunk_buf.k, &chunk_buf.v);
                }
                if let Some(d) = extra_throttle {
                    std::thread::sleep(d);
                }
                if tx.send(Ok(merged)).is_err() {
                    break; // consumer gone (panic downstream)
                }
            }
            drop(tx);
            busy_start.elapsed()
        });

        let mut wait = Duration::ZERO;
        let fusor = Fusor::new(model, cfg);
        let mut scratch = BlendScratch::new();
        let result = fusor.try_blend_streamed_scratch(
            &positions,
            &tokens,
            |_l| {
                let t = Instant::now();
                let lkv = rx
                    .recv()
                    .map_err(|_| StoreError::Backend("loader thread died".into()))?;
                wait += t.elapsed();
                lkv
            },
            suffix,
            false,
            &mut scratch,
        );
        let loader_busy = loader.join().expect("loader panicked");
        ((result, wait), loader_busy)
    });
    let ((result, wait), loader_busy) = (result, loader_busy);
    let mut result = result?;
    result.stats.first_layer_deviations.shrink_to_fit();

    Ok(PipelineOutput {
        result,
        report: PipelineReport {
            total: start.elapsed(),
            wait,
            loader_busy,
        },
    })
}

/// Sequential reference: load (and throttle) *everything first*, then
/// blend — the unpipelined ablation of Figure 10(a).
pub fn blend_sequential(
    model: &Model,
    cfg: BlendConfig,
    parts: Vec<Bytes>,
    suffix: &[TokenId],
    throttle: Option<Duration>,
) -> Result<PipelineOutput, DecodeError> {
    let start = Instant::now();
    let mut caches = Vec::new();
    for b in parts {
        let c = cb_kv::serialize::decode(b)?;
        if let Some(d) = throttle {
            std::thread::sleep(d * model.n_layers() as u32);
        }
        caches.push(c);
    }
    let load_time = start.elapsed();
    let fusor = Fusor::new(model, cfg);
    let result = fusor.blend(caches, suffix, false);
    Ok(PipelineOutput {
        result,
        report: PipelineReport {
            total: start.elapsed(),
            wait: load_time,
            loader_busy: load_time,
        },
    })
}

/// Convenience used by tests/benches: serialize a fused request's chunks.
pub fn serialize_chunks(model: &Model, chunks: &[Vec<TokenId>]) -> Vec<Bytes> {
    chunks
        .iter()
        .map(|c| cb_kv::serialize::encode(&cb_kv::precompute::precompute_chunk(model, c)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::{KvCache, ModelConfig, ModelProfile};
    use cb_tokenizer::TokenKind::*;

    fn model() -> Model {
        Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11))
    }

    fn scenario(m: &Model) -> (Vec<Vec<TokenId>>, Vec<TokenId>, TokenId) {
        let v = &m.cfg.vocab;
        let c1: Vec<TokenId> = [Entity(5), Attr(0), Value(1), Sep]
            .map(|k| v.id(k))
            .to_vec();
        let c2: Vec<TokenId> = [
            Ref,
            Attr(3),
            Value(9),
            Sep,
            Entity(8),
            Attr(1),
            Value(4),
            Sep,
        ]
        .map(|k| v.id(k))
        .to_vec();
        let q: Vec<TokenId> = [Query, Entity(5), Attr(3), QMark].map(|k| v.id(k)).to_vec();
        (vec![c1, c2], q, v.id(Value(9)))
    }

    #[test]
    fn pipelined_matches_eager_blend() {
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let cfg = BlendConfig::with_ratio(0.4);
        let piped = blend_pipelined(&m, cfg, bytes, &q, None).unwrap();

        let parts: Vec<KvCache> = chunks
            .iter()
            .map(|c| cb_kv::precompute::precompute_chunk(&m, c))
            .collect();
        let eager = Fusor::new(&m, cfg).blend(parts, &q, false);
        for l in 0..m.n_layers() {
            let d = piped.result.cache.layers[l]
                .k
                .frobenius_distance(&eager.cache.layers[l].k);
            assert!(d < 1e-4, "layer {l} differs between pipelined and eager");
        }
        let dl = cb_tensor::stats::l2_distance(&piped.result.last_residual, &eager.last_residual);
        assert!(dl < 1e-4);
    }

    #[test]
    fn pipelined_answers_correctly() {
        let m = model();
        let (chunks, q, gold) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let mut out = blend_pipelined(&m, BlendConfig::with_ratio(0.45), bytes, &q, None).unwrap();
        let ans = m.decode_greedy(&mut out.result.cache, &out.result.last_residual, 4);
        assert_eq!(ans, vec![gold]);
    }

    #[test]
    fn corrupted_entry_is_rejected() {
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let mut bytes = serialize_chunks(&m, &chunks);
        let mut raw = bytes[0].to_vec();
        let n = raw.len();
        raw[n / 2] ^= 0xFF;
        bytes[0] = Bytes::from(raw);
        let err = blend_pipelined(&m, BlendConfig::default(), bytes, &q, None).unwrap_err();
        assert_eq!(err, DecodeError::Corrupted);
    }

    #[test]
    fn pipelining_hides_load_latency() {
        // With a per-layer throttle, the pipelined total must be well below
        // "load everything, then compute" — the §5 overlap claim measured
        // on real threads.
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let throttle = Duration::from_millis(8);
        let cfg = BlendConfig::with_ratio(0.4);
        let piped = blend_pipelined(&m, cfg, bytes.clone(), &q, Some(throttle)).unwrap();
        let seq = blend_sequential(&m, cfg, bytes, &q, Some(throttle)).unwrap();
        assert!(
            piped.report.total < seq.report.total,
            "pipelined {:?} !< sequential {:?}",
            piped.report.total,
            seq.report.total
        );
    }

    fn disk_store(dir: &std::path::Path, throttle_bytes_per_s: Option<f64>) -> cb_kv::KvStore {
        use cb_kv::store::TierConfig;
        use cb_storage::{MemBackend, SegmentLogBackend, StorageBackend, Throttle};
        use std::sync::Arc;
        cb_kv::KvStore::with_backends(vec![
            (
                TierConfig::new("ram", 64), // below any entry: everything lands on disk,
                Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
            ),
            (
                TierConfig::new("disk", 1 << 30),
                Arc::new(
                    SegmentLogBackend::new(dir, throttle_bytes_per_s.map(Throttle::bandwidth))
                        .unwrap(),
                ),
            ),
        ])
    }

    fn test_dir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "cb-pipeline-{}-{}-{}",
            std::process::id(),
            tag,
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn prefetched_disk_blend_matches_ram_blend() {
        let m = model();
        let (chunks, q, gold) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let cfg = BlendConfig::with_ratio(0.45);
        let ram = blend_pipelined(&m, cfg, bytes.clone(), &q, None).unwrap();

        let dir = test_dir("parity");
        let store = disk_store(&dir, None);
        let ids: Vec<cb_kv::ChunkId> = bytes
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let id = cb_kv::ChunkId(i as u64 + 1);
                store.insert_bytes(id, b.clone()).unwrap();
                id
            })
            .collect();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| store.prefetch(id).unwrap().unwrap())
            .collect();
        assert!(handles.iter().all(|h| h.tier() == 1), "disk-resident");
        let disk = blend_prefetched(&m, cfg, handles, &q, None).unwrap();
        for l in 0..m.n_layers() {
            let d = disk.result.cache.layers[l]
                .k
                .frobenius_distance(&ram.result.cache.layers[l].k);
            assert!(d < 1e-5, "layer {l} differs between disk and RAM blends");
        }
        let mut out = disk.result;
        let ans = m.decode_greedy(&mut out.cache, &out.last_residual, 4);
        assert_eq!(ans, vec![gold]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_streaming_overlaps_with_recompute() {
        // With a bandwidth throttle on the disk tier, streaming layer
        // blocks through prefetch handles must beat "read both entries in
        // full, then blend" — the same §5 overlap claim as the in-RAM
        // pipelining test, now measured against real (throttled) file I/O.
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let total: usize = bytes.iter().map(|b| b.len()).sum();
        // Bandwidth such that a full load takes ~40 ms.
        let bw = total as f64 / 0.040;
        let cfg = BlendConfig::with_ratio(0.4);

        let dir = test_dir("overlap");
        let store = disk_store(&dir, Some(bw));
        for (i, b) in bytes.iter().enumerate() {
            store
                .insert_bytes(cb_kv::ChunkId(i as u64 + 1), b.clone())
                .unwrap();
        }
        store.flush().unwrap();

        // Unpipelined arm: full (throttled) reads, then an eager blend.
        let t0 = Instant::now();
        let parts: Vec<KvCache> = (0..bytes.len())
            .map(|i| store.get(cb_kv::ChunkId(i as u64 + 1)).unwrap().unwrap().0)
            .collect();
        let load_time = t0.elapsed();
        let _ = Fusor::new(&m, cfg).blend(parts, &q, false);
        let sequential = t0.elapsed();

        // get() promoted the entries to... RAM is too small here, so they
        // are still disk-resident; stream them pipelined.
        let handles: Vec<_> = (0..bytes.len())
            .map(|i| {
                store
                    .prefetch(cb_kv::ChunkId(i as u64 + 1))
                    .unwrap()
                    .unwrap()
            })
            .collect();
        let piped = blend_prefetched(&m, cfg, handles, &q, None).unwrap();

        assert!(
            piped.report.total < sequential,
            "pipelined {:?} !< sequential {:?} (raw load {:?})",
            piped.report.total,
            sequential,
            load_time
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn report_accounts_wait_time() {
        let m = model();
        let (chunks, q, _) = scenario(&m);
        let bytes = serialize_chunks(&m, &chunks);
        let out = blend_pipelined(
            &m,
            BlendConfig::default(),
            bytes,
            &q,
            Some(Duration::from_millis(2)),
        )
        .unwrap();
        assert!(out.report.wait <= out.report.total);
        assert!(out.report.loader_busy >= Duration::from_millis(2 * 4));
    }
}
