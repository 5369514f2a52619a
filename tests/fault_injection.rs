//! Fault-injection matrix for the persistent disk tier (the packed
//! segment log).
//!
//! Every case damages the victim's record — or its whole log file — in a
//! populated cache dir in a specific way: truncation mid-header,
//! truncation mid-payload, a zero-length log, a stale `.ctmp` compaction
//! temp, a flipped checksum on a record that valid records follow. Each
//! asserts the same three things: startup recovery indexes exactly the
//! intact records, the victim reads as a clean miss, and the intact
//! siblings still load byte-identically.

use bytes::Bytes;
use cacheblend::storage::backend::BackendError;
use cacheblend::storage::{SegmentLogBackend, StorageBackend};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn test_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "cb-fault-{}-{}-{}",
        std::process::id(),
        tag,
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

const SIBLINGS: [u64; 3] = [1, 2, 3];
const VICTIM: u64 = 9;
/// Record framing: magic/kind/key/len header before the payload.
const HEADER_LEN: usize = 24;
/// Trailing checksum word after the payload.
const CHECKSUM_LEN: usize = 8;

fn payload_of(key: u64) -> Bytes {
    Bytes::from(vec![key as u8; 64 + (key as usize % 32)])
}

/// Writes `keys` in order, durably, in one session (one log file).
fn populate(dir: &Path, keys: &[u64]) {
    let b = SegmentLogBackend::new(dir, None).unwrap();
    for &k in keys {
        b.put(k, payload_of(k)).unwrap();
    }
    b.flush().unwrap();
}

/// The three siblings, then the victim as the log's tail record.
fn populate_victim_last(dir: &Path) {
    populate(dir, &[SIBLINGS[0], SIBLINGS[1], SIBLINGS[2], VICTIM]);
}

/// Where `key`'s record lives: `(log file, frame start, frame end)`.
fn locate(dir: &Path, key: u64) -> (PathBuf, usize, usize) {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cblog"))
        .collect();
    logs.sort();
    for log in logs {
        let raw = std::fs::read(&log).unwrap();
        let mut pos = 0;
        while pos + HEADER_LEN <= raw.len() {
            let rec_key = u64::from_le_bytes(raw[pos + 8..pos + 16].try_into().unwrap());
            let len = u64::from_le_bytes(raw[pos + 16..pos + 24].try_into().unwrap()) as usize;
            let end = pos + HEADER_LEN + len + CHECKSUM_LEN;
            if rec_key == key {
                return (log, pos, end);
            }
            pos = end;
        }
    }
    panic!("no record for key {key}");
}

fn file_len(path: &Path) -> usize {
    std::fs::metadata(path).unwrap().len() as usize
}

/// Asserts the recovery outcome after one injected fault: exactly the
/// siblings are indexed, the victim reads as a clean miss, and every
/// sibling still serves its exact bytes.
fn assert_recovery(b: &SegmentLogBackend, case: &str) {
    assert_eq!(
        b.recovered_records(),
        SIBLINGS.len(),
        "{case}: only the intact records are indexed"
    );
    assert!(!b.contains(VICTIM), "{case}: victim must not be indexed");
    assert!(
        b.get(VICTIM).unwrap().is_none(),
        "{case}: victim reads as a clean miss"
    );
    for &k in &SIBLINGS {
        assert_eq!(
            b.get(k).unwrap().unwrap(),
            payload_of(k),
            "{case}: sibling {k} must load byte-identically"
        );
    }
}

#[test]
fn truncation_mid_header_is_dropped_at_startup() {
    let dir = test_dir("mid-header");
    populate_victim_last(&dir);
    let (log, start, end) = locate(&dir, VICTIM);
    assert_eq!(end, file_len(&log), "the victim is the log's tail");
    let raw = std::fs::read(&log).unwrap();
    std::fs::write(&log, &raw[..start + HEADER_LEN / 2]).unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, "mid-header truncation");
    assert_eq!(b.torn_truncations(), 1);
    assert_eq!(file_len(&log), start, "torn tail truncated away");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_mid_payload_is_dropped_at_startup() {
    let dir = test_dir("mid-payload");
    populate_victim_last(&dir);
    let (log, start, end) = locate(&dir, VICTIM);
    assert_eq!(end, file_len(&log), "the victim is the log's tail");
    let raw = std::fs::read(&log).unwrap();
    std::fs::write(
        &log,
        &raw[..start + HEADER_LEN + (end - start - HEADER_LEN) / 2],
    )
    .unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, "mid-payload truncation");
    assert_eq!(b.torn_truncations(), 1);
    assert_eq!(file_len(&log), start, "torn tail truncated away");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn zero_length_segment_is_dropped_at_startup() {
    let dir = test_dir("zero-len");
    // Two sessions: the victim lands alone in the second session's log,
    // which then loses all its bytes.
    populate(&dir, &SIBLINGS);
    populate(&dir, &[VICTIM]);
    let (log, start, _) = locate(&dir, VICTIM);
    assert_eq!(start, 0, "the victim's log holds only the victim");
    std::fs::write(&log, b"").unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, "zero-length log");
    assert_eq!(b.torn_truncations(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_tmp_orphan_is_deleted_and_never_indexed() {
    let dir = test_dir("tmp-orphan");
    populate(&dir, &SIBLINGS);
    // A compaction that crashed before its rename leaves a `.ctmp` holding
    // well-formed records — here one for the victim, which exists nowhere
    // else. Recovery must not resurrect it.
    let scratch = test_dir("tmp-orphan-src");
    populate(&scratch, &[VICTIM]);
    let (src, start, end) = locate(&scratch, VICTIM);
    let record = std::fs::read(&src).unwrap()[start..end].to_vec();
    let orphan = dir.join("00000007.cblog.ctmp");
    std::fs::write(&orphan, record).unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, "stale .ctmp orphan");
    assert_eq!(b.dropped_debris(), 1);
    assert!(!orphan.exists(), "orphan deleted by exclusive recovery");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch);
}

#[test]
fn flipped_checksum_word_is_dropped_at_startup() {
    let dir = test_dir("bad-checksum");
    // The victim heads the log: every sibling record follows it, so its
    // bad checksum must be stepped over, not treated as a torn tail.
    populate(&dir, &[VICTIM, SIBLINGS[0], SIBLINGS[1], SIBLINGS[2]]);
    let (log, start, end) = locate(&dir, VICTIM);
    assert_eq!(start, 0);
    let mut raw = std::fs::read(&log).unwrap();
    for b in &mut raw[end - CHECKSUM_LEN..end] {
        *b ^= 0xFF;
    }
    std::fs::write(&log, &raw).unwrap();

    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, "flipped checksum word");
    assert_eq!(b.torn_truncations(), 0, "a non-tail record is no torn tail");
    assert_eq!(file_len(&log), raw.len(), "nothing truncated");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_corruption_quarantines_on_read_not_just_at_startup() {
    // The same checksum fault injected while the backend is open: the read
    // surfaces Corrupt exactly once, quarantines the record, and siblings
    // are untouched — also across a restart.
    let dir = test_dir("live-corrupt");
    populate_victim_last(&dir);
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    let (log, start, _) = locate(&dir, VICTIM);
    let mut raw = std::fs::read(&log).unwrap();
    raw[start + HEADER_LEN + 5] ^= 0x40;
    std::fs::write(&log, &raw).unwrap();

    assert_eq!(b.get(VICTIM).unwrap_err(), BackendError::Corrupt);
    assert!(!b.contains(VICTIM), "quarantined after the failed read");
    assert!(
        b.get(VICTIM).unwrap().is_none(),
        "second read is a clean miss"
    );
    for &k in &SIBLINGS {
        assert_eq!(b.get(k).unwrap().unwrap(), payload_of(k));
    }
    drop(b);
    let b = SegmentLogBackend::new(&dir, None).unwrap();
    assert_recovery(&b, "live corruption, reopened");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiered_store_repairs_quarantined_disk_entries_by_reinsert() {
    // Store-level view of the matrix: a corrupt disk-resident KV entry
    // surfaces StoreError::Corrupt, is evicted everywhere, leaves the
    // sibling servable, and a reinsert makes the id cleanly servable again.
    use cacheblend::kv::store::{KvStore, StoreError, TierConfig};
    use cacheblend::kv::ChunkId;
    use cacheblend::model::{Model, ModelConfig, ModelProfile};
    use cacheblend::storage::MemBackend;
    use std::sync::Arc;

    let dir = test_dir("store-level");
    let m = Model::compiled(ModelConfig::standard(ModelProfile::Tiny, 11));
    let v = m.cfg.vocab.clone();
    use cacheblend::tokenizer::TokenKind::*;
    let mk_cache = |i: u32| {
        cacheblend::kv::precompute::precompute_chunk(
            &m,
            &[
                v.id(Entity(i)),
                v.id(Attr(i % 8)),
                v.id(Value(i)),
                v.id(Sep),
            ],
        )
    };
    let victim_cache = mk_cache(1);
    let sibling_cache = mk_cache(2);
    let entry = cacheblend::kv::serialize::encode(&victim_cache).len() as u64;

    let store = KvStore::with_backends(vec![
        (
            TierConfig::new("ram", entry / 2), // nothing fits in RAM: all disk-resident,
            Arc::new(MemBackend::new()) as Arc<dyn StorageBackend>,
        ),
        (
            TierConfig::new("disk", 1 << 20),
            Arc::new(SegmentLogBackend::new(&dir, None).unwrap()),
        ),
    ]);
    store.insert(ChunkId(1), &victim_cache).unwrap();
    store.insert(ChunkId(2), &sibling_cache).unwrap();
    store.flush().unwrap();
    assert_eq!(store.tier_of(ChunkId(1)), Some(1));

    assert!(store.corrupt(ChunkId(1), 40));
    let err = store.get(ChunkId(1)).unwrap_err();
    assert!(matches!(err, StoreError::Corrupt(_)), "got {err}");
    assert!(!store.contains(ChunkId(1)), "quarantined");
    assert_eq!(store.stats().corrupt_evictions, 1);
    assert_eq!(
        store.get(ChunkId(2)).unwrap().unwrap().0,
        sibling_cache,
        "sibling unaffected"
    );
    store.insert(ChunkId(1), &victim_cache).unwrap();
    assert_eq!(
        store.get(ChunkId(1)).unwrap().unwrap().0,
        victim_cache,
        "reinsert repairs the quarantined id"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
