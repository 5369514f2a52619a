//! The disk tier's contract, as the tiered store relies on it.
//!
//! Every persistent tier is a [`SegmentLogBackend`], so these tests drive
//! one through the [`StorageBackend`] trait and judge it from outside:
//! what a caller reads back, and which `.cblog`/`.ctmp` files the
//! directory holds afterwards. The log's own mechanics (rotation,
//! compaction, the startup scan rules) are tested in `segment_log`.

mod tests {
    use crate::backend::{BackendError, StorageBackend};
    use crate::segment_log::{SegmentLogBackend, KIND_PUT, REC_FRAME, REC_HEADER};
    use bytes::Bytes;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn test_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "cb-disk-{}-{}-{}",
            std::process::id(),
            tag,
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    /// The directory's log files, in name order.
    fn logs_in(dir: &Path) -> Vec<PathBuf> {
        let mut logs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "cblog"))
            .collect();
        logs.sort();
        logs
    }

    /// The single log file an unrotated handle wrote into `dir`.
    fn only_log(dir: &Path) -> PathBuf {
        let logs = logs_in(dir);
        assert_eq!(logs.len(), 1, "expected one log file, found {logs:?}");
        logs.into_iter().next().unwrap()
    }

    /// True if any log in `dir` holds a put record for `key`.
    fn put_record_on_disk(dir: &Path, key: u64) -> bool {
        logs_in(dir).iter().any(|log| {
            let raw = fs::read(log).unwrap();
            let mut off = 0;
            let mut found = false;
            while off + REC_FRAME <= raw.len() {
                let kind = raw[off + 4];
                let rec_key = u64::from_le_bytes(raw[off + 8..off + 16].try_into().unwrap());
                let plen = u64::from_le_bytes(raw[off + 16..off + 24].try_into().unwrap());
                found |= kind == KIND_PUT && rec_key == key;
                off += REC_FRAME + plen as usize;
            }
            found
        })
    }

    #[test]
    fn put_get_roundtrips_through_pending_and_disk() {
        let dir = test_dir("roundtrip");
        let b: Box<dyn StorageBackend> = Box::new(SegmentLogBackend::new(&dir, None).unwrap());
        let payload = Bytes::from((0u8..200).collect::<Vec<_>>());
        b.put(42, payload.clone()).unwrap();
        // Readable immediately (pending), and after the flush.
        assert_eq!(b.get(42).unwrap().unwrap(), payload);
        b.flush().unwrap();
        assert!(put_record_on_disk(&dir, 42), "the flush reached the disk");
        assert_eq!(b.get(42).unwrap().unwrap(), payload);
        assert_eq!(b.used_bytes(), 200);
        assert!(b.contains(42));
        assert!(b.remove(42));
        assert!(b.get(42).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = test_dir("reopen");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            b.put(1, Bytes::from(vec![9u8; 64])).unwrap();
            b.put(2, Bytes::from(vec![7u8; 32])).unwrap();
            // Dropping the backend drains the write-behind queue.
        }
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.recovered_records(), 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b.used_bytes(), 96);
        assert_eq!(b.get(1).unwrap().unwrap().as_ref(), &[9u8; 64][..]);
        assert_eq!(b.get(2).unwrap().unwrap().as_ref(), &[7u8; 32][..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_drops_tmp_orphans_and_torn_segments() {
        let dir = test_dir("recovery");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            b.put(1, Bytes::from(vec![1u8; 40])).unwrap();
            b.put(2, Bytes::from(vec![2u8; 40])).unwrap();
        }
        // Simulate a crash: the last record torn short, and a compaction
        // output orphaned mid-write.
        let log = only_log(&dir);
        let raw = fs::read(&log).unwrap();
        fs::write(&log, &raw[..raw.len() - 7]).unwrap();
        let orphan = dir.join("000000ff.cblog.ctmp");
        fs::write(&orphan, b"partial").unwrap();

        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.recovered_records(), 1, "only the intact record");
        assert_eq!(b.torn_truncations(), 1, "the torn record");
        assert_eq!(b.dropped_debris(), 1, "the .ctmp orphan");
        assert!(b.contains(1));
        assert!(!b.contains(2));
        assert!(!orphan.exists());
        assert_eq!(
            fs::metadata(&log).unwrap().len(),
            (40 + REC_FRAME) as u64,
            "the torn bytes are cut off the log"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_segment_read_errors_and_is_dropped() {
        let dir = test_dir("corrupt");
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        b.put(5, Bytes::from(vec![3u8; 100])).unwrap();
        b.flush().unwrap();
        // Flip a payload byte on disk.
        let log = only_log(&dir);
        let mut raw = fs::read(&log).unwrap();
        raw[REC_HEADER + 10] ^= 0xFF;
        fs::write(&log, &raw).unwrap();
        assert_eq!(b.get(5).unwrap_err(), BackendError::Corrupt);
        assert!(!b.contains(5), "corrupt record evicted");
        assert_eq!(b.used_bytes(), 0);
        assert!(b.get(5).unwrap().is_none(), "later reads are clean misses");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stream_reads_payload_in_order() {
        let dir = test_dir("stream");
        let b: Box<dyn StorageBackend> = Box::new(SegmentLogBackend::new(&dir, None).unwrap());
        let payload: Vec<u8> = (0u8..=99).collect();
        b.put(7, Bytes::from(payload.clone())).unwrap();
        b.flush().unwrap();
        let mut s = b.open_read(7).unwrap().unwrap();
        assert_eq!(s.payload_len(), 100);
        let mut got = Vec::new();
        loop {
            let chunk = s.read_next(32).unwrap();
            if chunk.is_empty() {
                break;
            }
            got.extend_from_slice(&chunk);
        }
        assert_eq!(got, payload);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overwrite_replaces_and_reaccounts() {
        let dir = test_dir("overwrite");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            b.put(9, Bytes::from(vec![1u8; 100])).unwrap();
            b.put(9, Bytes::from(vec![2u8; 50])).unwrap();
            b.flush().unwrap();
            assert_eq!(b.used_bytes(), 50);
            assert_eq!(b.get(9).unwrap().unwrap().as_ref(), &[2u8; 50][..]);
            assert_eq!(b.len(), 1);
        }
        // The replay accounts only the newer generation.
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(b.used_bytes(), 50);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(9).unwrap().unwrap().as_ref(), &[2u8; 50][..]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_handles_discover_each_others_segments() {
        let dir = test_dir("shared-discover");
        let a = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let b = SegmentLogBackend::open_shared(&dir, None).unwrap();
        let payload = Bytes::from(vec![5u8; 80]);
        a.put(77, payload.clone()).unwrap();
        a.flush().unwrap();
        assert!(!b.contains(77), "b has not indexed a's record yet");
        assert_eq!(b.discover(77), Some(80));
        assert!(b.contains(77));
        assert_eq!(b.used_bytes(), 80);
        assert_eq!(b.get(77).unwrap().unwrap(), payload);
        // A sibling's removal hides the record from every handle that has
        // not claimed it: the tombstone is replayed at startup and seen
        // by incremental discovery alike.
        assert!(a.remove(77));
        a.flush().unwrap();
        let late = SegmentLogBackend::open_shared(&dir, None).unwrap();
        assert!(!late.contains(77), "tombstone replayed at startup");
        assert_eq!(late.discover(77), None, "removed record is undiscoverable");
        let c = SegmentLogBackend::open_shared(&dir, None).unwrap();
        a.put(78, payload.clone()).unwrap();
        a.flush().unwrap();
        assert!(a.remove(78));
        a.flush().unwrap();
        assert_eq!(c.discover(78), None, "put then tombstone, found by rescan");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn exclusive_handle_never_discovers_foreign_segments() {
        let dir = test_dir("excl-discover");
        {
            let writer = SegmentLogBackend::new(&dir, None).unwrap();
            writer.put(4, Bytes::from(vec![1u8; 32])).unwrap();
        }
        let later = SegmentLogBackend::new(&dir, None).unwrap();
        assert_eq!(later.discover(4), Some(32), "indexed at startup");
        // Append a fresh record behind the exclusive handle's back.
        {
            let sneaky = SegmentLogBackend::open_shared(&dir, None).unwrap();
            sneaky.put(5, Bytes::from(vec![2u8; 16])).unwrap();
        }
        assert!(put_record_on_disk(&dir, 5));
        assert_eq!(
            later.discover(5),
            None,
            "exclusive handles trust only their own index"
        );
        assert!(!later.contains(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn remove_during_pending_write_does_not_resurrect() {
        let dir = test_dir("race");
        {
            let b = SegmentLogBackend::new(&dir, None).unwrap();
            b.put(3, Bytes::from(vec![4u8; 64])).unwrap();
            assert!(b.remove(3));
            b.flush().unwrap();
            assert!(!b.contains(3));
            assert!(b.get(3).unwrap().is_none(), "flusher must not resurrect");
        }
        let b = SegmentLogBackend::new(&dir, None).unwrap();
        assert!(!b.contains(3), "nor may the replay");
        assert_eq!(b.len(), 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
