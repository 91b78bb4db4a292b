//! In-memory warm-snapshot pool.
//!
//! Grid runs fork many measurement points off a handful of warmed-up
//! machine states. [`SnapshotPool`] is where a grid looks them up:
//! encoded snapshot blobs exactly as [`crate::Machine::snapshot`] writes
//! them, shared as `Arc`s so concurrent restores clone a pointer, not a
//! buffer. The on-disk snapshot directory (`--checkpoint-dir`) is a
//! write-through tier behind it that makes states durable across
//! processes: `mi6-bench` writes each new warm state to both, and a state
//! found only on disk is read and published into the pool, so later
//! restores skip the file.
//!
//! Size. A blob is in the current `mi6_snapshot::FORMAT_VERSION` layout,
//! which stores only the non-zero words of each page and one byte per
//! never-filled LLC line, so a pooled warm state costs roughly its
//! non-zero content rather than every resident page in full. A blob read
//! back from a checkpoint directory is pooled as read; one written by an
//! older build keeps its older (larger) layout, which restores still
//! decode.
//!
//! Keying. A snapshot is only restorable into a machine whose
//! configuration fingerprint matches: the *strict* fingerprint for exact
//! restores, the *structural* fingerprint for cross-variant
//! `restore_forked` (see `Machine::restore_forked` for why the split
//! exists). [`PoolKey`] therefore pairs the relevant fingerprint with a
//! caller-composed warm-up identity tag (workload, run options, and warm
//! point — `mi6-bench` uses the warm snapshot file stem so the pool and
//! the disk cache name states identically).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one warmed-up machine state.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PoolKey {
    /// Configuration fingerprint the snapshot restores into: the strict
    /// fingerprint ([`crate::Machine::strict_fingerprint`]) for exact
    /// restores, the structural fingerprint for cross-variant forks.
    pub config: u64,
    /// Warm-up identity: workload, run options, and warm point, as
    /// composed by the caller.
    pub tag: String,
}

/// A thread-safe in-memory cache of warm snapshot blobs.
///
/// Hit/miss counters are monotonic over the pool's lifetime; they exist
/// so benchmarks can report pool effectiveness.
#[derive(Debug, Default)]
pub struct SnapshotPool {
    blobs: Mutex<HashMap<PoolKey, Arc<Vec<u8>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl SnapshotPool {
    /// An empty pool.
    pub fn new() -> SnapshotPool {
        SnapshotPool::default()
    }

    /// Looks up a snapshot, counting a hit or miss.
    pub fn get(&self, key: &PoolKey) -> Option<Arc<Vec<u8>>> {
        let found = self.blobs.lock().unwrap().get(key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a snapshot blob, returning the shared handle. A re-insert
    /// under an existing key keeps the original blob (warm-ups are
    /// deterministic, so both byte-identical copies are equally valid —
    /// keeping the first lets concurrent producers race harmlessly).
    pub fn insert(&self, key: PoolKey, snapshot: Vec<u8>) -> Arc<Vec<u8>> {
        self.blobs
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| Arc::new(snapshot))
            .clone()
    }

    /// Whether any entry carries this warm-up tag (used by warm phases to
    /// skip re-simulating a warm-up the pool already holds, before the
    /// target machine — and thus its fingerprint — exists).
    pub fn contains_tag(&self, tag: &str) -> bool {
        self.blobs.lock().unwrap().keys().any(|k| k.tag == tag)
    }

    /// Number of pooled snapshots.
    pub fn len(&self) -> usize {
        self.blobs.lock().unwrap().len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.lock().unwrap().is_empty()
    }

    /// Total bytes held (sum of blob lengths).
    pub fn bytes(&self) -> usize {
        self.blobs.lock().unwrap().values().map(|b| b.len()).sum()
    }

    /// Lifetime (hits, misses) of [`SnapshotPool::get`].
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(config: u64, tag: &str) -> PoolKey {
        PoolKey {
            config,
            tag: tag.to_string(),
        }
    }

    #[test]
    fn get_insert_and_counters() {
        let pool = SnapshotPool::new();
        assert!(pool.get(&key(1, "a")).is_none());
        let blob = pool.insert(key(1, "a"), vec![1, 2, 3]);
        assert_eq!(*blob, vec![1, 2, 3]);
        assert_eq!(*pool.get(&key(1, "a")).unwrap(), vec![1, 2, 3]);
        assert!(
            pool.get(&key(2, "a")).is_none(),
            "fingerprint is part of the key"
        );
        assert_eq!(pool.stats(), (1, 2));
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.bytes(), 3);
    }

    #[test]
    fn reinsert_keeps_the_first_blob() {
        let pool = SnapshotPool::new();
        pool.insert(key(1, "a"), vec![1]);
        let kept = pool.insert(key(1, "a"), vec![2]);
        assert_eq!(*kept, vec![1]);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn tag_membership_ignores_fingerprint() {
        let pool = SnapshotPool::new();
        pool.insert(key(7, "warm-BASE-gcc"), vec![0]);
        assert!(pool.contains_tag("warm-BASE-gcc"));
        assert!(!pool.contains_tag("warm-BASE-mcf"));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let pool = Arc::new(SnapshotPool::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..100u64 {
                        pool.insert(key(i % 8, "t"), vec![t; 16]);
                        pool.get(&key(i % 8, "t"));
                    }
                });
            }
        });
        assert_eq!(pool.len(), 8);
    }
}
