//! kvsim: an LSM-lite key-value store model (the RocksDB stand-in).
//!
//! The paper's YCSB runs matter through how RocksDB turns KV ops into block
//! I/O. kvsim models exactly those paths:
//!
//! * **point reads** consult an LRU block cache; hits cost CPU only
//!   (the "cache-related operations" the paper says dominate YCSB-B/E),
//!   misses read one 4 KiB block;
//! * **updates/inserts** append to the write-ahead log — a small
//!   `REQ_SYNC`-flagged write straight through the storage stack — and fill
//!   the memtable;
//! * a full **memtable flushes** as a burst of bulky sequential SSTable
//!   writes, and every few flushes triggers a larger **compaction** burst —
//!   the bulk traffic an LSM pushes through the same stack.

use std::collections::HashMap;

use blkstack::ReqFlags;
use dd_nvme::IoOpcode;
use simkit::{RunArena, SimDuration};

use crate::app::{AppOp, IoDesc, OpKind, OpStep, Placement};

/// Bytes of one data or WAL block I/O.
pub(crate) const BLOCK_BYTES: u64 = 4096;

/// Bytes of one flush or compaction write.
pub(crate) const FLUSH_WRITE_BYTES: u64 = 128 * 1024;

/// kvsim sizing and behaviour parameters.
#[derive(Clone, Copy, Debug)]
pub struct KvConfig {
    /// Number of keys in the store.
    pub keys: u64,
    /// Block cache capacity in blocks.
    pub cache_blocks: u64,
    /// Updates absorbed by the memtable before a flush.
    pub memtable_entries: u64,
    /// SSTable write burst on flush: number of 128 KiB writes.
    pub flush_writes: u32,
    /// Every `compaction_period` flushes also trigger a compaction burst of
    /// `compaction_writes` 128 KiB writes.
    pub compaction_period: u32,
    /// Compaction burst size.
    pub compaction_writes: u32,
    /// CPU cost of a cache-hit read (memcmp, bloom filters, dentries).
    pub cache_hit_cpu: SimDuration,
    /// CPU cost around every op (keyslice hashing, skiplist walk).
    pub op_cpu: SimDuration,
    /// Blocks read by one scan op.
    pub scan_blocks: u32,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            keys: 1_000_000,
            cache_blocks: 200_000,
            memtable_entries: 2_000,
            flush_writes: 8,
            compaction_period: 4,
            compaction_writes: 32,
            cache_hit_cpu: SimDuration::from_micros(3),
            op_cpu: SimDuration::from_micros(2),
            scan_blocks: 16,
        }
    }
}

/// A bounded LRU set of block ids (the block cache).
#[derive(Debug)]
pub struct LruCache {
    capacity: usize,
    /// block id → recency stamp.
    map: HashMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// Creates a cache holding `capacity` blocks.
    pub fn new(capacity: usize) -> Self {
        Self::with_map(capacity, HashMap::new())
    }

    /// Creates a cache whose recency map is recycled from `arena` under
    /// `tag` (see [`crate::arena_tags`]). Behaviourally identical to
    /// [`LruCache::new`] — a recycled map arrives empty, only warmer.
    pub fn new_in(capacity: usize, arena: &mut RunArena, tag: u32) -> Self {
        Self::with_map(capacity, arena.take(tag))
    }

    fn with_map(capacity: usize, map: HashMap<u64, u64>) -> Self {
        LruCache {
            capacity: capacity.max(1),
            map,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns the recency map to `arena` under `tag` for the next run.
    pub fn park(&mut self, arena: &mut RunArena, tag: u32) {
        arena.put(tag, std::mem::take(&mut self.map));
    }

    /// Looks up a block, updating recency; inserts on miss (evicting the
    /// least recently used block when full). Returns whether it was a hit.
    pub fn access(&mut self, block: u64) -> bool {
        self.clock += 1;
        if let Some(stamp) = self.map.get_mut(&block) {
            *stamp = self.clock;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if self.map.len() >= self.capacity {
            // Evict the LRU entry. Linear scan is fine: eviction cost is
            // amortised by the simulated I/O that caused the miss, and the
            // map iteration order does not affect correctness (unique
            // stamps give a unique minimum).
            if let Some((&victim, _)) = self.map.iter().min_by_key(|(_, &s)| s) {
                self.map.remove(&victim);
            }
        }
        self.map.insert(block, self.clock);
        false
    }

    /// Hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Cached blocks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// The LSM-lite store.
#[derive(Debug)]
pub struct KvStore {
    config: KvConfig,
    cache: LruCache,
    memtable_fill: u64,
    flushes: u64,
    wal_cursor: u64,
    /// Flush/compaction burst awaiting issue by the background path.
    pending_maintenance: Option<Vec<IoDesc>>,
}

impl KvStore {
    /// Creates a store.
    pub fn new(config: KvConfig) -> Self {
        Self::with_cache(config, LruCache::new(config.cache_blocks as usize))
    }

    /// Creates a store whose block-cache map is recycled from `arena`
    /// (tag [`crate::arena_tags::KV_CACHE`]).
    pub fn new_in(config: KvConfig, arena: &mut RunArena) -> Self {
        let cache = LruCache::new_in(
            config.cache_blocks as usize,
            arena,
            crate::arena_tags::KV_CACHE,
        );
        Self::with_cache(config, cache)
    }

    fn with_cache(config: KvConfig, cache: LruCache) -> Self {
        KvStore {
            cache,
            config,
            memtable_fill: 0,
            flushes: 0,
            wal_cursor: 0,
            pending_maintenance: None,
        }
    }

    /// Parks the block-cache map into `arena` for the next run.
    pub fn park_scratch(&mut self, arena: &mut RunArena) {
        self.cache.park(arena, crate::arena_tags::KV_CACHE);
    }

    /// The configuration.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// The data block holding a key (one key per block region, folded).
    fn block_of_key(&self, key: u64) -> u64 {
        // Spread keys over the namespace region deterministically.
        key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.config.keys
    }

    /// Builds a point-read op for `key`.
    pub fn read_op(&mut self, key: u64) -> AppOp {
        let block = self.block_of_key(key);
        let mut steps = vec![OpStep::Compute(self.config.op_cpu)];
        if self.cache.access(block) {
            steps.push(OpStep::Compute(self.config.cache_hit_cpu));
        } else {
            steps.push(OpStep::Io(IoDesc {
                op: IoOpcode::Read,
                bytes: BLOCK_BYTES,
                placement: Placement::Block(block),
                flags: ReqFlags::NONE,
            }));
        }
        AppOp {
            kind: OpKind::Read,
            steps,
        }
    }

    /// Builds an update op for `key`: a synchronous WAL append. A full
    /// memtable queues a flush (and periodically a compaction) burst that
    /// [`KvStore::take_maintenance`] hands to the background path —
    /// RocksDB flushes in background threads, so the burst is *not* part
    /// of the update op's latency.
    pub fn update_op(&mut self, key: u64, kind: OpKind) -> AppOp {
        let _ = self.block_of_key(key); // Key routing is irrelevant for WAL.
        self.wal_cursor += 1;
        let steps = vec![
            OpStep::Compute(self.config.op_cpu),
            OpStep::Io(IoDesc {
                op: IoOpcode::Write,
                bytes: BLOCK_BYTES,
                placement: Placement::Sequential,
                flags: ReqFlags::SYNC,
            }),
        ];
        self.memtable_fill += 1;
        if self.memtable_fill >= self.config.memtable_entries {
            self.memtable_fill = 0;
            self.flushes += 1;
            let mut burst: Vec<IoDesc> = (0..self.config.flush_writes)
                .map(|_| IoDesc {
                    op: IoOpcode::Write,
                    bytes: FLUSH_WRITE_BYTES,
                    placement: Placement::Sequential,
                    flags: ReqFlags::NONE,
                })
                .collect();
            if self
                .flushes
                .is_multiple_of(self.config.compaction_period as u64)
            {
                burst.extend((0..self.config.compaction_writes).map(|_| IoDesc {
                    op: IoOpcode::Write,
                    bytes: FLUSH_WRITE_BYTES,
                    placement: Placement::Sequential,
                    flags: ReqFlags::NONE,
                }));
            }
            self.pending_maintenance = Some(burst);
        }
        AppOp { kind, steps }
    }

    /// Takes the queued flush/compaction burst, if any, as a
    /// [`OpKind::Maintenance`] op (excluded from op-latency statistics).
    pub fn take_maintenance(&mut self) -> Option<AppOp> {
        self.pending_maintenance.take().map(|burst| AppOp {
            kind: OpKind::Maintenance,
            steps: vec![OpStep::IoParallel(burst)],
        })
    }

    /// Builds a scan op starting at `key`.
    pub fn scan_op(&mut self, key: u64) -> AppOp {
        let start = self.block_of_key(key);
        let mut steps = vec![OpStep::Compute(self.config.op_cpu)];
        let mut miss_blocks = Vec::new();
        for i in 0..self.config.scan_blocks as u64 {
            let block = (start + i) % self.config.keys;
            if !self.cache.access(block) {
                miss_blocks.push(block);
            }
        }
        if !miss_blocks.is_empty() {
            steps.push(OpStep::IoParallel(
                miss_blocks
                    .into_iter()
                    .map(|b| IoDesc {
                        op: IoOpcode::Read,
                        bytes: BLOCK_BYTES,
                        placement: Placement::Block(b),
                        flags: ReqFlags::NONE,
                    })
                    .collect(),
            ));
        }
        steps.push(OpStep::Compute(self.config.cache_hit_cpu));
        AppOp {
            kind: OpKind::Scan,
            steps,
        }
    }

    /// Cache hit ratio so far.
    pub fn cache_hit_ratio(&self) -> f64 {
        self.cache.hit_ratio()
    }

    /// Memtable flushes performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_hits_after_insert() {
        let mut c = LruCache::new(2);
        assert!(!c.access(1));
        assert!(c.access(1));
        assert!(!c.access(2));
        assert!(c.access(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = LruCache::new(2);
        c.access(1);
        c.access(2);
        c.access(1); // 2 is now LRU.
        c.access(3); // evicts 2.
        assert!(c.access(1));
        assert!(!c.access(2), "evicted block must miss");
    }

    #[test]
    fn hot_keys_hit_cache() {
        let mut store = KvStore::new(KvConfig {
            keys: 1000,
            cache_blocks: 100,
            ..KvConfig::default()
        });
        // Touch 50 hot keys twice: second round must be all hits.
        for k in 0..50 {
            store.read_op(k);
        }
        let misses_before = store.cache.misses;
        for k in 0..50 {
            store.read_op(k);
        }
        assert_eq!(store.cache.misses, misses_before);
        assert!(store.cache_hit_ratio() >= 0.5);
    }

    #[test]
    fn cold_read_issues_io() {
        let mut store = KvStore::new(KvConfig::default());
        let op = store.read_op(42);
        assert_eq!(op.kind, OpKind::Read);
        assert!(op
            .steps
            .iter()
            .any(|s| matches!(s, OpStep::Io(io) if io.op == IoOpcode::Read)));
    }

    #[test]
    fn update_writes_wal_synchronously() {
        let mut store = KvStore::new(KvConfig::default());
        let op = store.update_op(42, OpKind::Update);
        let wal = op
            .steps
            .iter()
            .find_map(|s| match s {
                OpStep::Io(io) if io.op == IoOpcode::Write => Some(io),
                _ => None,
            })
            .expect("update must write the WAL");
        assert!(wal.flags.sync, "WAL writes are REQ_SYNC");
        assert_eq!(wal.bytes, 4096);
    }

    #[test]
    fn memtable_flush_bursts() {
        let mut store = KvStore::new(KvConfig {
            memtable_entries: 4,
            flush_writes: 3,
            compaction_period: 2,
            compaction_writes: 5,
            ..KvConfig::default()
        });
        let mut bursts = Vec::new();
        for i in 0..8 {
            let op = store.update_op(i, OpKind::Update);
            // Update ops themselves carry only the WAL write.
            assert!(!op.steps.iter().any(|s| matches!(s, OpStep::IoParallel(_))));
            if let Some(m) = store.take_maintenance() {
                assert_eq!(m.kind, OpKind::Maintenance);
                for s in &m.steps {
                    if let OpStep::IoParallel(ios) = s {
                        bursts.push(ios.len());
                    }
                }
            }
        }
        // Two flushes over 8 updates; the second also compacts.
        assert_eq!(bursts, vec![3, 8]);
        assert_eq!(store.flushes(), 2);
        assert!(store.take_maintenance().is_none(), "burst taken only once");
    }

    #[test]
    fn scan_reads_multiple_blocks_when_cold() {
        let mut store = KvStore::new(KvConfig {
            keys: 10_000,
            cache_blocks: 10,
            scan_blocks: 8,
            ..KvConfig::default()
        });
        let op = store.scan_op(123);
        let io_count: usize = op
            .steps
            .iter()
            .map(|s| match s {
                OpStep::IoParallel(v) => v.len(),
                OpStep::Io(_) => 1,
                _ => 0,
            })
            .sum();
        assert!(
            io_count > 4,
            "cold scan must read most blocks, got {io_count}"
        );
    }
}
